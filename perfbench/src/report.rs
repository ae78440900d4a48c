//! Latency samples, the run's outcome, and its printed form.

/// Latencies of one kind of client call, in nanoseconds.
#[derive(Default)]
pub struct Lat {
    samples: Vec<u32>,
}

impl Lat {
    pub fn with_capacity(n: usize) -> Self {
        Self {
            samples: Vec::with_capacity(n),
        }
    }

    pub fn push(&mut self, ns: u64) {
        self.samples.push(ns.min(u64::from(u32::MAX)) as u32);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The `q` quantile (0 < q ≤ 1) of all samples in microseconds,
    /// nearest rank.
    pub fn pooled_us(&self, q: f64) -> f64 {
        quantile_us(&self.samples, q)
    }

    /// The gated form of the `q` quantile: the samples, in call order,
    /// are cut into up to [`GROUPS`] consecutive groups that each keep
    /// at least ten samples beyond the quantile, and the median of the
    /// groups' quantiles is reported.
    pub fn quantile_us(&self, q: f64) -> f64 {
        let n = self.samples.len();
        let groups = ((n as f64 * (1.0 - q) / 10.0) as usize).clamp(1, GROUPS);
        let per_group: Vec<f64> = (0..groups)
            .map(|g| quantile_us(&self.samples[n * g / groups..n * (g + 1) / groups], q))
            .collect();
        median(&per_group)
    }

    /// One line: sample count, pooled median, p90 and p99, the highest
    /// percentile with at least ten samples beyond it, and the gated
    /// median and p90.
    pub fn describe(&self, name: &str) -> String {
        let n = self.samples.len();
        let top = if n >= 20 {
            let q = 1.0 - 10.0 / n as f64;
            format!("p{:.3}={:.2}us", q * 100.0, self.pooled_us(q))
        } else {
            "no percentile has 10 samples beyond it".to_string()
        };
        format!(
            "{name}: n={n} p50={:.2}us p90={:.2}us p99={:.2}us {top} (gated: p50={:.2}us p90={:.2}us)",
            self.pooled_us(0.5),
            self.pooled_us(0.9),
            self.pooled_us(0.99),
            self.quantile_us(0.5),
            self.quantile_us(0.9)
        )
    }
}

/// Most groups a gated quantile or rate is the median of: a host stall
/// shorter than half the timed window then leaves the result alone.
pub const GROUPS: usize = 40;

fn quantile_us(samples: &[u32], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    f64::from(sorted[rank - 1]) / 1000.0
}

/// What one invocation prints.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// The result line. A run whose outputs diverged reports no numbers.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = if self.correct {
            self.metrics
                .iter()
                .map(|(name, value, unit)| {
                    let value = if value.is_finite() { *value } else { 0.0 };
                    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
                })
                .collect()
        } else {
            Vec::new()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `values` (the mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}
