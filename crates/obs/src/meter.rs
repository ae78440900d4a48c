//! Adapter surfacing [`TrafficMeter`]s in a [`Registry`].
//!
//! `prins-net` cannot depend on `prins-obs` (the dependency points the
//! other way), so the bridge lives here: a snapshot-time collector copies the meter's counters into
//! prefixed gauges.

use std::sync::Arc;

use prins_net::TrafficMeter;

use crate::registry::Registry;

/// Registers a collector that publishes `meter`'s counters as gauges
/// named `<prefix>_messages_sent`, `<prefix>_payload_bytes_sent`,
/// `<prefix>_wire_bytes_sent`, and so on, refreshed at every
/// [`Registry::snapshot`].
pub fn register_meter(registry: &Registry, prefix: &str, meter: Arc<TrafficMeter>) {
    let prefix = prefix.to_string();
    registry.add_collector(Box::new(move |reg| {
        let snap = meter.snapshot();
        for (suffix, value) in [
            ("messages_sent", snap.messages_sent),
            ("messages_received", snap.messages_received),
            ("payload_bytes_sent", snap.payload_bytes_sent),
            ("payload_bytes_received", snap.payload_bytes_received),
            ("wire_bytes_sent", snap.wire_bytes_sent),
            ("packets_sent", snap.packets_sent),
        ] {
            reg.gauge(&format!("{prefix}_{suffix}")).set(value);
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use prins_net::LinkModel;

    #[test]
    fn meter_counters_surface_as_prefixed_gauges() {
        let reg = Registry::new();
        let meter = TrafficMeter::shared(LinkModel::t1());
        register_meter(&reg, "net_r0", Arc::clone(&meter));
        meter.record_send(8192);
        meter.record_recv(16);
        let snap = reg.snapshot();
        assert_eq!(snap.gauges["net_r0_messages_sent"], 1);
        assert_eq!(snap.gauges["net_r0_payload_bytes_sent"], 8192);
        assert_eq!(snap.gauges["net_r0_payload_bytes_received"], 16);
        assert!(snap.gauges["net_r0_wire_bytes_sent"] > 8192);
        // Refreshes on the next snapshot.
        meter.record_send(100);
        assert_eq!(reg.snapshot().gauges["net_r0_messages_sent"], 2);
    }
}
