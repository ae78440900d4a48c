//! The replica node's serving loop.

use prins_block::BlockDevice;
use prins_net::{SimNet, SimTransport, Transport};

use crate::{encode_response, ReplError, ReplicaApplier};

/// Runs a replica node: applies every incoming payload to `device` and
/// acknowledges it, until the peer disconnects.
///
/// Sync markers are acknowledged but not counted. Returns the number of
/// write payloads applied.
///
/// # Errors
///
/// Local device failures NAK the offending payload and abort with the
/// error; transport disconnect is a clean return.
pub fn run_replica<D, T>(device: &D, transport: &T) -> Result<u64, ReplError>
where
    D: BlockDevice + ?Sized,
    T: Transport,
{
    run_replica_applier(ReplicaApplier::new(device), transport)
}

/// [`run_replica`] with a caller-built applier — the hook for replicas
/// that need a non-default configuration, e.g. a Reed–Solomon
/// [`ErasureCodec`](prins_parity::ErasureCodec) for parity strips of an
/// erasure-coded group, or strict [`require_sealed`] mode.
///
/// # Errors
///
/// As [`run_replica`].
///
/// [`require_sealed`]: ReplicaApplier::require_sealed
pub fn run_replica_applier<D, T>(
    mut applier: ReplicaApplier<D>,
    transport: &T,
) -> Result<u64, ReplError>
where
    D: BlockDevice,
    T: Transport,
{
    loop {
        let frame = match transport.recv() {
            Ok(frame) => frame,
            Err(prins_net::NetError::Disconnected) => return Ok(applier.applied()),
            Err(e) => return Err(e.into()),
        };
        let outcome = applier.handle(&frame);
        transport.send(&encode_response(&outcome, applier.last_epoch()))?;
        match outcome {
            // A damaged frame was NAK_CORRUPTed for a retransmit and
            // nothing was applied: stay up.
            Ok(_) | Err(ReplError::ChecksumMismatch { .. }) => {}
            Err(e) => return Err(e),
        }
    }
}

/// [`run_replica_applier`] on a simulated link: installs the replica
/// actor on `endpoint`, so every frame [`SimNet`] delivers goes through
/// `applier` and is answered with [`encode_response`]. The applier
/// lives across deliveries — it keeps its last-seen epoch and per-LBA
/// checksum table, or every answer would regress to epoch 0 and
/// verify-on-apply would never see a stale base. Strict mode: a bit
/// flip on the seal tag itself must not let a damaged frame bypass
/// verification.
pub fn serve_simulated<D>(net: &SimNet, endpoint: SimTransport, applier: ReplicaApplier<D>)
where
    D: BlockDevice + Send + 'static,
{
    let mut applier = applier.require_sealed(true);
    let tr = endpoint.clone();
    net.set_actor(
        &endpoint,
        Box::new(move || {
            while let Ok(Some(frame)) = tr.try_recv() {
                let outcome = applier.handle(&frame);
                let _ = tr.send(&encode_response(&outcome, applier.last_epoch()));
            }
        }),
    );
}

/// Compares two devices block by block.
///
/// # Errors
///
/// Propagates read failures from either device.
pub fn verify_consistent<A, B>(a: &A, b: &B) -> Result<bool, ReplError>
where
    A: BlockDevice + ?Sized,
    B: BlockDevice + ?Sized,
{
    if a.geometry() != b.geometry() {
        return Ok(false);
    }
    for lba in a.geometry().range().iter() {
        if a.read_block_vec(lba)? != b.read_block_vec(lba)? {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prins_block::{BlockSize, Lba, MemDevice};

    #[test]
    fn verify_consistent_detects_divergence() {
        let a = MemDevice::new(BlockSize::kb4(), 4);
        let b = MemDevice::new(BlockSize::kb4(), 4);
        assert!(verify_consistent(&a, &b).unwrap());
        a.write_block(Lba(2), &vec![1u8; 4096]).unwrap();
        assert!(!verify_consistent(&a, &b).unwrap());
        let c = MemDevice::new(BlockSize::kb4(), 8);
        assert!(!verify_consistent(&a, &c).unwrap());
    }
}
