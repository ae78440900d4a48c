//! The replica node's serving loop.

use prins_block::BlockDevice;
use prins_net::{SimNet, SimTransport, Transport};

use crate::{encode_response, ReplError, ReplicaApplier};

/// Runs a replica node: handles every incoming sealed frame against
/// `device` and answers it, until the peer disconnects. Returns the
/// number of write payloads applied.
///
/// A frame that fails its seal check — or is not sealed at all — is
/// answered `NAK_CORRUPT` and changes nothing, so the sender can
/// retransmit.
///
/// # Errors
///
/// Local device failures NAK the offending frame and abort with the
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
/// erasure-coded group.
///
/// # Errors
///
/// As [`run_replica`].
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
/// verify-on-apply would never see a stale base.
pub fn serve_simulated<D>(net: &SimNet, endpoint: SimTransport, mut applier: ReplicaApplier<D>)
where
    D: BlockDevice + Send + 'static,
{
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
    use crate::{
        encode_ack, seal_frame, PrinsReplicator, Replicator, TraditionalReplicator, ACK,
        NAK_CORRUPT,
    };
    use prins_block::{BlockSize, Lba, MemDevice};
    use prins_net::{channel_pair, LinkModel};
    use std::sync::Arc;
    use std::time::Duration;

    /// Serves `device` over an in-process link on its own thread and
    /// returns the primary's end plus the serving thread.
    fn serve(
        device: &Arc<MemDevice>,
    ) -> (
        impl Transport,
        std::thread::JoinHandle<Result<u64, ReplError>>,
    ) {
        let (primary, replica) = channel_pair(LinkModel::t1());
        let dev = Arc::clone(device);
        let worker = std::thread::spawn(move || run_replica(&*dev, &replica));
        (primary, worker)
    }

    fn answer(primary: &impl Transport, frame: &[u8]) -> Vec<u8> {
        primary.send(frame).unwrap();
        primary.recv_timeout(Duration::from_secs(5)).unwrap()
    }

    /// A bit flip on the seal tag turns a parity frame into a frame that
    /// does not open: it is answered NAK_CORRUPT at the last good epoch,
    /// changes nothing, and the intact retransmit applies.
    #[test]
    fn flipped_seal_tag_is_answered_nak_corrupt() {
        let device = Arc::new(MemDevice::new(BlockSize::kb4(), 4));
        let (primary, worker) = serve(&device);
        let parity = |lba: u64, old: &[u8], new: &[u8]| {
            PrinsReplicator::new().encode_write(Lba(lba), old, new)
        };
        let zero = vec![0u8; 4096];
        let mut a = zero.clone();
        a[10..20].fill(1);
        let good = seal_frame(1, &parity(0, &zero, &a));
        assert_eq!(answer(&primary, &good), encode_ack(ACK, 1));

        let mut b = zero.clone();
        b[30..40].fill(2);
        let intact = seal_frame(1, &parity(1, &zero, &b));
        let mut flipped = intact.clone();
        flipped[0] ^= 0b10;
        assert_eq!(answer(&primary, &flipped), encode_ack(NAK_CORRUPT, 1));
        assert_eq!(device.read_block_vec(Lba(1)).unwrap(), zero);

        assert_eq!(answer(&primary, &intact), encode_ack(ACK, 1));
        assert_eq!(device.read_block_vec(Lba(1)).unwrap(), b);
        drop(primary);
        assert_eq!(worker.join().unwrap().unwrap(), 2);
    }

    /// An unsealed payload is not applied: the replica answers
    /// NAK_CORRUPT and stays up.
    #[test]
    fn unsealed_payload_is_answered_nak_corrupt() {
        let device = Arc::new(MemDevice::new(BlockSize::kb4(), 4));
        let (primary, worker) = serve(&device);
        let bare = TraditionalReplicator.encode_write(Lba(2), &[0u8; 4096], &[9u8; 4096]);
        assert_eq!(answer(&primary, &bare), encode_ack(NAK_CORRUPT, 0));
        assert_eq!(device.read_block_vec(Lba(2)).unwrap(), vec![0u8; 4096]);
        drop(primary);
        assert_eq!(worker.join().unwrap().unwrap(), 0);
    }

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
