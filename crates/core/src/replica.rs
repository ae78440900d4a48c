//! End-to-end tests of the engine against replicas running the stock
//! serving loop, [`run_replica`](prins_repl::run_replica), on a thread
//! each — "the replica storage nodes also run the PRINS-engine that
//! receives parity, computes data back, and stores the data block
//! in-place".

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::thread::JoinHandle;

    use crate::EngineBuilder;
    use prins_block::{BlockDevice, BlockSize, Lba, MemDevice};
    use prins_net::{channel_pair, LinkModel, Transport};
    use prins_repl::{run_replica, verify_consistent, AckPolicy, ReplError, ReplicationMode};
    use rand::{RngExt, SeedableRng};

    fn spawn_replica(
        device: &Arc<MemDevice>,
        transport: impl Transport + 'static,
    ) -> JoinHandle<Result<u64, ReplError>> {
        let device = Arc::clone(device);
        std::thread::spawn(move || run_replica(&*device, &transport))
    }

    fn end_to_end(mode: ReplicationMode) {
        let (to_replica, at_replica) = channel_pair(LinkModel::t1());
        let replica_dev = Arc::new(MemDevice::new(BlockSize::kb4(), 32));
        let replica = spawn_replica(&replica_dev, at_replica);

        let primary_dev = Arc::new(MemDevice::new(BlockSize::kb4(), 32));
        let engine = EngineBuilder::new(Arc::clone(&primary_dev) as Arc<dyn BlockDevice>)
            .mode(mode)
            .replica(Box::new(to_replica))
            .build();

        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for _ in 0..120 {
            let lba = Lba(rng.random_range(0..32));
            let mut block = engine.read_block_vec(lba).unwrap();
            let at = rng.random_range(0..4000);
            for b in &mut block[at..at + 32] {
                *b = rng.random();
            }
            engine.write_block(lba, &block).unwrap();
        }
        engine.flush().unwrap();
        let stats = engine.stats();
        assert_eq!(stats.writes, 120);
        assert_eq!(stats.writes_replicated, 120);
        assert_eq!(stats.replication_errors, 0);
        engine.shutdown().unwrap();

        assert_eq!(replica.join().unwrap().unwrap(), 120);
        assert!(
            verify_consistent(&*primary_dev, &*replica_dev).unwrap(),
            "{mode}"
        );
    }

    #[test]
    fn prins_end_to_end_converges() {
        end_to_end(ReplicationMode::Prins);
    }

    #[test]
    fn traditional_end_to_end_converges() {
        end_to_end(ReplicationMode::Traditional);
    }

    #[test]
    fn compressed_end_to_end_converges() {
        end_to_end(ReplicationMode::Compressed);
    }

    #[test]
    fn prins_compressed_end_to_end_converges() {
        end_to_end(ReplicationMode::PrinsCompressed);
    }

    #[test]
    fn two_replicas_both_converge() {
        let (to_r1, at_r1) = channel_pair(LinkModel::t1());
        let (to_r2, at_r2) = channel_pair(LinkModel::t3());
        let d1 = Arc::new(MemDevice::new(BlockSize::kb4(), 8));
        let d2 = Arc::new(MemDevice::new(BlockSize::kb4(), 8));
        let r1 = spawn_replica(&d1, at_r1);
        let r2 = spawn_replica(&d2, at_r2);

        let primary = Arc::new(MemDevice::new(BlockSize::kb4(), 8));
        let engine = EngineBuilder::new(Arc::clone(&primary) as Arc<dyn BlockDevice>)
            .replica(Box::new(to_r1))
            .replica(Box::new(to_r2))
            .build();

        for i in 0..8u64 {
            engine
                .write_block(Lba(i), &vec![i as u8 + 1; 4096])
                .unwrap();
        }
        engine.shutdown().unwrap();
        r1.join().unwrap().unwrap();
        r2.join().unwrap().unwrap();
        assert!(verify_consistent(&*primary, &*d1).unwrap());
        assert!(verify_consistent(&*primary, &*d2).unwrap());
    }

    #[test]
    fn initial_sync_bootstraps_nonempty_primary() {
        // Per-write and windowed acks: the sync must converge two
        // replicas either way, and the sync frames are not counted as
        // replicated writes.
        for policy in [AckPolicy::PerWrite, AckPolicy::Window(16)] {
            let replica_devs: Vec<_> = (0..2)
                .map(|_| Arc::new(MemDevice::new(BlockSize::kb4(), 32)))
                .collect();
            let primary_dev = Arc::new(MemDevice::new(BlockSize::kb4(), 32));
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            for i in 0..32u64 {
                let mut block = vec![0u8; 4096];
                rng.fill_bytes(&mut block);
                primary_dev.write_block(Lba(i), &block).unwrap();
            }
            let mut builder = EngineBuilder::new(Arc::clone(&primary_dev) as Arc<dyn BlockDevice>)
                .ack_policy(policy);
            let mut replicas = Vec::new();
            for dev in &replica_devs {
                let (to_replica, at_replica) = channel_pair(LinkModel::t1());
                replicas.push(spawn_replica(dev, at_replica));
                builder = builder.replica(Box::new(to_replica));
            }
            let engine = builder.build_with_initial_sync().unwrap();
            assert_eq!(engine.stats().writes_replicated, 0, "{policy:?}");
            engine.shutdown().unwrap();
            for (replica, dev) in replicas.into_iter().zip(&replica_devs) {
                assert_eq!(replica.join().unwrap().unwrap(), 32, "{policy:?}");
                assert!(verify_consistent(&*primary_dev, &**dev).unwrap());
            }
        }
    }

    #[test]
    fn replication_failure_surfaces_at_flush() {
        let (to_replica, at_replica) = channel_pair(LinkModel::t1());
        // Replica device too small: writes past block 0 NAK.
        let replica_dev = Arc::new(MemDevice::new(BlockSize::kb4(), 1));
        let _replica = spawn_replica(&replica_dev, at_replica);
        let primary_dev = Arc::new(MemDevice::new(BlockSize::kb4(), 8));
        let engine = EngineBuilder::new(Arc::clone(&primary_dev) as Arc<dyn BlockDevice>)
            .mode(ReplicationMode::Traditional)
            .replica(Box::new(to_replica))
            .build();

        engine.write_block(Lba(5), &vec![1u8; 4096]).unwrap();
        let err = engine.flush().unwrap_err();
        assert!(err.to_string().contains("replication failed"), "{err}");
        assert_eq!(engine.stats().replication_errors, 1);
    }

    #[test]
    fn windowed_ack_engine_converges_and_counts_correctly() {
        let (to_replica, at_replica) = channel_pair(LinkModel::t1());
        let replica_dev = Arc::new(MemDevice::new(BlockSize::kb4(), 32));
        let replica = spawn_replica(&replica_dev, at_replica);
        let primary_dev = Arc::new(MemDevice::new(BlockSize::kb4(), 32));
        let engine = EngineBuilder::new(Arc::clone(&primary_dev) as Arc<dyn BlockDevice>)
            .ack_policy(AckPolicy::Window(16))
            .replica(Box::new(to_replica))
            .build();
        for i in 0..64u64 {
            engine
                .write_block(Lba(i % 32), &vec![(i + 1) as u8; 4096])
                .unwrap();
        }
        engine.flush().unwrap();
        // The barrier drained the window: every write is acked.
        assert_eq!(engine.stats().writes_replicated, 64);
        engine.shutdown().unwrap();
        assert_eq!(replica.join().unwrap().unwrap(), 64);
        assert!(verify_consistent(&*primary_dev, &*replica_dev).unwrap());
    }

    #[test]
    fn concurrent_writers_to_overlapping_blocks_stay_consistent() {
        // Four threads hammer the same 8 LBAs; the per-LBA stripe locks
        // must keep each parity consistent with its predecessor image,
        // or the replica's XOR chain diverges.
        let (to_replica, at_replica) = channel_pair(LinkModel::t1());
        let replica_dev = Arc::new(MemDevice::new(BlockSize::kb4(), 8));
        let replica = spawn_replica(&replica_dev, at_replica);
        let primary_dev = Arc::new(MemDevice::new(BlockSize::kb4(), 8));
        let engine = Arc::new(
            EngineBuilder::new(Arc::clone(&primary_dev) as Arc<dyn BlockDevice>)
                .replica(Box::new(to_replica))
                .build(),
        );
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let engine = Arc::clone(&engine);
            handles.push(std::thread::spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(t);
                for i in 0..100u64 {
                    let lba = Lba((t + i) % 8);
                    let mut block = vec![0u8; 4096];
                    rng.fill_bytes(&mut block);
                    engine.write_block(lba, &block).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        engine.flush().unwrap();
        assert_eq!(engine.stats().writes, 400);
        assert_eq!(engine.stats().replication_errors, 0);
        Arc::try_unwrap(engine)
            .map_err(|_| "engine still shared")
            .unwrap()
            .shutdown()
            .unwrap();
        replica.join().unwrap().unwrap();
        assert!(verify_consistent(&*primary_dev, &*replica_dev).unwrap());
    }

    #[test]
    fn local_only_engine_accounts_overhead() {
        let device = Arc::new(MemDevice::new(BlockSize::kb8(), 16));
        let engine = EngineBuilder::new(device as Arc<dyn BlockDevice>).build();
        for i in 0..16u64 {
            engine.write_block(Lba(i), &vec![i as u8; 8192]).unwrap();
        }
        engine.flush().unwrap();
        let stats = engine.stats();
        assert_eq!(stats.writes, 16);
        assert!(stats.local_write_nanos > 0);
        assert!(stats.overhead_nanos > 0);
        engine.shutdown().unwrap();
    }
}
