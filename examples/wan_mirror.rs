//! The paper's full architecture over real sockets: an application
//! talks iSCSI to a storage node whose volume is a PRINS engine, which
//! mirrors every write — as encoded parity — over a second TCP
//! connection to a replica node.
//!
//! ```text
//!  app (iSCSI initiator) ──TCP──▶ target[PrinsEngine] ──TCP──▶ replica
//! ```
//!
//! ```sh
//! cargo run --example wan_mirror
//! ```

use std::net::TcpListener;
use std::sync::Arc;

use prins_block::{BlockDevice, BlockSize, MemDevice};
use prins_core::EngineBuilder;
use prins_iscsi::{Initiator, Target};
use prins_net::{LinkModel, TcpTransport, Transport};
use prins_repl::{run_replica, verify_consistent, ReplicationMode};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Replica node: listens for the PRINS parity stream. ---
    let repl_listener = TcpListener::bind("127.0.0.1:0")?;
    let repl_addr = repl_listener.local_addr()?;
    let replica_volume = Arc::new(MemDevice::new(BlockSize::kb8(), 64));
    let replica_volume2 = Arc::clone(&replica_volume);
    let replica_thread = std::thread::spawn(move || {
        let conn = TcpTransport::accept(&repl_listener, LinkModel::t1()).expect("accept");
        run_replica(&*replica_volume2, &conn)
    });

    // --- Primary storage node: iSCSI target over a PRINS engine. ---
    let uplink = TcpTransport::connect(repl_addr, LinkModel::t1())?;
    let wire_meter = Arc::clone(uplink.meter());
    let primary_volume = Arc::new(MemDevice::new(BlockSize::kb8(), 64));
    let engine = Arc::new(
        EngineBuilder::new(Arc::clone(&primary_volume) as Arc<dyn BlockDevice>)
            .mode(ReplicationMode::Prins)
            .replica(Box::new(uplink))
            .build(),
    );

    let iscsi_listener = TcpListener::bind("127.0.0.1:0")?;
    let iscsi_addr = iscsi_listener.local_addr()?;
    let engine_for_target = Arc::clone(&engine);
    let target_thread = std::thread::spawn(move || {
        let conn = TcpTransport::accept(&iscsi_listener, LinkModel::gigabit_lan()).expect("accept");
        Target::spawn(engine_for_target as Arc<dyn BlockDevice>, conn)
            .join()
            .expect("target thread")
    });

    // --- Application node: a plain iSCSI initiator. ---
    let conn = TcpTransport::connect(iscsi_addr, LinkModel::gigabit_lan())?;
    let mut initiator = Initiator::login(conn, "iqn.2026-07.example:app")?;
    println!(
        "logged in: {} blocks x {} B",
        initiator.num_blocks(),
        initiator.block_size()
    );

    let bs = initiator.block_size() as usize;
    let mut app_bytes = 0u64;
    for lba in 0..32u64 {
        let mut block = initiator.read_blocks(lba, 1)?;
        let at = (lba as usize * 211) % (bs - 300);
        block[at..at + 300].fill(lba as u8 + 1);
        initiator.write_blocks(lba, &block)?;
        app_bytes += bs as u64;
    }
    initiator.synchronize_cache()?; // barrier: engine flush via SCSI
    initiator.logout()?;
    target_thread.join().expect("join target")?;

    engine.flush()?;
    println!(
        "application wrote:       {} KB over iSCSI",
        app_bytes / 1024
    );
    println!(
        "parity sent to replica:  {:.1} KB over the WAN link",
        wire_meter.payload_bytes_sent() as f64 / 1024.0
    );
    println!(
        "wan traffic reduction:   {:.1}x",
        app_bytes as f64 / wire_meter.payload_bytes_sent() as f64
    );

    // Tear down and verify the mirror.
    let engine = Arc::try_unwrap(engine).map_err(|_| "engine still shared")?;
    engine.shutdown()?;
    replica_thread.join().expect("join replica")?;
    assert!(verify_consistent(&*primary_volume, &*replica_volume)?);
    println!("replica verified bit-identical to primary ✓");
    Ok(())
}
