//! Guest firmware serving TCP echo traffic end to end (E11).
//!
//! Assembles the NIC echo firmware, boots it on the `rmc2000::Board`,
//! and drives a `netsim` client against it under both execution engines;
//! prints the measured table EXPERIMENTS.md §E11 quotes, then the
//! `net.board.*` slice of the telemetry snapshot.
//!
//! Run: `cargo run --release --example board_echo`

use std::time::Instant;

use rabbit::Engine;
use rmc2000::echo::{run_echo, EchoRun};
use rmc2000::nic::CYCLES_PER_US;
use rmc2000::IdleMode;

fn main() {
    let msgs: Vec<&[u8]> = vec![
        b"hello rmc2000".as_slice(),
        b"0123456789abcdef".as_slice(),
        &[0x5A; 300],
        b"!".as_slice(),
    ];
    let payload: usize = msgs.iter().map(|m| m.len()).sum();

    println!("E11: guest firmware TCP echo ({payload} payload bytes, 4 messages)\n");
    println!(
        "{:<12} {:>14} {:>12} {:>12} {:>10} {:>10}",
        "engine", "guest cycles", "virtual ms", "cycles/byte", "rx frames", "wall ms"
    );

    let mut runs: Vec<(&str, EchoRun)> = Vec::new();
    for (name, engine) in [
        ("interpreter", Engine::Interpreter),
        ("block_cache", Engine::BlockCache),
    ] {
        let t0 = Instant::now();
        let run = run_echo(engine, &msgs, IdleMode::FastForward, 0);
        let wall = t0.elapsed();
        assert_eq!(run.echoed, msgs.concat(), "echo transcript intact");
        println!(
            "{:<12} {:>14} {:>12.2} {:>12.1} {:>10} {:>10.1}",
            name,
            run.cycles,
            run.virtual_us as f64 / 1_000.0,
            run.cycles as f64 / payload as f64,
            run.rx_frames,
            wall.as_secs_f64() * 1_000.0,
        );
        runs.push((name, run));
    }

    let (_, a) = &runs[0];
    let (_, b) = &runs[1];
    assert_eq!(a.echoed, b.echoed, "transcripts agree");
    assert_eq!(a.cycles, b.cycles, "cycle counts agree");
    assert_eq!(a.snapshot, b.snapshot, "telemetry agrees");
    println!("\nengines byte-identical: transcript, cycles, telemetry ✓");
    println!(
        "virtual serving rate: {:.1} KiB/s of echoed payload at {} MHz\n",
        payload as f64 / (a.virtual_us as f64 / 1_000_000.0) / 1024.0,
        CYCLES_PER_US,
    );

    println!("net.board.* counters:");
    for line in a.snapshot.lines().filter(|l| l.contains("net.board.")) {
        println!("  {line}");
    }
}
