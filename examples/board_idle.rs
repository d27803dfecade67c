//! The event-horizon idle scheduler, measured (E12).
//!
//! Runs the idle-heavy echo-serving session of E11 twice per engine —
//! once burning halted time 2 cycles at a step (the pre-batching
//! reference, `Board::idle_stepwise`) and once through the deadline-driven
//! fast-forward path (`Board::idle`) — and prints the table
//! EXPERIMENTS.md §E12 quotes. Everything observable must stay
//! byte-identical across all four runs; only `board.skip_batches` (a
//! count of scheduler decisions, zero on the stepwise path) and host
//! wall-clock may differ.
//!
//! Run: `cargo run --release --example board_idle`

use std::time::Instant;

use rabbit::Engine;
use rmc2000::echo::{run_echo, EchoRun};
use rmc2000::IdleMode;

/// Client think time between requests, in virtual µs — what makes the
/// session idle-heavy (the guest serves ~21k cycles per exchange and
/// sleeps ~300k waiting for the next one).
const THINK_US: u64 = 10_000;

/// The snapshot minus the one line that legitimately differs between
/// idle modes: `board.skip_batches` counts fast-forward decisions.
fn observable(snapshot: &str) -> String {
    snapshot
        .lines()
        .filter(|l| !l.contains("board.skip_batches"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn main() {
    let msgs: Vec<&[u8]> = vec![
        b"hello rmc2000".as_slice(),
        b"0123456789abcdef".as_slice(),
        &[0x5A; 300],
        b"!".as_slice(),
    ];

    println!("E12: idle fast-forward — same session, stepwise vs event-horizon\n");
    println!(
        "{:<12} {:<13} {:>14} {:>12} {:>10} {:>16}",
        "engine", "idle path", "guest cycles", "idle cycles", "wall ms", "virtual MHz/host"
    );

    let mut rows: Vec<(String, EchoRun, f64)> = Vec::new();
    for (ename, engine) in [
        ("interpreter", Engine::Interpreter),
        ("block_cache", Engine::BlockCache),
    ] {
        for (mname, mode) in [
            ("stepwise", IdleMode::Stepwise),
            ("fast_forward", IdleMode::FastForward),
        ] {
            let t0 = Instant::now();
            let run = run_echo(engine, &msgs, mode, THINK_US);
            let wall = t0.elapsed().as_secs_f64();
            assert_eq!(run.echoed, msgs.concat(), "echo transcript intact");
            let idle_cycles = snapshot_counter(&run.snapshot, "board.idle_cycles");
            println!(
                "{:<12} {:<13} {:>14} {:>12} {:>10.1} {:>16.1}",
                ename,
                mname,
                run.cycles,
                idle_cycles,
                wall * 1_000.0,
                // Virtual-clock rate the host sustains: simulated cycles
                // per host-second, in MHz (the board itself runs at 30).
                run.cycles as f64 / wall / 1.0e6,
            );
            rows.push((format!("{ename}/{mname}"), run, wall));
        }
    }

    // Byte-identity across all four runs: transcript, cycles, virtual
    // time, frame counters, telemetry (minus the scheduler's own
    // decision counter).
    let (ref name0, ref base, _) = rows[0];
    for (name, run, _) in &rows[1..] {
        assert_eq!(&base.echoed, &run.echoed, "{name0} vs {name}: transcript");
        assert_eq!(base.cycles, run.cycles, "{name0} vs {name}: cycles");
        assert_eq!(
            base.virtual_us, run.virtual_us,
            "{name0} vs {name}: virtual clock"
        );
        assert_eq!(
            (base.rx_frames, base.tx_frames),
            (run.rx_frames, run.tx_frames),
            "{name0} vs {name}: frame counters"
        );
        assert_eq!(
            observable(&base.snapshot),
            observable(&run.snapshot),
            "{name0} vs {name}: telemetry"
        );
    }
    println!("\nall four runs byte-identical: transcript, cycles, virtual clock, telemetry ✓");

    for pair in rows.chunks(2) {
        let (ref sname, _, slow) = pair[0];
        let (_, _, fast) = pair[1];
        let engine = sname.split('/').next().unwrap();
        println!(
            "{engine}: {:.1}x less host wall-clock with the event-horizon scheduler",
            slow / fast
        );
        assert!(
            slow / fast >= 5.0,
            "{engine}: idle fast-forward regressed below the 5x floor ({:.1}x)",
            slow / fast
        );
    }

    let (_, fast_run, _) = &rows[3];
    println!("\nboard.* scheduler counters (fast path):");
    for line in fast_run
        .snapshot
        .lines()
        .filter(|l| l.contains("board."))
    {
        println!("  {line}");
    }
}

fn snapshot_counter(snapshot: &str, name: &str) -> u64 {
    snapshot
        .lines()
        .find(|l| l.contains(name))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}
