//! End-to-end guest firmware serving: assembled echo firmware on a
//! one-board `rmc2000::Fleet` answers TCP traffic from a host-side
//! `netsim` client, and the whole session — transcript, guest cycles,
//! virtual time, telemetry — is byte-identical under `Engine::Interpreter`
//! and `Engine::BlockCache`, and under both idle modes.

use rabbit::Engine;
use rmc2000::echo::{run_echo, EchoRun};
use rmc2000::IdleMode;

fn messages() -> Vec<&'static [u8]> {
    vec![
        b"hello rmc2000".as_slice(),
        b"0123456789abcdef".as_slice(),
        // A payload long enough to span several TCP segments.
        &[0x5A; 300],
        b"!".as_slice(),
    ]
}

fn expected() -> Vec<u8> {
    messages().concat()
}

#[test]
fn guest_firmware_echoes_tcp_traffic() {
    let run = run_echo(Engine::BlockCache, &messages(), IdleMode::FastForward, 0);
    assert_eq!(run.echoed, expected(), "echo transcript");
    assert!(run.rx_frames > 0, "guest received frames");
    assert!(run.tx_frames > 0, "guest transmitted frames");
    assert!(run.virtual_us > 0, "virtual time advanced");
}

#[test]
fn engines_agree_byte_for_byte() {
    let interp = run_echo(Engine::Interpreter, &messages(), IdleMode::FastForward, 0);
    let block = run_echo(Engine::BlockCache, &messages(), IdleMode::FastForward, 0);

    assert_eq!(interp.echoed, expected(), "interpreter transcript");
    assert_eq!(block.echoed, expected(), "block-cache transcript");
    assert_eq!(interp.cycles, block.cycles, "guest cycle counts");
    assert_eq!(interp.virtual_us, block.virtual_us, "virtual clocks");
    // The full telemetry snapshot (world packet counters, NIC counters)
    // is part of the determinism contract.
    assert_eq!(interp.snapshot, block.snapshot, "telemetry snapshots");
}

#[test]
fn idle_modes_agree_byte_for_byte() {
    // The stepwise fleet runs every epoch and drips halted time 2 cycles
    // per step; only its count of scheduler decisions may differ.
    let observable = |s: &str| -> String {
        s.lines()
            .filter(|l| !l.contains("board.skip_batches"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    for engine in [Engine::Interpreter, Engine::BlockCache] {
        let fast = run_echo(engine, &messages(), IdleMode::FastForward, 0);
        let step = run_echo(engine, &messages(), IdleMode::Stepwise, 0);
        assert_eq!(fast.echoed, step.echoed, "{engine:?}: transcript");
        assert_eq!(fast.cycles, step.cycles, "{engine:?}: guest cycles");
        assert_eq!(fast.virtual_us, step.virtual_us, "{engine:?}: clock");
        assert_eq!(
            observable(&fast.snapshot),
            observable(&step.snapshot),
            "{engine:?}: telemetry"
        );
    }
}

#[test]
fn nic_counters_reach_the_world_registry() {
    let EchoRun { snapshot, .. } =
        run_echo(Engine::BlockCache, &messages(), IdleMode::FastForward, 0);
    for name in [
        "board0.net.board.rx_frames",
        "board0.net.board.rx_bytes",
        "board0.net.board.tx_frames",
        "board0.net.board.tx_bytes",
        "board0.net.board.irqs",
        // The board's idle-scheduler counters land in the same registry,
        // so `engines_agree_byte_for_byte`'s snapshot comparison covers
        // them too.
        "board0.board.idle_cycles",
        "board0.board.skip_batches",
    ] {
        assert!(
            snapshot.contains(name),
            "snapshot should carry {name}:\n{snapshot}"
        );
    }
    // And the world's own stack counters sit alongside them.
    assert!(snapshot.contains("net.tcp"), "world counters present");
}
