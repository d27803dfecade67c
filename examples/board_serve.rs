//! E13: three concurrent TCP connections served by dcc-compiled C
//! firmware — the full C → compiler → board → network pipeline, with a
//! serial status console running at higher interrupt priority alongside.
//! One board, every client linked straight to it (no balancer).
//!
//! Runs the workload under both execution engines, prints the
//! EXPERIMENTS.md §E13 table, asserts engine byte-identity, and writes
//! the machine-readable results to `BENCH_e13.json` in the current
//! directory.
//!
//! Run: `cargo run --release --example board_serve`

use std::time::Instant;

use rabbit::Engine;
use rmc2000::nic::CYCLES_PER_US;
use rmc2000::{fleet_serve, FleetFirmware, FleetRun, FleetSpec, GuestClient};

/// The E13 workload: three clients, four messages each, staggered sizes.
fn workload() -> Vec<Vec<Vec<u8>>> {
    (0..3)
        .map(|i| {
            (0..4)
                .map(|j| {
                    let len = 40 + 30 * i + 7 * j;
                    (0..len).map(|k| (i * 64 + j * 16 + k) as u8).collect()
                })
                .collect()
        })
        .collect()
}

struct Measured {
    name: &'static str,
    run: FleetRun,
    wall_ms: f64,
}

fn main() {
    let clients = workload();
    let payload: usize = clients.iter().flatten().map(Vec::len).sum();
    let sessions = clients.len();

    println!("E13: {sessions} concurrent connections, compiled-C firmware ({payload} payload bytes)\n");
    println!(
        "{:<12} {:>14} {:>12} {:>12} {:>13} {:>10}",
        "engine", "guest cycles", "virtual ms", "cycles/byte", "sessions/sec", "wall ms"
    );

    let mut measured: Vec<Measured> = Vec::new();
    for (name, engine) in [
        ("interpreter", Engine::Interpreter),
        ("block_cache", Engine::BlockCache),
    ] {
        let guests = clients
            .iter()
            .map(|messages| GuestClient::Plain {
                messages: messages.clone(),
            })
            .collect();
        let mut spec = FleetSpec::new(engine, 1, b"", guests);
        spec.policy = None;
        spec.firmware = FleetFirmware::PlainEcho;
        spec.probe_gap_us = Some(500);
        let t0 = Instant::now();
        let run = fleet_serve(&spec);
        let wall_ms = t0.elapsed().as_secs_f64() * 1_000.0;
        for (i, (sent, got)) in clients.iter().zip(&run.outcomes).enumerate() {
            assert_eq!(sent.concat(), got.echoed, "client {i} transcript");
        }
        let board = &run.boards[0];
        assert_eq!(board.peak_open, 3, "all three handles in use at peak");
        println!(
            "{:<12} {:>14} {:>12.2} {:>12.1} {:>13.1} {:>10.1}",
            name,
            board.cycles,
            run.virtual_us as f64 / 1_000.0,
            board.cycles as f64 / payload as f64,
            sessions as f64 / (run.virtual_us as f64 / 1_000_000.0),
            wall_ms,
        );
        measured.push(Measured { name, run, wall_ms });
    }

    let a = &measured[0].run;
    let b = &measured[1].run;
    let (ab, bb) = (&a.boards[0], &b.boards[0]);
    assert_eq!(a.outcomes, b.outcomes, "transcripts agree");
    assert_eq!(ab.cycles, bb.cycles, "cycle counts agree");
    assert_eq!(ab.serial_tx, bb.serial_tx, "console output agrees");
    assert_eq!(a.snapshot, b.snapshot, "telemetry agrees");
    println!("\nengines byte-identical: transcripts, cycles, console, telemetry ✓");
    println!(
        "firmware: {} bytes of root code, {} guest accepts, console wrote {} status lines",
        a.code_size,
        ab.accepts,
        ab.serial_tx.len() / 3,
    );

    let json = render_json(sessions, payload, &measured);
    std::fs::write("BENCH_e13.json", &json).expect("write BENCH_e13.json");
    println!("\nwrote BENCH_e13.json");
}

/// Hand-rolled JSON (the workspace deliberately carries no serde): one
/// object per engine plus the workload header.
fn render_json(sessions: usize, payload: usize, measured: &[Measured]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"experiment\": \"E13\",\n");
    s.push_str(&format!("  \"clock_mhz\": {CYCLES_PER_US},\n"));
    s.push_str(&format!("  \"sessions\": {sessions},\n"));
    s.push_str(&format!("  \"payload_bytes\": {payload},\n"));
    s.push_str("  \"engines\": [\n");
    for (i, m) in measured.iter().enumerate() {
        let r = &m.run;
        let b = &r.boards[0];
        s.push_str("    {\n");
        s.push_str(&format!("      \"engine\": \"{}\",\n", m.name));
        s.push_str(&format!("      \"guest_cycles\": {},\n", b.cycles));
        s.push_str(&format!("      \"guest_instructions\": {},\n", b.instructions));
        s.push_str(&format!("      \"virtual_us\": {},\n", r.virtual_us));
        s.push_str(&format!(
            "      \"sessions_per_sec\": {:.1},\n",
            sessions as f64 / (r.virtual_us as f64 / 1_000_000.0)
        ));
        s.push_str(&format!(
            "      \"cycles_per_byte\": {:.1},\n",
            b.cycles as f64 / payload as f64
        ));
        s.push_str(&format!("      \"peak_open\": {},\n", b.peak_open));
        s.push_str(&format!("      \"guest_accepts\": {},\n", b.accepts));
        s.push_str(&format!("      \"code_size\": {},\n", r.code_size));
        s.push_str(&format!("      \"wall_clock_ms\": {:.1}\n", m.wall_ms));
        s.push_str(if i + 1 < measured.len() { "    },\n" } else { "    }\n" });
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}
