//! E14: the issl record layer served from compiled-C guest firmware —
//! three concurrent PSK + AES-128-CBC + HMAC-SHA1 echo sessions against
//! a server that exists only as Rabbit instructions.
//!
//! Runs the workload under both execution engines with the cycle
//! profiler attached, prints the EXPERIMENTS.md §E14 tables (throughput
//! per engine, cycles/byte per function), asserts engine byte-identity,
//! and writes the machine-readable results to `BENCH_e14.json` in the
//! current directory.
//!
//! Run: `cargo run --release --example board_secure_serve`

use std::time::Instant;

use bench::Json;
use rabbit::Engine;
use rmc2000::nic::CYCLES_PER_US;
use rmc2000::{secure_serve, GuestClient, SecureRun};

const PSK: &[u8] = b"rmc2000 shared secret";

/// The E14 workload: three concurrent secure sessions, two messages
/// each, staggered sizes.
fn workload() -> Vec<GuestClient> {
    (0..3u8)
        .map(|i| {
            let messages: Vec<Vec<u8>> = (0..2u8)
                .map(|j| {
                    let len = 24 + 16 * usize::from(i) + 5 * usize::from(j);
                    (0..len).map(|k| (i ^ j) ^ (k as u8)).collect()
                })
                .collect();
            GuestClient::Secure {
                messages,
                psk: PSK.to_vec(),
                tamper: rmc2000::Tamper::None,
            }
        })
        .collect()
}

struct Measured {
    name: &'static str,
    run: SecureRun,
    wall_ms: f64,
}

fn main() {
    let clients = workload();
    let sessions = clients.len();

    let mut measured: Vec<Measured> = Vec::new();
    for (name, engine) in [
        ("interpreter", Engine::Interpreter),
        ("block_cache", Engine::BlockCache),
    ] {
        let t0 = Instant::now();
        let run = secure_serve(
            engine,
            dcc::Options::firmware(),
            PSK,
            &clients,
            Some(500),
            true,
        );
        let wall_ms = t0.elapsed().as_secs_f64() * 1_000.0;
        for (i, out) in run.outcomes.iter().enumerate() {
            assert!(out.established, "client {i} establishes");
            assert_eq!(out.error, None, "client {i} clean");
        }
        assert_eq!(run.accepts, 3, "all three handles served");
        assert_eq!(run.open, 0, "orderly teardown");
        measured.push(Measured { name, run, wall_ms });
    }

    let payload = measured[0].run.echoed_bytes;
    println!("E14: {sessions} concurrent secure sessions, compiled-C record layer ({payload} plaintext bytes echoed)\n");
    println!(
        "{:<12} {:>14} {:>12} {:>12} {:>13} {:>10}",
        "engine", "guest cycles", "virtual ms", "cycles/byte", "sessions/sec", "wall ms"
    );
    for m in &measured {
        let r = &m.run;
        println!(
            "{:<12} {:>14} {:>12.2} {:>12.1} {:>13.1} {:>10.1}",
            m.name,
            r.cycles,
            r.virtual_us as f64 / 1_000.0,
            r.cycles as f64 / payload as f64,
            sessions as f64 / (r.virtual_us as f64 / 1_000_000.0),
            m.wall_ms,
        );
    }

    let a = &measured[0].run;
    let b = &measured[1].run;
    let identical = a.cycles == b.cycles
        && a.instructions == b.instructions
        && a.virtual_us == b.virtual_us
        && a.outcomes == b.outcomes
        && a.conns == b.conns
        && a.serial_tx == b.serial_tx
        && a.snapshot == b.snapshot;
    assert!(identical, "engines disagree on an observable");
    println!("\nengines byte-identical: outcomes, cycles, console, telemetry ✓");

    // Where the cycles went: per-function attribution over the whole
    // serving session, normalised to plaintext bytes echoed.
    let profile = a.profile.as_ref().expect("profiling was requested");
    println!(
        "\nper-function cost ({:.1}% of {} cycles attributed):",
        100.0 * profile.attributed_fraction(),
        profile.total,
    );
    println!("{:<24} {:>14} {:>7} {:>12}", "function", "cycles", "share", "cycles/byte");
    for row in profile.rows.iter().take(16) {
        println!(
            "{:<24} {:>14} {:>6.2}% {:>12.1}",
            row.symbol,
            row.cycles,
            100.0 * row.cycles as f64 / profile.total as f64,
            row.cycles as f64 / payload as f64,
        );
    }

    let json = render_json(sessions, payload, identical, &measured);
    std::fs::write("BENCH_e14.json", &json).expect("write BENCH_e14.json");
    println!("\nwrote BENCH_e14.json");
}

/// The E14 document on the shared bench emitter: the workload header,
/// one object per engine, and the per-function table.
fn render_json(sessions: usize, payload: u64, identical: bool, measured: &[Measured]) -> String {
    let engines: Vec<Json> = measured
        .iter()
        .map(|m| {
            let r = &m.run;
            Json::obj()
                .field("engine", m.name)
                .field("guest_cycles", r.cycles)
                .field("guest_instructions", r.instructions)
                .field("virtual_us", r.virtual_us)
                .field(
                    "sessions_per_sec",
                    Json::f64(sessions as f64 / (r.virtual_us as f64 / 1_000_000.0), 1),
                )
                .field(
                    "cycles_per_byte",
                    Json::f64(r.cycles as f64 / payload as f64, 1),
                )
                .field("code_size", r.code_size)
                .field(
                    "attributed_fraction",
                    Json::f64(r.profile.as_ref().map_or(0.0, |p| p.attributed_fraction()), 4),
                )
                .field("wall_clock_ms", Json::f64(m.wall_ms, 1))
        })
        .collect();
    let profile = measured[0].run.profile.as_ref().expect("profiled");
    let functions: Vec<Json> = profile
        .rows
        .iter()
        .take(16)
        .map(|row| {
            Json::obj()
                .field("symbol", row.symbol.as_str())
                .field("cycles", row.cycles)
                .field(
                    "cycles_per_byte",
                    Json::f64(row.cycles as f64 / payload as f64, 1),
                )
        })
        .collect();
    Json::obj()
        .field("experiment", "E14")
        .field("clock_mhz", CYCLES_PER_US)
        .field("sessions", sessions)
        .field("payload_bytes", payload)
        .field("engines_identical", identical)
        .field("engines", engines)
        .field("functions", functions)
        .render()
}
