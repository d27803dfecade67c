//! Host-side cost of idle-heavy echo serving (E12): the same end-to-end
//! session of E11, timed under the stepwise idle reference
//! (`Board::idle_stepwise`, 2 cycles per host-visited step) and the
//! event-horizon fast-forward path (`Board::idle`). Both produce
//! byte-identical transcripts, cycle counts, and telemetry — only host
//! wall-clock differs; `examples/board_idle.rs` prints the derived
//! virtual-clock rates and asserts the identity.
//!
//! Run: `cargo bench -p bench --bench board_idle`

use criterion::{criterion_group, criterion_main, Criterion};
use rabbit::Engine;
use rmc2000::echo::run_echo;
use rmc2000::IdleMode;

/// Client think time between requests, in virtual µs (same as
/// `examples/board_idle.rs`).
const THINK_US: u64 = 10_000;

fn messages() -> Vec<&'static [u8]> {
    vec![
        b"hello rmc2000".as_slice(),
        b"0123456789abcdef".as_slice(),
        &[0x5A; 300],
        b"!".as_slice(),
    ]
}

fn bench_board_idle(c: &mut Criterion) {
    let msgs = messages();
    let mut group = c.benchmark_group("board_idle");
    group.sample_size(10);
    group.bench_function("stepwise", |b| {
        b.iter(|| run_echo(Engine::BlockCache, &msgs, IdleMode::Stepwise, THINK_US));
    });
    group.bench_function("fast_forward", |b| {
        b.iter(|| run_echo(Engine::BlockCache, &msgs, IdleMode::FastForward, THINK_US));
    });
    group.finish();
}

criterion_group!(benches, bench_board_idle);
criterion_main!(benches);
