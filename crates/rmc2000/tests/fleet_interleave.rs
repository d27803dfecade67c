//! Differential property test for the fleet scheduler's core claim:
//! the per-epoch board visit order is unobservable. Any sequence of
//! permutations — applied per epoch, cycled over the whole run — must
//! produce transcripts, telemetry, virtual time, and per-board cycle
//! counts identical to the index-order baseline, on both engines.

use proptest::collection::vec;
use proptest::prelude::*;

use rabbit::Engine;
use rmc2000::{fleet_serve, FleetFirmware, FleetRun, FleetSpec, GuestClient, LbPolicy};

const BOARDS: usize = 3;

/// A permutation of `0..BOARDS` from a seed, by Fisher–Yates over a
/// tiny xorshift stream.
fn permutation(seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..BOARDS).collect();
    let mut s = seed | 1;
    for i in (1..order.len()).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        order.swap(i, (s as usize) % (i + 1));
    }
    order
}

fn spec(engine: Engine, orders: Vec<Vec<usize>>) -> FleetSpec {
    let clients = (0..2 * BOARDS)
        .map(|i| GuestClient::Plain {
            messages: vec![
                format!("interleave {i}").into_bytes(),
                format!("second message {i}").into_bytes(),
            ],
        })
        .collect();
    let mut spec = FleetSpec::new(engine, BOARDS, b"", clients);
    spec.firmware = FleetFirmware::PlainEcho;
    spec.policy = Some(LbPolicy::LeastOpen);
    spec.probe_gap_us = Some(700);
    spec.orders = orders;
    spec
}

/// Everything a run exposes that the visit order could possibly touch.
fn observables(r: &FleetRun) -> impl std::fmt::Debug + PartialEq {
    (
        r.outcomes.clone(),
        r.snapshot.clone(),
        r.virtual_us,
        r.epochs,
        r.echoed_bytes,
        r.boards
            .iter()
            .map(|b| (b.cycles, b.instructions, b.accepts, b.serial_tx.clone()))
            .collect::<Vec<_>>(),
        r.backends.clone(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Shuffled visit orders vs the index-order baseline, interpreter.
    #[test]
    fn shuffled_visit_order_matches_baseline(seeds in vec(0u64..1_000_000, 1..5)) {
        let orders: Vec<Vec<usize>> = seeds.into_iter().map(permutation).collect();
        let baseline = fleet_serve(&spec(Engine::Interpreter, Vec::new()));
        let shuffled = fleet_serve(&spec(Engine::Interpreter, orders));
        prop_assert_eq!(observables(&baseline), observables(&shuffled));
    }
}

/// The same invariance holds across engines: a shuffled block-cache run
/// equals the index-order interpreter run observable-for-observable.
#[test]
fn shuffled_block_cache_matches_interpreter_baseline() {
    let orders: Vec<Vec<usize>> = (0..3).map(|s| permutation(0x9E37_79B9 + s)).collect();
    let baseline = fleet_serve(&spec(Engine::Interpreter, Vec::new()));
    let shuffled = fleet_serve(&spec(Engine::BlockCache, orders));
    assert_eq!(observables(&baseline), observables(&shuffled));
}
