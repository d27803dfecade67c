//! One telemetry naming scheme: every counter a board owns — its NIC's
//! `net.board.*`, its idle scheduler's `board.*`, the guest's
//! `issl.guest.*` — is published only under its `board<i>.` namespace,
//! whether the board runs alone on a direct link, behind the balancer,
//! or bare in the reference echo harness.

use rabbit::Engine;
use rmc2000::echo::run_echo;
use rmc2000::{fleet_serve, FleetSpec, GuestClient};

/// The metric families a board owns.
const BOARD_OWNED: [&str; 3] = ["net.board.", "board.", "issl.guest."];

fn plain(i: usize) -> GuestClient {
    GuestClient::Plain {
        messages: vec![format!("naming client {i}").into_bytes()],
    }
}

/// Asserts no key in `snapshot` uses an unprefixed board-owned name,
/// and every board-owned key sits under `board<i>.` with `i < boards`.
/// Returns how many board-owned keys there were.
fn check(snapshot: &str, boards: usize) -> usize {
    let mut owned = 0;
    for line in snapshot.lines() {
        let key = line.split(['{', ' ']).next().unwrap_or_default();
        for family in BOARD_OWNED {
            assert!(!key.starts_with(family), "unprefixed key: {line}");
        }
        let Some((ns, name)) = key.split_once('.') else {
            continue;
        };
        if BOARD_OWNED.iter().any(|f| name.starts_with(f)) {
            let idx: usize = ns
                .strip_prefix("board")
                .and_then(|i| i.parse().ok())
                .unwrap_or_else(|| panic!("board-owned key outside board<i>.: {line}"));
            assert!(idx < boards, "key names board {idx} of {boards}: {line}");
            owned += 1;
        }
    }
    owned
}

#[test]
fn direct_link_run_publishes_only_board0_names() {
    let mut spec = FleetSpec::new(Engine::BlockCache, 1, b"psk", (0..2).map(plain).collect());
    spec.policy = None;
    let run = fleet_serve(&spec);
    assert!(check(&run.snapshot, 1) > 0, "board counters present");
    assert!(run.snapshot.contains("board0.issl.guest.handshakes"));
    assert!(run.snapshot.contains("board0.board.idle_cycles"));
}

#[test]
fn balanced_run_publishes_only_board_names() {
    let spec = FleetSpec::new(Engine::BlockCache, 4, b"psk", (0..4).map(plain).collect());
    let run = fleet_serve(&spec);
    check(&run.snapshot, 4);
    for i in 0..4 {
        for family in BOARD_OWNED {
            assert!(
                run.snapshot.contains(&format!("board{i}.{family}")),
                "board{i}.{family}* missing"
            );
        }
    }
}

#[test]
fn echo_harness_publishes_only_board0_names() {
    let run = run_echo(Engine::BlockCache, &[b"naming".as_slice()]);
    assert!(check(&run.snapshot, 1) > 0, "board counters present");
    assert!(run.snapshot.contains("board0.net.board.rx_frames"));
}
