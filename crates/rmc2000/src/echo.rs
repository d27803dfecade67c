//! Reference end-to-end harness: assembled guest firmware on a one-board
//! [`Fleet`] serves TCP echo traffic to a host-side `netsim` client.
//!
//! This is the first path in the repo where guest *instructions* and
//! simulated *packets* interact: the echo firmware
//! ([`crate::firmware::echo_firmware`]) runs on the fleet's only board
//! and a second host in the same [`netsim::World`] plays the client.
//! Virtual time advances only through the fleet's epoch barrier, so the
//! whole session is deterministic and byte-identical under both engines
//! and both [`IdleMode`]s; `tests/board_echo.rs` asserts exactly that.

use std::cell::RefCell;
use std::rc::Rc;

use netsim::{Endpoint, Ipv4, LinkParams, Recv, SimHost, World};
use rabbit::{assemble, Engine};

use crate::firmware;
use crate::fleet::{Fleet, IdleMode, EPOCH_US};

/// TCP port the reference firmware listens on (the echo service).
pub const ECHO_PORT: u16 = 7;

/// Result of one echo session.
#[derive(Debug)]
pub struct EchoRun {
    /// Everything the client received back, in order.
    pub echoed: Vec<u8>,
    /// Guest cycles consumed (including halted idle cycles).
    pub cycles: u64,
    /// Final virtual time of the shared world, in microseconds.
    pub virtual_us: u64,
    /// Frames the guest received (`board0.net.board.*` counters).
    pub rx_frames: u64,
    /// Frames the guest transmitted.
    pub tx_frames: u64,
    /// Deterministic text snapshot of the world's telemetry registry
    /// (includes the `board0.net.board.*` NIC counters).
    pub snapshot: String,
}

/// Runs the reference echo session on a one-board [`Fleet`] that burns
/// halted time as `idle` says: boots the echo firmware, connects a client
/// host, sends each message in `msgs` (the next one only after the
/// previous echo arrived in full and `gap_us` of virtual think time
/// passed — E12's idle-heavy shape), closes, and returns the transcript
/// plus the clocks and telemetry. The client acts at every epoch barrier
/// it sees, draining before it sends. Only `board0.board.skip_batches`
/// and host wall-clock differ across idle modes.
///
/// # Panics
///
/// If the firmware faults, or the session does not converge within
/// 20 virtual seconds.
pub fn run_echo(engine: Engine, msgs: &[&[u8]], idle: IdleMode, gap_us: u64) -> EchoRun {
    // One world, two hosts: the board and the client.
    let world = Rc::new(RefCell::new(World::new(42)));
    let mut fleet = Fleet::with_idle(&world, idle);
    let b = fleet.add_board(engine, "rmc2000", Ipv4::new(10, 0, 0, 1));
    let mut client = SimHost::attach(&world, "client", Ipv4::new(10, 0, 0, 2));
    let board_host = fleet.host(b).id();
    world
        .borrow_mut()
        .link(board_host, client.id(), LinkParams::ethernet_10base_t());
    let image = assemble(&firmware::echo_firmware(ECHO_PORT)).expect("echo firmware assembles");
    fleet.board_mut(b).load(&image);
    fleet.board_mut(b).set_pc(0x4000);

    const MAX_EPOCHS: u64 = 400_000; // 20 virtual seconds
    const FF_CHUNK: u64 = 200; // 10 ms of skipped idle per decision
    let order = [b];

    // Boot: the firmware configures the NIC (port, IER, LISTEN) and
    // parks in `halt`.
    while !fleet.all_parked() {
        if fleet.epochs() >= 2_000 {
            let report = fleet.stall_report("echo firmware did not boot", &[]);
            panic!("{report}");
        }
        fleet.run_epoch(&order);
    }

    let conn = client.connect(Endpoint::new(fleet.ip(b), ECHO_PORT));
    let expected: Vec<u8> = msgs.concat();
    let mut echoed = Vec::new();
    let mut next_msg = 0;
    let mut sent_bytes = 0;
    // Virtual time before which the client holds the next message back
    // (its think time).
    let mut ready_at_us = 0;

    loop {
        // The client acts at this barrier: drain whatever the echo
        // produced, then send the next message once everything sent so
        // far came back and the think time elapsed.
        let now = world.borrow().now();
        let avail = client.available(conn);
        if avail > 0 {
            let mut buf = vec![0u8; avail];
            if let Recv::Data(n) = client.recv(conn, &mut buf) {
                buf.truncate(n);
                echoed.extend_from_slice(&buf);
            }
            if echoed.len() == sent_bytes {
                ready_at_us = now + gap_us;
            }
        }
        if echoed.len() >= expected.len() {
            break;
        }
        let caught_up = echoed.len() == sent_bytes;
        if next_msg < msgs.len() && caught_up && now >= ready_at_us && client.established(conn) {
            let msg = msgs[next_msg];
            assert_eq!(client.send(conn, msg), msg.len(), "client send fits");
            sent_bytes += msg.len();
            next_msg += 1;
        }

        if fleet.epochs() >= MAX_EPOCHS {
            let line = format!(
                "client 0 (echo): established={}, echoed {}/{} bytes, fin={}",
                client.established(conn),
                echoed.len(),
                expected.len(),
                client.peer_closed(conn)
            );
            let report = fleet.stall_report("echo session did not converge", &[line]);
            panic!("{report}");
        }
        // Skip idle epochs only where the client would do nothing at the
        // barriers skipped: while it waits for an echo, or strictly short
        // of its think-time deadline. The fleet bounds the skip by the
        // world's next event and the board's device deadlines.
        let bound = if echoed.len() < sent_bytes {
            FF_CHUNK
        } else {
            FF_CHUNK.min(ready_at_us.saturating_sub(now + 1) / EPOCH_US)
        };
        if fleet.fast_forward(bound) == 0 {
            fleet.run_epoch(&order);
        }
    }

    // Orderly teardown, on the same deterministic clock.
    client.close(conn);
    for _ in 0..150 {
        fleet.run_epoch(&order);
    }

    let (rx_frames, tx_frames, snapshot) = {
        let w = world.borrow();
        let snap = w.telemetry().snapshot();
        (
            snap.counter("board0.net.board.rx_frames", &[]),
            snap.counter("board0.net.board.tx_frames", &[]),
            snap.to_text(),
        )
    };
    let virtual_us = world.borrow().now();
    EchoRun {
        echoed,
        cycles: fleet.board(b).cpu.cycles,
        virtual_us,
        rx_frames,
        tx_frames,
        snapshot,
    }
}
