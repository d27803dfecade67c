//! Reference end-to-end harness: assembled guest firmware on the board
//! serves TCP echo traffic to a host-side `netsim` client.
//!
//! This is the first path in the repo where guest *instructions* and
//! simulated *packets* interact: the echo firmware
//! ([`crate::firmware::echo_firmware`]) runs on the [`Board`], its NIC is
//! attached to a host in a shared [`netsim::World`], and a second host
//! plays the client. Virtual time advances only through the guest clock
//! (the NIC converts executed cycles to microseconds), so the whole
//! session — transcripts, cycle counts, telemetry — is deterministic and
//! byte-identical under both execution engines; `tests/board_echo.rs`
//! asserts exactly that.

use std::cell::RefCell;
use std::rc::Rc;

use netsim::{Endpoint, Ipv4, LinkParams, Recv, SimHost, World};
use rabbit::{assemble, Engine};

use crate::firmware;
use crate::nic::Nic;
use crate::{Board, RunOutcome};

/// TCP port the reference firmware listens on (the echo service).
pub const ECHO_PORT: u16 = 7;

/// How the driver burns halted time between run slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleMode {
    /// Event-horizon fast-forward ([`Board::idle`]) — the default.
    FastForward,
    /// The 2-cycles-per-step reference path
    /// ([`Board::idle_stepwise`]), kept as the measured "before" of the
    /// E12 experiment and the oracle of the differential tests.
    Stepwise,
}

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

/// Runs the reference echo session: boots the echo firmware on a board
/// with a simulated NIC, connects a client host, sends each message in
/// `msgs` (the next one only after the previous echo arrived in full),
/// and returns the transcript plus the clocks and telemetry.
///
/// # Panics
///
/// If the firmware faults, or the session does not converge within a
/// generous cycle guard.
pub fn run_echo(engine: Engine, msgs: &[&[u8]]) -> EchoRun {
    run_echo_with(engine, msgs, IdleMode::FastForward)
}

/// [`run_echo`] with an explicit idle strategy. Everything observable —
/// transcript, cycles, virtual time, `net.*` counters, `board.idle_cycles`
/// — is byte-identical across modes; only `board.skip_batches` (a count
/// of scheduler decisions, zero on the stepwise path) and host wall-clock
/// differ.
pub fn run_echo_with(engine: Engine, msgs: &[&[u8]], idle: IdleMode) -> EchoRun {
    run_echo_paced(engine, msgs, idle, 0)
}

/// [`run_echo_with`] with client think time: after each completed echo
/// the client waits `gap_us` of *virtual* time before sending the next
/// message, while the guest sits in `halt` serving nothing — the
/// idle-heavy request/response shape real serving has, and the workload
/// the E12 experiment measures. `gap_us = 0` is exactly [`run_echo_with`].
pub fn run_echo_paced(engine: Engine, msgs: &[&[u8]], idle: IdleMode, gap_us: u64) -> EchoRun {
    // One world, two hosts: the board and the client.
    let world = Rc::new(RefCell::new(World::new(42)));
    let board_host = SimHost::attach(&world, "rmc2000", Ipv4::new(10, 0, 0, 1));
    let mut client = SimHost::attach(&world, "client", Ipv4::new(10, 0, 0, 2));
    world.borrow_mut().link(
        board_host.id(),
        client.id(),
        LinkParams::ethernet_10base_t(),
    );
    let board_ip = board_host.ip();

    let mut board = Board::with_engine(engine);
    // `board0.board.*` scheduler counters land in the world registry,
    // next to the `net.*` counters, so one snapshot covers the whole
    // session.
    board.bind_telemetry_board(world.borrow().telemetry(), 0);
    board.attach_nic(Nic::simulated(board_host));
    let image = assemble(&firmware::echo_firmware(ECHO_PORT)).expect("echo firmware assembles");
    board.load(&image);
    board.set_pc(0x4000);

    // Boot: the firmware configures the NIC (port, IER, LISTEN) and
    // parks in `halt`.
    assert_eq!(board.run(10_000), RunOutcome::Halted, "firmware boots");

    // The client dials in; from here on the guest clock drives the world.
    let conn = client.connect(Endpoint::new(board_ip, ECHO_PORT));

    let expected: Vec<u8> = msgs.concat();
    let mut echoed = Vec::new();
    let mut next_msg = 0;
    let mut sent_bytes = 0;
    // Virtual time before which the client holds the next message back
    // (its think time).
    let mut ready_at_us = 0;

    // Cycle budget per run slice; idle budget (halted, peripherals
    // ticking) per slice = 100 µs; convergence guard on total cycles.
    const RUN_CHUNK: u64 = 2_000;
    const IDLE_CHUNK: u64 = 100 * crate::nic::CYCLES_PER_US;
    const MAX_CYCLES: u64 = 500_000_000;

    while echoed.len() < expected.len() {
        assert!(
            board.cpu.cycles < MAX_CYCLES,
            "echo session did not converge"
        );
        match board.run(RUN_CHUNK) {
            RunOutcome::Halted => {
                match idle {
                    IdleMode::FastForward => board.idle(IDLE_CHUNK),
                    IdleMode::Stepwise => board.idle_stepwise(IDLE_CHUNK),
                };
            }
            RunOutcome::BudgetExhausted => {}
            other => panic!("firmware stopped: {other:?}"),
        }
        // Client side: send the next message once everything sent so far
        // came back and the think time elapsed, then drain whatever the
        // echo produced.
        if next_msg < msgs.len()
            && echoed.len() == sent_bytes
            && client.now() >= ready_at_us
            && client.established(conn)
        {
            let msg = msgs[next_msg];
            assert_eq!(client.send(conn, msg), msg.len(), "client send fits");
            sent_bytes += msg.len();
            next_msg += 1;
        }
        let avail = client.available(conn);
        if avail > 0 {
            let mut buf = vec![0u8; avail];
            if let Recv::Data(n) = client.recv(conn, &mut buf) {
                buf.truncate(n);
                echoed.extend_from_slice(&buf);
            }
            if echoed.len() == sent_bytes {
                ready_at_us = client.now() + gap_us;
            }
        }
    }

    // Orderly teardown, on the same deterministic clock.
    client.close(conn);
    for _ in 0..20 {
        if board.run(RUN_CHUNK) == RunOutcome::Halted {
            match idle {
                IdleMode::FastForward => board.idle(IDLE_CHUNK),
                IdleMode::Stepwise => board.idle_stepwise(IDLE_CHUNK),
            };
        }
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
        cycles: board.cpu.cycles,
        virtual_us,
        rx_frames,
        tx_frames,
        snapshot,
    }
}
