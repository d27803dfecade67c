//! Differential tests for the idle schedulers, at two levels.
//!
//! * **Board level, no NIC.** Random sub-epoch `Run`/`Idle` budgets and
//!   serial injections drive a serial-shifter + RTC firmware on three
//!   boards: interpreter + stepwise idle (the pre-batching oracle),
//!   interpreter + fast-forward idle, and block-cache + fast-forward idle.
//!   These budgets need no world clock, so the boards run bare.
//! * **Fleet level.** The same firmware plus a NIC echo ISR runs on a
//!   one-board [`Fleet`] under random epoch runs, waits, serial
//!   injections and client traffic. A stepwise fleet on the interpreter
//!   (every epoch runs; halted time drips 2 cycles per step) is the oracle
//!   for fast-forward fleets on both engines, where `Board::idle` batches
//!   inside epochs and `Fleet::fast_forward` skips whole ones.
//!
//! Every observable must come out byte-identical: cycle counts,
//! registers, RTC, serial transcript and, at fleet level, NIC counters,
//! epochs, world clock, telemetry snapshot and the bytes the client got
//! back. The firmware exercises all three deadline sources at once: the
//! NIC (poll-boundary echo ISR), the serial port (rx ISR echoing through
//! the tx shifter, so shift completions are in flight while idling), and
//! the RTC (the ISR samples `RTC0` into memory).

use std::cell::RefCell;
use std::rc::Rc;

use netsim::{Endpoint, Ipv4, LinkParams, Recv, SimHost, SocketId, World};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rabbit::{assemble, Engine};
use rmc2000::firmware::{nic_equates, nic_isr_body, nic_shims};
use rmc2000::{Board, Fleet, IdleMode, NIC_VECTOR, SERIAL_A_VECTOR};

const PORT: u16 = 7;
/// Cycles per byte in the serial transmit shifter (on, so serial shift
/// completions bound the event horizon during idle).
const SHIFT_CYCLES: u64 = 96;
/// Where the serial ISR stores the RTC0 sample and its invocation count.
const RTC_SAMPLE: u16 = 0x8100;
const SER_COUNT: u16 = 0x8101;

/// The serial ISR: echoes the received character out the transmitter
/// and samples the RTC into memory.
const SER_ISR: &str = "ser_isr:\n\
    \x20       push af\n\
    \x20       ioi ld a, (0xC0)        ; read SADR\n\
    \x20       ioi ld (0xC0), a        ; echo into the tx shifter\n\
    \x20       ioi ld a, (0x02)        ; sample RTC0 (latches)\n\
    \x20       ld (0x8100), a\n\
    \x20       ld a, (0x8101)\n\
    \x20       inc a\n\
    \x20       ld (0x8101), a\n\
    \x20       pop af\n\
    \x20       reti\n";

/// Serial + RTC firmware: enables the serial rx interrupt and sleeps.
fn serial_firmware() -> String {
    format!(
        "\x20       org {SERIAL_A_VECTOR:#06x}\n\
         \x20       jp ser_isr\n\
         \n\
         \x20       org 0x4000\n\
         start:\n\
         \x20       ld a, 1\n\
         \x20       ioi ld (0xC4), a        ; SACR: serial rx interrupt\n\
         spin:\n\
         \x20       halt\n\
         \x20       jr spin\n\
         \n\
         {SER_ISR}"
    )
}

/// The serial firmware extended with the NIC echo ISR.
fn nic_firmware() -> String {
    let equates = nic_equates();
    let shims = nic_shims();
    let isr_body = nic_isr_body();
    format!(
        "{equates}\
         \n\
         \x20       org {SERIAL_A_VECTOR:#06x}\n\
         \x20       jp ser_isr\n\
         \n\
         \x20       org {NIC_VECTOR:#06x}\n\
         \x20       jp nic_isr\n\
         \n\
         \x20       org 0x4000\n\
         start:\n\
         \x20       ld a, 1\n\
         \x20       ioi ld (0xC4), a        ; SACR: serial rx interrupt\n\
         \x20       ld a, {lport_lo}\n\
         \x20       ioe ld (NICPRTL), a\n\
         \x20       ld a, {lport_hi}\n\
         \x20       ioe ld (NICPRTH), a\n\
         \x20       ld a, 1\n\
         \x20       ioe ld (NICIER), a\n\
         \x20       ld a, {listen}\n\
         \x20       ioe ld (NICCMD), a\n\
         spin:\n\
         \x20       halt\n\
         \x20       jr spin\n\
         \n\
         {SER_ISR}\
         \n\
         nic_isr:\n\
         \x20       push af\n\
         \x20       push bc\n\
         \x20       push de\n\
         \x20       push hl\n\
         {isr_body}\
         \x20       pop hl\n\
         \x20       pop de\n\
         \x20       pop bc\n\
         \x20       pop af\n\
         \x20       reti\n\
         \n\
         {shims}",
        lport_lo = PORT & 0xFF,
        lport_hi = PORT >> 8,
        listen = rmc2000::nic::CMD_LISTEN,
    )
}

/// Loads `src` into `board` with the serial shifter on.
fn load(board: &mut Board, src: &str) {
    board.serial_mut().set_tx_shift_cycles(SHIFT_CYCLES);
    let image = assemble(src).expect("firmware assembles");
    board.load(&image);
    board.set_pc(0x4000);
}

/// Everything observable about one board. `skip_batches` is deliberately
/// absent: it counts scheduler decisions, which the stepwise oracle does
/// not make — every *guest-visible* quantity below must still agree.
#[derive(Debug, PartialEq, Eq)]
struct BoardPrint {
    cycles: u64,
    instructions: u64,
    regs: String,
    halted: bool,
    rtc_cycles: u64,
    rtc_sample: u8,
    ser_count: u8,
    serial_tx: Vec<u8>,
    serial_overruns: u64,
    idle_cycles: u64,
}

fn board_print(board: &mut Board) -> BoardPrint {
    // Deliver any quantum-deferred device time so every path is observed
    // at the exact same device clock.
    board.bus.advance(0);
    BoardPrint {
        cycles: board.cpu.cycles,
        instructions: board.cpu.instructions,
        regs: format!("{:?}", board.cpu.regs),
        halted: board.cpu.halted,
        rtc_cycles: board.rtc().cycles,
        rtc_sample: board.mem.read_phys(rmc2000::load_phys(RTC_SAMPLE)),
        ser_count: board.mem.read_phys(rmc2000::load_phys(SER_COUNT)),
        serial_tx: board.serial().transmitted().to_vec(),
        serial_overruns: board.serial().overruns,
        idle_cycles: board.counters.idle_cycles.get(),
    }
}

// ---------------------------------------------------------------------------
// Board level: sub-epoch budgets, no NIC, no world
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum BoardOp {
    /// `Board::run` with this cycle budget.
    Run(u64),
    /// `Board::idle` (or `idle_stepwise` on the oracle) with this budget.
    Idle(u64),
    /// Host injects a character into serial port A.
    InjectSerial(u8),
}

fn board_op() -> impl Strategy<Value = BoardOp> {
    prop_oneof![
        (50u64..5_000).prop_map(BoardOp::Run),
        (1u64..120_000).prop_map(BoardOp::Idle),
        any::<u8>().prop_map(BoardOp::InjectSerial),
    ]
}

fn board_session(engine: Engine, ops: &[BoardOp], stepwise: bool) -> (BoardPrint, Vec<String>) {
    let mut board = Board::with_engine(engine);
    load(&mut board, &serial_firmware());
    let mut outcomes = vec![format!("{:?}", board.run(20_000))];
    // The random interleaving, then a settle phase so in-flight shifter
    // drains complete and get compared too.
    let settle = [BoardOp::Run(5_000), BoardOp::Idle(150_000)];
    for op in ops.iter().chain(&settle) {
        match *op {
            BoardOp::Run(budget) => outcomes.push(format!("{:?}", board.run(budget))),
            BoardOp::Idle(budget) => {
                let woke = if stepwise {
                    board.idle_stepwise(budget)
                } else {
                    board.idle(budget)
                };
                outcomes.push(format!("idle:{woke}"));
            }
            BoardOp::InjectSerial(byte) => board.serial_mut().inject(byte),
        }
    }
    (board_print(&mut board), outcomes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn board_idle_paths_agree(ops in vec(board_op(), 4..20)) {
        let oracle = board_session(Engine::Interpreter, &ops, true);
        let interp = board_session(Engine::Interpreter, &ops, false);
        let block = board_session(Engine::BlockCache, &ops, false);
        prop_assert_eq!(&oracle, &interp, "stepwise vs fast-forward (interpreter)\nops: {:?}", &ops);
        prop_assert_eq!(&interp, &block, "interpreter vs block-cache (both fast-forward)\nops: {:?}", &ops);
    }
}

// ---------------------------------------------------------------------------
// Fleet level: the epoch scheduler owns the clock
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum FleetOp {
    /// `Fleet::run_epoch` this many times.
    Epochs(u64),
    /// Lets this many epochs pass: `Fleet::fast_forward` where it
    /// applies, otherwise one `run_epoch` at a time.
    Wait(u64),
    /// Host injects a character into serial port A.
    InjectSerial(u8),
    /// Client sends this many bytes (if its connection is established).
    ClientSend(u8),
    /// Client drains whatever echoed data is available.
    ClientDrain,
}

fn fleet_op() -> impl Strategy<Value = FleetOp> {
    prop_oneof![
        (1u64..8).prop_map(FleetOp::Epochs),
        (1u64..80).prop_map(FleetOp::Wait),
        any::<u8>().prop_map(FleetOp::InjectSerial),
        (1u8..64).prop_map(FleetOp::ClientSend),
        Just(FleetOp::ClientDrain),
    ]
}

struct FleetSession {
    world: Rc<RefCell<World>>,
    fleet: Fleet,
    client: SimHost,
    conn: SocketId,
    received: Vec<u8>,
    outcomes: Vec<String>,
    /// Epochs `fast_forward` skipped (0 on the stepwise oracle).
    skipped: u64,
}

fn boot_fleet(engine: Engine, idle: IdleMode) -> FleetSession {
    let world = Rc::new(RefCell::new(World::new(42)));
    let mut fleet = Fleet::with_idle(&world, idle);
    let b = fleet.add_board(engine, "rmc2000", Ipv4::new(10, 0, 0, 1));
    let mut client = SimHost::attach(&world, "client", Ipv4::new(10, 0, 0, 2));
    let board_host = fleet.host(b).id();
    world
        .borrow_mut()
        .link(board_host, client.id(), LinkParams::ethernet_10base_t());
    load(fleet.board_mut(b), &nic_firmware());
    while !fleet.all_parked() {
        fleet.run_epoch(&[b]);
    }
    let conn = client.connect(Endpoint::new(fleet.ip(b), PORT));
    FleetSession {
        world,
        fleet,
        client,
        conn,
        received: Vec::new(),
        outcomes: Vec::new(),
        skipped: 0,
    }
}

fn apply(s: &mut FleetSession, op: &FleetOp) {
    match *op {
        FleetOp::Epochs(n) => {
            for _ in 0..n {
                s.fleet.run_epoch(&[0]);
            }
        }
        FleetOp::Wait(n) => {
            let mut left = n;
            while left > 0 {
                let k = s.fleet.fast_forward(left);
                s.skipped += k;
                if k == 0 {
                    s.fleet.run_epoch(&[0]);
                    left -= 1;
                } else {
                    left -= k;
                }
            }
        }
        FleetOp::InjectSerial(byte) => s.fleet.board_mut(0).serial_mut().inject(byte),
        FleetOp::ClientSend(len) => {
            if s.client.established(s.conn) {
                let data: Vec<u8> = (0..len).collect();
                let sent = s.client.send(s.conn, &data);
                s.outcomes.push(format!("send:{sent}"));
            }
        }
        FleetOp::ClientDrain => {
            let avail = s.client.available(s.conn);
            if avail > 0 {
                let mut buf = vec![0u8; avail];
                if let Recv::Data(n) = s.client.recv(s.conn, &mut buf) {
                    buf.truncate(n);
                    s.received.extend_from_slice(&buf);
                }
            }
        }
    }
}

/// Everything observable about a finished fleet session.
#[derive(Debug, PartialEq, Eq)]
struct FleetPrint {
    board: BoardPrint,
    nic_rx_frames: u64,
    nic_tx_frames: u64,
    nic_irqs: u64,
    epochs: u64,
    world_now: u64,
    /// The world telemetry snapshot minus `board0.board.skip_batches`.
    snapshot: String,
    received: Vec<u8>,
    outcomes: Vec<String>,
}

fn fleet_print(mut s: FleetSession) -> FleetPrint {
    let nic = s.fleet.board(0).nic().expect("nic").counters().clone();
    let snapshot = s.world.borrow().telemetry().snapshot().to_text();
    FleetPrint {
        board: board_print(s.fleet.board_mut(0)),
        nic_rx_frames: nic.rx_frames.get(),
        nic_tx_frames: nic.tx_frames.get(),
        nic_irqs: nic.irqs.get(),
        epochs: s.fleet.epochs(),
        world_now: s.world.borrow().now(),
        snapshot: snapshot
            .lines()
            .filter(|l| !l.contains("board.skip_batches"))
            .collect::<Vec<_>>()
            .join("\n"),
        received: s.received,
        outcomes: s.outcomes,
    }
}

/// Runs `ops` (then a settle phase, so in-flight round trips, echoes
/// and shifter drains complete and get compared too) on the stepwise
/// oracle and both fast-forward fleets, asserts all three agree, and
/// returns the epochs the fast-forward fleets skipped.
fn fleet_paths_agree(ops: &[FleetOp]) -> u64 {
    let settle: Vec<FleetOp> = (0..8)
        .flat_map(|_| [FleetOp::Epochs(4), FleetOp::Wait(100), FleetOp::ClientDrain])
        .collect();
    let mut oracle = boot_fleet(Engine::Interpreter, IdleMode::Stepwise);
    let mut interp = boot_fleet(Engine::Interpreter, IdleMode::FastForward);
    let mut block = boot_fleet(Engine::BlockCache, IdleMode::FastForward);
    for op in ops.iter().chain(&settle) {
        apply(&mut oracle, op);
        apply(&mut interp, op);
        apply(&mut block, op);
    }
    assert_eq!(oracle.skipped, 0, "a stepwise fleet never fast-forwards");
    assert_eq!(
        interp.skipped, block.skipped,
        "engine-invariant skips\n{ops:?}"
    );
    let skipped = interp.skipped;
    let (oracle, interp, block) = (fleet_print(oracle), fleet_print(interp), fleet_print(block));
    assert_eq!(
        oracle, interp,
        "stepwise vs fast-forward (interpreter)\n{ops:?}"
    );
    assert_eq!(
        interp, block,
        "interpreter vs block-cache (fast-forward)\n{ops:?}"
    );
    skipped
}

#[test]
fn fleet_idle_paths_agree() {
    let mut rng = TestRng::deterministic("fleet_idle_paths_agree");
    let ops = vec(fleet_op(), 4..20);
    let mut skipping_cases = 0;
    for _ in 0..16 {
        if fleet_paths_agree(&ops.sample(&mut rng)) > 0 {
            skipping_cases += 1;
        }
    }
    // `Wait` must really fast-forward somewhere, or the oracle proves
    // nothing about `Fleet::fast_forward`.
    assert!(skipping_cases > 0, "no case skipped an epoch");
}
