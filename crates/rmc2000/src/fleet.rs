//! Fleet scheduler: N boards, one deterministic world, one clock owner.
//!
//! The [`Fleet`] scheduler is the only code that advances a [`World`]
//! with a board in it. Every board's NIC backend is a passive
//! participant: it turns executed cycles into its own local clock, reads
//! `now` and moves bytes, but never calls `run_for`. If a NIC dragged the
//! shared clock along, then with two boards whoever polled first would
//! advance time under the other's feet, and every observable would become
//! a function of host-side iteration order.
//!
//! # The epoch barrier
//!
//! Boards advance in lockstep epochs of [`EPOCH_US`] microseconds
//! (= one NIC poll period, [`EPOCH_CYCLES`] cycles). One epoch ending at
//! virtual time `T`:
//!
//! 1. the world runs `(T-50, T]` first — every in-flight segment due in
//!    the window is delivered before any board looks;
//! 2. each board then executes its own `(T-50, T]` cycle slice.
//!
//! A slice that ends halted leaves device time exact ([`Board::idle`]
//! and [`Board::idle_stepwise`] end with a bus flush), so its NIC poll at
//! the boundary observes the world at exactly `T`. A slice that ends busy
//! (`RunOutcome::BudgetExhausted`) can leave the last NIC tick deferred
//! by the bus's tick quantum: the poll due at `T` then runs in the next
//! slice, after the world has already reached `T + 50`.
//!
//! Within an epoch the boards touch disjoint state (their own sockets,
//! their own memories), and every send a board performs is stamped at
//! the same world time `T`, so the order boards are visited in is
//! unobservable: shuffling the per-epoch visit order changes no
//! transcript, counter, or cycle count. Poll boundaries depend only on
//! accumulated cycle totals, so both CPU engines see identical crossings
//! and the whole schedule is engine-invariant.
//!
//! # Idle fast-forward
//!
//! When every board is parked (halted, no dispatchable interrupt) the
//! scheduler skips ahead whole epochs at once, bounded by the world's
//! next scheduled event and every board's device deadline
//! ([`rabbit::Bus::next_deadline`], the E12 event-horizon hook) — the
//! fleet-level analogue of [`crate::Board::idle`]'s batched halted time.
//! The skip decision is a function of barrier state only, so it too is
//! visit-order- and engine-invariant. An [`IdleMode::Stepwise`] fleet is
//! the reference for both batchings: every epoch runs, and halted time
//! drips 2 cycles per step.
//!
//! # Topologies
//!
//! [`fleet_serve`] is the one serving driver. With a balancer policy
//! (`FleetSpec::policy = Some(..)`) every client dials a simulated TCP
//! load balancer in front of the boards; with `None` the fleet is one
//! board and every client is linked straight to it, so clients beyond
//! its connection handles wait in the board's listen backlog — the
//! paper's single-board service (§5.3). Both run on this scheduler, and
//! so does the E11/E12 echo session ([`crate::echo`]).

use std::cell::RefCell;
use std::rc::Rc;

use rabbit::nicmap::MAX_CONNS;
use rabbit::{Engine, IoSpace};

use netsim::{Endpoint, Ipv4, LinkId, LinkParams, LoadBalancer, SimHost, SocketId, World};
use telemetry::{ProfileReport, SymbolTable};

pub use netsim::{BackendStats, LbPolicy};

use crate::board::{Board, RunOutcome};
use crate::faults::{AppliedFault, FaultEvent, FaultPlan, FaultReport, ScheduledFault};
use crate::nic::{Nic, CYCLES_PER_US, POLL_PERIOD_US};
use crate::secure::{
    build_secure_firmware, client_states, step_client, ClientOutcome, ConnCounters, GuestClient,
    SECURE_PORT,
};
use crate::serve::{build_serve_firmware, SERIAL_PROBE, SERVE_PORT};

/// One scheduling epoch in microseconds — exactly one NIC poll period,
/// so every board's boundary poll lands on the barrier.
pub const EPOCH_US: u64 = POLL_PERIOD_US;

/// One scheduling epoch in CPU cycles.
pub const EPOCH_CYCLES: u64 = EPOCH_US * CYCLES_PER_US;

/// Whether a fleet slot is advancing or frozen by a scripted fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoardState {
    /// Advancing normally: every epoch brings the board to the barrier.
    Running,
    /// Wedged by a [`crate::faults::FaultEvent::Wedge`]: the scheduler
    /// skips the slot — no cycles run, no idle time accrues, telemetry
    /// freezes — until a resurrection (if any). The board's netsim
    /// *host* still exists; whoever wedged the board is responsible for
    /// also blacking out its link, because the host-side TCP stack
    /// would otherwise keep answering SYNs on the frozen board's
    /// behalf.
    Wedged,
}

struct Slot {
    board: Board,
    host: SimHost,
    /// Absolute cycle target at the current epoch's end. Instruction
    /// overshoot (a board cannot stop mid-instruction) carries forward:
    /// the next epoch's slice is that much shorter.
    target: u64,
    state: BoardState,
}

/// How a [`Fleet`] burns the halted part of each board's slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleMode {
    /// Event-horizon batches ([`Board::idle`]) plus fleet-wide
    /// [`Fleet::fast_forward`] — the default.
    FastForward,
    /// The 2-cycles-per-step reference drip ([`Board::idle_stepwise`]),
    /// with fast-forward off: the measured "before" of the E12 experiment
    /// and the oracle of the idle differential tests.
    Stepwise,
}

/// A set of boards sharing one [`World`], advanced in deterministic
/// lockstep by the single clock owner.
pub struct Fleet {
    world: Rc<RefCell<World>>,
    slots: Vec<Slot>,
    epochs: u64,
    idle: IdleMode,
}

impl Fleet {
    /// An empty fleet over `world`, idling by fast-forward.
    pub fn new(world: &Rc<RefCell<World>>) -> Fleet {
        Fleet::with_idle(world, IdleMode::FastForward)
    }

    /// An empty fleet over `world` that burns halted time as `idle` says.
    pub fn with_idle(world: &Rc<RefCell<World>>, idle: IdleMode) -> Fleet {
        Fleet {
            world: Rc::clone(world),
            slots: Vec::new(),
            epochs: 0,
            idle,
        }
    }

    /// The shared world (cloned handle).
    pub fn world(&self) -> Rc<RefCell<World>> {
        Rc::clone(&self.world)
    }

    /// Number of boards in the fleet.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the fleet has no boards.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Epochs completed so far (fast-forwarded epochs included).
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Adds board `len()` to an epoch-scheduled fleet: a passive NIC
    /// backend (only this scheduler advances the clock) and telemetry
    /// namespaced under `board<idx>.`.
    pub fn add_board(&mut self, engine: Engine, name: &str, ip: Ipv4) -> usize {
        let idx = self.slots.len();
        let host = SimHost::attach(&self.world, name, ip);
        let mut board = Board::with_engine(engine);
        board.bind_telemetry_board(self.world.borrow().telemetry(), idx);
        board.attach_nic(Nic::fleet_attached(host.clone(), idx));
        self.slots.push(Slot {
            board,
            host,
            target: 0,
            state: BoardState::Running,
        });
        idx
    }

    /// Board `i`.
    pub fn board(&self, i: usize) -> &Board {
        &self.slots[i].board
    }

    /// Board `i`, mutably.
    pub fn board_mut(&mut self, i: usize) -> &mut Board {
        &mut self.slots[i].board
    }

    /// Board `i`'s network host handle.
    pub fn host(&self, i: usize) -> &SimHost {
        &self.slots[i].host
    }

    /// Board `i`'s IP address.
    pub fn ip(&self, i: usize) -> Ipv4 {
        self.slots[i].host.ip()
    }

    /// Whether board `i` is parked: halted with no dispatchable
    /// interrupt, i.e. nothing to do until a peripheral deadline. A
    /// wedged board counts as parked — it contributes nothing until
    /// resurrected, and must not block fleet-wide fast-forward.
    pub fn parked(&mut self, i: usize) -> bool {
        let s = &mut self.slots[i];
        s.state == BoardState::Wedged
            || (s.board.cpu.halted && s.board.bus.pending_interrupt().is_none())
    }

    /// Board `i`'s fault state.
    pub fn state(&self, i: usize) -> BoardState {
        self.slots[i].state
    }

    /// Wedges board `i`: from the next epoch on, the scheduler skips
    /// the slot entirely — no cycles, no idle time, frozen telemetry.
    /// The caller must also black out the board's link (the host-side
    /// TCP stack would otherwise answer SYNs for the frozen board); the
    /// fleet fault driver does both.
    pub fn wedge(&mut self, i: usize) {
        self.slots[i].state = BoardState::Wedged;
    }

    /// Resurrects a wedged board. Lost time is lost: the cycle target
    /// snaps to the board's frozen cycle count, so the board resumes
    /// from where it stopped instead of replaying the missed epochs.
    pub fn resurrect(&mut self, i: usize) {
        let s = &mut self.slots[i];
        s.state = BoardState::Running;
        s.target = s.board.cpu.cycles;
    }

    /// Whether every board is parked.
    pub fn all_parked(&mut self) -> bool {
        (0..self.slots.len()).all(|i| self.parked(i))
    }

    /// Runs one epoch: the world first reaches the epoch's end, then
    /// every board — visited in `order` — executes its cycle slice up to
    /// the barrier. `order` must name each board exactly once; any
    /// permutation yields identical observables (see module docs);
    /// [`fleet_serve`] refuses any other order up front.
    ///
    /// # Panics
    ///
    /// If a board's firmware stops for any reason other than halting;
    /// in debug builds also if `order` is not a permutation of the
    /// boards.
    pub fn run_epoch(&mut self, order: &[usize]) {
        debug_assert_eq!(
            {
                let mut o = order.to_vec();
                o.sort_unstable();
                o
            },
            (0..self.slots.len()).collect::<Vec<_>>(),
            "order visits every board exactly once"
        );
        self.world.borrow_mut().run_for(EPOCH_US);
        for &i in order {
            self.advance_slot(i);
        }
        self.epochs += 1;
    }

    /// Brings board `i` up to its epoch-end cycle target, mixing
    /// execution and batched halted time. A wedged slot is skipped
    /// outright: its target does not advance, so no catch-up debt
    /// accrues while frozen.
    fn advance_slot(&mut self, i: usize) {
        let idle = self.idle;
        let slot = &mut self.slots[i];
        if slot.state == BoardState::Wedged {
            return;
        }
        slot.target += EPOCH_CYCLES;
        while slot.board.cpu.cycles < slot.target {
            let left = slot.target - slot.board.cpu.cycles;
            match slot.board.run(left) {
                RunOutcome::Halted => {
                    // `run` returns Halted without consuming the budget
                    // when the CPU is already parked; burn the remainder
                    // as halted time.
                    let left = slot.target.saturating_sub(slot.board.cpu.cycles);
                    if left > 0 {
                        match idle {
                            IdleMode::FastForward => slot.board.idle(left),
                            IdleMode::Stepwise => slot.board.idle_stepwise(left),
                        };
                    }
                }
                RunOutcome::BudgetExhausted => {}
                other => panic!("board {i} firmware stopped: {other:?}"),
            }
        }
    }

    /// Skips up to `max_epochs` whole epochs of fleet-wide idleness in
    /// one batch. Applies only when every board is parked, and is
    /// bounded by the world's next scheduled event and every board's
    /// soonest device deadline, so nothing observable lands inside the
    /// skipped window. Returns the number of epochs skipped — always 0 on
    /// an [`IdleMode::Stepwise`] fleet.
    pub fn fast_forward(&mut self, max_epochs: u64) -> u64 {
        if self.idle == IdleMode::Stepwise
            || max_epochs == 0
            || self.slots.is_empty()
            || !self.all_parked()
        {
            return 0;
        }
        let mut k = max_epochs;
        {
            let w = self.world.borrow();
            if let Some(t) = w.next_event_time() {
                let now = w.now();
                if t <= now {
                    return 0;
                }
                // The event's own epoch runs normally: skip strictly
                // short of the boundary it lands on.
                k = k.min((t - now - 1) / EPOCH_US);
            }
        }
        for s in &mut self.slots {
            if s.state == BoardState::Wedged {
                continue; // frozen: no deadlines, no idle time
            }
            if let Some(d) = s.board.bus.next_deadline() {
                k = k.min(d / EPOCH_CYCLES);
            }
        }
        if k == 0 {
            return 0;
        }
        self.world.borrow_mut().run_for(k * EPOCH_US);
        for s in &mut self.slots {
            if s.state == BoardState::Wedged {
                continue;
            }
            s.target += k * EPOCH_CYCLES;
            let left = s.target.saturating_sub(s.board.cpu.cycles);
            if left > 0 {
                s.board.idle(left);
            }
        }
        self.epochs += k;
        k
    }

    /// The panic message for a run that gave up on this fleet: `what`,
    /// the epoch and virtual time it gave up at, one line per unfinished
    /// client (`clients`), then every board's PC, halted/parked state and
    /// open NIC handles.
    pub(crate) fn stall_report(&mut self, what: &str, clients: &[String]) -> String {
        let (epoch, now) = (self.epochs, self.world.borrow().now());
        let mut lines = vec![format!("{what} at epoch {epoch} ({now} virtual µs)")];
        lines.extend_from_slice(clients);
        for i in 0..self.slots.len() {
            let parked = self.parked(i);
            let s = &self.slots[i];
            lines.push(format!(
                "board{i} ({:?}): pc={:#06x}, halted={}, parked={parked}, {} open handles",
                s.state,
                s.board.cpu.regs.pc,
                s.board.cpu.halted,
                s.board.nic().map_or(0, Nic::open_handles)
            ));
        }
        lines.join("\n  ")
    }
}

// ---------------------------------------------------------------------------
// The serving driver
// ---------------------------------------------------------------------------

/// Highest host octet a simulated `10.0.<net>.0/24` hands out; `.255`
/// is the subnet's broadcast address.
pub const MAX_HOST_OCTET: u8 = 254;

/// A driver was asked to address more hosts than fit in their /24.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressLimit {
    /// What the hosts are (`"board"`, `"client"`).
    pub role: &'static str,
    /// How many were asked for.
    pub wanted: usize,
    /// How many fit: [`MAX_HOST_OCTET`].
    pub limit: usize,
    /// The subnet's third octet.
    pub net: u8,
}

impl std::fmt::Display for AddressLimit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}s exceed the limit of {} {}s in 10.0.{}.0/24",
            self.wanted, self.role, self.limit, self.role, self.net
        )
    }
}

impl std::error::Error for AddressLimit {}

/// Addresses `count` `role` hosts as `10.0.<net>.<1 + i>`, the one
/// place the driver turns a host index into an IP octet.
///
/// # Errors
///
/// [`AddressLimit`] when the last octet would pass [`MAX_HOST_OCTET`].
pub fn subnet_hosts(net: u8, count: usize, role: &'static str) -> Result<Vec<Ipv4>, AddressLimit> {
    let limit = usize::from(MAX_HOST_OCTET);
    if count > limit {
        return Err(AddressLimit {
            role,
            wanted: count,
            limit,
            net,
        });
    }
    Ok((1..=MAX_HOST_OCTET)
        .take(count)
        .map(|octet| Ipv4::new(10, 0, net, octet))
        .collect())
}

/// Which guest firmware every board of a [`fleet_serve`] run boots.
#[derive(Debug, Clone)]
pub enum FleetFirmware {
    /// The plaintext echo server ([`crate::serve::echo_server_c`]).
    PlainEcho,
    /// The secure server with `psk` poked into its C globals; it serves
    /// plain echo on the same port via first-byte sniffing.
    SecureEcho { psk: Vec<u8> },
}

/// Workload description for one [`fleet_serve`] run.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// CPU engine every board runs on.
    pub engine: Engine,
    /// Compiler options for the shared firmware build.
    pub opts: dcc::Options,
    /// Number of boards.
    pub boards: usize,
    /// How the balancer routes new connections. `None` means no
    /// balancer: one board with every client linked straight to it, so
    /// clients beyond its connection handles wait in its listen backlog.
    pub policy: Option<LbPolicy>,
    /// Firmware flavour (one build, loaded into every board).
    pub firmware: FleetFirmware,
    /// Host-side clients, all dialing the front end: the balancer's
    /// front port, or the board itself on a direct link.
    pub clients: Vec<GuestClient>,
    /// Inject a console probe into every board each `gap` microseconds
    /// of virtual time (per-board schedule). Behind a balancer only a
    /// parked board is probed; on a direct link the probes start with
    /// the service and land busy or not.
    pub probe_gap_us: Option<u64>,
    /// Board indices whose balancer link drops every packet — the
    /// dead-backend case the balancer must route around.
    pub dead_links: Vec<usize>,
    /// Per-epoch board visit orders, cycled; empty means index order.
    /// Any sequence of permutations yields identical observables.
    pub orders: Vec<Vec<usize>>,
    /// Scripted faults (flaps, wedges, storms) applied at epoch
    /// boundaries; empty means a fault-free run.
    pub faults: FaultPlan,
    /// Per-client dial times in absolute virtual µs (same order as
    /// `clients`); a client whose time falls inside boot dials right
    /// after boot. Empty means everyone dials as soon as the fleet is
    /// up.
    pub dials: Vec<u64>,
    /// Balancer dead-backend re-probe gap
    /// ([`LoadBalancer::set_retry_after_us`]); `None` keeps dead
    /// backends dead for the run.
    pub lb_retry_after_us: Option<u64>,
    /// Balancer established-session stall timeout
    /// ([`LoadBalancer::set_stall_timeout_us`]). Must exceed the
    /// longest legitimate guest compute gap (a secure handshake's
    /// SHA-1/KDF burst keeps the wire silent for hundreds of virtual
    /// ms). `None` never stalls a session out.
    pub lb_stall_timeout_us: Option<u64>,
    /// Attribute every board's guest cycles to firmware symbols
    /// ([`BoardReport::profile`]).
    pub profile: bool,
}

impl FleetSpec {
    /// A spec with the common defaults: the firmware compiler options
    /// ([`dcc::Options::firmware`]), round-robin, secure firmware, no
    /// probes, no dead links, index visit order, no profiler.
    #[must_use]
    pub fn new(engine: Engine, boards: usize, psk: &[u8], clients: Vec<GuestClient>) -> FleetSpec {
        FleetSpec {
            engine,
            opts: dcc::Options::firmware(),
            boards,
            policy: Some(LbPolicy::RoundRobin),
            firmware: FleetFirmware::SecureEcho { psk: psk.to_vec() },
            clients,
            probe_gap_us: None,
            dead_links: Vec::new(),
            orders: Vec::new(),
            faults: FaultPlan::new(),
            dials: Vec::new(),
            lb_retry_after_us: None,
            lb_stall_timeout_us: None,
            profile: false,
        }
    }

    /// Refuses a spec the driver would run unfaithfully — an order that
    /// skips a board, a link to no board, a direct link asked to do a
    /// balancer's job — before any firmware is built.
    fn validate(&self) {
        let n = self.boards;
        assert!(n >= 1, "a fleet has at least one board");
        for order in &self.orders {
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert!(
                sorted.into_iter().eq(0..n),
                "visit order {order:?} does not name each of the {n} boards once"
            );
        }
        if let Some(b) = self.dead_links.iter().find(|&&b| b >= n) {
            panic!("dead link names board {b} of {n}");
        }
        if self.policy.is_none() {
            assert!(
                n == 1,
                "a direct link serves one board, not {n}: set a policy"
            );
            assert!(
                self.dead_links.is_empty(),
                "dead links need a balancer: a direct link has no board link to drop"
            );
            assert!(
                self.faults.is_empty(),
                "fault plans need a balancer: a direct link has no board link to fault"
            );
            assert!(
                self.lb_retry_after_us.is_none() && self.lb_stall_timeout_us.is_none(),
                "balancer timeouts need a balancer: a direct link has none to configure"
            );
        }
        assert!(
            self.dials.is_empty() || self.dials.len() == self.clients.len(),
            "one dial time per client"
        );
        if let FleetFirmware::SecureEcho { psk } = &self.firmware {
            assert!(psk.len() <= 64, "guest PSK buffer is 64 bytes");
        }
    }
}

/// What one board did over a [`fleet_serve`] run.
#[derive(Debug, Clone)]
pub struct BoardReport {
    /// Telemetry namespace label (`board<idx>`).
    pub label: String,
    /// Cycles consumed (halted time included).
    pub cycles: u64,
    /// Instructions executed.
    pub instructions: u64,
    /// Guest `naccepts` counter.
    pub accepts: u16,
    /// Guest `nopen` counter — 0 after an orderly teardown.
    pub open: u16,
    /// Peak simultaneously-open NIC connection handles, sampled at every
    /// epoch barrier.
    pub peak_open: usize,
    /// Per-handle guest counters (secure firmware only; empty for
    /// plain echo).
    pub conns: Vec<ConnCounters>,
    /// Guest alerts by reason code (secure firmware only; all zero for
    /// plain echo) — see [`crate::secure::ALERT_KIND_LABELS`].
    pub alert_kinds: [u16; 3],
    /// Serial console output.
    pub serial_tx: Vec<u8>,
    /// Cycle attribution by firmware symbol, when [`FleetSpec::profile`]
    /// is set.
    pub profile: Option<ProfileReport>,
}

/// Result of one fleet serving run.
#[derive(Debug)]
pub struct FleetRun {
    /// Per-client observations, in `clients` order.
    pub outcomes: Vec<ClientOutcome>,
    /// Per-board reports, in board order.
    pub boards: Vec<BoardReport>,
    /// Balancer per-backend routing statistics, in board order; empty
    /// without a balancer.
    pub backends: Vec<BackendStats>,
    /// Epochs the fleet scheduler ran (fast-forwarded ones included).
    pub epochs: u64,
    /// Final virtual time of the shared world, in microseconds.
    pub virtual_us: u64,
    /// Total bytes echoed back across all clients.
    pub echoed_bytes: u64,
    /// Deterministic text snapshot of the world telemetry (per-board
    /// namespaced counters plus the balancer's `lb.*` family).
    pub snapshot: String,
    /// Root code size of the shared firmware, in bytes.
    pub code_size: usize,
    /// What the fault plan did: applied events, corrupted-frame count,
    /// the failover-latency book, and wedge-time telemetry captures.
    pub faults: FaultReport,
}

/// Applies a compiled [`FaultPlan`] to a running fleet: events fire at
/// the first epoch boundary at or after their due time, in plan order.
/// Application is a pure function of virtual time — engine- and
/// visit-order-invariant.
struct FaultDriver {
    events: Vec<ScheduledFault>,
    next: usize,
    report: FaultReport,
}

impl FaultDriver {
    fn new(plan: &FaultPlan, boards: usize) -> FaultDriver {
        let events = plan.compiled();
        for e in &events {
            let b = match &e.event {
                FaultEvent::SetDropRate { board, .. }
                | FaultEvent::RestoreDropRate { board }
                | FaultEvent::Wedge { board }
                | FaultEvent::Resurrect { board }
                | FaultEvent::StormStart { board, .. }
                | FaultEvent::StormEnd { board } => *board,
            };
            assert!(b < boards, "fault plan names board {b} of {boards}");
        }
        FaultDriver {
            events,
            next: 0,
            report: FaultReport::default(),
        }
    }

    /// Due time of the next unapplied event — a fast-forward bound, so
    /// a fleet-wide idle skip never jumps a fault.
    fn next_due_us(&self) -> Option<u64> {
        self.events.get(self.next).map(|e| e.at_us)
    }

    /// Applies every event due at or before the world's current time.
    fn apply_due(
        &mut self,
        fleet: &mut Fleet,
        world: &Rc<RefCell<World>>,
        links: &[LinkId],
        dead_links: &[usize],
    ) {
        let now = world.borrow().now();
        while self.next < self.events.len() && self.events[self.next].at_us <= now {
            let ev = self.events[self.next].clone();
            self.next += 1;
            let base = |board: &usize| if dead_links.contains(board) { 1.0 } else { 0.0 };
            let what = match &ev.event {
                FaultEvent::SetDropRate { board, rate } => {
                    world.borrow_mut().set_drop_rate(links[*board], *rate);
                    format!("flap board{board} drop_rate={rate}")
                }
                FaultEvent::RestoreDropRate { board } => {
                    world.borrow_mut().set_drop_rate(links[*board], base(board));
                    format!("restore board{board} drop_rate={}", base(board))
                }
                FaultEvent::Wedge { board } => {
                    // Freeze the epochs AND black out the link: the
                    // host-side TCP stack would otherwise answer SYNs
                    // for the frozen board and hide the wedge from the
                    // balancer's connect timeout.
                    fleet.wedge(*board);
                    world.borrow_mut().set_drop_rate(links[*board], 1.0);
                    let snap = world.borrow().telemetry().snapshot().to_text();
                    let prefix = format!("board{board}.net.board.");
                    let frozen: String = snap
                        .lines()
                        .filter(|l| l.starts_with(&prefix))
                        .map(|l| format!("{l}\n"))
                        .collect();
                    self.report.wedge_snapshots.push((*board, frozen));
                    format!("wedge board{board}")
                }
                FaultEvent::Resurrect { board } => {
                    fleet.resurrect(*board);
                    world.borrow_mut().set_drop_rate(links[*board], base(board));
                    format!("resurrect board{board}")
                }
                FaultEvent::StormStart { board, spec } => {
                    world
                        .borrow_mut()
                        .set_corruption(links[*board], Some(spec.clone()));
                    format!("storm board{board} armed")
                }
                FaultEvent::StormEnd { board } => {
                    world.borrow_mut().set_corruption(links[*board], None);
                    format!("storm board{board} cleared")
                }
            };
            self.report.applied.push(AppliedFault {
                at_us: ev.at_us,
                applied_us: now,
                what,
            });
        }
    }
}

/// The moving parts of one [`fleet_serve`] run that every epoch barrier
/// touches.
struct Barrier<'a> {
    spec: &'a FleetSpec,
    world: Rc<RefCell<World>>,
    fleet: Fleet,
    /// The balancer, absent on a direct link.
    lb: Option<LoadBalancer>,
    /// Balancer-to-board links, in board order (empty on a direct link).
    links: Vec<LinkId>,
    faults: FaultDriver,
    identity: Vec<usize>,
    peak_open: Vec<usize>,
}

impl Barrier<'_> {
    /// One epoch in this epoch's visit order, then the faults it made
    /// due, one balancer pump, and every board's open-handle peak.
    fn epoch(&mut self) {
        let orders = &self.spec.orders;
        let order = if orders.is_empty() {
            &self.identity
        } else {
            &orders[(self.fleet.epochs() % orders.len() as u64) as usize]
        };
        self.fleet.run_epoch(order);
        self.faults.apply_due(
            &mut self.fleet,
            &self.world,
            &self.links,
            &self.spec.dead_links,
        );
        if let Some(lb) = &mut self.lb {
            lb.pump();
        }
        for (i, peak) in self.peak_open.iter_mut().enumerate() {
            let open = self.fleet.board(i).nic().map_or(0, Nic::open_handles);
            *peak = (*peak).max(open);
        }
    }
}

/// The profiler's symbol table for `build`, without `dcc`'s generated
/// branch labels (`L<n>_...`): they would fragment each C function's
/// cycles across its basic blocks. Everything else stays — `_name` C
/// functions and runtime helpers, and the AES module's named internals
/// (`encrypt`, `subshift`, ...), so nearest-label-below resolution
/// folds blocks into functions without hiding where the assembly spends
/// its time.
fn profile_symbols(build: &dcc::Build) -> SymbolTable {
    let local = |n: &str| {
        n.strip_prefix('L')
            .and_then(|r| r.chars().next())
            .is_some_and(|c| c.is_ascii_digit())
    };
    SymbolTable::from_pairs(
        build
            .image
            .symbols
            .iter()
            .filter(|(n, _)| !local(n))
            .map(|(n, &a)| (n.as_str(), a)),
    )
}

/// Runs `spec.boards` boards against `spec.clients` concurrent
/// host-side clients, behind a simulated TCP load balancer or (policy
/// `None`) on a direct link to one board. Every observable is a
/// deterministic function of the spec — identical on both engines and
/// under any per-epoch board visit order.
///
/// # Panics
///
/// If the spec is inconsistent (see [`FleetSpec`]'s fields), the boards
/// or clients do not fit their /24 ([`subnet_hosts`]), a board's
/// firmware faults, or the session does not converge.
pub fn fleet_serve(spec: &FleetSpec) -> FleetRun {
    spec.validate();
    let faults = FaultDriver::new(&spec.faults, spec.boards);
    let board_ips = subnet_hosts(1, spec.boards, "board").unwrap_or_else(|e| panic!("{e}"));
    let client_ips =
        subnet_hosts(2, spec.clients.len(), "client").unwrap_or_else(|e| panic!("{e}"));
    let (build, port) = match &spec.firmware {
        FleetFirmware::PlainEcho => (build_serve_firmware(spec.opts), SERVE_PORT),
        FleetFirmware::SecureEcho { .. } => (build_secure_firmware(spec.opts), SECURE_PORT),
    };

    let world = Rc::new(RefCell::new(World::new(42)));
    let mut fleet = Fleet::new(&world);
    for (i, &ip) in board_ips.iter().enumerate() {
        let b = fleet.add_board(spec.engine, &format!("rmc2000-{i}"), ip);
        let board = fleet.board_mut(b);
        board.load(&build.image);
        board.set_pc(dcc::layout::CODE_ORG);
        if spec.profile {
            board.cpu.enable_profiler();
        }
        if let FleetFirmware::SecureEcho { psk } = &spec.firmware {
            // Root data lives in SRAM; `Memory::load` models the kit's
            // programming port.
            let psk_phys = build.symbol_phys("_psk").expect("C global `psk`");
            board.mem.load(psk_phys, psk);
            let psklen_phys = build.symbol_phys("_psklen").expect("C global `psklen`");
            board
                .mem
                .load(psklen_phys, &(psk.len() as u16).to_le_bytes());
        }
    }

    // The front end every client dials: the balancer, or board 0.
    let mut links: Vec<LinkId> = Vec::new();
    let (lb, front_host, front) = match spec.policy {
        Some(policy) => {
            let mut lb =
                LoadBalancer::attach(&world, "lb", Ipv4::new(10, 0, 0, 250), port, 64, policy);
            // Each board owns MAX_CONNS connection handles; clients
            // beyond the fleet-wide capacity wait at the balancer, not
            // in a board backlog (where the connect-timeout health check
            // would misread a busy board as a dead one).
            lb.set_max_inflight(Some(MAX_CONNS));
            lb.set_retry_after_us(spec.lb_retry_after_us);
            lb.set_stall_timeout_us(spec.lb_stall_timeout_us);
            for i in 0..spec.boards {
                let link = if spec.dead_links.contains(&i) {
                    LinkParams::ethernet_10base_t().with_drop_rate(1.0)
                } else {
                    LinkParams::ethernet_10base_t()
                };
                let board_host = fleet.host(i).id();
                links.push(world.borrow_mut().link(lb.host().id(), board_host, link));
                lb.add_backend(Endpoint::new(fleet.ip(i), port));
            }
            let (host, ip) = (lb.host().id(), lb.host().ip());
            (Some(lb), host, Endpoint::new(ip, port))
        }
        None => (None, fleet.host(0).id(), Endpoint::new(fleet.ip(0), port)),
    };

    let mut hosts: Vec<SimHost> = client_ips
        .into_iter()
        .map(|ip| {
            let host = SimHost::attach(&world, "client", ip);
            world
                .borrow_mut()
                .link(front_host, host.id(), LinkParams::ethernet_10base_t());
            host
        })
        .collect();

    let mut run = Barrier {
        spec,
        world: Rc::clone(&world),
        fleet,
        lb,
        links,
        faults,
        identity: (0..spec.boards).collect(),
        peak_open: vec![0; spec.boards],
    };

    // Boot: every board's main seeds its state, configures serial + NIC,
    // and parks in idle().
    loop {
        run.epoch();
        if run.fleet.all_parked() {
            break;
        }
        if run.fleet.epochs() >= 2_000 {
            let report = run.fleet.stall_report("fleet firmware did not boot", &[]);
            panic!("{report}");
        }
    }

    // Clients dial the front end at their scheduled times (everyone
    // immediately when no dial times are given).
    let dial_at: Vec<u64> = if spec.dials.is_empty() {
        vec![0; spec.clients.len()]
    } else {
        spec.dials.clone()
    };
    let mut conns: Vec<Option<SocketId>> = vec![None; spec.clients.len()];
    let mut state = client_states(&spec.clients);

    const MAX_EPOCHS: u64 = 4_000_000; // 200 virtual seconds
    const FF_CHUNK: u64 = 200; // 10ms of skipped idle per decision

    // Console probes land at epoch barriers, where both engines stop at
    // the same instruction boundary and sample a new interrupt before the
    // next one, so the console transcript is a deterministic function of
    // virtual time. Behind a balancer, a board is probed only while
    // parked, on a schedule that runs from power-on. On a direct link the
    // console is the operator's terminal of the paper's single-board
    // service: probed from the moment the service is up, busy or not —
    // the priority-2 serial ISR preempts the NIC routine and reports the
    // open count that routine last published.
    let direct = spec.policy.is_none();
    let first_probe = if direct { 0 } else { spec.probe_gap_us.unwrap_or(0) };
    let mut next_probe: Vec<u64> = vec![first_probe; spec.boards];

    loop {
        {
            let now = world.borrow().now();
            for (i, conn) in conns.iter_mut().enumerate() {
                if conn.is_none() && now >= dial_at[i] {
                    *conn = Some(hosts[i].connect(front));
                }
            }
        }
        if state.iter().all(|s| s.done) {
            break;
        }
        if run.fleet.epochs() >= MAX_EPOCHS {
            let clients: Vec<String> = state
                .iter()
                .enumerate()
                .filter(|(_, st)| !st.done)
                .map(|(i, st)| st.describe(i))
                .collect();
            let report = run
                .fleet
                .stall_report("fleet serve session did not converge", &clients);
            panic!("{report}");
        }
        run.epoch();

        if let Some(gap) = spec.probe_gap_us {
            let now = world.borrow().now();
            for (i, due) in next_probe.iter_mut().enumerate() {
                // A wedged board is parked but must not accumulate a
                // backlog of probe bytes to replay on resurrection; its
                // probe clock keeps ticking, it just skips the injects.
                let wedged = run.fleet.state(i) == BoardState::Wedged;
                if now >= *due && (direct || run.fleet.parked(i)) {
                    if !wedged {
                        run.fleet.board_mut(i).serial_mut().inject(SERIAL_PROBE);
                    }
                    *due = now + gap;
                }
            }
        }

        for ((host, conn), st) in hosts.iter_mut().zip(&conns).zip(state.iter_mut()) {
            if let Some(conn) = conn {
                if !st.done {
                    step_client(host, *conn, st);
                }
            }
        }

        // Fleet-wide idle skip, held short of the next probe due-time,
        // the next scheduled fault and the next client dial, so none of
        // those schedules is disturbed.
        let mut bound = FF_CHUNK;
        {
            let now = world.borrow().now();
            let mut soonest = u64::MAX;
            if spec.probe_gap_us.is_some() {
                soonest = soonest.min(next_probe.iter().copied().min().unwrap_or(u64::MAX));
            }
            if let Some(t) = run.faults.next_due_us() {
                soonest = soonest.min(t);
            }
            for (i, conn) in conns.iter().enumerate() {
                if conn.is_none() {
                    soonest = soonest.min(dial_at[i]);
                }
            }
            if soonest != u64::MAX {
                bound = if soonest > now {
                    bound.min((soonest - now) / EPOCH_US)
                } else {
                    0
                };
            }
        }
        if bound > 0 {
            run.fleet.fast_forward(bound);
        }
    }

    // Orderly teardown: FINs propagate (through the balancer, if any),
    // the guests observe them and free their handles. Late plan events
    // (a resurrection scheduled past the last echo) still apply.
    for _ in 0..150 {
        run.epoch();
    }

    let read_arr = |board: &Board, name: &str, idx: usize| -> u16 {
        let phys = build.symbol_phys(name).expect("C global exists") + 2 * idx as u32;
        u16::from_le_bytes([board.mem.read_phys(phys), board.mem.read_phys(phys + 1)])
    };
    let secure = matches!(spec.firmware, FleetFirmware::SecureEcho { .. });
    let syms = spec.profile.then(|| profile_symbols(&build));

    let reports: Vec<BoardReport> = (0..spec.boards)
        .map(|i| {
            let profile = run.fleet.board_mut(i).cpu.take_profiler();
            let board = run.fleet.board(i);
            let conns = if secure {
                (0..MAX_CONNS)
                    .map(|h| ConnCounters {
                        handshakes: read_arr(board, "_hs_ok", h),
                        records_in: read_arr(board, "_rec_in", h),
                        records_out: read_arr(board, "_rec_out", h),
                        alerts: read_arr(board, "_alerts", h),
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let alert_kinds = if secure {
                [0, 1, 2].map(|k| read_arr(board, "_alert_kind", k))
            } else {
                [0; 3]
            };
            BoardReport {
                label: format!("board{i}"),
                cycles: board.cpu.cycles,
                instructions: board.cpu.instructions,
                accepts: read_arr(board, "_naccepts", 0),
                open: read_arr(board, "_nopen", 0),
                peak_open: run.peak_open[i],
                conns,
                alert_kinds,
                serial_tx: board.serial().transmitted().to_vec(),
                profile: profile.zip(syms.as_ref()).map(|(p, syms)| p.report(syms)),
            }
        })
        .collect();

    // Publish the guests' counters into the shared registry under their
    // board namespaces.
    {
        let w = world.borrow();
        let reg = w.telemetry();
        for r in &reports {
            for (h, c) in r.conns.iter().enumerate() {
                let hl = h.to_string();
                let labels = [("conn", hl.as_str())];
                for (name, v) in [
                    ("issl.guest.handshakes", u64::from(c.handshakes)),
                    ("issl.guest.records.in", u64::from(c.records_in)),
                    ("issl.guest.records.out", u64::from(c.records_out)),
                    ("issl.guest.alerts", u64::from(c.alerts)),
                ] {
                    reg.counter(&format!("{}.{name}", r.label), &labels).add(v);
                }
            }
            if !r.conns.is_empty() {
                for (kind, &v) in crate::secure::ALERT_KIND_LABELS.iter().zip(&r.alert_kinds) {
                    reg.counter(
                        &format!("{}.issl.guest.alerts.kind", r.label),
                        &[("kind", *kind)],
                    )
                    .add(u64::from(v));
                }
            }
        }
    }

    let snapshot = world.borrow().telemetry().snapshot().to_text();
    let virtual_us = world.borrow().now();
    let echoed_bytes = state.iter().map(|s| s.out.echoed.len() as u64).sum();
    let mut faults = run.faults.report;
    faults.corrupted_frames = world.borrow().stats.corrupted.get();
    if let Some(lb) = &run.lb {
        faults.failover_latencies_us = lb.failover_latencies_us().to_vec();
    }
    FleetRun {
        outcomes: state.into_iter().map(|s| s.out).collect(),
        boards: reports,
        backends: run
            .lb
            .as_ref()
            .map_or_else(Vec::new, LoadBalancer::backend_stats),
        epochs: run.fleet.epochs(),
        virtual_us,
        echoed_bytes,
        snapshot,
        code_size: build.code_size(),
        faults,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_clients(n: usize) -> Vec<GuestClient> {
        (0..n)
            .map(|i| GuestClient::Plain {
                messages: vec![format!("fleet echo {i}").into_bytes()],
            })
            .collect()
    }

    #[test]
    fn two_board_fleet_serves_plain_echo() {
        let mut spec = FleetSpec::new(Engine::Interpreter, 2, b"", echo_clients(4));
        spec.firmware = FleetFirmware::PlainEcho;
        let r = fleet_serve(&spec);
        for (i, o) in r.outcomes.iter().enumerate() {
            assert_eq!(
                o.echoed,
                format!("fleet echo {i}").into_bytes(),
                "client {i}"
            );
        }
        // Round-robin spread the four sessions evenly.
        assert_eq!(
            r.backends.iter().map(|b| b.served).collect::<Vec<_>>(),
            vec![2, 2]
        );
        for b in &r.boards {
            assert_eq!(b.open, 0, "{} freed its handles", b.label);
        }
        assert!(r.snapshot.contains("board0.net.board.conn.accepts"));
        assert!(r.snapshot.contains("board1.net.board.conn.accepts"));
    }

    #[test]
    fn subnet_hosts_fill_the_slash_24_and_refuse_the_next_host() {
        let boards = subnet_hosts(1, 254, "board").expect("254 boards fit");
        assert_eq!(boards[0], Ipv4::new(10, 0, 1, 1));
        assert_eq!(boards[253], Ipv4::new(10, 0, 1, 254));
        let err = subnet_hosts(2, 255, "client").unwrap_err();
        assert_eq!(
            err.to_string(),
            "255 clients exceed the limit of 254 clients in 10.0.2.0/24"
        );
        assert_eq!(err.limit, 254);
    }

    #[test]
    #[should_panic(expected = "255 boards exceed the limit of 254 boards in 10.0.1.0/24")]
    fn fleet_serve_refuses_a_board_past_the_subnet() {
        let spec = FleetSpec::new(Engine::Interpreter, 255, b"", echo_clients(1));
        fleet_serve(&spec);
    }

    #[test]
    #[should_panic(expected = "255 clients exceed the limit of 254 clients in 10.0.2.0/24")]
    fn fleet_serve_refuses_a_client_past_the_subnet() {
        let spec = FleetSpec::new(Engine::Interpreter, 1, b"", echo_clients(255));
        fleet_serve(&spec);
    }

    /// A spec with no balancer; the tests below break one rule each, so
    /// `validate` refuses it before any firmware is built.
    fn direct(boards: usize) -> FleetSpec {
        let mut spec = FleetSpec::new(Engine::Interpreter, boards, b"", echo_clients(1));
        spec.policy = None;
        spec
    }

    #[test]
    #[should_panic(expected = "visit order [0, 0] does not name each of the 2 boards once")]
    fn fleet_serve_refuses_an_order_that_skips_a_board() {
        let mut spec = FleetSpec::new(Engine::Interpreter, 2, b"", echo_clients(1));
        spec.orders = vec![vec![1, 0], vec![0, 0]];
        fleet_serve(&spec);
    }

    #[test]
    #[should_panic(expected = "dead link names board 2 of 2")]
    fn fleet_serve_refuses_a_dead_link_past_the_fleet() {
        let mut spec = FleetSpec::new(Engine::Interpreter, 2, b"", echo_clients(1));
        spec.dead_links = vec![2];
        fleet_serve(&spec);
    }

    #[test]
    #[should_panic(expected = "a direct link serves one board, not 2: set a policy")]
    fn fleet_serve_refuses_a_direct_link_to_two_boards() {
        fleet_serve(&direct(2));
    }

    #[test]
    #[should_panic(expected = "dead links need a balancer")]
    fn fleet_serve_refuses_a_dead_link_without_a_balancer() {
        let mut spec = direct(1);
        spec.dead_links = vec![0];
        fleet_serve(&spec);
    }

    #[test]
    #[should_panic(expected = "fault plans need a balancer")]
    fn fleet_serve_refuses_a_fault_plan_without_a_balancer() {
        let mut spec = direct(1);
        spec.faults = FaultPlan::new().wedge(0, 1_000);
        fleet_serve(&spec);
    }

    #[test]
    #[should_panic(expected = "balancer timeouts need a balancer")]
    fn fleet_serve_refuses_balancer_timeouts_without_a_balancer() {
        let mut spec = direct(1);
        spec.lb_stall_timeout_us = Some(2_000_000);
        fleet_serve(&spec);
    }

    /// A raw client whose lone byte `0x16` opens a handshake record and
    /// never finishes its header: the guest waits for the rest, the
    /// client for an answer, and `fleet_serve` gives up naming both.
    #[test]
    #[should_panic(
        expected = "client 0 (raw): established=true, echoed 0/0 bytes, 1 raw bytes in, fin=false\n  board0 (Running): pc="
    )]
    fn a_stalled_session_reports_its_client_and_board() {
        let mut spec = direct(1);
        spec.clients = vec![GuestClient::Raw {
            payload: vec![0x16],
        }];
        fleet_serve(&spec);
    }

    #[test]
    fn visit_order_is_unobservable() {
        let mut a = FleetSpec::new(Engine::Interpreter, 3, b"", echo_clients(6));
        a.firmware = FleetFirmware::PlainEcho;
        let mut b = a.clone();
        b.orders = vec![vec![2, 0, 1], vec![1, 2, 0]];
        let ra = fleet_serve(&a);
        let rb = fleet_serve(&b);
        assert_eq!(ra.outcomes, rb.outcomes);
        assert_eq!(ra.snapshot, rb.snapshot);
        assert_eq!(ra.virtual_us, rb.virtual_us);
        assert_eq!(ra.epochs, rb.epochs);
    }
}
