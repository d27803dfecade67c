//! The network interface controller: the board's port-mapped NIC, bridged
//! to a `netsim` host.
//!
//! The real RMC2000 carries a 10Base-T NIC on the Rabbit's external I/O
//! bus, with Dynamic C's TCP/IP library terminating TCP on the CPU. This
//! model keeps the paper's programming surface (command/status registers
//! plus packet windows reached with `ioe`) but terminates TCP in the
//! simulated network stack, like a TCP-offload NIC: the frames the guest
//! exchanges through the rings are TCP payload chunks. Guest cycles drive
//! the backend's *local* clock — [`Nic::tick`] converts CPU cycles to
//! microseconds at [`CYCLES_PER_US`] (the repo-wide 30 MHz board clock).
//! That local clock never moves the shared `netsim` world: the backend is
//! a passive participant, and only the [`crate::fleet`] scheduler
//! advances world time, at epoch barriers that coincide with the NIC's
//! poll boundaries — so instruction execution and packet delivery share
//! one deterministic timeline.
//!
//! # Connection handles
//!
//! The register file is handle-based: `CONN` selects one of
//! [`MAX_CONNS`] connection handles (the paper's limit of three
//! concurrent connections), and `RXLEN`, the rx window, `TX_GO`,
//! `RX_NEXT`, `ACCEPT`, `CLOSE` and the per-connection `STATUS` bits all
//! act on the selected handle. Connections are accepted explicitly:
//! `LISTEN` opens the listening socket, `STATUS_ACCEPT_READY` reports a
//! connection waiting in the backlog, and `ACCEPT` binds it to the
//! selected (free) handle. A command that cannot succeed — `TX_GO` or
//! `CLOSE` on an unopened handle, `ACCEPT` onto an occupied one or with
//! nothing pending, a second `LISTEN`, `RX_NEXT` with an empty queue —
//! changes nothing and sets [`STATUS_ERR`]. The full register map lives
//! in [`rabbit::nicmap`], shared with the firmware shims and the `dcc`
//! intrinsics.
//!
//! # Interrupt
//!
//! The interrupt line (priority 1, vector [`NIC_VECTOR`], enabled by
//! `IER` bit 0) is level-ish: it is asserted while any handle has a
//! received frame queued, while a connection waits in the backlog *and* a
//! free handle could accept it, or while an open handle's peer has closed
//! and its queue is drained (so the guest is woken to `CLOSE` and free
//! the handle). Service routines therefore drain *all* causes — accept,
//! echo, close — before `reti`.
//!
//! # Determinism across engines
//!
//! The bus delivers exact cycle totals at every `ioi`/`ioe` access (which
//! are barriers in the block-caching engine), but the two engines tick in
//! different chunkings. The NIC therefore advances its backend and polls
//! for received data only at fixed virtual-time boundaries (every
//! [`POLL_PERIOD_US`]); boundary crossings depend only on the cycle
//! *total*, so frame chunking — and hence every guest-visible register —
//! is byte-identical under `Engine::Interpreter` and
//! `Engine::BlockCache`. The interrupt level is recomputed only at poll
//! boundaries and at register writes (both cycle-exact points); status
//! reads query the backend live, which is equally deterministic because
//! backend state only changes inside `advance` (driven by exact cycle
//! totals) or guest commands.

use std::any::Any;
use std::collections::VecDeque;

use netsim::{SimHost, SocketId};
use rabbit::{Device, Interrupt, PortRange};
use telemetry::Counter;

pub use rabbit::nicmap::{
    CMD_ACCEPT, CMD_CLOSE, CMD_LISTEN, CMD_RX_NEXT, CMD_TX_GO, MAX_CONNS, NIC_BASE, NIC_CMD,
    NIC_CONN, NIC_IER, NIC_LPORT_HI, NIC_LPORT_LO, NIC_RXLEN_HI, NIC_RXLEN_LO, NIC_RX_WINDOW,
    NIC_STATUS, NIC_TXLEN_HI, NIC_TXLEN_LO, NIC_TX_WINDOW, STATUS_ACCEPT_READY, STATUS_ERR,
    STATUS_ESTABLISHED, STATUS_LINK, STATUS_PEER_CLOSED, STATUS_RX_AVAIL, STATUS_TX_READY,
};

/// Logical address of the NIC's interrupt service routine vector.
pub const NIC_VECTOR: u16 = 0x00F0;
/// CPU cycles per microsecond of virtual time (the 30 MHz board clock).
pub const CYCLES_PER_US: u64 = 30;
/// Virtual-time period between backend polls.
pub const POLL_PERIOD_US: u64 = 50;
/// Largest frame the rings carry.
pub const FRAME_MAX: usize = 1024;
/// Receive-ring depth per handle, in frames; the backend holds further
/// data back (TCP flow control) while a handle's ring is full.
pub const RX_RING: usize = 8;

/// What the NIC plugs into: a clocked transport that produces and
/// consumes payload frames over a table of connection handles.
///
/// `advance` must be additive (`advance(a); advance(b)` ≡
/// `advance(a + b)` when no `poll` intervenes) — the NIC calls it in
/// whatever increments the CPU's tick chunking produces. Handle indices
/// are always `< MAX_CONNS` (the register file range-checks `CONN`).
pub trait NicBackend {
    /// Advances backend time by `us` microseconds.
    fn advance(&mut self, us: u64);

    /// Opens the listening socket on `port`. `false` if it could not be
    /// opened (port in use).
    fn listen(&mut self, port: u16) -> bool;

    /// Whether a connection waits in the listen backlog.
    fn accept_ready(&self) -> bool;

    /// Binds the next pending connection to `handle`. `false` if nothing
    /// was pending. The caller guarantees `handle` is free.
    fn accept(&mut self, handle: usize) -> bool;

    /// Closes and frees `handle`. The caller guarantees it is open.
    fn close(&mut self, handle: usize);

    /// Whether `handle` is bound to a connection.
    fn open(&self, handle: usize) -> bool;

    /// Takes the next available payload frame on `handle`, if any (at
    /// most [`FRAME_MAX`] bytes).
    fn poll(&mut self, handle: usize) -> Option<Vec<u8>>;

    /// Queues `frame` for transmission on `handle` (which the caller
    /// guarantees is open).
    fn send(&mut self, handle: usize, frame: &[u8]);

    /// Whether `handle`'s TCP connection is established.
    fn established(&self, handle: usize) -> bool;

    /// Whether `handle`'s peer has closed its direction.
    fn peer_closed(&self, handle: usize) -> bool;

    /// A lower bound on how far in the future (µs from the backend's
    /// current time) a [`NicBackend::poll`] could first return a frame or
    /// observe changed connection state. `Some(0)` — the default — means
    /// "unknown: treat every poll as potentially live"; `None` means
    /// nothing is in flight and no poll will ever observe anything until
    /// the guest acts. Used by the idle scheduler to extend the NIC's
    /// deadline past provably idle poll boundaries; over-conservative
    /// answers cost speed, never correctness. Relative time keeps the
    /// hint meaningful even when the backend clock (the shared world) did
    /// not start with the NIC's.
    fn next_activity_us(&self) -> Option<u64> {
        Some(0)
    }
}

/// Per-handle `net.board.conn.*` counters.
#[derive(Debug, Clone)]
pub struct ConnCounters {
    /// Connections accepted onto this handle.
    pub accepts: Counter,
    /// Bytes delivered to the guest on this handle.
    pub rx_bytes: Counter,
    /// Bytes transmitted by the guest on this handle.
    pub tx_bytes: Counter,
}

/// The `net.board.*` telemetry counters the NIC maintains.
#[derive(Debug, Clone)]
pub struct NicCounters {
    /// Frames delivered to the guest.
    pub rx_frames: Counter,
    /// Bytes delivered to the guest.
    pub rx_bytes: Counter,
    /// Frames transmitted by the guest.
    pub tx_frames: Counter,
    /// Bytes transmitted by the guest.
    pub tx_bytes: Counter,
    /// Receive interrupts raised.
    pub irqs: Counter,
    /// Commands that failed and set [`STATUS_ERR`].
    pub cmd_errors: Counter,
    /// Per-handle counters (`conn` label `"0"`..).
    pub conn: Vec<ConnCounters>,
}

/// Label values for the connection handles.
const CONN_LABELS: [&str; MAX_CONNS] = ["0", "1", "2"];

impl NicCounters {
    /// Registers the counters in `registry` as board `idx`'s
    /// (`board<idx>.net.board.*`), so boards sharing one registry never
    /// collide. Idempotent: fetches the existing cells on a second call.
    pub fn register_board(registry: &telemetry::Registry, idx: usize) -> NicCounters {
        let p = |name: &str| format!("board{idx}.{name}");
        NicCounters {
            rx_frames: registry.counter(&p("net.board.rx_frames"), &[]),
            rx_bytes: registry.counter(&p("net.board.rx_bytes"), &[]),
            tx_frames: registry.counter(&p("net.board.tx_frames"), &[]),
            tx_bytes: registry.counter(&p("net.board.tx_bytes"), &[]),
            irqs: registry.counter(&p("net.board.irqs"), &[]),
            cmd_errors: registry.counter(&p("net.board.cmd_errors"), &[]),
            conn: CONN_LABELS
                .iter()
                .map(|l| ConnCounters {
                    accepts: registry.counter(&p("net.board.conn.accepts"), &[("conn", l)]),
                    rx_bytes: registry.counter(&p("net.board.conn.rx_bytes"), &[("conn", l)]),
                    tx_bytes: registry.counter(&p("net.board.conn.tx_bytes"), &[("conn", l)]),
                })
                .collect(),
        }
    }

    /// Free-standing counters, not attached to any registry.
    pub fn detached() -> NicCounters {
        NicCounters {
            rx_frames: Counter::new(),
            rx_bytes: Counter::new(),
            tx_frames: Counter::new(),
            tx_bytes: Counter::new(),
            irqs: Counter::new(),
            cmd_errors: Counter::new(),
            conn: (0..MAX_CONNS)
                .map(|_| ConnCounters {
                    accepts: Counter::new(),
                    rx_bytes: Counter::new(),
                    tx_bytes: Counter::new(),
                })
                .collect(),
        }
    }
}

/// The NIC device.
pub struct Nic {
    backend: Box<dyn NicBackend>,
    counters: NicCounters,
    /// Per-handle receive rings.
    rx: Vec<VecDeque<Vec<u8>>>,
    tx_buf: Box<[u8; FRAME_MAX]>,
    tx_len: u16,
    listen_port: u16,
    /// Handle selected in the `CONN` register.
    conn_sel: usize,
    /// A successful `LISTEN` was issued.
    listening: bool,
    /// The previous command failed ([`STATUS_ERR`]).
    err: bool,
    irq_enabled: bool,
    irq_pending: bool,
    /// Cycles not yet converted to microseconds.
    cycle_acc: u64,
    /// Microseconds of backend time advanced so far.
    time_us: u64,
    /// Next virtual time at which the backend is polled.
    next_poll_us: u64,
}

impl Nic {
    /// A NIC wired to `backend`, with detached counters.
    pub fn new(backend: Box<dyn NicBackend>) -> Nic {
        Nic::with_counters(backend, NicCounters::detached())
    }

    /// A NIC wired to `backend`, reporting through `counters`.
    pub fn with_counters(backend: Box<dyn NicBackend>, counters: NicCounters) -> Nic {
        Nic {
            backend,
            counters,
            rx: (0..MAX_CONNS).map(|_| VecDeque::new()).collect(),
            tx_buf: Box::new([0; FRAME_MAX]),
            tx_len: 0,
            listen_port: 7,
            conn_sel: 0,
            listening: false,
            err: false,
            irq_enabled: false,
            irq_pending: false,
            cycle_acc: 0,
            time_us: 0,
            next_poll_us: POLL_PERIOD_US,
        }
    }

    /// A NIC attached to a `netsim` host as fleet board `idx`: the
    /// backend is a passive world participant (only the fleet scheduler
    /// advances time) and the counters register under
    /// `board<idx>.net.board.*` so boards sharing one registry never
    /// collide.
    pub fn fleet_attached(host: SimHost, idx: usize) -> Nic {
        let counters = {
            let world = host.world();
            let world = world.borrow();
            NicCounters::register_board(world.telemetry(), idx)
        };
        Nic::with_counters(Box::new(SimBackend::new(host)), counters)
    }

    /// The counters this NIC reports through.
    pub fn counters(&self) -> &NicCounters {
        &self.counters
    }

    /// Frames waiting in the receive rings, all handles together.
    pub fn rx_pending(&self) -> usize {
        self.rx.iter().map(VecDeque::len).sum()
    }

    /// Frames waiting in `handle`'s receive ring.
    pub fn rx_pending_on(&self, handle: usize) -> usize {
        self.rx[handle].len()
    }

    /// Handles currently bound to a connection — the board's concurrent
    /// connection count, sampled by host-side drivers.
    pub fn open_handles(&self) -> usize {
        (0..MAX_CONNS).filter(|&h| self.backend.open(h)).count()
    }

    /// Recomputes the level-ish interrupt line after a state change. Only
    /// called at deterministic points: poll boundaries and register
    /// accesses.
    fn update_irq(&mut self) {
        let any_rx = self.rx.iter().any(|r| !r.is_empty());
        let any_free = (0..MAX_CONNS).any(|h| !self.backend.open(h));
        let acceptable = any_free && self.backend.accept_ready();
        let closable = (0..MAX_CONNS).any(|h| {
            self.rx[h].is_empty() && self.backend.open(h) && self.backend.peer_closed(h)
        });
        let level = self.irq_enabled && (any_rx || acceptable || closable);
        if level && !self.irq_pending {
            self.counters.irqs.inc();
        }
        self.irq_pending = level;
    }

    /// Pulls received frames from the backend into the rings (called only
    /// at poll boundaries).
    fn poll_backend(&mut self) {
        for h in 0..MAX_CONNS {
            while self.rx[h].len() < RX_RING {
                match self.backend.poll(h) {
                    Some(frame) => {
                        self.counters.rx_frames.inc();
                        self.counters.rx_bytes.add(frame.len() as u64);
                        self.counters.conn[h].rx_bytes.add(frame.len() as u64);
                        self.rx[h].push_back(frame);
                    }
                    None => break,
                }
            }
        }
        self.update_irq();
    }

    /// Executes a `CMD` write; returns whether the command succeeded.
    fn command(&mut self, value: u8) -> bool {
        let h = self.conn_sel;
        match value {
            CMD_LISTEN => {
                if self.listening {
                    return false;
                }
                self.listening = self.backend.listen(self.listen_port);
                self.listening
            }
            CMD_TX_GO => {
                if !self.backend.open(h) {
                    return false;
                }
                let len = usize::from(self.tx_len).min(FRAME_MAX);
                self.counters.tx_frames.inc();
                self.counters.tx_bytes.add(len as u64);
                self.counters.conn[h].tx_bytes.add(len as u64);
                self.backend.send(h, &self.tx_buf[..len]);
                true
            }
            CMD_RX_NEXT => self.rx[h].pop_front().is_some(),
            CMD_ACCEPT => {
                if self.backend.open(h) {
                    return false;
                }
                let ok = self.backend.accept(h);
                if ok {
                    self.counters.conn[h].accepts.inc();
                }
                ok
            }
            CMD_CLOSE => {
                if !self.backend.open(h) {
                    return false;
                }
                self.backend.close(h);
                self.rx[h].clear();
                true
            }
            _ => false,
        }
    }
}

impl Device for Nic {
    fn name(&self) -> &'static str {
        "nic"
    }

    fn claims(&self) -> Vec<PortRange> {
        vec![
            PortRange::external(NIC_CMD, NIC_CONN),
            PortRange::external(NIC_RX_WINDOW, NIC_RX_WINDOW + FRAME_MAX as u16 - 1),
            PortRange::external(NIC_TX_WINDOW, NIC_TX_WINDOW + FRAME_MAX as u16 - 1),
        ]
    }

    fn read(&mut self, port: u16, _external: bool) -> u8 {
        let h = self.conn_sel;
        match port {
            NIC_STATUS => {
                let mut st = STATUS_LINK;
                if !self.rx[h].is_empty() {
                    st |= STATUS_RX_AVAIL;
                }
                if self.backend.open(h) {
                    st |= STATUS_TX_READY;
                }
                if self.backend.peer_closed(h) {
                    st |= STATUS_PEER_CLOSED;
                }
                if self.backend.established(h) {
                    st |= STATUS_ESTABLISHED;
                }
                if self.err {
                    st |= STATUS_ERR;
                }
                if self.backend.accept_ready() {
                    st |= STATUS_ACCEPT_READY;
                }
                st
            }
            NIC_RXLEN_LO => self.rx[h].front().map_or(0, |f| f.len() as u8),
            NIC_RXLEN_HI => self.rx[h].front().map_or(0, |f| (f.len() >> 8) as u8),
            NIC_CONN => h as u8,
            p if (NIC_RX_WINDOW..NIC_RX_WINDOW + FRAME_MAX as u16).contains(&p) => self.rx[h]
                .front()
                .and_then(|f| f.get(usize::from(p - NIC_RX_WINDOW)))
                .copied()
                .unwrap_or(0xFF),
            _ => 0xFF,
        }
    }

    fn write(&mut self, port: u16, value: u8, _external: bool) {
        match port {
            NIC_CMD => {
                let ok = self.command(value);
                if !ok {
                    self.counters.cmd_errors.inc();
                }
                self.err = !ok;
                self.update_irq();
            }
            NIC_IER => {
                self.irq_enabled = value & 1 != 0;
                self.update_irq();
            }
            NIC_CONN => {
                // Out-of-range selects nothing and flags the error.
                if usize::from(value) < MAX_CONNS {
                    self.conn_sel = usize::from(value);
                } else {
                    self.counters.cmd_errors.inc();
                    self.err = true;
                }
            }
            NIC_TXLEN_LO => self.tx_len = (self.tx_len & 0xFF00) | u16::from(value),
            NIC_TXLEN_HI => self.tx_len = (self.tx_len & 0x00FF) | (u16::from(value) << 8),
            NIC_LPORT_LO => self.listen_port = (self.listen_port & 0xFF00) | u16::from(value),
            NIC_LPORT_HI => {
                self.listen_port = (self.listen_port & 0x00FF) | (u16::from(value) << 8);
            }
            p if (NIC_TX_WINDOW..NIC_TX_WINDOW + FRAME_MAX as u16).contains(&p) => {
                self.tx_buf[usize::from(p - NIC_TX_WINDOW)] = value;
            }
            _ => {}
        }
    }

    fn tick(&mut self, cycles: u64) {
        self.cycle_acc += cycles;
        let us = self.cycle_acc / CYCLES_PER_US;
        if us == 0 {
            return;
        }
        self.cycle_acc %= CYCLES_PER_US;
        let target = self.time_us + us;
        // Advance to (and poll at) each fixed boundary the new time
        // crosses, then run the remainder without polling. Boundary
        // crossings depend only on the accumulated cycle total, never on
        // tick chunking, so both execution engines observe identical
        // frames at identical virtual times.
        while self.next_poll_us <= target {
            let step = self.next_poll_us - self.time_us;
            if step > 0 {
                self.backend.advance(step);
            }
            self.time_us = self.next_poll_us;
            self.poll_backend();
            self.next_poll_us += POLL_PERIOD_US;
        }
        if target > self.time_us {
            self.backend.advance(target - self.time_us);
            self.time_us = target;
        }
    }

    fn tick_quantum(&self) -> u64 {
        // Batch to one poll period; the bus flushes the exact total
        // before every port access anyway.
        POLL_PERIOD_US * CYCLES_PER_US
    }

    fn next_deadline(&self) -> Option<u64> {
        // The NIC only acts (polls the backend, possibly raising the rx
        // interrupt) at fixed poll boundaries, so the next observable
        // event is the first boundary at which the backend could have
        // something to say. Polls at earlier boundaries still happen
        // inside the batched tick — they just provably observe nothing,
        // because the backend reports no activity before `activity`.
        let activity = self.time_us + self.backend.next_activity_us()?;
        let mut boundary = self.next_poll_us;
        if activity > boundary {
            // Round the activity time up onto the poll grid.
            boundary += (activity - boundary).div_ceil(POLL_PERIOD_US) * POLL_PERIOD_US;
        }
        Some((boundary - self.time_us) * CYCLES_PER_US - self.cycle_acc)
    }

    fn pending(&self) -> Option<Interrupt> {
        self.irq_pending.then_some(Interrupt {
            priority: 1,
            vector: NIC_VECTOR,
        })
    }

    fn acknowledge(&mut self, _vector: u16) {
        self.irq_pending = false;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl std::fmt::Debug for Nic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Nic")
            .field("rx_frames_queued", &self.rx_pending())
            .field("conn_sel", &self.conn_sel)
            .field("irq_pending", &self.irq_pending)
            .field("time_us", &self.time_us)
            .finish()
    }
}

/// One bound connection in the [`SimBackend`] handle table.
struct SimConn {
    sock: SocketId,
    /// Bytes the socket send buffer rejected, retried on every poll.
    pending_tx: Vec<u8>,
}

/// The production backend: a TCP-offload attachment to a `netsim` host
/// (see [`SimHost`]). One listener, a handle table of up to
/// [`MAX_CONNS`] concurrent connections; bytes a send buffer rejects are
/// retried on the next poll. The backend never moves world time: its
/// `advance` only accumulates the board's local clock, and the
/// [`crate::fleet`] scheduler owns the world's.
pub struct SimBackend {
    host: SimHost,
    /// This board's local clock: microseconds of `advance` accumulated.
    local_us: u64,
    listener: Option<SocketId>,
    conns: Vec<Option<SimConn>>,
}

/// Listen backlog: connections beyond the handle table wait here until
/// the guest frees a handle (the paper's 4th and 5th clients).
const LISTEN_BACKLOG: usize = 8;

impl SimBackend {
    /// Wraps a host handle as a passive world participant.
    pub fn new(host: SimHost) -> SimBackend {
        SimBackend {
            host,
            local_us: 0,
            listener: None,
            conns: (0..MAX_CONNS).map(|_| None).collect(),
        }
    }

    fn flush_tx(&mut self, handle: usize) {
        if let Some(conn) = self.conns[handle].as_mut() {
            if !conn.pending_tx.is_empty() {
                let sent = self.host.send(conn.sock, &conn.pending_tx);
                conn.pending_tx.drain(..sent);
            }
        }
    }
}

impl NicBackend for SimBackend {
    fn advance(&mut self, us: u64) {
        self.local_us += us;
        // The fleet scheduler owns the clock; debug builds check it kept
        // its side of the contract (the world reaches a poll boundary
        // before any board's local clock crosses it by a full period).
        debug_assert!(
            self.local_us <= self.host.now() + POLL_PERIOD_US,
            "fleet scheduler fell behind board local clock"
        );
    }

    fn listen(&mut self, port: u16) -> bool {
        if self.listener.is_none() {
            self.listener = self.host.listen(port, LISTEN_BACKLOG).ok();
        }
        self.listener.is_some()
    }

    fn accept_ready(&self) -> bool {
        self.listener.is_some_and(|l| self.host.pending(l) > 0)
    }

    fn accept(&mut self, handle: usize) -> bool {
        let Some(l) = self.listener else { return false };
        match self.host.accept(l) {
            Some(sock) => {
                self.conns[handle] = Some(SimConn {
                    sock,
                    pending_tx: Vec::new(),
                });
                true
            }
            None => false,
        }
    }

    fn close(&mut self, handle: usize) {
        if let Some(conn) = self.conns[handle].take() {
            // A graceful close still delivers what fit in the send
            // buffer; bytes beyond it are dropped with the handle.
            self.host.close(conn.sock);
        }
    }

    fn open(&self, handle: usize) -> bool {
        self.conns[handle].is_some()
    }

    fn poll(&mut self, handle: usize) -> Option<Vec<u8>> {
        self.flush_tx(handle);
        let sock = self.conns[handle].as_ref()?.sock;
        let avail = self.host.available(sock).min(FRAME_MAX);
        if avail == 0 {
            return None;
        }
        let mut frame = vec![0u8; avail];
        match self.host.recv(sock, &mut frame) {
            netsim::Recv::Data(n) => {
                frame.truncate(n);
                Some(frame)
            }
            _ => None,
        }
    }

    fn send(&mut self, handle: usize, frame: &[u8]) {
        if let Some(conn) = self.conns[handle].as_mut() {
            conn.pending_tx.extend_from_slice(frame);
        }
        self.flush_tx(handle);
    }

    fn established(&self, handle: usize) -> bool {
        self.conns[handle]
            .as_ref()
            .is_some_and(|c| self.host.established(c.sock))
    }

    fn peer_closed(&self, handle: usize) -> bool {
        self.conns[handle]
            .as_ref()
            .is_some_and(|c| self.host.peer_closed(c.sock))
    }

    fn next_activity_us(&self) -> Option<u64> {
        // Anything a poll (or the boundary's irq recomputation) would act
        // on right now?
        let any_free = self.conns.iter().any(Option::is_none);
        let live_now = self
            .conns
            .iter()
            .flatten()
            .any(|c| {
                !c.pending_tx.is_empty()
                    || self.host.available(c.sock) > 0
                    // An un-closed handle whose peer has gone keeps the
                    // boundary live so the close interrupt is latched.
                    || self.host.peer_closed(c.sock)
            })
            || (any_free && self.accept_ready());
        if live_now {
            return Some(0);
        }
        // Otherwise socket state can only change when the world processes
        // its next scheduled event (delivery, retransmit, timer) — a
        // lower bound on any observable poll. An empty event queue means
        // nothing will ever arrive until the guest transmits. The bound
        // is relative to this board's *local* clock (at most one epoch
        // apart from the world's; the fleet scheduler consults the hint
        // only at epoch boundaries, with the clocks aligned).
        self.host
            .next_event_us()
            .map(|t| t.saturating_sub(self.local_us))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted backend for unit tests: frames to deliver per handle,
    /// capture of frames sent, a counter of connections waiting to be
    /// accepted.
    #[derive(Default)]
    struct Script {
        /// (deliver at µs, handle, frame)
        rx: VecDeque<(u64, usize, Vec<u8>)>,
        tx: Vec<(usize, Vec<u8>)>,
        now: u64,
        listening: Option<u16>,
        open: [bool; MAX_CONNS],
        peer_closed: [bool; MAX_CONNS],
        pending_accepts: usize,
    }

    type Shared = std::rc::Rc<std::cell::RefCell<Script>>;

    impl NicBackend for Shared {
        fn advance(&mut self, us: u64) {
            self.borrow_mut().now += us;
        }
        fn listen(&mut self, port: u16) -> bool {
            self.borrow_mut().listening = Some(port);
            true
        }
        fn accept_ready(&self) -> bool {
            self.borrow().pending_accepts > 0
        }
        fn accept(&mut self, handle: usize) -> bool {
            let mut s = self.borrow_mut();
            if s.pending_accepts == 0 {
                return false;
            }
            s.pending_accepts -= 1;
            s.open[handle] = true;
            true
        }
        fn close(&mut self, handle: usize) {
            let mut s = self.borrow_mut();
            s.open[handle] = false;
            s.peer_closed[handle] = false;
        }
        fn open(&self, handle: usize) -> bool {
            self.borrow().open[handle]
        }
        fn poll(&mut self, handle: usize) -> Option<Vec<u8>> {
            let mut s = self.borrow_mut();
            let now = s.now;
            let due = s
                .rx
                .iter()
                .position(|(t, h, _)| *t <= now && *h == handle)?;
            s.rx.remove(due).map(|(_, _, f)| f)
        }
        fn send(&mut self, handle: usize, frame: &[u8]) {
            self.borrow_mut().tx.push((handle, frame.to_vec()));
        }
        fn established(&self, handle: usize) -> bool {
            self.borrow().open[handle]
        }
        fn peer_closed(&self, handle: usize) -> bool {
            self.borrow().peer_closed[handle]
        }
    }

    fn scripted() -> (Nic, Shared) {
        let script = Shared::default();
        (Nic::new(Box::new(script.clone())), script)
    }

    /// An open connection on handle 0, as most single-connection tests
    /// start from.
    fn scripted_open() -> (Nic, Shared) {
        let (mut nic, script) = scripted();
        script.borrow_mut().pending_accepts = 1;
        nic.write(NIC_CMD, CMD_ACCEPT, true);
        assert_eq!(nic.read(NIC_STATUS, true) & STATUS_ERR, 0);
        (nic, script)
    }

    #[test]
    fn frames_arrive_only_at_poll_boundaries() {
        let (mut nic, script) = scripted_open();
        script.borrow_mut().rx.push_back((10, 0, b"abc".to_vec()));
        nic.write(NIC_IER, 1, true);
        // 10 µs in: frame is ready in the backend but the boundary
        // (50 µs) has not been crossed.
        nic.tick(10 * CYCLES_PER_US);
        assert_eq!(nic.rx_pending(), 0);
        assert!(rabbit::Device::pending(&nic).is_none());
        // Crossing the boundary delivers it and raises the interrupt.
        nic.tick(40 * CYCLES_PER_US);
        assert_eq!(nic.rx_pending(), 1);
        assert_eq!(
            rabbit::Device::pending(&nic),
            Some(Interrupt {
                priority: 1,
                vector: NIC_VECTOR
            })
        );
        assert_eq!(nic.counters().rx_frames.get(), 1);
        assert_eq!(nic.counters().irqs.get(), 1);
    }

    #[test]
    fn chunked_ticks_cross_boundaries_identically() {
        let (mut a, sa) = scripted_open();
        let (mut b, sb) = scripted_open();
        for s in [&sa, &sb] {
            s.borrow_mut().rx.push_back((49, 0, b"x".to_vec()));
            s.borrow_mut().rx.push_back((51, 0, b"y".to_vec()));
        }
        a.write(NIC_IER, 1, true);
        b.write(NIC_IER, 1, true);
        // One big tick vs many tiny ticks: identical delivery.
        a.tick(120 * CYCLES_PER_US);
        for _ in 0..120 * CYCLES_PER_US {
            b.tick(1);
        }
        assert_eq!(a.rx_pending(), b.rx_pending());
        assert_eq!(a.rx_pending(), 2);
        assert_eq!(sa.borrow().now, sb.borrow().now);
    }

    #[test]
    fn rx_frame_reads_and_rx_next() {
        let (mut nic, script) = scripted_open();
        script.borrow_mut().rx.push_back((0, 0, b"hi".to_vec()));
        script.borrow_mut().rx.push_back((0, 0, b"z".to_vec()));
        nic.tick(POLL_PERIOD_US * CYCLES_PER_US);
        assert_eq!(nic.read(NIC_RXLEN_LO, true), 2);
        assert_eq!(nic.read(NIC_RXLEN_HI, true), 0);
        assert_eq!(nic.read(NIC_RX_WINDOW, true), b'h');
        assert_eq!(nic.read(NIC_RX_WINDOW + 1, true), b'i');
        nic.write(NIC_CMD, CMD_RX_NEXT, true);
        assert_eq!(nic.read(NIC_RXLEN_LO, true), 1);
        assert_eq!(nic.read(NIC_RX_WINDOW, true), b'z');
        nic.write(NIC_CMD, CMD_RX_NEXT, true);
        assert_eq!(nic.read(NIC_STATUS, true) & STATUS_RX_AVAIL, 0);
    }

    #[test]
    fn tx_stages_and_sends() {
        let (mut nic, script) = scripted_open();
        for (i, b) in b"ping".iter().enumerate() {
            nic.write(NIC_TX_WINDOW + i as u16, *b, true);
        }
        nic.write(NIC_TXLEN_LO, 4, true);
        nic.write(NIC_TXLEN_HI, 0, true);
        nic.write(NIC_CMD, CMD_TX_GO, true);
        assert_eq!(script.borrow().tx, vec![(0, b"ping".to_vec())]);
        assert_eq!(nic.counters().tx_bytes.get(), 4);
        assert_eq!(nic.counters().conn[0].tx_bytes.get(), 4);
    }

    #[test]
    fn listen_uses_configured_port() {
        let (mut nic, script) = scripted();
        nic.write(NIC_LPORT_LO, 0x39, true);
        nic.write(NIC_LPORT_HI, 0x05, true); // 1337
        nic.write(NIC_CMD, CMD_LISTEN, true);
        assert_eq!(script.borrow().listening, Some(1337));
        assert_eq!(nic.read(NIC_STATUS, true) & STATUS_ERR, 0);
    }

    #[test]
    fn ring_full_applies_backpressure_per_handle() {
        let (mut nic, script) = scripted_open();
        for _ in 0..RX_RING + 3 {
            script.borrow_mut().rx.push_back((0, 0, vec![0u8; 4]));
        }
        nic.tick(POLL_PERIOD_US * CYCLES_PER_US);
        assert_eq!(nic.rx_pending_on(0), RX_RING);
        assert_eq!(script.borrow().rx.len(), 3, "rest held in the backend");
    }

    #[test]
    fn conn_register_selects_handle_views() {
        let (mut nic, script) = scripted();
        script.borrow_mut().pending_accepts = 2;
        nic.write(NIC_CMD, CMD_ACCEPT, true); // handle 0
        nic.write(NIC_CONN, 1, true);
        nic.write(NIC_CMD, CMD_ACCEPT, true); // handle 1
        script.borrow_mut().rx.push_back((0, 0, b"for-zero".to_vec()));
        script.borrow_mut().rx.push_back((0, 1, b"one".to_vec()));
        nic.tick(POLL_PERIOD_US * CYCLES_PER_US);
        // Selected handle is 1: its frame, its length.
        assert_eq!(nic.read(NIC_CONN, true), 1);
        assert_eq!(nic.read(NIC_RXLEN_LO, true), 3);
        assert_eq!(nic.read(NIC_RX_WINDOW, true), b'o');
        // Switch to 0: the other frame.
        nic.write(NIC_CONN, 0, true);
        assert_eq!(nic.read(NIC_RXLEN_LO, true), 8);
        assert_eq!(nic.read(NIC_RX_WINDOW, true), b'f');
        // TX goes out on the selected handle.
        nic.write(NIC_CONN, 1, true);
        nic.write(NIC_TX_WINDOW, b'!', true);
        nic.write(NIC_TXLEN_LO, 1, true);
        nic.write(NIC_CMD, CMD_TX_GO, true);
        assert_eq!(script.borrow().tx, vec![(1, b"!".to_vec())]);
        assert_eq!(nic.counters().conn[1].tx_bytes.get(), 1);
        assert_eq!(nic.counters().conn[0].tx_bytes.get(), 0);
    }

    #[test]
    fn out_of_range_conn_select_sets_error() {
        let (mut nic, _script) = scripted();
        nic.write(NIC_CONN, 1, true);
        nic.write(NIC_CONN, MAX_CONNS as u8, true);
        assert_ne!(nic.read(NIC_STATUS, true) & STATUS_ERR, 0);
        assert_eq!(nic.read(NIC_CONN, true), 1, "selection unchanged");
    }

    #[test]
    fn commands_on_unopened_handles_error_without_side_effects() {
        let (mut nic, script) = scripted();
        // TX_GO with no connection: error, nothing sent, nothing counted.
        nic.write(NIC_TXLEN_LO, 4, true);
        nic.write(NIC_CMD, CMD_TX_GO, true);
        assert_ne!(nic.read(NIC_STATUS, true) & STATUS_ERR, 0);
        assert!(script.borrow().tx.is_empty());
        assert_eq!(nic.counters().tx_frames.get(), 0);
        // RX_NEXT with an empty queue: error.
        nic.write(NIC_CMD, CMD_RX_NEXT, true);
        assert_ne!(nic.read(NIC_STATUS, true) & STATUS_ERR, 0);
        // CLOSE on a free handle: error.
        nic.write(NIC_CMD, CMD_CLOSE, true);
        assert_ne!(nic.read(NIC_STATUS, true) & STATUS_ERR, 0);
        // ACCEPT with nothing pending: error.
        nic.write(NIC_CMD, CMD_ACCEPT, true);
        assert_ne!(nic.read(NIC_STATUS, true) & STATUS_ERR, 0);
        assert_eq!(nic.counters().cmd_errors.get(), 4);
        // A successful command clears the error bit.
        nic.write(NIC_CMD, CMD_LISTEN, true);
        assert_eq!(nic.read(NIC_STATUS, true) & STATUS_ERR, 0);
        // And a second LISTEN sets it again.
        nic.write(NIC_CMD, CMD_LISTEN, true);
        assert_ne!(nic.read(NIC_STATUS, true) & STATUS_ERR, 0);
    }

    #[test]
    fn accept_onto_occupied_handle_errors() {
        let (mut nic, script) = scripted_open();
        script.borrow_mut().pending_accepts = 1;
        nic.write(NIC_CMD, CMD_ACCEPT, true);
        assert_ne!(nic.read(NIC_STATUS, true) & STATUS_ERR, 0);
        assert_eq!(
            script.borrow().pending_accepts,
            1,
            "pending connection untouched"
        );
        assert_eq!(nic.counters().conn[0].accepts.get(), 1, "only the first");
    }

    #[test]
    fn accept_ready_raises_irq_only_with_a_free_handle() {
        let (mut nic, script) = scripted();
        nic.write(NIC_IER, 1, true);
        script.borrow_mut().pending_accepts = 1;
        nic.tick(POLL_PERIOD_US * CYCLES_PER_US);
        assert!(
            rabbit::Device::pending(&nic).is_some(),
            "pending accept + free handle raises"
        );
        // Occupy every handle: the pending connection can no longer be
        // bound, so the line drops (no interrupt storm while saturated).
        script.borrow_mut().pending_accepts = MAX_CONNS + 1;
        for h in 0..MAX_CONNS {
            nic.write(NIC_CONN, h as u8, true);
            nic.write(NIC_CMD, CMD_ACCEPT, true);
        }
        assert!(
            rabbit::Device::pending(&nic).is_none(),
            "saturated handle table masks accept irq"
        );
        // Freeing one re-raises at the next recomputation point.
        nic.write(NIC_CMD, CMD_CLOSE, true);
        assert!(rabbit::Device::pending(&nic).is_some());
    }

    #[test]
    fn peer_close_with_drained_ring_raises_irq_until_closed() {
        let (mut nic, script) = scripted_open();
        nic.write(NIC_IER, 1, true);
        script.borrow_mut().peer_closed[0] = true;
        nic.tick(POLL_PERIOD_US * CYCLES_PER_US);
        assert!(rabbit::Device::pending(&nic).is_some(), "closable raises");
        nic.write(NIC_CMD, CMD_CLOSE, true);
        assert_eq!(nic.read(NIC_STATUS, true) & STATUS_ERR, 0);
        assert!(rabbit::Device::pending(&nic).is_none(), "close clears");
        assert!(!script.borrow().open[0]);
    }

    #[test]
    fn close_drops_queued_frames() {
        let (mut nic, script) = scripted_open();
        script.borrow_mut().rx.push_back((0, 0, b"stale".to_vec()));
        nic.tick(POLL_PERIOD_US * CYCLES_PER_US);
        assert_eq!(nic.rx_pending_on(0), 1);
        nic.write(NIC_CMD, CMD_CLOSE, true);
        assert_eq!(nic.rx_pending_on(0), 0);
        assert_eq!(nic.read(NIC_STATUS, true) & STATUS_RX_AVAIL, 0);
    }
}
