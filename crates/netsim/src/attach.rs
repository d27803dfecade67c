//! Raw host attach point: a shareable handle to one host inside a
//! [`World`].
//!
//! Device models outside this crate (the `rmc2000` NIC) need to *be* a
//! host on the simulated network: accept connections and move bytes — all
//! through one owned handle while the test harness keeps a second handle
//! on the same world for the remote peers. [`SimHost`] packages an
//! `Rc<RefCell<World>>` plus a [`HostId`] behind a borrow-free API so a
//! peripheral can hold it without naming the interior mutability.
//!
//! Everything here forwards to the [`World`] socket API; determinism is
//! inherited ([`World::run_for`] is granularity-independent, so time may
//! advance in whatever increments the clock owner produces).
//!
//! A `SimHost` cannot move the clock: it reads `now` and moves bytes.
//! Time belongs to whoever holds the [`World`] itself — for boards, the
//! `rmc2000::fleet` scheduler (see the fleet module's docs for why a
//! device-driven clock cannot scale past one board).

use std::cell::RefCell;
use std::rc::Rc;

use crate::addr::{Endpoint, Ipv4};
use crate::tcp::{HostId, SocketId};
use crate::world::{NetError, Recv, World};

/// A shareable handle to one host in a shared [`World`].
#[derive(Clone)]
pub struct SimHost {
    world: Rc<RefCell<World>>,
    host: HostId,
}

impl SimHost {
    /// Wraps an existing host of `world`.
    pub fn new(world: Rc<RefCell<World>>, host: HostId) -> SimHost {
        SimHost { world, host }
    }

    /// Adds a new host to `world` and returns its handle.
    pub fn attach(world: &Rc<RefCell<World>>, name: &str, ip: Ipv4) -> SimHost {
        let host = world.borrow_mut().add_host(name, ip);
        SimHost {
            world: Rc::clone(world),
            host,
        }
    }

    /// The underlying world (shared).
    pub fn world(&self) -> Rc<RefCell<World>> {
        Rc::clone(&self.world)
    }

    /// The host this handle speaks for.
    pub fn id(&self) -> HostId {
        self.host
    }

    /// This host's IP address.
    pub fn ip(&self) -> Ipv4 {
        self.world.borrow().host_ip(self.host)
    }

    /// Current virtual time in microseconds.
    pub fn now(&self) -> u64 {
        self.world.borrow().now()
    }

    /// Registers (or fetches) a counter in the world's telemetry registry.
    pub fn counter(&self, name: &str) -> telemetry::Counter {
        self.world.borrow().telemetry().counter(name, &[])
    }

    /// Virtual time of the world's earliest scheduled event (see
    /// [`World::next_event_time`]).
    pub fn next_event_us(&self) -> Option<u64> {
        self.world.borrow().next_event_time()
    }

    /// Connections waiting to be accepted on `listener`.
    pub fn pending(&self, listener: SocketId) -> usize {
        self.world.borrow().tcp_pending(listener)
    }

    /// Passive open on `port`.
    ///
    /// # Errors
    ///
    /// [`NetError::AddrInUse`] if another listener holds the port.
    pub fn listen(&mut self, port: u16, backlog: usize) -> Result<SocketId, NetError> {
        self.world.borrow_mut().tcp_listen(self.host, port, backlog)
    }

    /// Accepts one pending connection on `listener`, if any.
    pub fn accept(&mut self, listener: SocketId) -> Option<SocketId> {
        self.world.borrow_mut().tcp_accept(listener)
    }

    /// Active open toward `remote`.
    pub fn connect(&mut self, remote: Endpoint) -> SocketId {
        self.world.borrow_mut().tcp_connect(self.host, remote)
    }

    /// Whether `id` has completed its handshake.
    pub fn established(&self, id: SocketId) -> bool {
        self.world.borrow().tcp_established(id)
    }

    /// Whether the peer has closed its direction of `id`.
    pub fn peer_closed(&self, id: SocketId) -> bool {
        self.world.borrow().tcp_peer_closed(id)
    }

    /// Bytes buffered for reading on `id`.
    pub fn available(&self, id: SocketId) -> usize {
        self.world.borrow().tcp_available(id)
    }

    /// Sends as much of `data` as the send buffer accepts; returns the
    /// number of bytes taken (0 on any socket error).
    pub fn send(&mut self, id: SocketId, data: &[u8]) -> usize {
        self.world.borrow_mut().tcp_send(id, data).unwrap_or(0)
    }

    /// Receives into `buf`.
    pub fn recv(&mut self, id: SocketId, buf: &mut [u8]) -> Recv {
        self.world.borrow_mut().tcp_recv(id, buf)
    }

    /// Room left in `id`'s send buffer, in bytes.
    pub fn send_room(&self, id: SocketId) -> usize {
        self.world.borrow().tcp_send_room(id)
    }

    /// Orderly close of `id` (errors ignored — the handle may already be
    /// closed).
    pub fn close(&mut self, id: SocketId) {
        let _ = self.world.borrow_mut().tcp_close(id);
    }

    /// Abortive close of `id` (RST; nothing further is delivered).
    pub fn abort(&mut self, id: SocketId) {
        self.world.borrow_mut().tcp_abort(id);
    }
}

impl std::fmt::Debug for SimHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimHost")
            .field("host", &self.host)
            .field("now_us", &self.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::LinkParams;

    #[test]
    fn two_handles_share_one_world() {
        let world = Rc::new(RefCell::new(World::new(7)));
        let mut a = SimHost::attach(&world, "a", Ipv4::new(10, 0, 0, 1));
        let mut b = SimHost::attach(&world, "b", Ipv4::new(10, 0, 0, 2));
        world
            .borrow_mut()
            .link(a.id(), b.id(), LinkParams::lan_100m());

        let l = a.listen(7, 4).expect("listen");
        let c = b.connect(Endpoint::new(a.ip(), 7));
        let mut server = None;
        for _ in 0..100 {
            world.borrow_mut().run_for(1_000);
            if server.is_none() {
                server = a.accept(l);
            }
            if server.is_some() && b.established(c) {
                break;
            }
        }
        let server = server.expect("accepted");
        assert!(b.established(c));

        assert_eq!(b.send(c, b"ping"), 4);
        for _ in 0..100 {
            world.borrow_mut().run_for(1_000);
            if a.available(server) >= 4 {
                break;
            }
        }
        let mut buf = [0u8; 8];
        assert_eq!(a.recv(server, &mut buf), Recv::Data(4));
        assert_eq!(&buf[..4], b"ping");
    }
}
