//! Multi-connection serving harness on *compiled C* firmware: the whole
//! pipeline of the paper — C source → `dcc` compiler → Rabbit assembly →
//! board → NIC register file → netsim TCP — serving several concurrent
//! host-side clients at once.
//!
//! Where [`crate::echo`] runs hand-written assembly for one connection,
//! this module compiles a round-robin echo server written in the Dynamic
//! C subset (`nic.h`-style intrinsics, `interrupt` service routines) and
//! drives [`rabbit::nicmap::MAX_CONNS`] connection handles concurrently,
//! with a serial-console status line as a second, higher-priority
//! interrupt source. Everything observable — per-client transcripts,
//! cycle counts, serial output, telemetry — is byte-identical across the
//! interpreter and block-cache engines.

use std::cell::RefCell;
use std::rc::Rc;

use netsim::{Endpoint, Ipv4, LinkParams, Recv, SimHost, SocketId, World};
use rabbit::nicmap::{
    MAX_CONNS, STATUS_ACCEPT_READY, STATUS_ERR, STATUS_PEER_CLOSED, STATUS_RX_AVAIL,
    STATUS_TX_READY,
};
use rabbit::Engine;

use crate::fleet::subnet_hosts;
use crate::nic::NIC_VECTOR;
use crate::serial::SERIAL_A_VECTOR;
use crate::RunOutcome;

/// TCP port the C server listens on.
pub const SERVE_PORT: u16 = 7;

/// The probe byte the host console sends; the guest answers each one
/// with a status line `S<open-handles>\n`.
pub const SERIAL_PROBE: u8 = b'?';

/// The round-robin echo server, in the Dynamic C subset.
///
/// The NIC service routine drains *every* pending cause across all
/// connection handles before returning — accept while a handle is free,
/// echo every queued frame, close once the peer is gone and the queue is
/// drained — so interrupt delivery only ever happens against a halted
/// CPU or at the `reti` boundary, the two points both execution engines
/// sample identically. The serial routine runs at priority 2 (console
/// preempts the NIC) and answers each probe byte with `S<n>\n` where `n`
/// is the number of open handles the NIC routine last counted.
pub fn echo_server_c(port: u16) -> String {
    format!(
        "root char buf[1024];\n\
         int nopen;\n\
         int naccepts;\n\
         \n\
         interrupt void nic_isr() {{\n\
             int st;\n\
             int h;\n\
             int n;\n\
             int again;\n\
             again = 1;\n\
             while (again) {{\n\
                 again = 0;\n\
                 for (h = 0; h < {conns}; h = h + 1) {{\n\
                     st = nic_conn(h);\n\
                     if ((st & {acc}) && !(st & {open})) {{\n\
                         st = nic_accept(h);\n\
                         if (!(st & {err})) naccepts = naccepts + 1;\n\
                         again = 1;\n\
                         st = nic_conn(h);\n\
                     }}\n\
                     if (st & {rx}) {{\n\
                         n = nic_recv(h, buf);\n\
                         nic_send(h, buf, n);\n\
                         again = 1;\n\
                     }}\n\
                     if ((st & {open}) && (st & {gone}) && !(st & {rx})) {{\n\
                         nic_close(h);\n\
                         again = 1;\n\
                     }}\n\
                 }}\n\
             }}\n\
             n = 0;\n\
             for (h = 0; h < {conns}; h = h + 1) {{\n\
                 if (nic_conn(h) & {open}) n = n + 1;\n\
             }}\n\
             nopen = n;\n\
         }}\n\
         \n\
         interrupt void ser_isr() {{\n\
             while (serial_status() & 0x80) {{\n\
                 serial_getc();\n\
                 serial_putc(83);\n\
                 serial_putc(48 + nopen);\n\
                 serial_putc(10);\n\
             }}\n\
         }}\n\
         \n\
         int main() {{\n\
             serial_init(2);\n\
             nic_listen({port});\n\
             nic_ier(1);\n\
             idle();\n\
             return 0;\n\
         }}\n",
        conns = MAX_CONNS,
        acc = STATUS_ACCEPT_READY,
        open = STATUS_TX_READY,
        err = STATUS_ERR,
        rx = STATUS_RX_AVAIL,
        gone = STATUS_PEER_CLOSED,
    )
}

/// Compiles [`echo_server_c`] with the in-tree `dcc` compiler, vectoring
/// the NIC and serial interrupts into its two `interrupt` functions.
///
/// # Panics
///
/// If the C source fails to compile or assemble (a compiler bug).
pub fn build_serve_firmware(opts: dcc::Options) -> dcc::Build {
    dcc::build_firmware(
        &echo_server_c(SERVE_PORT),
        opts,
        &[(SERIAL_A_VECTOR, "ser_isr"), (NIC_VECTOR, "nic_isr")],
    )
    .expect("C echo server compiles")
}

/// Result of one multi-client serving session.
#[derive(Debug)]
pub struct ServeRun {
    /// What each client received back, in order, one transcript per
    /// client.
    pub transcripts: Vec<Vec<u8>>,
    /// Guest cycles consumed (including halted idle cycles).
    pub cycles: u64,
    /// Guest instructions executed.
    pub instructions: u64,
    /// Final virtual time of the shared world, in microseconds.
    pub virtual_us: u64,
    /// Everything the guest wrote to the serial console (the `S<n>\n`
    /// status lines).
    pub serial_tx: Vec<u8>,
    /// Peak simultaneously-open connection handles, sampled between run
    /// slices by the host driver.
    pub peak_open: usize,
    /// Final value of the guest's `naccepts` counter (C global).
    pub guest_accepts: u16,
    /// Final value of the guest's `nopen` counter (C global) — 0 after
    /// an orderly teardown.
    pub guest_open: u16,
    /// Deterministic text snapshot of the world telemetry (includes the
    /// per-handle `net.board.conn.*` counters).
    pub snapshot: String,
    /// Root code size of the compiled firmware, in bytes.
    pub code_size: usize,
}

/// Runs the compiled-C echo server against `clients.len()` concurrent
/// host-side clients. Client `i` sends the messages of `clients[i]` in
/// order, the next only after the previous came back in full; all
/// clients are connected up-front, so when more clients than handles
/// dial in, the surplus waits in the listen backlog. When `probe_gap_us`
/// is set, the driver injects a console probe byte every so many
/// microseconds of virtual time (only while the guest is halted, so the
/// injection points are engine-independent).
///
/// # Panics
///
/// If the firmware faults or the session does not converge.
pub fn serve_clients(
    engine: Engine,
    opts: dcc::Options,
    clients: &[Vec<Vec<u8>>],
    probe_gap_us: Option<u64>,
) -> ServeRun {
    let client_ips = subnet_hosts(0, 2, clients.len(), "client").unwrap_or_else(|e| panic!("{e}"));
    let build = build_serve_firmware(opts);

    let world = Rc::new(RefCell::new(World::new(42)));
    let mut fleet = crate::fleet::Fleet::new(&world);
    let b = fleet.add_solo_board(engine, "rmc2000", Ipv4::new(10, 0, 0, 1));
    let board_ip = fleet.ip(b);
    let board_id = fleet.host(b).id();
    let mut hosts: Vec<SimHost> = client_ips
        .into_iter()
        .map(|ip| {
            let host = SimHost::attach(&world, "client", ip);
            world
                .borrow_mut()
                .link(board_id, host.id(), LinkParams::ethernet_10base_t());
            host
        })
        .collect();

    let board = fleet.board_mut(b);
    board.load(&build.image);
    board.set_pc(dcc::layout::CODE_ORG);

    // Boot: main configures serial + NIC and parks in `idle()`.
    assert_eq!(board.run(100_000), RunOutcome::Halted, "firmware boots");

    // Everyone dials in; surplus connections wait in the backlog.
    let conns: Vec<SocketId> = hosts
        .iter_mut()
        .map(|h| h.connect(Endpoint::new(board_ip, SERVE_PORT)))
        .collect();

    struct ClientState {
        next_msg: usize,
        sent: usize,
        echoed: Vec<u8>,
        expected: usize,
        closed: bool,
    }
    let mut state: Vec<ClientState> = clients
        .iter()
        .map(|msgs| ClientState {
            next_msg: 0,
            sent: 0,
            echoed: Vec::new(),
            expected: msgs.iter().map(Vec::len).sum(),
            closed: false,
        })
        .collect();

    const RUN_CHUNK: u64 = 2_000;
    const IDLE_CHUNK: u64 = 100 * crate::nic::CYCLES_PER_US;
    const MAX_CYCLES: u64 = 500_000_000;

    let mut peak_open = 0usize;
    let mut next_probe_us = probe_gap_us.unwrap_or(0);

    while state.iter().any(|s| s.echoed.len() < s.expected) {
        assert!(
            fleet.board(b).cpu.cycles < MAX_CYCLES,
            "serve session did not converge"
        );
        fleet.solo_pump(RUN_CHUNK, IDLE_CHUNK, |board| {
            if let Some(gap) = probe_gap_us {
                // Console probes only against a halted CPU: the
                // injection point is then a deterministic function of
                // virtual time, identical on both engines.
                if world.borrow().now() >= next_probe_us {
                    board.serial_mut().inject(SERIAL_PROBE);
                    next_probe_us = world.borrow().now() + gap;
                }
            }
        });
        peak_open = peak_open.max(fleet.board(b).nic().expect("nic attached").open_handles());

        for ((host, &conn), (msgs, st)) in hosts
            .iter_mut()
            .zip(&conns)
            .zip(clients.iter().zip(&mut state))
        {
            if st.next_msg < msgs.len() && st.echoed.len() == st.sent && host.established(conn) {
                let msg = &msgs[st.next_msg];
                assert_eq!(host.send(conn, msg), msg.len(), "client send fits");
                st.sent += msg.len();
                st.next_msg += 1;
            }
            let avail = host.available(conn);
            if avail > 0 {
                let mut buf = vec![0u8; avail];
                if let Recv::Data(n) = host.recv(conn, &mut buf) {
                    buf.truncate(n);
                    st.echoed.extend_from_slice(&buf);
                }
            }
            // A finished client hangs up immediately — that is what
            // frees its handle for connections still waiting in the
            // backlog when there are more clients than handles.
            if st.echoed.len() == st.expected && !st.closed {
                host.close(conn);
                st.closed = true;
            }
        }
    }

    // Orderly teardown: the guest observes the FINs, closes its
    // handles, and frees them for anything left in the backlog.
    for _ in 0..40 {
        fleet.solo_settle(RUN_CHUNK, IDLE_CHUNK);
        peak_open = peak_open.max(fleet.board(b).nic().expect("nic attached").open_handles());
    }

    let board = fleet.board(b);
    let read_c_int = |name: &str| -> u16 {
        let phys = build.symbol_phys(name).expect("C global exists");
        u16::from_le_bytes([board.mem.read_phys(phys), board.mem.read_phys(phys + 1)])
    };
    let guest_accepts = read_c_int("_naccepts");
    let guest_open = read_c_int("_nopen");
    let snapshot = world.borrow().telemetry().snapshot().to_text();
    let virtual_us = world.borrow().now();
    ServeRun {
        transcripts: state.into_iter().map(|s| s.echoed).collect(),
        cycles: board.cpu.cycles,
        instructions: board.cpu.instructions,
        virtual_us,
        serial_tx: board.serial().transmitted().to_vec(),
        peak_open,
        guest_accepts,
        guest_open,
        snapshot,
        code_size: build.code_size(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "254 clients exceed the limit of 253 clients in 10.0.0.0/24")]
    fn refuses_a_client_past_the_subnet() {
        serve_clients(
            Engine::Interpreter,
            dcc::Options::firmware(),
            &vec![Vec::new(); 254],
            None,
        );
    }

    #[test]
    fn c_server_compiles_under_both_option_sets() {
        for opts in [dcc::Options::baseline(), dcc::Options::all_optimizations()] {
            let build = build_serve_firmware(opts);
            assert!(build.symbol_phys("_nic_isr").is_some());
            assert!(build.symbol_phys("_ser_isr").is_some());
            assert!(
                build
                    .image
                    .sections
                    .iter()
                    .any(|s| s.addr == NIC_VECTOR && s.bytes[0] == 0xC3),
                "NIC vector holds a jp"
            );
            assert!(
                build
                    .image
                    .sections
                    .iter()
                    .any(|s| s.addr == SERIAL_A_VECTOR && s.bytes[0] == 0xC3),
                "serial vector holds a jp"
            );
        }
    }

    #[test]
    fn serves_one_client_end_to_end() {
        let r = serve_clients(
            Engine::Interpreter,
            dcc::Options::all_optimizations(),
            &[vec![b"hello board".to_vec()]],
            None,
        );
        assert_eq!(r.transcripts, vec![b"hello board".to_vec()]);
        assert_eq!(r.guest_accepts, 1);
        assert_eq!(r.guest_open, 0, "teardown closed the handle");
    }
}
