//! E5 (paper §5.3, Figure 3), cross-crate: the ported server on the
//! Dynamic C stack serves at most three connections simultaneously; a
//! fourth and fifth wait for a handler and are served later. Increasing
//! the cap requires "recompiling" — i.e., spawning a server with more
//! handler costatements.

use bench::e5_run;

#[test]
fn three_handlers_cap_concurrency_at_three() {
    let r = e5_run(5);
    assert_eq!(r.handlers, 3, "the Figure 3 configuration");
    assert_eq!(r.served, 5, "everyone is served eventually");
    assert!(
        r.max_active <= 3,
        "never more than three simultaneous, saw {}",
        r.max_active
    );
    assert!(
        r.max_active >= 2,
        "the offered load did overlap, saw {}",
        r.max_active
    );
}

/// The same three-connection cap, but on the *guest NIC path*: compiled
/// C firmware on the simulated board, where the limit is enforced by the
/// NIC register file's three connection handles rather than by
/// costatement count. Five clients dial the board directly (no
/// balancer); the fourth and fifth wait in the board's listen backlog
/// until an earlier client hangs up and frees a handle, and everyone is
/// served eventually.
#[test]
fn guest_nic_path_holds_fourth_connection_at_the_register_file() {
    use rabbit::Engine;
    use rmc2000::{fleet_serve, FleetFirmware, FleetSpec, GuestClient};

    let payloads: Vec<Vec<u8>> = (0..5).map(|i| vec![0x40 + i as u8; 120 + 10 * i]).collect();
    let clients = payloads
        .iter()
        .map(|p| GuestClient::Plain {
            messages: vec![p.clone()],
        })
        .collect();
    let mut spec = FleetSpec::new(Engine::BlockCache, 1, b"", clients);
    spec.opts = dcc::Options::all_optimizations();
    spec.policy = None;
    spec.firmware = FleetFirmware::PlainEcho;
    let r = fleet_serve(&spec);
    for (i, (sent, got)) in payloads.iter().zip(&r.outcomes).enumerate() {
        assert_eq!(sent, &got.echoed, "client {i} served eventually");
    }
    assert!(r.backends.is_empty(), "no balancer holds anyone off");
    let b = &r.boards[0];
    assert!(
        b.peak_open <= 3,
        "the register file never binds more than three handles, saw {}",
        b.peak_open
    );
    assert!(
        b.peak_open >= 2,
        "the offered load did overlap, saw {}",
        b.peak_open
    );
    assert_eq!(b.accepts, 5, "all five connections accepted in turn");
    assert_eq!(b.open, 0, "teardown freed every handle");
}

#[test]
fn recompiling_with_more_costatements_raises_the_cap() {
    use std::sync::atomic::Ordering;

    use dynamicc::Scheduler;
    use issl::host::{spawn_driver, spawn_secure_client, standard_rig};
    use issl::rmc::{spawn_rmc_server, RmcServerConfig};
    use issl::{CipherSuite, ClientConfig, ClientKx};
    use netsim::Endpoint;
    use sockets::dynic::Stack;

    // "We could easily increase the number of processes (and hence
    // simultaneous connections) by adding more costatements, but the
    // program would have to be re-compiled."
    let (net, board, client_host) = standard_rig(0x55);
    let stack = Stack::sock_init(&net, board);
    let mut sched = Scheduler::new();
    let config = RmcServerConfig {
        handlers: 5,
        ..RmcServerConfig::default()
    };
    let server = spawn_rmc_server(&mut sched, &stack, &config);
    let results: Vec<_> = (0..5usize)
        .map(|i| {
            spawn_secure_client(
                &mut sched,
                &net,
                client_host,
                Endpoint::new(net.with(|w| w.host_ip(board)), config.port),
                ClientConfig {
                    suite: CipherSuite::AES128,
                    kx: ClientKx::PreShared(config.psk.clone()),
                },
                vec![i as u8; 4000],
                400,
                900 + i as u64,
            )
        })
        .collect();
    spawn_driver(&mut sched, &net, 2_000);

    let mut rounds = 0u64;
    while !results
        .iter()
        .all(|r| r.done.load(Ordering::SeqCst) || r.failed.load(Ordering::SeqCst))
    {
        sched.tick();
        rounds += 1;
        assert!(rounds < 3_000_000, "run stalled");
    }
    for (i, r) in results.iter().enumerate() {
        assert!(!r.failed.load(Ordering::SeqCst), "client {i} failed");
    }
    assert!(
        server.stats.max_active.load(Ordering::SeqCst) >= 4,
        "five handlers allow more than three simultaneous connections, saw {}",
        server.stats.max_active.load(Ordering::SeqCst)
    );
}
