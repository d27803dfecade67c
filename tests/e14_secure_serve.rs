//! E14: the issl record layer served from compiled-C firmware. A host
//! `issl` client machine completes the PSK handshake and echoes
//! plaintext through AES-128-CBC + HMAC-SHA1 records against a server
//! that exists only as guest instructions — C compiled by `dcc`, SHA-1
//! and the AES rounds in hand assembly, all driven by the E13
//! round-robin loop.

use rabbit::Engine;
use rmc2000::{secure_serve, GuestClient, SecureRun};

const PSK: &[u8] = b"rmc2000 shared secret";

/// The mixed E14 workload: one secure session and two plaintext echo
/// sessions sharing the three NIC handles. The plaintext payloads are
/// ASCII, so the guest's first-byte sniff never mistakes them for a
/// ClientHello.
fn mixed_workload() -> Vec<GuestClient> {
    vec![
        GuestClient::secure(&[b"attack at dawn", b"hold position"], PSK),
        GuestClient::Plain {
            messages: vec![b"plain one".to_vec(), b"plain two, longer".to_vec()],
        },
        GuestClient::Plain {
            messages: vec![b"interleaved cleartext traffic".to_vec()],
        },
    ]
}

fn run(engine: Engine, clients: &[GuestClient], probe_gap_us: Option<u64>) -> SecureRun {
    secure_serve(
        engine,
        dcc::Options::all_optimizations(),
        PSK,
        clients,
        probe_gap_us,
        false,
    )
}

/// One well-behaved secure client: full handshake, every message
/// echoed through the encrypted channel, orderly close.
#[test]
fn secure_echo_round_trips_through_compiled_c_firmware() {
    let messages: Vec<Vec<u8>> = vec![
        b"secure echo!".to_vec(),
        (0..64).collect(),
        b"x".to_vec(),
    ];
    let clients = [GuestClient::Secure {
        messages: messages.clone(),
        psk: PSK.to_vec(),
        tamper: rmc2000::Tamper::None,
    }];
    let run = run(Engine::BlockCache, &clients, None);

    let c0 = &run.outcomes[0];
    assert!(c0.established);
    assert_eq!(c0.error, None);
    assert!(!c0.peer_closed, "client closes first, not the guest");
    assert_eq!(c0.echoed, messages.concat(), "plaintext round-trips");
    assert_eq!(run.conns[0].handshakes, 1);
    assert_eq!(run.conns[0].records_in, 3);
    assert_eq!(run.conns[0].records_out, 3);
    assert_eq!(run.conns[0].alerts, 0);
    assert_eq!(run.accepts, 1);
    assert_eq!(run.open, 0);
}

/// Secure and plaintext sessions interleave on the same port while the
/// priority-2 serial ISR keeps answering status probes under load.
#[test]
fn mixed_load_serves_secure_and_plain_with_serial_probes() {
    let clients = mixed_workload();
    let run = run(Engine::BlockCache, &clients, Some(500));

    let c0 = &run.outcomes[0];
    assert!(c0.established);
    assert_eq!(c0.error, None);
    assert_eq!(c0.echoed, b"attack at dawnhold position".to_vec());

    assert_eq!(run.outcomes[1].echoed, b"plain oneplain two, longer".to_vec());
    assert_eq!(
        run.outcomes[2].echoed,
        b"interleaved cleartext traffic".to_vec()
    );

    assert_eq!(run.accepts, 3, "all three handles served");
    assert_eq!(run.open, 0);
    assert_eq!(run.conns[0].handshakes, 1, "exactly one secure session");

    // The console answered every probe with `S<open-handles>\n`, and at
    // some point saw at least two connections open at once.
    assert!(!run.serial_tx.is_empty(), "console answered probes");
    assert_eq!(run.serial_tx.len() % 3, 0);
    let mut max_open = 0u8;
    for line in run.serial_tx.chunks(3) {
        assert_eq!(line[0], b'S');
        assert!(line[1].is_ascii_digit());
        assert_eq!(line[2], b'\n');
        max_open = max_open.max(line[1] - b'0');
    }
    assert!(max_open >= 2, "overlapping sessions visible on the console");
    assert_eq!(run.peak_open, 3, "all three sessions overlapped on the NIC");

    // The driver publishes the guest's books into the shared registry.
    assert!(run
        .snapshot
        .contains("board0.issl.guest.handshakes{conn=\"0\"} 1"));
    assert!(run.snapshot.contains("board0.issl.guest.records.in"));
    assert!(run.snapshot.contains("board0.net.board.conn.accepts"));
}

/// The console count is live: the firmware recounts open handles at
/// every accept and close, not only when a NIC pass ends, so while three
/// secure sessions overlap — each pass busy with SHA-1 for hundreds of
/// virtual microseconds — the probes see all three.
#[test]
fn console_count_is_live_under_three_secure_sessions() {
    let clients: Vec<GuestClient> = (0..3u8)
        .map(|i| GuestClient::secure(&[&[i; 40], &[i ^ 0x55; 24]], PSK))
        .collect();
    let run = secure_serve(
        Engine::BlockCache,
        dcc::Options::firmware(),
        PSK,
        &clients,
        Some(500),
        false,
    );
    for (i, o) in run.outcomes.iter().enumerate() {
        assert!(o.established && o.error.is_none(), "client {i}: {o:?}");
    }
    assert_eq!(run.open, 0);
    let max_digit = run
        .serial_tx
        .chunks(3)
        .map(|line| line[1] - b'0')
        .max()
        .expect("console answered probes");
    assert_eq!(run.peak_open, 3, "all three sessions overlapped on the NIC");
    assert_eq!(
        usize::from(max_digit),
        run.peak_open,
        "console saw the peak"
    );
}

/// The secure channel's determinism bar: every observable of the mixed
/// workload — cycles, instructions, virtual time, client outcomes,
/// console bytes, telemetry — is byte-identical across engines.
#[test]
fn engines_agree_byte_for_byte() {
    let clients = mixed_workload();
    let a = run(Engine::Interpreter, &clients, Some(500));
    let b = run(Engine::BlockCache, &clients, Some(500));

    assert_eq!(a.cycles, b.cycles, "cycle counts agree");
    assert_eq!(a.instructions, b.instructions, "instruction counts agree");
    assert_eq!(a.virtual_us, b.virtual_us, "virtual time agrees");
    assert_eq!(a.outcomes, b.outcomes, "client outcomes agree");
    assert_eq!(a.conns, b.conns, "guest counters agree");
    assert_eq!(a.accepts, b.accepts);
    assert_eq!(a.open, b.open);
    assert_eq!(a.peak_open, b.peak_open);
    assert_eq!(a.serial_tx, b.serial_tx, "console output agrees");
    assert_eq!(a.snapshot, b.snapshot, "telemetry snapshots agree");
    assert_eq!(a.echoed_bytes, b.echoed_bytes);
}

/// The cycle profiler attributes where a secure session's time goes:
/// ≥95 % of cycles resolve to named symbols, and the crypto kernels
/// (the hand-assembly SHA-1 and AES modules) appear in the table.
#[test]
fn profiler_attributes_secure_session_cycles_to_symbols() {
    let clients = [GuestClient::secure(&[b"profile me"], PSK)];
    let run = secure_serve(
        Engine::BlockCache,
        dcc::Options::all_optimizations(),
        PSK,
        &clients,
        None,
        true,
    );
    assert!(run.outcomes[0].established);

    let report = run.profile.as_ref().expect("profiling was requested");
    assert!(
        report.attributed_fraction() >= 0.95,
        "only {:.2}% of cycles attributed\n{}",
        100.0 * report.attributed_fraction(),
        report.table()
    );
    for sym in ["_sha1_run", "_hmac_run", "_aes_enc", "_aes_dec", "encrypt", "_pump"] {
        assert!(
            report.rows.iter().any(|r| r.symbol == sym && r.cycles > 0),
            "symbol {sym} missing from profile\n{}",
            report.table()
        );
    }
}

/// Handle reuse rebuilds the MAC-key midstates. Six secure sessions on
/// the three handles: the first three take one handle each and the rest
/// wait in the listen backlog, so every handle serves two sessions in
/// turn, each under its own freshly derived MAC keys. The first session
/// uses a wrong PSK: it draws the bad-Finished alert, and the session
/// that takes its handle next is clean. Byte-identical on both engines.
#[test]
fn reused_handles_rebuild_their_mac_midstates() {
    let mut clients = vec![GuestClient::Secure {
        messages: vec![b"never echoed".to_vec()],
        psk: b"not the shared secret".to_vec(),
        tamper: rmc2000::Tamper::None,
    }];
    clients.extend((1..6u8).map(|i| GuestClient::secure(&[&[i; 40], &[i ^ 0x5A; 104]], PSK)));
    let opts = dcc::Options::firmware();
    let a = secure_serve(Engine::Interpreter, opts, PSK, &clients, None, false);
    let b = secure_serve(Engine::BlockCache, opts, PSK, &clients, None, false);
    assert_eq!(a.outcomes, b.outcomes, "client outcomes agree");
    assert_eq!(a.conns, b.conns, "guest counters agree");
    assert_eq!(a.cycles, b.cycles, "cycle counts agree");
    assert_eq!(a.instructions, b.instructions, "instruction counts agree");
    assert_eq!(a.virtual_us, b.virtual_us, "virtual time agrees");
    assert_eq!(a.snapshot, b.snapshot, "telemetry snapshots agree");

    let c0 = &a.outcomes[0];
    assert!(!c0.established, "wrong PSK never establishes");
    assert_eq!(c0.error.as_deref(), Some("PeerAlert"));
    for (i, o) in a.outcomes.iter().enumerate().skip(1) {
        assert!(o.established && o.error.is_none(), "client {i}: {o:?}");
        let i = i as u8;
        assert_eq!(o.echoed, [vec![i; 40], vec![i ^ 0x5A; 104]].concat());
    }
    assert_eq!(a.accepts, 6);
    assert_eq!(a.alert_kinds, [0, 0, 1], "one bad-Finished alert");
    for h in 0..3 {
        assert!(
            a.snapshot
                .contains(&format!("board0.net.board.conn.accepts{{conn=\"{h}\"}} 2")),
            "handle {h} served two sessions\n{}",
            a.snapshot
        );
    }
    // The wrong-PSK handle's second session completed its handshake and
    // echoed both records; the other handles ran two clean sessions.
    let bad = a
        .conns
        .iter()
        .position(|c| c.alerts == 1)
        .expect("one handle alerted");
    for (h, c) in a.conns.iter().enumerate() {
        let clean = if h == bad { 1 } else { 2 };
        assert_eq!(c.handshakes, clean, "handle {h}: {c:?}");
        assert_eq!(c.records_in, 2 * clean, "handle {h}: {c:?}");
        assert_eq!(c.records_out, 2 * clean, "handle {h}: {c:?}");
        assert_eq!(c.alerts, u16::from(h == bad), "handle {h}: {c:?}");
    }
}
