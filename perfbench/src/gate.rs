//! The correctness gate and the exact (virtual, deterministic) metrics
//! of one `fleet_serve` run. Everything here is a function of the
//! `FleetRun` alone, so two runs of one spec must agree on all of it.

use rmc2000::{FaultEvent, FleetRun, FleetSpec, GuestClient, ALERT_KIND_LABELS};

use crate::workload::sent_bytes;

/// Exact metrics in a fixed order: `(name, value, unit)`.
pub type Exact = Vec<(&'static str, f64, &'static str)>;

/// What one run yields once judged.
pub struct Judged {
    /// The run's exact metrics.
    pub exact: Exact,
    /// FNV-1a hash of the run's telemetry snapshot.
    pub snapshot_hash: u64,
    /// Guest instructions, all boards.
    pub instructions: u64,
    /// Final virtual time, µs.
    pub virtual_us: u64,
    /// Gate violations; empty means the run is correct.
    pub violations: Vec<String>,
}

impl Judged {
    /// The exact metric called `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.exact
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
            .unwrap_or_else(|| panic!("no exact metric {name}"))
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Sum of counter `name` over the snapshot, across every board namespace
/// (`board<i>.name`) and label set.
fn counter(snapshot: &str, name: &str) -> u64 {
    snapshot
        .lines()
        .filter_map(|line| {
            let (key, value) = line.rsplit_once(' ')?;
            let bare = key.split('{').next()?;
            let unprefixed = bare
                .strip_prefix("board")
                .and_then(|r| r.split_once('.'))
                .filter(|(idx, _)| idx.bytes().all(|b| b.is_ascii_digit()))
                .map_or(bare, |(_, rest)| rest);
            (unprefixed == name).then(|| value.parse::<u64>().ok())?
        })
        .sum()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Checks `run` of `spec` against the gate and extracts its exact metrics.
pub fn judge(spec: &FleetSpec, run: &FleetRun) -> Judged {
    let clients = &spec.clients;
    let storm_boards: Vec<usize> = spec
        .faults
        .compiled()
        .iter()
        .filter_map(|e| match e.event {
            FaultEvent::StormStart { board, .. } => Some(board),
            _ => None,
        })
        .collect();
    let snap = &run.snapshot;
    let mut violations = Vec::new();

    // Clean sessions must echo exactly what they sent; a non-clean
    // session must be explained by a fault on the fleet.
    let (mut clean, mut alerted, mut bad_mac, mut aborted) = (0u64, 0u64, 0u64, 0u64);
    for (i, (c, o)) in clients.iter().zip(&run.outcomes).enumerate() {
        let is_clean = o.established && o.error.is_none() && !o.peer_closed;
        if is_clean {
            clean += 1;
            let sent = sent_bytes(c);
            if o.echoed != sent {
                violations.push(format!(
                    "client {i}: clean session echoed {} B that differ from the {} B it sent",
                    o.echoed.len(),
                    sent.len()
                ));
            }
            continue;
        }
        let plain = matches!(c, GuestClient::Plain { .. });
        let what = format!(
            "client {i} ({}): established={} error={:?} alert_close={}",
            if plain { "plain" } else { "secure" },
            o.established,
            o.error,
            o.peer_closed
        );
        if spec.faults.is_empty() {
            violations.push(format!("{what} on a fault-free workload"));
        } else if plain && (o.peer_closed || o.error.as_deref() == Some("BadMac")) {
            // The storm corrupts only records' MAC tails; a plain
            // session carries none.
            violations.push(format!("{what}: no fault explains this on a plain session"));
        } else if o.peer_closed && o.error.is_none() {
            alerted += 1;
        } else if o.error.as_deref() == Some("BadMac") {
            bad_mac += 1;
        } else if matches!(o.error.as_deref(), Some("Reset" | "EarlyClose")) {
            aborted += 1;
        } else {
            violations.push(format!("{what}: no fault explains this failure"));
        }
    }

    // Map the failure classes onto the faults that can cause them: guest
    // close alerts and client BadMacs come only from storm corruption,
    // aborted sessions only from the balancer's stall timeout (a wedge).
    let close_alerts = |on_storm_board: bool| -> u64 {
        run.boards
            .iter()
            .enumerate()
            .filter(|(b, _)| storm_boards.contains(b) == on_storm_board)
            .map(|(_, r)| u64::from(r.alert_kinds[0]))
            .sum()
    };
    let storm_close = close_alerts(true);
    let other_close = close_alerts(false);
    let corrupted = counter(snap, "net.packets.corrupted");
    let stalls = counter(snap, "lb.stalls");
    if alerted > storm_close {
        violations.push(format!(
            "{alerted} sessions drew a close alert but storm boards raised only {storm_close}"
        ));
    }
    if other_close > 0 {
        violations.push(format!(
            "{other_close} close alerts on boards without a storm"
        ));
    }
    if bad_mac > corrupted {
        violations.push(format!(
            "{bad_mac} client BadMacs but only {corrupted} corrupted packets"
        ));
    }
    if aborted > stalls {
        violations.push(format!(
            "{aborted} aborted sessions but only {stalls} balancer stalls"
        ));
    }
    for (kind, k) in ALERT_KIND_LABELS.iter().zip(0..).skip(1) {
        let n: u64 = run.boards.iter().map(|b| u64::from(b.alert_kinds[k])).sum();
        if n > 0 {
            violations.push(format!(
                "{n} guest `{kind}` alerts, but every client is valid"
            ));
        }
    }

    // Every guest handle is freed by the end of the run.
    for b in &run.boards {
        if b.open != 0 {
            violations.push(format!("{} still holds {} open handles", b.label, b.open));
        }
    }

    // The balancer's books balance.
    let served: u64 = run.backends.iter().map(|b| b.served).sum();
    let accepts = counter(snap, "lb.accepts");
    if served != accepts {
        violations.push(format!(
            "balancer served {served} sessions but accepted {accepts}"
        ));
    }

    let sessions = clients.len() as u64;
    let virtual_s = run.virtual_us as f64 / 1e6;
    let instructions: u64 = run.boards.iter().map(|b| b.instructions).sum();
    let cycles: u64 = run.boards.iter().map(|b| b.cycles).sum();
    let idle = counter(snap, "board.idle_cycles");
    let mean_served = served as f64 / run.backends.len() as f64;
    let max_served = run.backends.iter().map(|b| b.served).max().unwrap_or(0);
    // Sums run over u64: an empty f64 sum is -0.0.
    let guest = |f: fn(&rmc2000::ConnCounters) -> u16| -> f64 {
        let n: u64 = run
            .boards
            .iter()
            .flat_map(|b| &b.conns)
            .map(|c| u64::from(f(c)))
            .sum();
        n as f64
    };
    let alerts_kind = |k: usize| -> f64 {
        let n: u64 = run.boards.iter().map(|b| u64::from(b.alert_kinds[k])).sum();
        n as f64
    };

    let exact = vec![
        ("virtual_sessions_per_s", clean as f64 / virtual_s, "1/vs"),
        (
            "virtual_goodput_kBps",
            run.echoed_bytes as f64 / 1e3 / virtual_s,
            "kB/vs",
        ),
        (
            "guest_insns_per_session",
            ratio(instructions, sessions),
            "insn",
        ),
        ("session_ok_ratio", ratio(clean, sessions), "ratio"),
        (
            "session_fail_ratio",
            ratio(sessions - clean, sessions),
            "ratio",
        ),
        (
            "failover_us_max",
            run.faults
                .failover_latencies_us
                .iter()
                .copied()
                .max()
                .unwrap_or(0) as f64,
            "us_virtual",
        ),
        ("rmc2000.epochs", run.epochs as f64, "count"),
        ("rmc2000.idle_share", ratio(idle, cycles), "ratio"),
        (
            "rmc2000.skip_batches",
            counter(snap, "board.skip_batches") as f64,
            "count",
        ),
        (
            "rmc2000.nic.irqs_per_session",
            ratio(counter(snap, "net.board.irqs"), sessions),
            "count",
        ),
        (
            "rmc2000.nic.frames_per_session",
            ratio(
                counter(snap, "net.board.rx_frames") + counter(snap, "net.board.tx_frames"),
                sessions,
            ),
            "count",
        ),
        (
            "rmc2000.nic.cmd_errors",
            counter(snap, "net.board.cmd_errors") as f64,
            "count",
        ),
        (
            "rabbit.busy_cpi",
            ratio(cycles - idle, instructions),
            "cycles/insn",
        ),
        ("guest.handshakes", guest(|c| c.handshakes), "count"),
        ("guest.records_in", guest(|c| c.records_in), "count"),
        ("guest.records_out", guest(|c| c.records_out), "count"),
        ("guest.alerts.close", alerts_kind(0), "count"),
        ("guest.alerts.suite", alerts_kind(1), "count"),
        ("guest.alerts.finished", alerts_kind(2), "count"),
        (
            "netsim.packets_delivered",
            counter(snap, "net.packets.delivered") as f64,
            "count",
        ),
        (
            "netsim.packets_dropped",
            counter(snap, "net.packets.dropped") as f64,
            "count",
        ),
        ("netsim.packets_corrupted", corrupted as f64, "count"),
        (
            "netsim.tcp_retransmits",
            counter(snap, "net.tcp.retransmits") as f64,
            "count",
        ),
        (
            "netsim.payload_share",
            ratio(run.echoed_bytes, counter(snap, "net.tcp.bytes_delivered")),
            "ratio",
        ),
        (
            "lb.failovers",
            counter(snap, "lb.failovers") as f64,
            "count",
        ),
        (
            "lb.dead_marks",
            counter(snap, "lb.dead_marks") as f64,
            "count",
        ),
        ("lb.revivals", counter(snap, "lb.revivals") as f64, "count"),
        ("lb.stalls", stalls as f64, "count"),
        ("lb.unrouted", counter(snap, "lb.unrouted") as f64, "count"),
        (
            "lb.served_imbalance",
            max_served as f64 / mean_served,
            "ratio",
        ),
        (
            "lb.peak_inflight_max",
            run.backends
                .iter()
                .map(|b| b.peak_inflight)
                .max()
                .unwrap_or(0) as f64,
            "count",
        ),
    ];

    Judged {
        exact,
        snapshot_hash: fnv1a(snap.as_bytes()),
        instructions,
        virtual_us: run.virtual_us,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::counter;

    #[test]
    fn counters_sum_across_board_namespaces_and_labels() {
        let snap = "board0.net.board.irqs 3\n\
                    board12.net.board.irqs 4\n\
                    net.board.irqs 100\n\
                    lb.backend.served{backend=\"0\"} 2\n\
                    lb.backend.served{backend=\"1\"} 5\n\
                    boardx.net.board.irqs 9\n";
        assert_eq!(counter(snap, "net.board.irqs"), 107);
        assert_eq!(counter(snap, "lb.backend.served"), 7);
        assert_eq!(counter(snap, "lb.accepts"), 0);
    }
}
