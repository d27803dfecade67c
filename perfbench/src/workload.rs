//! The seeded workload generator. From one seed it builds the
//! [`FleetSpec`] a workload runs; `fleet_serve` sees only that spec.
//!
//! Every workload is open-loop at the session level (dial times are a
//! seeded Poisson schedule in virtual time) and closed-loop inside a
//! connection (a client sends its next message only after the previous
//! echo arrived — that is how `fleet_serve`'s client machines work).
//! Session and message *counts* are fixed per workload and only sizes,
//! contents, order and arrival times come from the seed, so totals stay
//! steady across seeds and a seed change moves the inputs, not the scale.

use issl::recmap;
use netsim::Corruption;
use rabbit::Engine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmc2000::{FaultPlan, FleetFirmware, FleetSpec, GuestClient, Tamper};

/// The seed a plain `--seed`-less run uses; tune against this one.
pub const DEFAULT_SEED: u64 = 1;

/// The held-out seed: never used while tuning the benchmark or a change,
/// so a claimed gain can be re-checked on inputs it was not fitted to.
pub const HELDOUT_SEED: u64 = 20_031_017;

/// Today's addressing limit for clients and boards: `fleet_serve` hands
/// out one `u8` IP octet per client (`10.0.2.1+i`) and per board
/// (`10.0.1.1+i`), and `secure_serve` one per client (`10.0.0.2+i`), so
/// beyond 254 they would panic in an `expect`. The generator
/// refuses such a workload with this error instead.
pub const MAX_ENDPOINTS: usize = 254;

/// The PSK every secure client and every board shares.
pub const PSK: &[u8] = b"rmc2000 shared secret";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Few boards, secure sessions offered above fleet capacity: guest
    /// SHA-1/HMAC compute dominates, sliced into 1,500-cycle epochs.
    SecureBurst,
    /// Many plain-echo clients streaming 32–512 B messages: guest byte
    /// copies through `ioe` NIC ports, NIC traffic and packet volume.
    PlainStream,
    /// A mostly idle 16-board fleet with sparse arrivals, console probes
    /// and the E16 fault script: fast-forward, failover, loss, corruption.
    FaultyTrickle,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::SecureBurst,
        Workload::PlainStream,
        Workload::FaultyTrickle,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SecureBurst => "secure_burst",
            Workload::PlainStream => "plain_stream",
            Workload::FaultyTrickle => "faulty_trickle",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// A generated workload: the spec `fleet_serve` runs plus what the
/// benchmark needs to judge and probe it.
pub struct Generated {
    /// The fleet run, on the block cache.
    pub spec: FleetSpec,
    /// Secure clients for the guest-profile probe (one per guest handle);
    /// empty when the workload has none.
    pub profile_clients: Vec<GuestClient>,
}

/// The workload's generator: `seed` mixed with a per-workload stream.
fn rng_for(seed: u64, workload: Workload) -> StdRng {
    StdRng::seed_from_u64(seed ^ (workload as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// Exponential inter-arrival gap with mean `mean_us`, in whole µs.
fn exp_us(rng: &mut StdRng, mean_us: f64) -> u64 {
    (-(1.0 - rng.gen::<f64>()).ln() * mean_us) as u64
}

/// `n` printable-ASCII bytes: the secure firmware sniffs a plain
/// client's first byte, and ASCII never looks like a ClientHello.
fn ascii(rng: &mut StdRng, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.gen_range(b' '..=b'~')).collect()
}

fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// `count` messages of `lo..=hi` bytes each.
fn messages(rng: &mut StdRng, count: usize, lo: usize, hi: usize, text: bool) -> Vec<Vec<u8>> {
    (0..count)
        .map(|_| {
            let n = rng.gen_range(lo..=hi);
            if text {
                ascii(rng, n)
            } else {
                let mut m = vec![0; n];
                rng.fill(&mut m[..]);
                m
            }
        })
        .collect()
}

fn secure(messages: Vec<Vec<u8>>) -> GuestClient {
    GuestClient::Secure {
        messages,
        psk: PSK.to_vec(),
        tamper: Tamper::None,
    }
}

/// A Poisson dial schedule: `n` arrivals from `start_us` at mean gap
/// `mean_gap_us`.
fn arrivals(rng: &mut StdRng, n: usize, start_us: u64, mean_gap_us: f64) -> Vec<u64> {
    let mut t = start_us;
    (0..n)
        .map(|_| {
            t += exp_us(rng, mean_gap_us);
            t
        })
        .collect()
}

/// A paced schedule: arrival `i` lands uniformly inside
/// `[i·gap, (i+1)·gap)`, so the offered rate is fixed and only the
/// phases are seeded.
fn paced(rng: &mut StdRng, n: usize, gap_us: u64) -> Vec<u64> {
    (0..n as u64)
        .map(|i| i * gap_us + rng.gen_range(0..gap_us))
        .collect()
}

/// The first secure clients of `clients`, one per guest handle.
fn first_secure(clients: &[GuestClient]) -> Vec<GuestClient> {
    clients
        .iter()
        .filter(|c| matches!(c, GuestClient::Secure { .. }))
        .take(rabbit::nicmap::MAX_CONNS)
        .cloned()
        .collect()
}

// The E16 fault script (examples/board_fleet_faults.rs), in virtual µs:
// board 1 wedges and comes back, board 2's link flaps at 40 % loss,
// board 3's link carries a MAC-targeting corruption storm.
const WEDGE_AT: u64 = 560_000;
const RESURRECT_AT: u64 = 1_600_000;
const FLAP_FROM: u64 = 600_000;
const FLAP_TO: u64 = 750_000;
const STORM_FROM: u64 = 600_000;
const STORM_TO: u64 = 1_500_000;

/// Generates `workload` from `seed`.
///
/// # Errors
///
/// If the workload would exceed [`MAX_ENDPOINTS`] clients or boards.
pub fn generate(workload: Workload, seed: u64) -> Result<Generated, String> {
    let mut rng = rng_for(seed, workload);
    let g = match workload {
        Workload::SecureBurst => {
            // 24 secure sessions, then 8 plain ones, over 4 boards (12
            // handles), all dialing within ~0.2 virtual s: far above a
            // capacity near 10 sessions/virtual s, so the run measures
            // how fast the fleet drains the backlog. Every message is
            // 64 B, so secure sessions cost the same, and 24 of them are
            // exactly two waves of the 12 handles. Plain sessions dial
            // last: interleaved with the secure ones they decided where
            // the second wave landed, and on some seeds one board drew an
            // extra secure session and the makespan grew by a whole
            // session (virtual sessions/s bimodal, ±8 %).
            let mut clients: Vec<GuestClient> = (0..24)
                .map(|_| secure(messages(&mut rng, 2, 64, 64, false)))
                .collect();
            shuffle(&mut rng, &mut clients);
            clients.extend((0..8).map(|_| GuestClient::Plain {
                messages: messages(&mut rng, 2, 64, 64, true),
            }));
            let dials = arrivals(&mut rng, clients.len(), 0, 5_000.0);
            let profile_clients = first_secure(&clients);
            let mut spec = FleetSpec::new(Engine::BlockCache, 4, PSK, clients);
            spec.dials = dials;
            Generated {
                spec,
                profile_clients,
            }
        }
        Workload::PlainStream => {
            // 240 clients × 20 messages of 32–512 B over 8 boards.
            let clients: Vec<GuestClient> = (0..240)
                .map(|_| GuestClient::Plain {
                    messages: messages(&mut rng, 20, 32, 512, false),
                })
                .collect();
            // All dial within ~0.1 virtual s, above the 24-handle capacity.
            let dials = arrivals(&mut rng, clients.len(), 0, 500.0);
            // No secure sessions, so nothing for the profile probe.
            let profile_clients = Vec::new();
            let mut spec = FleetSpec::new(Engine::BlockCache, 8, PSK, clients);
            spec.firmware = FleetFirmware::PlainEcho;
            spec.dials = dials;
            Generated {
                spec,
                profile_clients,
            }
        }
        Workload::FaultyTrickle => {
            // 16 boards, 12 secure + 12 plain sessions paced one per 80
            // virtual ms across the fault window, console probes on. All
            // messages are 48 B. The run ends when the last paced
            // session finishes, so that session is always secure: when
            // the seed chose its kind, the run's length turned on whether
            // it was a long secure or a short plain session (virtual
            // sessions/s ±7 % across seeds). Only the first 23 are shuffled.
            let mut clients: Vec<GuestClient> = (0..11)
                .map(|_| secure(messages(&mut rng, 2, 48, 48, false)))
                .collect();
            clients.extend((0..12).map(|_| GuestClient::Plain {
                messages: messages(&mut rng, 2, 48, 48, true),
            }));
            shuffle(&mut rng, &mut clients);
            clients.push(secure(messages(&mut rng, 2, 48, 48, false)));
            let dials = paced(&mut rng, clients.len(), 80_000);
            let profile_clients = first_secure(&clients);
            let mut spec = FleetSpec::new(Engine::BlockCache, 16, PSK, clients);
            spec.dials = dials;
            spec.probe_gap_us = Some(900);
            spec.faults = FaultPlan::new()
                .wedge_resurrect(1, WEDGE_AT, RESURRECT_AT)
                .flap(2, FLAP_FROM, FLAP_TO, 0.4)
                .storm(
                    3,
                    STORM_FROM,
                    STORM_TO,
                    Corruption::mac_storm(recmap::REC_DATA),
                );
            spec.lb_retry_after_us = Some(200_000);
            spec.lb_stall_timeout_us = Some(2_000_000);
            Generated {
                spec,
                profile_clients,
            }
        }
    };
    if g.spec.clients.len() > MAX_ENDPOINTS || g.spec.boards > MAX_ENDPOINTS {
        return Err(format!(
            "{}: {} clients on {} boards exceeds the {MAX_ENDPOINTS}-endpoint u8 address limit",
            workload.name(),
            g.spec.clients.len(),
            g.spec.boards
        ));
    }
    Ok(g)
}

/// The bytes client `c` sends, in order — what a clean session echoes.
pub fn sent_bytes(c: &GuestClient) -> Vec<u8> {
    match c {
        GuestClient::Secure { messages, .. } | GuestClient::Plain { messages } => messages.concat(),
        GuestClient::Raw { payload } | GuestClient::HangUp { payload } => payload.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(g: &Generated) -> (Vec<Vec<u8>>, Vec<u64>) {
        (
            g.spec.clients.iter().map(sent_bytes).collect(),
            g.spec.dials.clone(),
        )
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in Workload::ALL {
            let a = generate(w, DEFAULT_SEED).expect("generates");
            let b = generate(w, DEFAULT_SEED).expect("generates");
            let c = generate(w, HELDOUT_SEED).expect("generates");
            assert_eq!(shape(&a), shape(&b), "{}", w.name());
            assert_ne!(shape(&a), shape(&c), "{}", w.name());
            assert!(a.spec.clients.len() <= MAX_ENDPOINTS);
            let profiled = if w == Workload::PlainStream {
                0
            } else {
                rabbit::nicmap::MAX_CONNS
            };
            assert_eq!(a.profile_clients.len(), profiled, "{}", w.name());
        }
    }

    #[test]
    fn plain_payloads_on_secure_firmware_are_ascii() {
        for w in [Workload::SecureBurst, Workload::FaultyTrickle] {
            let g = generate(w, DEFAULT_SEED).expect("generates");
            for c in &g.spec.clients {
                if let GuestClient::Plain { messages } = c {
                    assert!(messages.iter().flatten().all(|b| (b' '..=b'~').contains(b)));
                }
            }
        }
    }
}
