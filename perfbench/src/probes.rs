//! Per-layer probes of the traced run: ISS speed on a dcc-compiled
//! kernel, the scheduler's cost per idle epoch, and the guest's cycle
//! profile of the workload's secure sessions.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

use netsim::{Ipv4, World};
use rabbit::{Engine, NullIo};
use rmc2000::{Fleet, FleetFirmware, FleetSpec, EPOCH_CYCLES};

use crate::trace::Tracer;
use crate::workload::{sent_bytes, Generated, PSK};
use crate::{median, panic_message};

/// The public C AES of `aes-rabbit`, as the ISS kernel.
const AES_BLOCKS: usize = 96;
const AES_SEED: u64 = 0xAE5;
/// Fresh-machine runs per engine mode; the median rate is reported.
const ISS_REPS: usize = 5;
const MAX_CYCLES: u64 = 2_000_000_000;

/// ISS throughput on one kernel, in M guest instructions per host s.
pub struct IssProbe {
    pub mips_sliced: f64,
    pub mips_unsliced: f64,
    pub mips_interp: f64,
}

/// Runs the C AES kernel through `Cpu::run_on`: block cache in
/// `EPOCH_CYCLES` slices (as a fleet board runs), block cache in one
/// budget, and the interpreter. Every run's ciphertext is checked
/// against `crypto`.
pub fn iss(tr: &mut Tracer) -> Result<IssProbe, String> {
    let (key, blocks) = aes_rabbit::testbench_workload(AES_BLOCKS, AES_SEED);
    let input: Vec<u8> = blocks.iter().flatten().copied().collect();
    let reference = crypto::Rijndael::aes(&key).map_err(|e| format!("{e:?}"))?;
    let expect: Vec<u8> = blocks
        .iter()
        .flat_map(|b| {
            let mut b = *b;
            reference.encrypt_block(&mut b);
            b
        })
        .collect();
    let build = tr
        .span("dcc.build_aes", |_| {
            dcc::build(
                &aes_rabbit::aes128_c_source(AES_BLOCKS),
                dcc::Options::all_optimizations(),
            )
        })
        .map_err(|e| format!("C AES does not build: {e}"))?;

    let rate = |tr: &mut Tracer, name: &'static str, engine: Engine, slice: Option<u64>| {
        let mut rates = Vec::with_capacity(ISS_REPS);
        for _ in 0..ISS_REPS {
            let (mut cpu, mut mem) = build.machine();
            build.write_bytes(&mut mem, "_key", &key);
            build.write_bytes(&mut mem, "_input", &input);
            let t = Instant::now();
            tr.span(name, |_| match slice {
                Some(budget) => {
                    while !cpu.halted && cpu.cycles < MAX_CYCLES {
                        cpu.run_on(engine, &mut mem, &mut NullIo, budget)?;
                    }
                    Ok(())
                }
                None => cpu
                    .run_on(engine, &mut mem, &mut NullIo, MAX_CYCLES)
                    .map(|_| ()),
            })
            .map_err(|e| format!("{name}: C AES faults: {e}"))?;
            let secs = t.elapsed().as_secs_f64();
            if !cpu.halted {
                return Err(format!("{name}: C AES does not halt"));
            }
            if build.read_bytes(&mem, "_output", input.len()) != expect {
                return Err(format!("{name}: C AES ciphertext differs from crypto"));
            }
            rates.push(cpu.instructions as f64 / secs / 1e6);
        }
        Ok::<f64, String>(median(&mut rates))
    };
    Ok(IssProbe {
        mips_sliced: rate(
            tr,
            "rabbit.run_on_sliced",
            Engine::BlockCache,
            Some(EPOCH_CYCLES),
        )?,
        mips_unsliced: rate(tr, "rabbit.run_on_unsliced", Engine::BlockCache, None)?,
        mips_interp: rate(tr, "rabbit.run_on_interp", Engine::Interpreter, None)?,
    })
}

/// Scheduler cost on a booted, parked fleet of the workload's size.
pub struct SchedProbe {
    pub idle_ns_per_board_epoch: f64,
    pub ff_ns_per_epoch: f64,
}

const IDLE_EPOCHS: u64 = 40_000;
const FF_EPOCHS: u64 = 400_000;
const FF_CHUNK: u64 = 200;

/// Times `Fleet::run_epoch` and `Fleet::fast_forward` with every board
/// parked in its idle loop and no network traffic.
pub fn sched(tr: &mut Tracer, spec: &FleetSpec) -> Result<SchedProbe, String> {
    let build = tr.span("dcc.build_firmware", |_| {
        firmware(&spec.firmware, spec.opts)
    });
    let world = Rc::new(RefCell::new(World::new(42)));
    let mut fleet = Fleet::new(&world);
    for i in 0..spec.boards {
        let octet = u8::try_from(i + 1).map_err(|_| "too many boards for the u8 octet")?;
        let b = fleet.add_board(
            spec.engine,
            &format!("rmc2000-{i}"),
            Ipv4::new(10, 0, 1, octet),
        );
        let board = fleet.board_mut(b);
        board.load(&build.image);
        board.set_pc(dcc::layout::CODE_ORG);
    }
    let order: Vec<usize> = (0..spec.boards).collect();
    let mut boot = 0;
    while !fleet.all_parked() {
        fleet.run_epoch(&order);
        boot += 1;
        if boot > 2_000 {
            return Err("probe fleet does not park".into());
        }
    }

    let t = Instant::now();
    tr.span("rmc2000.run_epoch", |_| {
        for _ in 0..IDLE_EPOCHS {
            fleet.run_epoch(&order);
        }
    });
    let idle_ns = t.elapsed().as_secs_f64() * 1e9 / (IDLE_EPOCHS * spec.boards as u64) as f64;

    // Fast-forward where it can, stepping an epoch where a device
    // deadline holds it back — what `fleet_serve` does while idle.
    let start = fleet.epochs();
    let t = Instant::now();
    tr.span("rmc2000.fast_forward", |_| {
        while fleet.epochs() - start < FF_EPOCHS {
            if fleet.fast_forward(FF_CHUNK) == 0 {
                fleet.run_epoch(&order);
            }
        }
    });
    let ff_ns = t.elapsed().as_secs_f64() * 1e9 / (fleet.epochs() - start) as f64;
    Ok(SchedProbe {
        idle_ns_per_board_epoch: idle_ns,
        ff_ns_per_epoch: ff_ns,
    })
}

/// Builds the firmware `fleet_serve` would build for `firmware`.
pub fn firmware(firmware: &FleetFirmware, opts: dcc::Options) -> dcc::Build {
    match firmware {
        FleetFirmware::PlainEcho => rmc2000::serve::build_serve_firmware(opts),
        FleetFirmware::SecureEcho { .. } => rmc2000::build_secure_firmware(opts),
    }
}

/// Guest cycle shares of the secure sessions, from the cycle profiler.
pub struct GuestProfile {
    pub cycles_per_secure_session: f64,
    pub attributed: f64,
    pub shares: Vec<(&'static str, f64)>,
}

/// The guest cycle classes the profile probe reports, in order.
const SHARES: [&str; 5] = [
    "guest.share.sha1",
    "guest.share.shift_helpers",
    "guest.share.hmac",
    "guest.share.aes",
    "guest.share.nic_isr",
];

/// The profile must attribute at least this share of guest cycles.
const MIN_ATTRIBUTION: f64 = 0.95;

/// One profiled `secure_serve` run on the workload's profile clients.
pub fn guest_profile(tr: &mut Tracer, g: &Generated) -> Result<GuestProfile, String> {
    let clients = &g.profile_clients;
    if clients.is_empty() {
        // No secure sessions: no secure cycles to attribute.
        return Ok(GuestProfile {
            cycles_per_secure_session: 0.0,
            attributed: 0.0,
            shares: SHARES.iter().map(|&name| (name, 0.0)).collect(),
        });
    }
    let opts = g.spec.opts;
    let run = tr
        .span("rmc2000.secure_serve", |_| {
            catch_unwind(AssertUnwindSafe(|| {
                rmc2000::secure_serve(Engine::BlockCache, opts, PSK, clients, None, true)
            }))
        })
        .map_err(|p| format!("secure_serve panicked: {}", panic_message(&*p)))?;
    for (i, (c, o)) in clients.iter().zip(&run.outcomes).enumerate() {
        if o.error.is_some() || o.peer_closed || o.echoed != sent_bytes(c) {
            return Err(format!("profiled session {i} is not clean: {:?}", o.error));
        }
    }
    if run.open != 0 {
        return Err(format!("profiled guest holds {} open handles", run.open));
    }
    let report = run.profile.ok_or("profiler report missing")?;
    let attributed = report.attributed_fraction();
    if attributed < MIN_ATTRIBUTION {
        return Err(format!(
            "profile attributes {attributed:.3} of cycles, below {MIN_ATTRIBUTION}"
        ));
    }

    // The hand-asm AES module is linked at reserved orgs: classify its
    // internals by address, everything else by C function name.
    let build = tr.span("dcc.build_profile_firmware", |_| {
        rmc2000::build_secure_firmware(opts)
    });
    let aes = |sym: &str| {
        build.image.symbols.get(sym).is_some_and(|&a| {
            (aes_rabbit::LINKED_CODE_ORG..aes_rabbit::LINKED_TABLES_ORG).contains(&a)
        })
    };
    let class = |s: &str| -> Option<&'static str> {
        if s.contains("sha1") {
            Some("guest.share.sha1")
        } else if s.starts_with("__shl") || s.starts_with("__shr") {
            Some("guest.share.shift_helpers")
        } else if s.contains("hmac") {
            Some("guest.share.hmac")
        } else if aes(s) {
            Some("guest.share.aes")
        } else if s == "_nic_isr" {
            Some("guest.share.nic_isr")
        } else {
            None
        }
    };
    let total = report.total.max(1) as f64;
    let shares = SHARES
        .iter()
        .map(|&name| {
            let cycles: u64 = report
                .rows
                .iter()
                .filter(|r| class(&r.symbol) == Some(name))
                .map(|r| r.cycles)
                .sum();
            (name, cycles as f64 / total)
        })
        .collect();
    Ok(GuestProfile {
        cycles_per_secure_session: report.total as f64 / clients.len() as f64,
        attributed,
        shares,
    })
}
