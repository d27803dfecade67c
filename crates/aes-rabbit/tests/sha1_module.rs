//! The linkable SHA-1 module against the host reference and against the
//! compiled C it replaced: every message length the firmware's short
//! hashes take plus its longest, on both engines, and the cost pin that
//! keeps the assembly under 70 k cycles per block and 2.8× below the C.
//! The midstate entries get the same treatment: `save` then `resume`
//! against the reference, slot isolation, and a cost pin against
//! `_sha1_run`.

use aes_rabbit::{
    sha1_linked_module, Sha1Implementation, Sha1Rig, SHA1_LINKED_CODE_ORG, SHA1_LINKED_DATA_ORG,
    SHA1_MIDSTATE_SLOTS,
};
use rabbit::Engine;

/// A deterministic message of `len` bytes.
fn message(len: usize) -> Vec<u8> {
    (0..len)
        .map(|k| {
            (k as u8)
                .wrapping_mul(31)
                .wrapping_add((len as u8).wrapping_mul(7) ^ 0x5A)
        })
        .collect()
}

#[test]
fn sha1_module_matches_reference_on_both_engines() {
    let rig = Sha1Rig::new(Sha1Implementation::LinkedAsm).expect("module links");
    for len in (0..=192).chain([1152]) {
        let msg = message(len);
        let (fast, fast_cycles) = rig.hash(Engine::BlockCache, &msg).expect("block cache");
        let (slow, slow_cycles) = rig.hash(Engine::Interpreter, &msg).expect("interpreter");
        assert_eq!(fast, crypto::sha1(&msg), "digest, len {len}");
        assert_eq!(slow, fast, "engines disagree on the digest, len {len}");
        assert_eq!(
            slow_cycles, fast_cycles,
            "engines disagree on cycles, len {len}"
        );
    }
}

/// Cycles per 64-byte block: the worst whole-run average over one- to
/// four-block messages (lengths 55, 119, 183, 247: each the longest of
/// its block count), and the marginal cost of a block (the 19-block
/// 1,152-byte message against the 1-block empty one).
fn cycles_per_block(rig: &Sha1Rig) -> (u64, u64) {
    let run = |len: usize| {
        let msg = message(len);
        let (dig, cycles) = rig.hash(Engine::BlockCache, &msg).expect("runs");
        assert_eq!(dig, crypto::sha1(&msg));
        cycles
    };
    let worst = (1..=4u64)
        .map(|blocks| run(64 * blocks as usize - 9) / blocks)
        .max()
        .expect("four lengths");
    (worst, (run(1152) - run(0)) / 18)
}

#[test]
fn sha1_asm_is_under_70k_cycles_per_block_and_2_8x_cheaper_than_c() {
    let (asm, asm_marginal) =
        cycles_per_block(&Sha1Rig::new(Sha1Implementation::LinkedAsm).expect("links"));
    // The C exactly as the firmware compiled it: `unroll` forced off.
    let opts = dcc::Options {
        unroll: false,
        ..dcc::Options::firmware()
    };
    let (c, c_marginal) =
        cycles_per_block(&Sha1Rig::new(Sha1Implementation::CompiledC(opts)).expect("compiles"));
    let ratio = c as f64 / asm as f64;
    println!(
        "SHA-1 cycles per block, worst of 1-4 blocks: asm {asm}, C {c} ({ratio:.2}x); \
         marginal: asm {asm_marginal}, C {c_marginal}"
    );
    assert!(asm <= 70_000, "module costs {asm} cycles per block");
    assert!(ratio >= 2.8, "C {c} / asm {asm} = {ratio:.2}x, below 2.8x");
}

#[test]
fn sha1_module_fits_its_reserved_windows() {
    // The module references the four C globals; stand them in.
    let module = format!(
        "        org 0xC000\n_hbuf: ds 1216\n_hlen: dw 0\n_dig: ds 20\n_hslot: dw 0\n{}",
        sha1_linked_module()
    );
    let img = rabbit::assemble(&module).expect("module assembles");
    for s in img.sections.iter().filter(|s| s.addr != 0xC000) {
        let end = usize::from(s.addr) + s.bytes.len();
        if s.addr >= dcc::layout::ROOT_DATA_ORG {
            assert_eq!(s.addr, SHA1_LINKED_DATA_ORG);
            assert_eq!(SHA1_LINKED_DATA_ORG, 0xC700);
            // State, pointer, block count, schedule, window, midstates.
            assert_eq!(
                s.bytes.len(),
                20 + 2 + 1 + 320 + 85 * 8 + 20 * SHA1_MIDSTATE_SLOTS
            );
            assert!(
                end <= usize::from(aes_rabbit::LINKED_DATA_ORG),
                "workspace runs into the AES workspace: end {end:#06x}"
            );
        } else {
            assert_eq!(s.addr, SHA1_LINKED_CODE_ORG);
            assert!(
                end <= usize::from(aes_rabbit::LINKED_CODE_ORG),
                "module code runs into the AES module: end {end:#06x}"
            );
        }
    }
}

/// A deterministic 64-byte key-pad block, distinct per `seed`.
fn pad_block(seed: u8) -> [u8; 64] {
    let mut p = [0u8; 64];
    for (k, b) in p.iter_mut().enumerate() {
        *b = (k as u8).wrapping_mul(13) ^ seed;
    }
    p
}

#[test]
fn save_then_resume_matches_reference_on_both_engines() {
    let rig = Sha1Rig::new(Sha1Implementation::LinkedAsm).expect("module links");
    let prefix = pad_block(0x36);
    let mut fast = rig.machine(Engine::BlockCache);
    let mut slow = rig.machine(Engine::Interpreter);
    let save_fast = fast.save(5, &prefix).expect("block cache save");
    let save_slow = slow.save(5, &prefix).expect("interpreter save");
    assert_eq!(save_fast, save_slow, "engines disagree on save cycles");
    // 1,088 B is the longest data-record MAC input.
    for len in (0..=192).chain([1088]) {
        let msg = message(len);
        let (f, f_cycles) = fast.resume(5, &msg).expect("block cache resume");
        let (s, s_cycles) = slow.resume(5, &msg).expect("interpreter resume");
        assert_eq!(
            f,
            crypto::sha1(&[&prefix[..], &msg].concat()),
            "digest, len {len}"
        );
        assert_eq!(s, f, "engines disagree on the digest, len {len}");
        assert_eq!(s_cycles, f_cycles, "engines disagree on cycles, len {len}");
    }
    assert_eq!(fast.midstates(), slow.midstates());
}

#[test]
fn saving_one_slot_leaves_every_other_slot_alone() {
    let rig = Sha1Rig::new(Sha1Implementation::LinkedAsm).expect("module links");
    let mut m = rig.machine(Engine::BlockCache);
    for slot in 0..SHA1_MIDSTATE_SLOTS {
        m.save(slot, &pad_block(slot as u8)).expect("save");
    }
    let before = m.midstates();
    assert!(
        before.chunks(20).all(|c| c.iter().any(|&b| b != 0)),
        "every slot filled"
    );
    for slot in 0..SHA1_MIDSTATE_SLOTS {
        m.save(slot, &pad_block(0xA5)).expect("re-save");
        let after = m.midstates();
        for (other, (a, b)) in before.chunks(20).zip(after.chunks(20)).enumerate() {
            if other != slot {
                assert_eq!(a, b, "re-saving slot {slot} moved slot {other}");
            }
        }
        assert_ne!(&before[slot * 20..][..20], &after[slot * 20..][..20]);
        // Resuming reads the slot without writing any of them.
        let (dig, _) = m.resume(slot, b"abc").expect("resume");
        assert_eq!(dig, crypto::sha1(&[&pad_block(0xA5)[..], b"abc"].concat()));
        assert_eq!(m.midstates(), after);
        m.save(slot, &pad_block(slot as u8)).expect("restore");
    }
    assert_eq!(m.midstates(), before);
}

/// Resuming costs what hashing costs: over the same one- to four-block
/// messages, `resume` is within 1 % of `_sha1_run` (the slot lookup is
/// its only extra work).
#[test]
fn resume_costs_within_one_percent_of_run() {
    let rig = Sha1Rig::new(Sha1Implementation::LinkedAsm).expect("module links");
    let mut m = rig.machine(Engine::BlockCache);
    m.save(0, &pad_block(0x5C)).expect("save");
    for blocks in 1..=4usize {
        let msg = message(64 * blocks - 9);
        let (_, run) = m.hash(&msg).expect("run");
        let (_, resume) = m.resume(0, &msg).expect("resume");
        let delta = (resume as f64 - run as f64).abs() / run as f64;
        println!(
            "{blocks} block(s): run {run}, resume {resume} cycles ({:.3} %)",
            100.0 * delta
        );
        assert!(
            delta <= 0.01,
            "{blocks} blocks: run {run} vs resume {resume}"
        );
    }
}
