//! The linkable SHA-1 module against the host reference and against the
//! compiled C it replaced: every message length the firmware's short
//! hashes take plus its longest, on both engines, and the cost pin that
//! keeps the assembly under 70 k cycles per block and 2.8× below the C.

use aes_rabbit::{
    sha1_linked_module, Sha1Implementation, Sha1Rig, SHA1_LINKED_CODE_ORG, SHA1_LINKED_DATA_ORG,
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
    // The module references the three C globals; stand them in.
    let module = format!(
        "        org 0xC000\n_hbuf: ds 1216\n_hlen: dw 0\n_dig: ds 20\n{}",
        sha1_linked_module()
    );
    let img = rabbit::assemble(&module).expect("module assembles");
    for s in img.sections.iter().filter(|s| s.addr != 0xC000) {
        let end = usize::from(s.addr) + s.bytes.len();
        if s.addr >= dcc::layout::ROOT_DATA_ORG {
            assert_eq!(s.addr, SHA1_LINKED_DATA_ORG);
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
