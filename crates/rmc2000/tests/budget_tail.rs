//! The block cache's budget tail at the fleet's slice sizes: a board runs
//! in epochs of [`EPOCH_CYCLES`], so every budget up to two epochs must
//! stop the block cache at exactly the instruction boundary, cycle count
//! and register state where the interpreter stops — whether the budget
//! is a whole run from power-on or one slice of a long sliced run.

use rabbit::{Cpu, Engine, Memory, NullIo};
use rmc2000::EPOCH_CYCLES;

/// Hashes a 1,088-byte message six times through the linked SHA-1
/// module: about 5.9 M cycles of the guest's hottest code, enough for one
/// slice of every budget in `1..=2 * EPOCH_CYCLES` in turn.
fn sha1_loop() -> dcc::Build {
    dcc::build_firmware_linked(
        &format!(
            "char hbuf[{}];\nint hlen;\nchar dig[20];\nint hslot;\n\
             extern void sha1_run();\n\
             int main() {{\n\
                 int n;\n\
                 for (n = 0; n < 6; n = n + 1) {{\n\
                     hlen = 1088;\n\
                     sha1_run();\n\
                 }}\n\
                 return 0;\n\
             }}\n",
            aes_rabbit::SHA1_HBUF_LEN
        ),
        dcc::Options::firmware(),
        &[],
        &[&aes_rabbit::sha1_linked_module()],
    )
    .expect("SHA-1 loop links")
}

/// Where a run stopped.
fn stop(cpu: &Cpu) -> (u64, u64, rabbit::Registers, bool) {
    (cpu.cycles, cpu.instructions, cpu.regs.clone(), cpu.halted)
}

fn slice(cpu: &mut Cpu, mem: &mut Memory, engine: Engine, budget: u64) {
    cpu.run_on(engine, mem, &mut NullIo, budget)
        .expect("SHA-1 loop runs without faults");
}

#[test]
fn every_budget_up_to_two_epochs_stops_both_engines_at_the_same_boundary() {
    let build = sha1_loop();
    let budgets = 1..=2 * EPOCH_CYCLES;

    // Each budget as a whole run from power-on.
    for budget in budgets.clone() {
        let (mut slow, mut slow_mem) = build.machine();
        let (mut fast, mut fast_mem) = build.machine();
        slice(&mut slow, &mut slow_mem, Engine::Interpreter, budget);
        slice(&mut fast, &mut fast_mem, Engine::BlockCache, budget);
        assert_eq!(stop(&fast), stop(&slow), "budget {budget} from power-on");
    }

    // Each budget as one slice of a sliced run, in turn, the block
    // cache keeping its blocks across slices as a board's does.
    let (mut slow, mut slow_mem) = build.machine();
    let (mut fast, mut fast_mem) = build.machine();
    for budget in budgets {
        assert!(!slow.halted, "the loop outlasts the slices");
        slice(&mut slow, &mut slow_mem, Engine::Interpreter, budget);
        slice(&mut fast, &mut fast_mem, Engine::BlockCache, budget);
        assert_eq!(stop(&fast), stop(&slow), "slice of {budget} cycles");
    }
    assert_eq!(
        fast_mem.dump(0x8_0000, 0x8000),
        slow_mem.dump(0x8_0000, 0x8000),
        "SRAM agrees"
    );
}
