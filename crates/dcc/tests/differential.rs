//! Differential testing: every generated program must compute the same
//! value compiled-and-simulated as interpreted, under every optimization
//! configuration.

use dcc::{build, parse, Interp, Options};
use proptest::prelude::*;

fn all_option_sets() -> [Options; 8] {
    [
        Options::baseline(),
        Options {
            debug: false,
            ..Options::baseline()
        },
        Options {
            root_data: true,
            ..Options::baseline()
        },
        Options {
            unroll: true,
            ..Options::baseline()
        },
        Options {
            peephole: true,
            ..Options::baseline()
        },
        Options {
            const_shifts: true,
            ..Options::baseline()
        },
        Options::all_optimizations(),
        Options::firmware(),
    ]
}

fn check_all(src: &str) {
    let prog = parse(src).expect("parses");
    let expected = Interp::new(&prog).run_main().expect("interprets");
    for opts in all_option_sets() {
        let b = build(src, opts).unwrap_or_else(|e| panic!("build {opts:?}: {e}\n{src}"));
        let run = b
            .run(500_000_000)
            .unwrap_or_else(|e| panic!("run {opts:?}: {e}\n{}", b.asm));
        assert_eq!(
            run.result, expected,
            "mismatch with {opts:?}\nsource:\n{src}"
        );
    }
}

// ---- deterministic corpus ------------------------------------------------

#[test]
fn expression_grammar_corpus() {
    let programs = [
        "int main() { return (1 + 2) * (3 + 4) - 5; }",
        "int main() { return 0xFFFF + 1; }",
        "int main() { return 0 - 1; }",
        "int main() { return -5 + 10; }",
        "int main() { return ~0x00FF & 0xFFFF; }",
        "int main() { return !0 + !1 + !100; }",
        "int main() { return 1 && 2; }",
        "int main() { return 0 || 0; }",
        "int main() { return (3 < 4) + (4 < 3) * 10; }",
        "int main() { return 1000 / 10 / 10; }",
        "int main() { return 12345 % 100; }",
        "int main() { return 255 << 8; }",
        "int main() { return 0xABCD >> 4; }",
        "int main() { return (1 << 16) == 0; }",
    ];
    for p in programs {
        check_all(p);
    }
}

#[test]
fn statement_corpus() {
    let programs = [
        "int main() { int x; x = 5; if (x > 3) x = 10; else x = 20; return x; }",
        "int main() { int x; x = 1; if (x > 3) { x = 10; } return x; }",
        "int main() { int i; int s; s = 0; i = 10; while (i) { s += i; i--; } return s; }",
        "int main() { int i; int s; s = 0; for (i = 0; i < 8; i++) { if (i == 2) continue; if (i == 6) break; s += i; } return s; }",
        "int main() { int i; for (i = 0; i < 3; i++) ; return i; }",
        "char buf[10]; int main() { int i; for (i = 0; i < 10; i++) buf[i] = i * i; return buf[7]; }",
        "int w[4]; int main() { w[0] = 0x1234; w[1] = w[0] >> 8; return w[1]; }",
    ];
    for p in programs {
        check_all(p);
    }
}

#[test]
fn function_corpus() {
    let programs = [
        "int sq(int x) { return x * x; } int main() { return sq(3) + sq(4); }",
        "char lo(int v) { return v; } int main() { return lo(0x1234); }",
        "int id(int v) { return v; } int main() { return id(id(id(7))); }",
        "int g; void set(int v) { g = v; } int main() { set(99); return g; }",
        "int acc; int step() { acc += 5; return acc; } int main() { step(); step(); return step(); }",
    ];
    for p in programs {
        check_all(p);
    }
}

#[test]
fn xmem_and_root_agree() {
    // data placement must never change results
    let src = "xmem char a[8] = {1,2,3,4,5,6,7,8};\n\
               root char b[8] = {8,7,6,5,4,3,2,1};\n\
               int main() { int i; int s; s = 0; for (i = 0; i < 8; i++) s += a[i] * b[i]; return s; }";
    check_all(src);
}

// ---- constant-count shifts ---------------------------------------------

/// One program per shift count: every `int` operand of `a` and `char`
/// operand of `ca` shifted both ways, as a plain expression and as a
/// compound assignment, plus shifted calls whose side effect must
/// survive the shift.
fn const_shift_program(count: u16) -> String {
    let mut body = String::new();
    let mut slot = 0;
    for (arr, n, scalar) in [("a", 6, "x"), ("ca", 4, "ch")] {
        for j in 0..n {
            for (op, assign) in [("<<", "<<="), (">>", ">>=")] {
                body.push_str(&format!(
                    "    r[{slot}] = {arr}[{j}] {op} {count};\n\
                     \x20   {scalar} = {arr}[{j}]; {scalar} {assign} {count}; r[{}] = {scalar};\n",
                    slot + 1
                ));
                slot += 2;
            }
        }
    }
    format!(
        "int a[6] = {{0, 1, 0x00FF, 0x7FFF, 0x8000, 0xFFFF}};\n\
         char ca[4] = {{0, 1, 0x80, 0xFF}};\n\
         int r[{slots}];\n\
         int calls;\n\
         int bump() {{ calls += 1; return 0xFFFF; }}\n\
         int main() {{\n\
         \x20   int x; char ch;\n\
         {body}\
         \x20   r[{slot}] = bump() << {count};\n\
         \x20   r[{}] = bump() >> {count};\n\
         \x20   return calls;\n\
         }}\n",
        slot + 1,
        slots = slot + 2,
    )
}

/// Every constant shift count 0..=17 (and two past the 16-bit width),
/// on both engines under every option set, against the interpreter:
/// each result slot and the call counter must agree.
#[test]
fn constant_shift_corpus_matches_interpreter() {
    for count in (0..=17).chain([20, 255]) {
        let src = const_shift_program(count);
        let prog = parse(&src).expect("parses");
        let mut interp = Interp::new(&prog);
        let calls = interp.run_main().expect("interprets");
        assert_eq!(calls, 2, "both shifted calls ran (count {count})");
        let slots = usize::from(prog.global("r").unwrap().array.unwrap());
        let expected: Vec<u16> = (0..slots).map(|k| interp.global("r", k).unwrap()).collect();
        for opts in all_option_sets() {
            let b = build(&src, opts).unwrap_or_else(|e| panic!("build {opts:?}: {e}\n{src}"));
            for engine in [rabbit::Engine::Interpreter, rabbit::Engine::BlockCache] {
                let (mut cpu, mut mem) = b.machine();
                let run = b
                    .run_prepared_on(engine, &mut cpu, &mut mem, 10_000_000)
                    .unwrap_or_else(|e| panic!("run {opts:?} {engine:?}: {e}"));
                assert_eq!(
                    run.result, calls,
                    "calls, count {count}, {opts:?} {engine:?}"
                );
                let got: Vec<u16> = (0..slots)
                    .map(|k| b.read_global(&mem, "_r", k, false).unwrap())
                    .collect();
                assert_eq!(got, expected, "count {count}, {opts:?} {engine:?}\n{src}");
            }
        }
    }
}

// ---- property-based corpus -------------------------------------------

/// A tiny expression generator over a fixed set of variables.
fn arb_expr(depth: u32) -> BoxedStrategy<String> {
    let leaf = prop_oneof![
        (0u16..1000).prop_map(|n| n.to_string()),
        Just("x".to_string()),
        Just("y".to_string()),
    ];
    leaf.prop_recursive(depth, 24, 2, |inner| {
        (inner.clone(), inner)
            .prop_flat_map(|(a, b)| {
                prop_oneof![
                    Just(format!("({a} + {b})")),
                    Just(format!("({a} - {b})")),
                    Just(format!("({a} * {b})")),
                    Just(format!("({a} / {b})")),
                    Just(format!("({a} % {b})")),
                    Just(format!("({a} & {b})")),
                    Just(format!("({a} | {b})")),
                    Just(format!("({a} ^ {b})")),
                    Just(format!("({a} < {b})")),
                    Just(format!("({a} == {b})")),
                    Just(format!("({a} << ({b} & 7))")),
                    Just(format!("({a} >> ({b} & 7))")),
                ]
            })
            .boxed()
    })
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_expressions_match(e in arb_expr(3), x: u16, y: u16) {
        let src = format!(
            "int x; int y;\nint main() {{ x = {x}; y = {y}; return {e}; }}"
        );
        let prog = parse(&src).expect("parses");
        let expected = Interp::new(&prog).run_main().expect("interprets");
        // Compare baseline and the most optimized sets (the extremes).
        for opts in [Options::baseline(), Options::all_optimizations(), Options::firmware()] {
            let b = build(&src, opts).expect("builds");
            let run = b.run(500_000_000).expect("runs");
            prop_assert_eq!(run.result, expected, "{} with {:?}", e, opts);
        }
    }

    #[test]
    fn random_array_walks_match(seed: u16, len in 1u16..16, mult in 1u16..7) {
        let src = format!(
            "char t[16];\nint main() {{ int i; int s; s = {seed};\n\
             for (i = 0; i < {len}; i++) t[i] = (i * {mult}) + s;\n\
             s = 0; for (i = 0; i < {len}; i++) s += t[i];\n\
             return s; }}"
        );
        let prog = parse(&src).expect("parses");
        let expected = Interp::new(&prog).run_main().expect("interprets");
        for opts in [Options::baseline(), Options::all_optimizations()] {
            let b = build(&src, opts).expect("builds");
            prop_assert_eq!(b.run(500_000_000).expect("runs").result, expected);
        }
    }
}
