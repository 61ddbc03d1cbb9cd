//! Randomized differential testing: generated Virgil programs must behave
//! identically on the type-passing interpreter (source module), the
//! interpreter over the compiled module, and the VM — results, output, and
//! exceptions. This is the strongest evidence that monomorphization,
//! normalization, optimization, and lowering are semantics-preserving.
//!
//! Program generation lives in `vgl-fuzz` (typed AST model over the full
//! §2–§3 surface: class hierarchies, virtual/abstract dispatch, bound
//! delegates, generics, tuples up to width 16, queries/casts, recursion,
//! GC churn); these tests drive it through the seven-engine oracle and the
//! `vgl::Compiler` facade. Every failure prints the seed; reproduce with
//! `vglc fuzz --seed <seed> --cases 1`. Set `VGL_PROP_CASES` to raise the
//! case count (default 48).

use vgl::fuzz;

fn cases() -> u64 {
    std::env::var("VGL_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

/// Every generated program agrees across all seven engine configurations
/// (source interpreter, monomorphized interpreter, VM, both optimized
/// variants, the VM over fused bytecode, and the same fused build rebuilt
/// at jobs = 8) on result, output, and trap — checked by the vgl-fuzz
/// oracle, which also validates the §4 IR invariants between passes and
/// asserts the parallel rebuild is byte-identical to the serial one.
#[test]
fn differential_three_way() {
    let gen = fuzz::GenConfig::default();
    let oracle = fuzz::OracleConfig::default();
    for case in 0..cases() {
        let seed = 0xD1FF_0000 + case;
        let prog = fuzz::gen_program(seed, &gen);
        let src = fuzz::emit(&prog);
        let verdict = fuzz::check_source(&src, &oracle);
        assert!(
            !verdict.is_failure(),
            "seed {seed}: {}\nprogram:\n{src}",
            fuzz::describe(&verdict)
        );
    }
}

/// Pinned regression sweep for the bytecode back-end optimizer and the
/// tiered VM: 500 seeded cases (base seed 42) through the full eight-engine
/// oracle. The `vm-fused` configuration validates the fused bytecode with
/// `check_fused` before running and asserts zero tuple boxes after; the
/// `vm-tiered` configuration tiers up the unfused lowering that `vglc run`
/// ships. Jobs-count parity is the determinism suite's job
/// (`vgl-passes/tests/determinism.rs`). Override the count with
/// `VGL_FUZZ_CASES`.
#[test]
fn fuzz_regression_seed42_seven_engines() {
    let cfg = fuzz::FuzzConfig {
        seed: 42,
        cases: std::env::var("VGL_FUZZ_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(500),
        ..Default::default()
    };
    let report = fuzz::run_fuzz(&cfg, |_, _| {});
    match &report.failure {
        None => {}
        Some(f) => panic!(
            "case {} (seed {}):\n{}\nshrunk repro:\n{}",
            f.case_index, f.seed, f.verdict, f.shrunk
        ),
    }
}

/// Parse∘print reaches a fixpoint on every generated program.
#[test]
fn printer_round_trip() {
    let gen = fuzz::GenConfig::default();
    for case in 0..cases() {
        let seed = 0x9913_0000 + case;
        let src = fuzz::emit(&fuzz::gen_program(seed, &gen));
        let mut d = vgl::Diagnostics::new();
        let p1 = vgl_syntax::parse_program(&src, &mut d);
        assert!(!d.has_errors(), "seed {seed}: parse errors:\n{src}");
        let printed = vgl_syntax::print_program(&p1);
        let mut d2 = vgl::Diagnostics::new();
        let p2 = vgl_syntax::parse_program(&printed, &mut d2);
        assert!(!d2.has_errors(), "seed {seed}: reparse failed:\n{printed}");
        // Fixpoint: printing the reparse gives identical text.
        assert_eq!(vgl_syntax::print_program(&p2), printed, "seed {seed}");
    }
}

/// The optimizer (constant folding, query folding, devirtualization) must
/// never change a program's observable behavior: compile each generated
/// program with the optimizer on and off through the `vgl::Compiler` facade
/// and compare both engines' results and output.
#[test]
fn generated_exprs_fold_consistently() {
    let gen = fuzz::GenConfig::default();
    for case in 0..cases() {
        let seed = 0xF01D_0000 + case;
        let src = fuzz::emit(&fuzz::gen_program(seed, &gen));
        let opt = vgl::Compiler::new()
            .compile(&src)
            .unwrap_or_else(|err| panic!("seed {seed}: compile failed:\n{err}\nfor:\n{src}"));
        let noopt = vgl::Compiler::new()
            .without_optimizer()
            .compile(&src)
            .unwrap_or_else(|err| panic!("seed {seed}: compile failed:\n{err}\nfor:\n{src}"));
        let runs = [opt.interpret(), opt.execute(), noopt.interpret(), noopt.execute()];
        for r in &runs[1..] {
            assert_eq!(
                runs[0].result, r.result,
                "seed {seed}: optimizer changed the result of:\n{src}"
            );
            assert_eq!(
                runs[0].output, r.output,
                "seed {seed}: optimizer changed the output of:\n{src}"
            );
        }
    }
}
