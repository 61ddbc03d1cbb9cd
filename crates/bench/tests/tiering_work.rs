//! Tiering work, counted without a clock.
//!
//! A tiered VM runs the code the static fuse pass gives, and tier-up only
//! records speculation at `CallVirt` sites: a matching receiver calls its
//! callee directly or runs the callee's body in place, and any other
//! receiver goes on as the plain call it is. So a tiered run executes at
//! most the instructions of the statically fused run, and inlined callees
//! make it shorter. The counts are deterministic, so the bound is exact at
//! any host speed.

use vgl::{Compilation, Compiler, Options, RunOutcome};
use vgl_bench::workloads;

/// Every `examples/v` program, then the generators of perfbench's
/// `run_tiered` workload at sizes a debug build runs quickly.
fn programs() -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/v");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {dir:?}: {e}"))
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".v"))
        .collect();
    names.sort();
    assert!(!names.is_empty(), "examples/v has programs");
    let mut out: Vec<(String, String)> = names
        .into_iter()
        .map(|n| {
            let src = std::fs::read_to_string(dir.join(&n)).expect("read example");
            (n, src)
        })
        .collect();
    type Generator = fn(usize) -> String;
    let generators: [(&str, Generator, usize); 7] = [
        ("polymorphic_then_monomorphic", workloads::polymorphic_then_monomorphic, 300),
        ("polymorphic", workloads::polymorphic, 60),
        ("dispatch_chain", workloads::dispatch_chain, 3000),
        ("tuple_heavy", workloads::tuple_heavy, 3000),
        ("mixed_app", workloads::mixed_app, 3000),
        ("server_churn", workloads::server_churn, 1500),
        ("server_steady", workloads::server_steady, 1500),
    ];
    for (name, f, n) in generators {
        out.push((format!("{name}({n})"), f(n)));
    }
    out
}

fn run(name: &str, c: &Compilation) -> (RunOutcome, vgl::VmStats) {
    let out = c.execute();
    assert!(out.result.is_ok(), "{name}: {:?}", out.result);
    let stats = out.vm_stats.expect("VM run has stats");
    (out, stats)
}

#[test]
fn tiering_never_adds_executed_work() {
    for (name, src) in programs() {
        let fused = Compiler::new().compile(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let (want, fused_stats) = run(&name, &fused);
        for threshold in [vgl_vm::DEFAULT_TIER_THRESHOLD, 1] {
            let tiered = Compiler::with_options(Options {
                tier: true,
                tier_threshold: threshold,
                ..Options::default()
            })
            .compile(&src)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
            let vm = tiered.vm();
            let code = vm.tier_state().expect("tiering enabled").funcs();
            assert_eq!(code.len(), fused.program.funcs.len(), "{name}: function count");
            for (f, (got, want)) in code.iter().zip(&fused.program.funcs).enumerate() {
                assert_eq!(got.code, want.code, "{name}: f{f} {} is not the static code", want.name);
            }
            let (got, stats) = run(&name, &tiered);
            assert_eq!(got.result, want.result, "{name} at threshold {threshold}: result");
            assert_eq!(got.output, want.output, "{name} at threshold {threshold}: output");
            assert!(
                stats.instrs <= fused_stats.instrs,
                "{name} at threshold {threshold}: tiered executes {} instrs, static fusion {}",
                stats.instrs,
                fused_stats.instrs
            );
        }
    }
}
