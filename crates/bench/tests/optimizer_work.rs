//! Optimizer work, counted without a clock.
//!
//! The first two tests count the method bodies the optimizer rewrites,
//! summed over its `optimize` worker samples at jobs 1. Round 1 rewrites
//! every representative method. A later round rewrites only a method whose
//! body changed in the round before, or one that calls a method whose
//! inline entry changed. On these workloads round 1 changes nothing, so it
//! is the only round and every representative is rewritten exactly once.
//!
//! The last test compares each program with and without the optimizer: the
//! optimizer never makes the VM execute more instructions, and on the
//! generated workloads it never makes the fused bytecode longer either.
//! Inlining still grows the static code of `wide_tuples.v` (65 → 83
//! instructions) while it cuts its executed instructions (129 → 119), so
//! the static bound stops at the generated workloads.

use vgl::{Compilation, Compiler};
use vgl_bench::workloads;
use vgl_passes::OptStats;

/// Bodies rewritten by the optimizer and its statistics, at jobs 1.
fn optimize_work(src: &str) -> (usize, OptStats) {
    let c = Compiler::new().with_jobs(1).compile(src).expect("workload compiles");
    let visits = c.trace.workers.iter().filter(|w| w.phase == "optimize").map(|w| w.items).sum();
    (visits, c.stats.opt)
}

#[test]
fn serve_edit_rewrites_each_method_once() {
    let (visits, stats) = optimize_work(&workloads::serve_edit(2, 1));
    assert_eq!(stats, OptStats::default());
    assert_eq!(visits, 23, "23 representatives in round 1, and no round 2");
}

#[test]
fn big_program_rewrites_each_method_once() {
    let (visits, stats) = optimize_work(&workloads::big_program(200));
    assert_eq!(stats, OptStats::default());
    assert_eq!(visits, 404, "404 representatives in round 1, and no round 2");
}

/// VM instructions executed by one run of `c`.
fn executed(name: &str, c: &Compilation) -> u64 {
    let out = c.execute();
    assert!(out.result.is_ok(), "{name}: {:?}", out.result);
    out.vm_stats.expect("VM run has stats").instrs
}

#[test]
fn optimizer_never_adds_executed_work() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/v");
    let mut programs: Vec<(String, String, bool)> = vec![
        ("serve_edit(2, 1)".into(), workloads::serve_edit(2, 1), true),
        ("big_program(200)".into(), workloads::big_program(200), true),
    ];
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {dir:?}: {e}"))
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".v"))
        .collect();
    names.sort();
    assert!(!names.is_empty(), "examples/v has programs");
    for n in names {
        let src = std::fs::read_to_string(dir.join(&n)).expect("read example");
        programs.push((n, src, false));
    }
    for (name, src, static_bound) in &programs {
        let opt = Compiler::new().compile(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let plain = Compiler::new()
            .without_optimizer()
            .compile(src)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let (ran, ran_plain) = (executed(name, &opt), executed(name, &plain));
        assert!(ran <= ran_plain, "{name}: optimizer executes {ran} instrs, {ran_plain} without");
        if *static_bound {
            let (size, size_plain) = (opt.code_size(), plain.code_size());
            assert!(
                size <= size_plain,
                "{name}: optimizer emits {size} instrs, {size_plain} without"
            );
        }
    }
}
