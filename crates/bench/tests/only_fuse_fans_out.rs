//! Fuse is the one pooled phase, checked without a clock: at jobs 8 the
//! instance fingerprinting (`hash`) and every optimizer round run on the
//! calling thread as worker 0, while fuse's pool records its other workers,
//! and the output equals the jobs-1 compile's.

use vgl::{Compilation, Compiler};
use vgl_bench::workloads;

fn compile(src: &str, jobs: usize) -> Compilation {
    Compiler::new().with_jobs(jobs).compile(src).expect("workload compiles")
}

/// `(worker, items)` of every sample recorded for `phase`, in order.
fn samples(c: &Compilation, phase: &str) -> Vec<(usize, usize)> {
    c.trace.workers.iter().filter(|w| w.phase == phase).map(|w| (w.worker, w.items)).collect()
}

#[test]
fn only_fuse_fans_out_at_jobs_8() {
    let src = workloads::instance_fanout_distinct(64);
    let serial = compile(&src, 1);
    let pooled = compile(&src, 8);

    let hash = samples(&pooled, "hash");
    assert_eq!(hash.len(), 1, "one fingerprinting pass: {hash:?}");
    assert!(hash.iter().all(|&(w, _)| w == 0), "fingerprinting fanned out: {hash:?}");

    // One sample per round, each rewriting the same bodies as at jobs 1.
    let optimize = samples(&pooled, "optimize");
    assert!(!optimize.is_empty());
    assert!(optimize.iter().all(|&(w, _)| w == 0), "optimize fanned out: {optimize:?}");
    assert_eq!(optimize, samples(&serial, "optimize"));
    assert_eq!(optimize[0].1, 129, "round 1 rewrites every representative");

    let fuse = samples(&pooled, "fuse");
    assert!(fuse.iter().any(|&(w, _)| w > 0), "fuse did not fan out: {fuse:?}");
    let fused = |s: &[(usize, usize)]| s.iter().map(|&(_, items)| items).sum::<usize>();
    assert_eq!(fused(&fuse), fused(&samples(&serial, "fuse")));

    assert_eq!(vgl_vm::disasm(&pooled.program), vgl_vm::disasm(&serial.program));
    assert_eq!(
        vgl_passes::module_fingerprint(&pooled.compiled),
        vgl_passes::module_fingerprint(&serial.compiled)
    );
}
