//! Optimizer work, counted without a clock: the method bodies the
//! optimizer rewrites, summed over its `optimize` worker samples at jobs 1.
//!
//! Round 1 rewrites every representative method. A later round rewrites
//! only a method whose body changed in the round before, or one that calls
//! a method whose inline entry changed. On these workloads one method
//! devirtualizes in round 1 and nothing else changes, so round 2 revisits
//! that method alone and adds nothing, which ends the fixpoint. The
//! statistics are the ones a full re-rewrite of every body in every round
//! gives.

use vgl::Compiler;
use vgl_bench::workloads;
use vgl_passes::OptStats;

/// Bodies rewritten by the optimizer and its statistics, at jobs 1.
fn optimize_work(src: &str) -> (usize, OptStats) {
    let c = Compiler::new().with_jobs(1).compile(src).expect("workload compiles");
    let visits = c.trace.workers.iter().filter(|w| w.phase == "optimize").map(|w| w.items).sum();
    (visits, c.stats.opt)
}

#[test]
fn serve_edit_revisits_one_method() {
    let (visits, stats) = optimize_work(&workloads::serve_edit(2, 1));
    assert_eq!(stats, OptStats { devirtualized: 6, ..OptStats::default() });
    assert_eq!(visits, 24, "23 representatives in round 1, then the one that changed");
}

#[test]
fn big_program_revisits_one_method() {
    let (visits, stats) = optimize_work(&workloads::big_program(200));
    assert_eq!(stats, OptStats { devirtualized: 200, ..OptStats::default() });
    assert_eq!(visits, 405, "404 representatives in round 1, then the one that changed");
}
