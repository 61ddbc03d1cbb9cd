//! Seed-pinned golden chunk maps for the cost-chunked scheduler.
//!
//! The chunk plan is a pure integer function of (per-item costs, jobs): no
//! timing, no thread identity, no platform word size leaks in. That purity
//! is what makes the parallel back end deterministic, so we pin the exact
//! plan the scheduler produces for the E9 fan-out workload at jobs = 1, 2,
//! and 8. If a cost-model or packing change moves these boundaries, this
//! test fails and the new map must be reviewed and re-pinned deliberately —
//! chunk boundaries shifting silently is how nondeterminism sneaks in.
//!
//! Costs follow fuse's formula on its input, the one phase that plans
//! chunks: `1 + code.len()` for each lowered (unfused) function. They only
//! move if lowering, the packing algorithm, or the workload itself changes.

use vgl_bench::workloads;
use vgl_passes::sched::plan_chunks;

const FANOUT_K: usize = 64;

/// The per-item cost vector by fuse's formula: one per instruction of each
/// lowered function, plus one.
fn fuse_costs() -> Vec<u64> {
    let src = workloads::instance_fanout_distinct(FANOUT_K);
    let c = vgl::Compiler::new()
        .without_fuse()
        .with_jobs(1)
        .compile(&src)
        .expect("fan-out workload compiles");
    c.program.funcs.iter().map(|f| 1 + f.code.len() as u64).collect()
}

fn ranges(costs: &[u64], jobs: usize) -> Vec<(usize, usize)> {
    plan_chunks(costs, jobs).ranges.clone()
}

#[test]
fn fanout_chunk_map_is_pinned() {
    let costs = fuse_costs();

    // The workload itself is part of the golden: 64 distinct `work<Ci>`
    // instances + 64 constructors + main, one lowered function each. If
    // that count moves, everything below is expected to move with it.
    assert_eq!(costs.len(), 129, "fan-out function count changed: {}", costs.len());
    let total: u64 = costs.iter().sum();
    assert_eq!(total, 6088, "fan-out total fuse cost changed");

    let golden: [(usize, Vec<(usize, usize)>); 3] = [
        (1, vec![(0, 23), (23, 59), (59, 95), (95, 129)]),
        (
            2,
            vec![
                (0, 5),
                (5, 23),
                (23, 41),
                (41, 59),
                (59, 77),
                (77, 95),
                (95, 113),
                (113, 129),
            ],
        ),
        (
            8,
            vec![
                (0, 1),
                (1, 7),
                (7, 13),
                (13, 19),
                (19, 25),
                (25, 31),
                (31, 37),
                (37, 43),
                (43, 49),
                (49, 55),
                (55, 61),
                (61, 67),
                (67, 73),
                (73, 79),
                (79, 85),
                (85, 91),
                (91, 97),
                (97, 103),
                (103, 109),
                (109, 115),
                (115, 121),
                (121, 127),
                (127, 129),
            ],
        ),
    ];

    for (jobs, want) in &golden {
        let got = ranges(&costs, *jobs);
        assert_eq!(
            &got, want,
            "chunk map moved at jobs={jobs} — if the cost model or packing \
             changed deliberately, re-pin this golden"
        );
    }
}

/// Structural invariants the golden map must always satisfy, checked
/// independently so a re-pin can't accidentally bless a broken plan.
#[test]
fn fanout_chunk_map_covers_all_methods_in_order() {
    let costs = fuse_costs();
    for jobs in [1, 2, 8] {
        let plan = plan_chunks(&costs, jobs);
        let mut next = 0;
        for &(lo, hi) in &plan.ranges {
            assert_eq!(lo, next, "gap or overlap at jobs={jobs}");
            assert!(hi > lo, "empty chunk at jobs={jobs}");
            next = hi;
        }
        assert_eq!(next, costs.len(), "plan does not cover all items at jobs={jobs}");
        assert!(
            plan.ranges.len() >= jobs.min(costs.len()),
            "fewer chunks than workers at jobs={jobs}: {}",
            plan.ranges.len()
        );
    }
}

/// The plan depends only on (costs, jobs): recomputing it from the same
/// workload yields the identical map, run to run and call to call.
#[test]
fn fanout_chunk_map_is_reproducible() {
    let a = fuse_costs();
    let b = fuse_costs();
    assert_eq!(a, b, "cost vector is not reproducible");
    for jobs in [1, 2, 8, 16] {
        assert_eq!(ranges(&a, jobs), ranges(&b, jobs), "plan differs at jobs={jobs}");
    }
}
