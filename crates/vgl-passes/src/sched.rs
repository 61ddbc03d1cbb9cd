//! A dependency-free work-stealing pool for per-function compiler work.
//!
//! Built on `std::thread::scope` — no external crates, no global state.
//! Workers claim **contiguous index ranges** from an atomic counter, at
//! one of two granularities:
//!
//! * [`par_map_ctx`] — one range per item. Fine for coarse items; on
//!   per-function compiler work the claim traffic itself dominates
//!   (E9's pre-chunking rows showed jobs=8 *losing* to
//!   jobs=1 on a 96-instance fan-out).
//! * [`plan_chunks`] + [`par_map_chunks`] — items are packed up front into
//!   contiguous, cost-balanced chunks (targeting `total/(CHUNKS_PER_JOB ×
//!   jobs)` estimated cost each, from `vgl_ir::metrics::method_cost`-style
//!   estimates) and workers steal **whole chunks**. One atomic claim
//!   amortizes over a chunk's worth of work, and chunk boundaries are a
//!   pure integer function of the cost vector — identical on every
//!   platform, every run, every thread count.
//!
//! Both run the same worker body ([`par_map_ctx`] is [`par_map_chunks`]
//! over one chunk per item), and results are merged back **in stable
//! item-index order**. That ordering rule is the whole determinism story:
//! the jobs count (and the chunking mode) changes which thread computes an
//! item and nothing else, so `--jobs 1` and `--jobs 8` produce
//! bit-identical output. (jobs=1 runs inline on the caller's thread through
//! the same worker body — there is no separate sequential algorithm to
//! drift.)
//!
//! Each worker reports a [`WorkerSample`] (items claimed, start on the
//! `vgl-obs` epoch, busy time); those spans are telemetry, not part of the
//! determinism contract.

use std::sync::atomic::{AtomicUsize, Ordering};
use vgl_obs::{since_epoch, WorkerSample};

/// Upper bound on the pool size; beyond this, per-thread overhead dwarfs any
/// conceivable win on per-function compiler work.
pub const MAX_JOBS: usize = 64;

/// Resolves a requested jobs count to an effective one: an explicit request
/// (`n > 0`) wins, else the `VGL_JOBS` environment variable, else the
/// machine's available parallelism, else 1. Always in `1..=MAX_JOBS`.
///
/// The environment is re-read on every call so tests (and CI's
/// `VGL_JOBS=1` / `VGL_JOBS=8` lanes) can steer the default per-process.
pub fn resolve_jobs(requested: usize) -> usize {
    let n = if requested > 0 {
        requested
    } else if let Some(n) = std::env::var("VGL_JOBS").ok().and_then(|v| v.parse::<usize>().ok())
    {
        if n > 0 {
            n
        } else {
            1
        }
    } else {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    };
    n.clamp(1, MAX_JOBS)
}

/// Maps `f` over `items` on up to `jobs` scoped worker threads, each with
/// its own context from `mk_ctx`, and returns the results **in item order**
/// plus one [`WorkerSample`] per worker that ran.
///
/// `f` receives the worker's context, the item's index, and the item; it
/// must be a pure function of those (plus immutable captures) for the
/// output to be jobs-invariant. With `jobs <= 1` (or fewer than two items)
/// everything runs inline on the caller's thread as worker 0 — same code
/// path, no spawn.
pub fn par_map_ctx<T, C, R>(
    jobs: usize,
    phase: &'static str,
    items: &[T],
    mk_ctx: impl Fn() -> C + Sync,
    f: impl Fn(&mut C, usize, &T) -> R + Sync,
) -> (Vec<R>, Vec<WorkerSample>)
where
    T: Sync,
    R: Send,
{
    let n = items.len();
    let per_item = ChunkPlan {
        ranges: (0..n).map(|i| (i, i + 1)).collect(),
        total_cost: n as u64,
        target_cost: 1,
    };
    par_map_chunks(jobs, phase, items, &per_item, mk_ctx, f)
}

/// How many chunks the planner aims to produce per worker. More chunks
/// means better load balance when cost estimates are off; fewer means less
/// claim traffic. 4 keeps the worst-case idle tail under ~1/4 of a worker's
/// share while leaving chunks coarse enough that the atomic claim is noise.
pub const CHUNKS_PER_JOB: u64 = 4;

/// A deterministic, cost-balanced partition of `n` work items into
/// contiguous index ranges. Produced by [`plan_chunks`], consumed by
/// [`par_map_chunks`] — and pinned by the golden chunk-map regression test,
/// so the plan is part of the scheduler's stable contract: it depends only
/// on the cost vector and the jobs count, never on the platform, the run,
/// or which threads execute it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkPlan {
    /// Half-open `[start, end)` item-index ranges, in order, covering
    /// `0..n` exactly. Empty iff there are no items.
    pub ranges: Vec<(usize, usize)>,
    /// Sum of all (clamped-to-1) item costs.
    pub total_cost: u64,
    /// The per-chunk cost target the planner packed toward.
    pub target_cost: u64,
}

impl ChunkPlan {
    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// True when the plan covers no items.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }
}

/// Packs items into contiguous chunks of roughly `total/(CHUNKS_PER_JOB ×
/// jobs)` estimated cost each: walk items in index order, accumulate until
/// the running cost reaches the target, cut. Contiguity keeps the stable
/// commit a range copy and preserves whatever locality the item order has;
/// greedy accumulation is the unique deterministic answer once the target
/// is fixed. Zero costs are clamped to 1 so no chunk is unbounded.
pub fn plan_chunks(costs: &[u64], jobs: usize) -> ChunkPlan {
    let jobs = jobs.clamp(1, MAX_JOBS) as u64;
    let total_cost: u64 = costs.iter().map(|&c| c.max(1)).sum();
    let target_cost = (total_cost / (CHUNKS_PER_JOB * jobs)).max(1);
    let mut ranges = Vec::new();
    let mut start = 0usize;
    let mut acc = 0u64;
    for (i, &c) in costs.iter().enumerate() {
        acc += c.max(1);
        if acc >= target_cost {
            ranges.push((start, i + 1));
            start = i + 1;
            acc = 0;
        }
    }
    if start < costs.len() {
        ranges.push((start, costs.len()));
    }
    ChunkPlan { ranges, total_cost, target_cost }
}

/// [`par_map_ctx`] with chunk-granular stealing: workers claim whole
/// [`ChunkPlan`] ranges from the shared counter and process each range's
/// items in index order. Results are merged back in item order, so the
/// output is identical to `par_map_ctx` (and to a serial loop) — the plan
/// only changes how claim traffic amortizes.
///
/// # Panics
/// Debug-asserts that `plan` covers `items` exactly.
pub fn par_map_chunks<T, C, R>(
    jobs: usize,
    phase: &'static str,
    items: &[T],
    plan: &ChunkPlan,
    mk_ctx: impl Fn() -> C + Sync,
    f: impl Fn(&mut C, usize, &T) -> R + Sync,
) -> (Vec<R>, Vec<WorkerSample>)
where
    T: Sync,
    R: Send,
{
    let n = items.len();
    debug_assert_eq!(
        plan.ranges.iter().map(|&(s, e)| e - s).sum::<usize>(),
        n,
        "chunk plan does not cover the item slice"
    );
    let n_chunks = plan.ranges.len();
    let workers = jobs.clamp(1, MAX_JOBS).min(n_chunks.max(1));
    let next = AtomicUsize::new(0);
    // The worker body: claim ranges until the queue is dry, appending their
    // results to one buffer. Identical for the inline and the threaded path.
    let work = |worker: usize| -> WorkerOut<R> {
        let mut cx = mk_ctx();
        let mut claimed = Vec::new();
        let mut results = Vec::new();
        let start = since_epoch();
        loop {
            let c = next.fetch_add(1, Ordering::Relaxed);
            if c >= n_chunks {
                break;
            }
            let (lo, hi) = plan.ranges[c];
            results.extend((lo..hi).map(|i| f(&mut cx, i, &items[i])));
            claimed.push((lo, hi));
        }
        let sample = WorkerSample {
            phase,
            worker,
            items: results.len(),
            start,
            duration: since_epoch().saturating_sub(start),
        };
        (claimed, results, sample)
    };

    let per_worker: Vec<WorkerOut<R>> = if workers <= 1 || n_chunks < 2 {
        vec![work(0)]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers).map(|w| s.spawn(move || work(w))).collect();
            handles.into_iter().map(|h| h.join().expect("pool worker panicked")).collect()
        })
    };

    // Merge every worker's results back in item order, independent of which
    // worker computed what.
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let mut samples = Vec::with_capacity(per_worker.len());
    for (claimed, results, sample) in per_worker {
        let mut results = results.into_iter();
        for (lo, hi) in claimed {
            for (i, r) in (lo..hi).zip(&mut results) {
                debug_assert!(slots[i].is_none(), "item {i} claimed twice");
                slots[i] = Some(r);
            }
        }
        samples.push(sample);
    }
    let results =
        slots.into_iter().map(|r| r.expect("pool left an item unprocessed")).collect();
    (results, samples)
}

/// One worker's output: the ranges it claimed in claim order, their results
/// back to back, and its span.
type WorkerOut<R> = (Vec<(usize, usize)>, Vec<R>, WorkerSample);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_item_order_at_any_jobs() {
        let items: Vec<usize> = (0..257).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * 3 + 1).collect();
        for jobs in [1, 2, 3, 8] {
            let (got, samples) =
                par_map_ctx(jobs, "test", &items, || (), |_, _, &x| x * 3 + 1);
            assert_eq!(got, expect, "jobs={jobs}");
            assert_eq!(samples.iter().map(|s| s.items).sum::<usize>(), items.len());
            assert!(samples.len() <= jobs);
        }
    }

    #[test]
    fn index_is_passed_through() {
        let items = vec!["a", "b", "c"];
        let (got, _) = par_map_ctx(2, "test", &items, || (), |_, i, &s| format!("{i}:{s}"));
        assert_eq!(got, ["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn context_is_per_worker() {
        // Each worker counts its own items in its context; totals must cover
        // every item exactly once.
        let items: Vec<u32> = (0..100).collect();
        let (got, samples) = par_map_ctx(
            4,
            "test",
            &items,
            || 0usize,
            |count, _, &x| {
                *count += 1;
                x
            },
        );
        assert_eq!(got, items);
        assert_eq!(samples.iter().map(|s| s.items).sum::<usize>(), 100);
    }

    #[test]
    fn empty_and_single_item_inline() {
        let (got, samples) = par_map_ctx(8, "test", &[] as &[u32], || (), |_, _, &x| x);
        assert!(got.is_empty());
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].worker, 0);
        let (got, samples) = par_map_ctx(8, "test", &[5u32], || (), |_, _, &x| x + 1);
        assert_eq!(got, [6]);
        assert_eq!(samples.len(), 1);
    }

    #[test]
    fn plan_covers_all_items_in_order() {
        for n in [0usize, 1, 7, 256, 1000] {
            for jobs in [1usize, 2, 8, 64] {
                let costs: Vec<u64> = (0..n as u64).map(|i| (i * 7) % 23).collect();
                let plan = plan_chunks(&costs, jobs);
                let mut expect = 0;
                for &(s, e) in &plan.ranges {
                    assert_eq!(s, expect, "n={n} jobs={jobs}");
                    assert!(e > s, "empty chunk at n={n} jobs={jobs}");
                    expect = e;
                }
                assert_eq!(expect, n, "n={n} jobs={jobs}");
            }
        }
    }

    #[test]
    fn plan_is_cost_balanced() {
        // Uniform costs: every chunk except possibly the last lands within
        // one item of the target.
        let costs = vec![10u64; 320];
        let plan = plan_chunks(&costs, 8);
        // target = 3200 / 32 = 100 → 10 items per chunk, 32 chunks.
        assert_eq!(plan.target_cost, 100);
        assert_eq!(plan.len(), 32);
        for &(s, e) in &plan.ranges {
            assert_eq!(e - s, 10);
        }
        // One huge item gets its own chunk; neighbors are not dragged in.
        let mut costs = vec![1u64; 64];
        costs[10] = 1_000_000;
        let plan = plan_chunks(&costs, 8);
        let big = plan.ranges.iter().find(|&&(s, e)| (s..e).contains(&10)).unwrap();
        assert!(big.1 - big.0 <= 11, "big item chunk is {big:?}");
    }

    #[test]
    fn plan_is_jobs_dependent_but_platform_pure() {
        let costs: Vec<u64> = (0..100).map(|i| 1 + (i % 5) as u64).collect();
        let p1 = plan_chunks(&costs, 1);
        let p8 = plan_chunks(&costs, 8);
        assert!(p8.len() >= p1.len());
        // Re-planning is bit-identical (pure function of inputs).
        assert_eq!(p1, plan_chunks(&costs, 1));
        assert_eq!(p8, plan_chunks(&costs, 8));
    }

    #[test]
    fn chunked_map_matches_item_map_at_any_jobs() {
        let items: Vec<usize> = (0..257).collect();
        let costs: Vec<u64> = items.iter().map(|&x| 1 + (x % 9) as u64).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * 3 + 1).collect();
        for jobs in [1, 2, 3, 8, 16] {
            let plan = plan_chunks(&costs, jobs);
            let (got, samples) =
                par_map_chunks(jobs, "test", &items, &plan, || (), |_, _, &x| x * 3 + 1);
            assert_eq!(got, expect, "jobs={jobs}");
            assert_eq!(samples.iter().map(|s| s.items).sum::<usize>(), items.len());
            assert!(samples.len() <= jobs);
        }
    }

    #[test]
    fn chunked_map_empty_and_single() {
        let plan = plan_chunks(&[], 8);
        assert!(plan.is_empty());
        let (got, _) =
            par_map_chunks(8, "test", &[] as &[u32], &plan, || (), |_, _, &x| x);
        assert!(got.is_empty());
        let plan = plan_chunks(&[5], 8);
        let (got, _) = par_map_chunks(8, "test", &[5u32], &plan, || (), |_, _, &x| x + 1);
        assert_eq!(got, [6]);
    }

    #[test]
    fn chunked_map_passes_global_item_index() {
        let items = vec!["a", "b", "c", "d", "e"];
        let plan = plan_chunks(&[1, 1, 1, 1, 1], 2);
        let (got, _) =
            par_map_chunks(2, "test", &items, &plan, || (), |_, i, &s| format!("{i}:{s}"));
        assert_eq!(got, ["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn resolve_jobs_explicit_wins_and_clamps() {
        assert_eq!(resolve_jobs(3), 3);
        assert_eq!(resolve_jobs(1), 1);
        assert_eq!(resolve_jobs(10_000), MAX_JOBS);
        // 0 = auto: whatever it resolves to, it is in range.
        let auto = resolve_jobs(0);
        assert!((1..=MAX_JOBS).contains(&auto));
    }
}
