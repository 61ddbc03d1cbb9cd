//! The one sampling loop behind every timing `paper_tables` reports, apart
//! from E10's summed samples: an untimed warmup, then min-of-N. It is
//! in-tree so the workspace builds fully offline.

use std::time::Duration;

/// The shared warmup + min-of-N loop behind every `measure_*` comparison
/// in this crate (`measure_both`, `measure_compile`, `measure_fusion`,
/// `measure_tiered`, `measure_gc`, `measure_backend`, `measure_serve`).
///
/// Calls `run` once with sample index 0 as the **untimed warmup** — its
/// timings are discarded, but side effects (thread spawn, allocator
/// growth, cold icache, cache fills) land exactly like a real sample —
/// then `samples` more times, folding the returned durations elementwise
/// with `min`. `K > 1` is for interleaved comparisons: measuring both
/// configurations inside one sample means clock drift and cache warmth
/// hit both equally, which a sequential min-of-N per configuration would
/// not guarantee. The closure receives the sample index so it can skip
/// side-channel collection (pause pooling, stats capture) on the warmup.
///
/// For a deterministic CPU-bound workload the minimum is the run with the
/// least scheduler interference — the quantity scaling and speedup claims
/// are about.
///
/// # Panics
/// If `samples` is zero — there would be no timed sample to report.
pub fn measure_min_of_n<const K: usize>(
    samples: usize,
    mut run: impl FnMut(usize) -> [Duration; K],
) -> [Duration; K] {
    assert!(samples > 0, "min-of-N needs at least one timed sample");
    let mut best: Option<[Duration; K]> = None;
    for sample in 0..=samples {
        let timed = run(sample);
        if sample > 0 {
            best = Some(match best {
                None => timed,
                Some(b) => {
                    let mut m = b;
                    for (slot, t) in m.iter_mut().zip(timed) {
                        *slot = (*slot).min(t);
                    }
                    m
                }
            });
        }
    }
    best.expect("at least one timed sample")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_of_n_discards_warmup_and_takes_elementwise_min() {
        // Scripted timings: the warmup (sample 0) is the fastest on both
        // channels and must NOT win; afterwards channel 0's best is at
        // sample 2 and channel 1's at sample 3 — the fold is elementwise.
        let script = [
            [1u64, 1],   // warmup — discarded
            [50, 40],
            [20, 60],
            [30, 25],
        ];
        let mut calls = 0;
        let [a, b] = measure_min_of_n(3, |sample| {
            assert_eq!(sample, calls, "samples arrive in order");
            calls += 1;
            script[sample].map(Duration::from_micros)
        });
        assert_eq!(calls, 4, "one warmup plus three timed samples");
        assert_eq!(a, Duration::from_micros(20));
        assert_eq!(b, Duration::from_micros(25));
    }

    #[test]
    #[should_panic(expected = "at least one timed sample")]
    fn min_of_n_rejects_zero_samples() {
        measure_min_of_n(0, |_| [Duration::ZERO]);
    }
}
