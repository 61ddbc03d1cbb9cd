//! Host-speed calibration. The benchmark runs on shared hosts whose speed
//! drifts by a third or more from one minute to the next (neighbours
//! contending for the same caches and memory), far more than the bounds a
//! change is judged by. A fixed kernel of the benchmark's own, independent
//! of the program under test, runs after every operation. Each time metric
//! is scaled by the kernel's nominal time over its time near that
//! operation, so it reads as milliseconds on a host where the kernel takes
//! [`NOMINAL_MS`]. A change to the program cannot move the kernel, so a
//! regression still shows in full.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::ms;

/// The kernel's time on a quiet 2-core Xeon VM at 2.0 GHz, in ms.
pub const NOMINAL_MS: f64 = 3.0;

/// Kernel samples on either side of an operation that its scale uses.
const HALF_WINDOW: usize = 5;

/// Runs the kernel once and returns its time. The kernel allocates small
/// vectors, hashes and sorts, much as the compiler and the VM's runtime do.
/// Of the kernels tried (a byte-coded dispatch loop, a pointer chase over
/// 16 MB, a 16 MB copy or `calloc`, page faults on fresh memory, boxed
/// object churn, this one on every core at once, and this one), it is the
/// one whose time follows the benchmark's operations as the host's speed
/// drifts.
pub fn sample() -> Duration {
    let t = Instant::now();
    let mut map: HashMap<u64, Vec<u32>> = HashMap::new();
    for k in 0..black_box(20_000u64) {
        let key = k.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 40;
        map.entry(key).or_default().push(k as u32);
    }
    let mut lens: Vec<(usize, u64)> = map.iter().map(|(k, v)| (v.len(), *k)).collect();
    lens.sort_unstable();
    let digest = lens
        .iter()
        .fold(0u64, |h, &(l, k)| h.rotate_left(5) ^ k ^ l as u64);
    black_box(digest);
    drop(map);
    t.elapsed()
}

/// The median time of `n` samples on each core at once, in ms. Set-up
/// keeps every core busy, so it is calibrated on every core.
pub fn median_ms(n: usize) -> f64 {
    let times: Vec<Vec<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..crate::nproc())
            .map(|_| s.spawn(move || (0..n).map(|_| ms(sample())).collect()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a calibration thread panicked"))
            .collect()
    });
    crate::median(times.into_iter().flatten().collect())
}

/// One factor per operation, for kernel samples taken right after each
/// operation of one thread, in order: the nominal time over the median of
/// the samples within [`HALF_WINDOW`] operations of it. A median over a
/// window follows the host's drift and ignores a single stalled sample.
pub fn scales(samples: &[Duration]) -> Vec<f64> {
    (0..samples.len())
        .map(|i| {
            let lo = i.saturating_sub(HALF_WINDOW);
            let hi = (i + HALF_WINDOW + 1).min(samples.len());
            NOMINAL_MS / crate::median(samples[lo..hi].iter().map(|&d| ms(d)).collect())
        })
        .collect()
}
