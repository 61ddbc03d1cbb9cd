//! The in-tree deterministic PRNG used by every randomized test in the
//! workspace. xorshift64* — no dependencies, stable across platforms, and a
//! failure always reproduces from its printed seed. The seed is mixed with
//! the splitmix64 finalizer, a bijection, so every seed starts its own
//! stream.

/// xorshift64* — deterministic, dependency-free.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`. Distinct seeds give distinct
    /// states, except the one seed whose mix is zero, which xorshift cannot
    /// leave and which is mapped to a fixed nonzero state.
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        Rng(if z == 0 { 0x9e37_79b9_7f4a_7c15 } else { z })
    }

    /// The next raw 64-bit sample.
    #[allow(clippy::should_implement_trait)] // not an Iterator: infinite, never None
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform-ish sample in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// `true` with probability `pct` percent.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }

    /// Uniform-ish sample in `lo..=hi`.
    pub fn range_i32(&mut self, lo: i32, hi: i32) -> i32 {
        lo + self.below((hi - lo + 1) as u64) as i32
    }

    /// Picks one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_varied() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        let xs: Vec<u64> = (0..16).map(|_| a.next()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn every_seed_starts_its_own_stream() {
        // `seed | 1` used to give seeds 2k and 2k + 1 one stream.
        let mut firsts: Vec<u64> = (0..10_000).map(|s| Rng::new(s).next()).collect();
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), 10_000);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = Rng::new(0);
        assert!((0..8).map(|_| r.below(10)).any(|v| v != 0));
    }

    #[test]
    fn range_and_pick_stay_in_bounds() {
        let mut r = Rng::new(7);
        for _ in 0..100 {
            let v = r.range_i32(-5, 5);
            assert!((-5..=5).contains(&v));
            assert!([1, 2, 3].contains(r.pick(&[1, 2, 3])));
        }
    }
}
