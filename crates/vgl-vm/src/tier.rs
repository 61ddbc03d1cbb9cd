//! Tiered-execution state: each function's fused baseline and hot-tier
//! body, when it re-tiers next, and the per-site speculation bookkeeping.
//!
//! A function's baseline is its statically fused body, built at its first
//! call by the static fuse pass's per-function routine. When its sampled
//! hotness — call count plus loop back-edge ticks, the counters
//! [`crate::RuntimeProfile`] maintains at the fuel-check points — crosses
//! the threshold, the function tiers up, which only speculates
//! ([`crate::fuse::speculate`]): monomorphic `CallVirt` sites are rewritten
//! one for one, and with none the hot body is the baseline itself. Frames
//! carry their body by `Rc`, so a re-tier or deopt never moves code out
//! from under a live frame.
//!
//! Speculation follows the Hölzle inline-cache discipline: a site is
//! devirtualized only while its cache is monomorphic and stable
//! ([`site_speculation`]); the first guard failure deoptimizes the frame
//! to the same pc of the baseline and marks the site megamorphic —
//! permanently, so it is **never re-speculated** — while the function
//! itself re-tiers with that site left as a plain `CallVirt`.

use crate::bytecode::{FuncId, Instr, VmProgram};
use crate::fuse::{fuse_func, FuseStats, Scratch};
use std::rc::Rc;

/// Default hotness threshold (calls + back-edge ticks) for tier-up.
/// Overridable via `--tier-threshold` / `VGL_TIER_THRESHOLD`.
pub const DEFAULT_TIER_THRESHOLD: u64 = 256;

/// A site whose inline cache missed more than this many times is considered
/// unstable and is not speculated even if it currently looks monomorphic.
pub const SPEC_MISS_CAP: u32 = 8;

/// The per-site speculation decision, in increasing order of "give up".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Speculation {
    /// The site never executed — nothing to speculate on.
    NoInfo,
    /// The cache flip-flopped too often; don't speculate (yet).
    Unstable,
    /// Monomorphic and stable: devirtualize behind a class guard.
    Speculate {
        /// The expected receiver class.
        class: u32,
        /// The callee its vtable resolved to.
        func: FuncId,
    },
    /// A guard already failed here; never speculate again.
    Megamorphic,
}

/// The speculation state machine, as a pure function of one site's
/// observable history: the current cache entry (`None` while empty), the
/// cumulative miss count, and the sticky megamorphic mark a deopt leaves.
pub fn site_speculation(
    cached: Option<(u32, FuncId)>,
    misses: u32,
    mega: bool,
) -> Speculation {
    if mega {
        return Speculation::Megamorphic;
    }
    match cached {
        None => Speculation::NoInfo,
        Some(_) if misses > SPEC_MISS_CAP => Speculation::Unstable,
        Some((class, func)) => Speculation::Speculate { class, func },
    }
}

/// One function's tier slot.
pub(crate) struct TierSlot {
    /// The fused baseline, built at the function's first call. Deopts land
    /// here.
    pub(crate) baseline: Option<Rc<[Instr]>>,
    /// The hot-tier body new frames run once the function tiered up: the
    /// baseline with its speculated sites rewritten, or the baseline
    /// itself. `None` before the first tier-up and after a deopt.
    pub(crate) body: Option<Rc<[Instr]>>,
    /// Hotness weight at which the function (re-)tiers. Starts at the
    /// threshold, doubles after every tier-up (bounding re-tier churn), and
    /// resets to zero on deopt so the replacement body — with the failed
    /// site de-speculated — is built at the next trigger point.
    pub(crate) next_at: u64,
    /// Times this function tiered up.
    pub(crate) tier_ups: u32,
}

/// All tiering state for one VM run.
pub struct TierState {
    pub(crate) threshold: u64,
    pub(crate) slots: Vec<TierSlot>,
    /// Sticky per-site megamorphic marks (set by deopt). Kept separate from
    /// the inline caches: an IC refill must not erase the mark.
    pub(crate) mega: Vec<bool>,
    /// Per-site IC miss counts, feeding the stability check.
    pub(crate) site_miss: Vec<u32>,
    /// Fusion buffers every baseline build reuses.
    scratch: Scratch,
}

impl TierState {
    /// Fresh state sized for `program`, with the given tier-up threshold
    /// (clamped to ≥ 1).
    pub(crate) fn new(program: &VmProgram, threshold: u64) -> TierState {
        let threshold = threshold.max(1);
        let n = program.funcs.len();
        TierState {
            threshold,
            slots: (0..n)
                .map(|_| TierSlot { baseline: None, body: None, next_at: threshold, tier_ups: 0 })
                .collect(),
            mega: vec![false; program.virt_sites],
            site_miss: vec![0; program.virt_sites],
            scratch: Scratch::default(),
        }
    }

    /// `func`'s fused baseline, fused from `program` at first use.
    pub(crate) fn baseline(&mut self, program: &VmProgram, func: FuncId) -> Rc<[Instr]> {
        let scratch = &mut self.scratch;
        Rc::clone(self.slots[func as usize].baseline.get_or_insert_with(|| {
            let mut f = program.funcs[func as usize].clone();
            fuse_func(&mut f, &mut FuseStats::default(), scratch);
            f.code.into()
        }))
    }

    /// The body a new frame of `func` runs: its hot-tier body once tiered
    /// up, else its baseline.
    #[inline]
    pub(crate) fn entry(&mut self, program: &VmProgram, func: FuncId) -> Rc<[Instr]> {
        let hot = self.slots[func as usize].body.clone();
        hot.unwrap_or_else(|| self.baseline(program, func))
    }

    /// The tier-up threshold in effect.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Every currently-tiered function: `(func, fused baseline, hot-tier
    /// body, tier-ups)`. The guards' deopt pcs index the baseline.
    pub fn tiered(&self) -> impl Iterator<Item = (FuncId, &[Instr], &[Instr], u32)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            let base = s.baseline.as_deref()?;
            s.body.as_deref().map(|b| (i as FuncId, base, b, s.tier_ups))
        })
    }

    /// Whether a deopt marked this site megamorphic.
    pub fn is_mega(&self, site: u32) -> bool {
        self.mega.get(site as usize).copied().unwrap_or(false)
    }

    /// All megamorphic sites, ascending.
    pub fn mega_sites(&self) -> Vec<u32> {
        (0..self.mega.len() as u32).filter(|&s| self.mega[s as usize]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The IC state machine the tentpole's "never re-speculated" claim
    /// rests on: empty → no info; monomorphic+stable → speculate; too many
    /// misses → unstable; mega mark → megamorphic forever, regardless of
    /// what the cache looks like afterwards.
    #[test]
    fn speculation_state_machine() {
        assert_eq!(site_speculation(None, 0, false), Speculation::NoInfo);
        assert_eq!(
            site_speculation(Some((3, 7)), 1, false),
            Speculation::Speculate { class: 3, func: 7 }
        );
        assert_eq!(
            site_speculation(Some((3, 7)), SPEC_MISS_CAP, false),
            Speculation::Speculate { class: 3, func: 7 }
        );
        assert_eq!(
            site_speculation(Some((3, 7)), SPEC_MISS_CAP + 1, false),
            Speculation::Unstable
        );
        // The mega mark dominates everything — an IC refill after the deopt
        // must not resurrect speculation.
        assert_eq!(site_speculation(Some((3, 7)), 1, true), Speculation::Megamorphic);
        assert_eq!(site_speculation(None, 0, true), Speculation::Megamorphic);
    }
}
