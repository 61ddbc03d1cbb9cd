//! Tiered-execution state: the fused program a tiered run executes, how
//! often each function tiered up, and the per-site speculation bookkeeping.
//! When each function tiers up next is the VM's own, since every call and
//! back-edge reads it.
//!
//! A tiered VM runs the program the static fuse pass gives, fused once when
//! tiering is enabled. When a function's sampled hotness — call count plus
//! loop back-edge ticks, the counters [`crate::RuntimeProfile`] maintains at
//! the fuel-check points — crosses the threshold, the function tiers up,
//! which only speculates: each of its monomorphic `CallVirt` sites records
//! the receiver class it expects and the callee that class resolves to
//! (with the callee's one-instruction body when it inlines). The code never
//! changes, so speculation reaches every frame of the function at once,
//! the one that made it hot included.
//!
//! Speculation follows the Hölzle inline-cache discipline: a site is
//! devirtualized only while its cache is monomorphic and stable
//! ([`site_speculation`]); the first receiver of another class deoptimizes
//! the site in place — it is marked megamorphic, permanently, so it is
//! **never re-speculated**, and the call goes on as the plain `CallVirt`
//! it is — while the function itself re-tiers at its next trigger point.

use crate::bytecode::{FuncId, InlOp, VmFunc, VmProgram};
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

/// What tier-up speculated at one `CallVirt` site: a receiver of `class`
/// calls `func` directly, or runs `op` in place of the call when the
/// callee's body inlines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SiteSpec {
    pub(crate) class: u32,
    pub(crate) func: FuncId,
    pub(crate) op: Option<InlOp>,
}

/// All tiering state for one VM run.
pub struct TierState {
    pub(crate) threshold: u64,
    /// The program's functions after the static fuse pass: the code every
    /// frame of a tiered run executes.
    pub(crate) funcs: Rc<[VmFunc]>,
    /// Times each function tiered up.
    pub(crate) tier_ups: Vec<u32>,
    /// Per-site speculation, set at tier-up and cleared by a deopt.
    pub(crate) spec: Vec<Option<SiteSpec>>,
    /// Sticky per-site megamorphic marks (set by deopt). Kept separate from
    /// the inline caches: an IC refill must not erase the mark.
    pub(crate) mega: Vec<bool>,
    /// Per-site IC miss counts, feeding the stability check.
    pub(crate) site_miss: Vec<u32>,
}

impl TierState {
    /// Fresh state for `program`, whose functions it fuses with the static
    /// pass, with the given tier-up threshold (clamped to ≥ 1).
    pub(crate) fn new(program: &VmProgram, threshold: u64) -> TierState {
        let threshold = threshold.max(1);
        let mut fused = VmProgram { funcs: program.funcs.clone(), ..VmProgram::default() };
        crate::fuse::fuse(&mut fused);
        TierState {
            threshold,
            funcs: fused.funcs.into(),
            tier_ups: vec![0; program.funcs.len()],
            spec: vec![None; program.virt_sites],
            mega: vec![false; program.virt_sites],
            site_miss: vec![0; program.virt_sites],
        }
    }

    /// The tier-up threshold in effect.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// The fused functions a tiered run executes, indexed like the
    /// program's.
    pub fn funcs(&self) -> &[VmFunc] {
        &self.funcs
    }

    /// Every function that tiered up: `(func, tier-ups)`, ascending.
    pub fn tiered(&self) -> impl Iterator<Item = (FuncId, u32)> + '_ {
        self.tier_ups
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (i as FuncId, n))
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
