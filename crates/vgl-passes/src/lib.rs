//! # vgl-passes
//!
//! The compiler passes of virgil-rs, reproducing Section 4 of the paper:
//!
//! * [`monomorphize`] — §4.3: specialize every polymorphic class and method
//!   per distinct type-argument assignment; afterwards **no type parameters
//!   appear in the program** ([`vgl_ir::check_monomorphic`] verifies).
//! * [`normalize`] — §4.2: flatten every tuple to scalars across parameters,
//!   returns, locals, fields, arrays; afterwards the program needs **no
//!   implicit heap allocation** and no dynamic calling-convention checks
//!   ([`vgl_ir::check_normalized`] verifies).
//! * [`optimize`] — the §3.3 claim: statically decide type queries/casts,
//!   fold the resulting branches, remove dead code, inline leaf methods.
//!
//! The composition `monomorphize → normalize → optimize` is the paper's
//! static compilation pipeline; `vgl::Compiler` drives it, followed by
//! lowering and fusion in `vgl-vm`.

#![warn(missing_docs)]

pub mod cache;
mod mono;
mod normalize;
mod optimize;
pub mod sched;
pub mod store;

pub use cache::{context_digest, module_fingerprint, CacheStats};
pub use mono::{monomorphize, MonoStats};
pub use normalize::{
    normalize, normalize_cfg, normalize_reusing, NormFunc, NormPlan, NormRecord, NormStats,
};
pub use optimize::{optimize, optimize_cfg, OptStats};
pub use store::{Lru, StoreStats};

use vgl_ir::Module;
use vgl_obs::WorkerSample;

/// Configuration for the cached back-end passes (normalize, optimize,
/// fuse). `jobs` is the *effective* worker count of fuse, the one pooled
/// phase — resolve a user request (0 = auto) through
/// [`sched::resolve_jobs`] first.
///
/// Determinism contract: no field changes compiled output. `jobs` moves
/// fuse's work between threads; `cache` skips recomputation whose result
/// is copied from a content-identical representative instead; `chunking`
/// switches fuse's pool between per-item claiming and cost-balanced
/// chunk-granular claiming (same items, same merge order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackendConfig {
    /// Worker threads for fuse (>= 1); no other pass reads it.
    pub jobs: usize,
    /// Enable the per-instance pass cache.
    pub cache: bool,
    /// Schedule fuse in cost-balanced chunks ([`sched::plan_chunks`])
    /// instead of one atomic claim per item.
    pub chunking: bool,
}

impl Default for BackendConfig {
    fn default() -> BackendConfig {
        BackendConfig { jobs: 1, cache: true, chunking: true }
    }
}

/// What the back end did beyond the module itself: cache effectiveness per
/// pass and worker-attributed spans for `vgl-obs`.
#[derive(Clone, Debug, Default)]
pub struct BackendReport {
    /// Effective worker count of fuse's pool.
    pub jobs: usize,
    /// Instance-cache counters from normalize. Its hits also count the
    /// bodies a [`NormPlan`] supplied ([`normalize_reusing`]).
    pub norm_cache: CacheStats,
    /// Instance-cache counters from optimize (per-pipeline, counted once at
    /// grouping, not per fixpoint round).
    pub opt_cache: CacheStats,
    /// Worker spans ([`WorkerSample`]), in commit order, until the compile
    /// driver moves them onto its `PhaseTrace`.
    pub workers: Vec<WorkerSample>,
    /// The duplicate-instance map, built once per pipeline by
    /// [`monomorphize_cfg`] and handed forward through normalize to
    /// optimize, so the module is fingerprinted only once. It keeps mono's
    /// fingerprints, which also key a served compile's normalized-body
    /// store. Normalize copies
    /// each duplicate's flattened result from its representative, so the
    /// grouping stays exact across the pass; methods appended later
    /// (synthesized wrappers) are treated as unique. Only valid for the
    /// module the same report was passed through.
    pub dup_map: Option<cache::DupMap>,
}

/// Combined statistics from a full pipeline run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Monomorphization statistics.
    pub mono: MonoStats,
    /// Normalization statistics.
    pub norm: NormStats,
    /// Optimizer statistics.
    pub opt: OptStats,
    /// IR size before any pass.
    pub size_before: vgl_ir::ModuleSize,
    /// IR size after monomorphization.
    pub size_after_mono: vgl_ir::ModuleSize,
    /// IR size after the full pipeline.
    pub size_after: vgl_ir::ModuleSize,
}

/// [`monomorphize`] under a [`BackendConfig`]: with the cache enabled,
/// the finished module's duplicate-instance map is built right away
/// ([`cache::dup_groups`], on the calling thread), so the hashing is part
/// of the mono phase. The map lands in `report.dup_map`, where
/// [`normalize_cfg`] picks it up instead of re-fingerprinting.
pub fn monomorphize_cfg(
    module: &Module,
    cfg: &BackendConfig,
    report: &mut BackendReport,
) -> (Module, MonoStats) {
    let (m, stats) = monomorphize(module);
    if cfg.cache {
        let (dup, sample) = cache::dup_groups(&m);
        report.workers.push(sample);
        // The stats ride with the map; normalize_cfg counts them into
        // `norm_cache` when it consumes it (no double count here).
        report.dup_map = Some(dup);
    }
    (m, stats)
}
