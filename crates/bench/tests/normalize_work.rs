//! Normalize work, counted without a clock: the representative methods
//! normalize flattens, read from `BackendReport::norm_cache` at jobs 1.
//!
//! A cold compile flattens every representative. A served compile first
//! looks each one up in the normalized-body store under its post-mono
//! fingerprint, so after `serve_edit(2, 0)` has primed the store, the edit
//! `serve_edit(2, 1)` flattens only the two methods the edit changed, `hot`
//! and `main`, and copies in the other 21 bodies. The statistics count
//! performed work, so a cold compile's are what they were before the store.

use vgl::{Compiler, IncrementalCompiler, NormStats};
use vgl_bench::workloads;

fn compiler() -> Compiler {
    Compiler::new().with_jobs(1)
}

#[test]
fn cold_serve_edit_flattens_every_representative() {
    let c = compiler().compile(&workloads::serve_edit(2, 1)).expect("workload compiles");
    assert_eq!(c.backend.norm_cache.unique, 23, "every representative is flattened");
    assert_eq!(
        c.stats.norm,
        NormStats { tuple_exprs_removed: 1806, fields_expanded: 6, ..NormStats::default() }
    );
}

#[test]
fn warm_serve_edit_flattens_only_the_edited_methods() {
    let inc = IncrementalCompiler::new(compiler());
    inc.compile(&workloads::serve_edit(2, 0)).expect("primes the store");
    let (warm, reuse) =
        inc.compile_reporting(&workloads::serve_edit(2, 1)).expect("workload compiles");
    assert_eq!(reuse.bodies_reused, 21, "every unchanged body is reused");
    assert_eq!(warm.backend.norm_cache.unique, 2, "`hot` and `main` are flattened");
}
