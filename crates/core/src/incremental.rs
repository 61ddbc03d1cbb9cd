//! Cross-request incremental compilation — the daemon's warm path.
//!
//! [`IncrementalCompiler`] wraps a [`Compiler`] with two persistent,
//! content-addressed LRU stores ([`vgl_passes::Lru`]), each bounded to
//! exactly its configured number of entries:
//!
//! * **Level 1 — whole artifacts.** Keyed by a 128-bit source fingerprint
//!   plus the codegen-relevant option bits. A byte-identical resubmission
//!   (the same file saved twice, or two clients compiling the same source)
//!   returns the shared [`Compilation`] `Arc` without running anything.
//!
//! * **Level 2 — per-function artifacts.** Keyed by
//!   ([`vgl_passes::context_digest`], `method_fingerprint`, option bits),
//!   both computed **post-normalize**. A level-1 miss runs the same compile
//!   driver as [`Compiler::compile`], handing it this store. The front end,
//!   mono, and normalize always run — normalize is cheap, and its wrapper
//!   synthesis and type interning are order-sensitive global state, so
//!   skipping it would change id spaces. Every method whose fingerprint
//!   matches under the same context digest then skips optimize (its cached
//!   *post-optimize* body is spliced into the module and masked out of
//!   rewriting, so the devirtualization and inlining tables other methods
//!   fold against match the cold fixpoint) and skips lower + fuse (its
//!   cached fused bytecode is relocated into the reserved function slot by
//!   [`vgl_vm::lower_reusing`], and the fuse pool leaves it alone). The
//!   remaining functions fuse on the same parallel pool as a cold compile,
//!   and the trace reports the same phases.
//!
//! The contract, pinned by the serving determinism suite: warm output is
//! **byte-identical** to a cold one-shot [`Compiler::compile`] of the same
//! source under the same options. A digest or fingerprint miss falls back
//! to exactly the cold path for that method, so the stores can be evicted
//! (or raced) freely without affecting output — only latency.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use vgl_ir::Module;
use vgl_passes::{cache, context_digest, Lru, StoreStats};
use vgl_vm::{ReusePlan, SpliceFunc, SpliceRecord, VmProgram};

use crate::{Compilation, CompileError, Compiler, Options};

/// Default level-1 capacity: whole compilations are big (module + bytecode),
/// and a serving session rarely juggles more than a few dozen live sources.
pub const DEFAULT_ARTIFACT_CAPACITY: usize = 64;

/// Default level-2 capacity: per-function artifacts are small and the whole
/// point is surviving edits, so keep room for many generations of a
/// program's method set.
pub const DEFAULT_FUNC_CAPACITY: usize = 4096;

/// Level-2 store key: an artifact is reusable exactly when the module
/// context, the method content, and the codegen options all match.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct FuncKey {
    ctx: (u64, u64),
    fp: (u64, u64),
    opts: u64,
}

/// One cached function: the post-optimize IR body (spliced into warm
/// modules so unchanged methods skip the optimizer while still feeding its
/// interprocedural tables) and the relocatable fused bytecode capture.
struct CachedFunc {
    opt_body: Option<vgl_ir::Body>,
    opt_locals: Vec<vgl_ir::Local>,
    splice: Arc<SpliceFunc>,
}

/// The level-2 store as the compile driver sees it: looked up after
/// normalize, published to after fuse.
pub(crate) struct FuncStore {
    funcs: Lru<FuncKey, CachedFunc>,
    opts_key: u64,
    methods_spliced: AtomicUsize,
    methods_compiled: AtomicUsize,
}

/// One compile's reuse decisions, taken on the post-normalize module.
pub(crate) struct Splices {
    ctx: (u64, u64),
    fps: Vec<(u64, u64)>,
    /// Per module method: spliced from the store.
    pub(crate) mask: Vec<bool>,
    /// The spliced methods' relocatable code, for lowering.
    pub(crate) plan: ReusePlan,
    /// The mask's counts.
    pub(crate) reuse: Reuse,
}

/// What one [`IncrementalCompiler::compile_reporting`] call reused: its own
/// counts, whatever else the shared stores serve meanwhile.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Reuse {
    /// The whole artifact came from the level-1 store; nothing ran, so
    /// both method counts are 0.
    pub artifact_hit: bool,
    /// Methods spliced from the level-2 store.
    pub methods_spliced: usize,
    /// Methods compiled afresh.
    pub methods_compiled: usize,
}

impl FuncStore {
    /// Looks every method of the post-normalize `module` up in the store
    /// and splices each hit's post-optimize body in place.
    pub(crate) fn splice(&self, module: &mut Module) -> Splices {
        let ctx = context_digest(module);
        let n = module.methods.len();
        let mut memo: HashMap<(u64, u64), Option<Arc<CachedFunc>>> = HashMap::new();
        let mut fps = Vec::with_capacity(n);
        let mut hits = Vec::with_capacity(n);
        for m in &module.methods {
            let fp = cache::method_fingerprint(m);
            // Memoized per fingerprint so duplicate instances (equal
            // fingerprint, different name) always agree — the optimizer's
            // skip mask must be duplicate-consistent even if the store
            // evicts between two lookups.
            let hit = memo
                .entry(fp)
                .or_insert_with(|| self.funcs.get(&FuncKey { ctx, fp, opts: self.opts_key }))
                .clone();
            fps.push(fp);
            hits.push(hit);
        }
        for (m, hit) in module.methods.iter_mut().zip(&hits) {
            if let Some(c) = hit {
                m.body.clone_from(&c.opt_body);
                m.locals.clone_from(&c.opt_locals);
            }
        }
        let mask: Vec<bool> = hits.iter().map(Option::is_some).collect();
        let spliced = mask.iter().filter(|&&b| b).count();
        let reuse =
            Reuse { artifact_hit: false, methods_spliced: spliced, methods_compiled: n - spliced };
        self.methods_spliced.fetch_add(spliced, Ordering::Relaxed);
        self.methods_compiled.fetch_add(n - spliced, Ordering::Relaxed);
        let plan = ReusePlan {
            funcs: hits.into_iter().map(|h| h.map(|c| c.splice.clone())).collect(),
        };
        Splices { ctx, fps, mask, plan, reuse }
    }

    /// Publishes every method this compile lowered afresh, from the final
    /// `module` and `program`. Insert is content-addressed first-writer-wins,
    /// so racing compiles of equal methods share one entry; duplicate
    /// instances collapse onto their representative's key by fingerprint
    /// equality.
    pub(crate) fn publish(
        &self,
        splices: Splices,
        module: &Module,
        program: &VmProgram,
        records: Vec<Option<SpliceRecord>>,
    ) {
        for (i, record) in records.into_iter().enumerate() {
            let Some(record) = record else { continue };
            self.funcs.insert(
                FuncKey { ctx: splices.ctx, fp: splices.fps[i], opts: self.opts_key },
                CachedFunc {
                    opt_body: module.methods[i].body.clone(),
                    opt_locals: module.methods[i].locals.clone(),
                    splice: Arc::new(record.capture(program, i)),
                },
            );
        }
    }
}

/// Snapshot of the incremental stores' effectiveness, for `vgld stats`.
#[derive(Clone, Copy, Debug, Default)]
pub struct IncrementalStats {
    /// Level-1 (whole-artifact) store counters.
    pub artifacts: StoreStats,
    /// Level-2 (per-function) store counters.
    pub funcs: StoreStats,
    /// Methods whose optimize+lower+fuse work was skipped via splicing.
    pub methods_spliced: usize,
    /// Methods compiled from scratch (and published to the store).
    pub methods_compiled: usize,
}

impl IncrementalStats {
    /// Fraction of per-method back-end work skipped across all compiles.
    pub fn splice_rate(&self) -> f64 {
        let total = self.methods_spliced + self.methods_compiled;
        if total == 0 {
            0.0
        } else {
            self.methods_spliced as f64 / total as f64
        }
    }
}

/// Option bits that change compiled bytes and therefore partition the
/// stores. `jobs` and `pass_cache` are excluded by the determinism
/// contract (they never change output); heap/fuel/tiering
/// thresholds only affect execution, except `tier` itself, which gates the
/// static fuse pass.
fn options_key(o: &Options) -> u64 {
    u64::from(o.optimize) | u64::from(o.fuse) << 1 | u64::from(o.tier) << 2
}

/// 128-bit source fingerprint ([`cache::fingerprint_bytes`]), joined with
/// the option bits.
fn source_key(source: &str, opts: u64) -> (u64, u64, u64) {
    let (a, b) = cache::fingerprint_bytes(source.as_bytes());
    (a, b, opts)
}

/// A [`Compiler`] with persistent cross-request caching. Shareable across
/// threads (`&self` everywhere; each store is behind its own lock) — the
/// daemon holds one in an `Arc` and every session thread compiles through
/// it.
pub struct IncrementalCompiler {
    compiler: Compiler,
    artifacts: Lru<(u64, u64, u64), Compilation>,
    store: FuncStore,
}

impl IncrementalCompiler {
    /// Wraps `compiler` with default store capacities.
    pub fn new(compiler: Compiler) -> IncrementalCompiler {
        IncrementalCompiler::with_capacity(
            compiler,
            DEFAULT_ARTIFACT_CAPACITY,
            DEFAULT_FUNC_CAPACITY,
        )
    }

    /// Wraps `compiler` with explicit level-1 / level-2 capacities: each
    /// store holds at most that many entries (at least one).
    pub fn with_capacity(
        compiler: Compiler,
        artifact_capacity: usize,
        func_capacity: usize,
    ) -> IncrementalCompiler {
        let opts_key = options_key(&compiler.options);
        IncrementalCompiler {
            compiler,
            artifacts: Lru::new(artifact_capacity),
            store: FuncStore {
                funcs: Lru::new(func_capacity),
                opts_key,
                methods_spliced: AtomicUsize::new(0),
                methods_compiled: AtomicUsize::new(0),
            },
        }
    }

    /// The wrapped compiler's options.
    pub fn options(&self) -> &Options {
        &self.compiler.options
    }

    /// Store effectiveness counters since construction.
    pub fn stats(&self) -> IncrementalStats {
        IncrementalStats {
            artifacts: self.artifacts.stats(),
            funcs: self.store.funcs.stats(),
            methods_spliced: self.store.methods_spliced.load(Ordering::Relaxed),
            methods_compiled: self.store.methods_compiled.load(Ordering::Relaxed),
        }
    }

    /// Compiles `source`, reusing whole artifacts (level 1) and per-function
    /// artifacts (level 2) from previous calls where sound. Output is
    /// byte-identical to [`Compiler::compile`] with the same options.
    ///
    /// # Errors
    /// Returns every parse and type error with rendered positions, exactly
    /// as the one-shot path does (diagnostics are never cached).
    pub fn compile(&self, source: &str) -> Result<Arc<Compilation>, CompileError> {
        self.compile_reporting(source).map(|(c, _)| c)
    }

    /// [`compile`](Self::compile), also returning what this call reused.
    /// [`stats`](Self::stats) sums every call; these counts are this
    /// call's alone, so concurrent requests each get their own.
    ///
    /// # Errors
    /// As [`compile`](Self::compile).
    pub fn compile_reporting(
        &self,
        source: &str,
    ) -> Result<(Arc<Compilation>, Reuse), CompileError> {
        let skey = source_key(source, self.store.opts_key);
        if let Some(art) = self.artifacts.get(&skey) {
            return Ok((art, Reuse { artifact_hit: true, ..Reuse::default() }));
        }
        let (compilation, reuse) = self.compiler.drive(source, Some(&self.store))?;
        // First-writer-wins: concurrent compiles of the same source share
        // whichever artifact published first (they are byte-identical).
        Ok((self.artifacts.insert(skey, compilation), reuse))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = "
        class Shape {
            def area() -> int { return 0; }
        }
        class Square(s: int) extends Shape {
            def area() -> int { return s * s; }
        }
        def id<T>(x: T) -> T { return x; }
        def twice(x: int) -> int { return id(x) + id(x); }
        def main() -> int {
            var sh: Shape = Square.new(5);
            return sh.area() + twice(8);
        }
    ";

    // The same edit a serving client would make: only `twice` changes.
    const EDITED: &str = "
        class Shape {
            def area() -> int { return 0; }
        }
        class Square(s: int) extends Shape {
            def area() -> int { return s * s; }
        }
        def id<T>(x: T) -> T { return x; }
        def twice(x: int) -> int { return id(x) * 2; }
        def main() -> int {
            var sh: Shape = Square.new(5);
            return sh.area() + twice(8);
        }
    ";

    fn program_bytes(c: &Compilation) -> String {
        format!("{:?}|{:?}", c.program, vgl_passes::module_fingerprint(&c.compiled))
    }

    #[test]
    fn identical_source_shares_the_artifact() {
        let inc = IncrementalCompiler::new(Compiler::new());
        let a = inc.compile(BASE).expect("compiles");
        let b = inc.compile(BASE).expect("compiles");
        assert!(Arc::ptr_eq(&a, &b), "level-1 hit must return the shared artifact");
        let st = inc.stats();
        assert_eq!(st.artifacts.hits, 1);
        assert_eq!(a.execute().result.unwrap(), "41");
    }

    #[test]
    fn edited_source_reuses_functions_with_identical_output() {
        let inc = IncrementalCompiler::new(Compiler::new());
        inc.compile(BASE).expect("compiles");
        let warm = inc.compile(EDITED).expect("compiles");
        let cold = Compiler::new().compile(EDITED).expect("compiles");
        assert_eq!(program_bytes(&warm), program_bytes(&cold));
        assert_eq!(warm.execute().result.unwrap(), cold.execute().result.unwrap());
        let st = inc.stats();
        assert!(st.funcs.hits > 0, "unchanged methods must hit the store: {st:?}");
        assert!(st.methods_spliced > 0);
    }

    #[test]
    fn fused_artifacts_splice_byte_identically() {
        let mk = || Compiler::new().with_jobs(2);
        let inc = IncrementalCompiler::new(mk());
        inc.compile(BASE).expect("compiles");
        let warm = inc.compile(EDITED).expect("compiles");
        let cold = mk().compile(EDITED).expect("compiles");
        assert_eq!(program_bytes(&warm), program_bytes(&cold));
        assert!(inc.stats().methods_spliced > 0);
    }

    #[test]
    fn warm_compiles_report_the_cold_phases() {
        let inc = IncrementalCompiler::new(Compiler::new());
        inc.compile(BASE).expect("compiles");
        let warm = inc.compile(EDITED).expect("compiles");
        let cold = Compiler::new().compile(EDITED).expect("compiles");
        assert!(inc.stats().methods_spliced > 0, "the warm compile spliced");
        let names = |c: &Compilation| c.trace.phases.iter().map(|p| p.name).collect::<Vec<_>>();
        assert_eq!(names(&warm), names(&cold));
        assert_eq!(names(&cold).last(), Some(&"fuse"));
    }

    #[test]
    fn different_options_do_not_share_artifacts() {
        let inc_opt = IncrementalCompiler::new(Compiler::new());
        let inc_noopt = IncrementalCompiler::new(Compiler::new().without_optimizer());
        let a = inc_opt.compile(BASE).expect("compiles");
        let b = inc_noopt.compile(BASE).expect("compiles");
        // Same source, different option bits: separate keys, same result.
        assert_eq!(a.execute().result.unwrap(), b.execute().result.unwrap());
        assert_ne!(
            source_key(BASE, options_key(inc_opt.options())),
            source_key(BASE, options_key(inc_noopt.options()))
        );
    }
}
