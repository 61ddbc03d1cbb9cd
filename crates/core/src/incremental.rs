//! Cross-request incremental compilation — the daemon's warm path.
//!
//! [`IncrementalCompiler`] wraps a [`Compiler`] with persistent,
//! content-addressed LRU stores ([`vgl_passes::Lru`]), each bounded to
//! exactly its configured number of entries. A request can reuse work at
//! three horizons, each keyed on what determines the work it skips:
//!
//! * **Level 1 — whole artifacts**, keyed by a 128-bit source fingerprint
//!   plus the codegen-relevant option bits. A byte-identical resubmission
//!   (the same file saved twice, or two clients compiling the same source)
//!   returns the shared [`Compilation`] `Arc` without running anything.
//!
//! * **Level 2, at the mono boundary — normalized bodies**, keyed by
//!   ([`vgl_passes::context_digest`], `method_fingerprint`, option bits),
//!   both taken on the **post-mono** module. The fingerprints are the ones
//!   mono already took to find duplicate instances. Every representative
//!   method whose post-mono body matches under the same digest has its
//!   stored normalized body copied in, so normalize flattens only the
//!   module layout and the methods that changed.
//!
//! * **Level 2, at the optimized module — fused code**, keyed the same way
//!   but on the **optimized** module. Every method whose optimized body
//!   matches skips lower and fuse: its cached fused code is relocated into
//!   the reserved function slot by [`vgl_vm::lower_reusing`], and the fuse
//!   pool leaves it alone.
//!
//! A level-1 miss runs the same compile driver as [`Compiler::compile`],
//! handing it the level-2 stores. The front end, mono and optimize always
//! run in full, and the trace reports the same phases as a cold compile.
//! The level-2 stores each hold the same configured number of entries.
//!
//! Why these horizons. A cached artifact must be a pure function of its
//! key:
//!
//! * Flattening a method (§4.2) reads the method, the module layout (class
//!   fields, globals, every method's return type) and the post-mono type
//!   ids, all covered by the post-mono digest and fingerprint. It also
//!   reads state that the methods flattened before it leave behind: the
//!   types normalization interns and the ids of the scalar wrappers of
//!   first-class tuple operators, handed out in first-use order. So a
//!   stored body carries its flattening's demands on that state, in order,
//!   and a hit replays them through the live allocators. The body is used
//!   only if every demand returns what it returned when the body was
//!   stored, so every id it embeds means the same thing; otherwise the
//!   method is flattened, and the replay has left exactly the state a cold
//!   flattening reaches (`vgl_passes::normalize_reusing` has the details).
//! * Lowering and fusion of a method read only its own optimized body plus
//!   what the context digest covers: type ids, class layouts, globals and
//!   every method's signature. The shared wrappers a body demands are
//!   replayed through [`vgl_vm::Demand`]s, and its `CallVirt` site and
//!   constant-pool ids relocate, so they need no key.
//! * Optimize has no such property: inlining reads other methods' bodies,
//!   so a method's optimized body can change while its own post-mono body
//!   does not. Nothing is reused across optimize; it runs on the whole
//!   module, stored bodies included.
//!
//! The contract, pinned by the serving determinism suite: warm output is
//! **byte-identical** to a cold one-shot [`Compiler::compile`] of the same
//! source under the same options. A digest, fingerprint or replay miss
//! falls back to exactly the cold path for that method, so the stores can
//! be evicted (or raced) freely without affecting output — only latency.
//! With the per-instance cache off, mono takes no fingerprints and the
//! body store is not consulted.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use vgl_ir::Module;
use vgl_passes::cache::DupMap;
use vgl_passes::{cache, context_digest, Lru, NormFunc, NormPlan, NormRecord, StoreStats};
use vgl_vm::{ReusePlan, SpliceFunc, SpliceRecord, VmProgram};

use crate::{Compilation, CompileError, Compiler, Options};

/// Default level-1 capacity: whole compilations are big (module + bytecode),
/// and a serving session rarely juggles more than a few dozen live sources.
pub const DEFAULT_ARTIFACT_CAPACITY: usize = 64;

/// Default capacity of each level-2 store: per-function artifacts are small
/// and the whole point is surviving edits, so keep room for many
/// generations of a program's method set.
pub const DEFAULT_FUNC_CAPACITY: usize = 4096;

/// Level-2 store key: an artifact is reusable exactly when the module
/// context, the method, and the codegen options all match. Fused code is
/// keyed on the optimized module, normalized bodies on the post-mono one.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct FuncKey {
    ctx: (u64, u64),
    fp: (u64, u64),
    opts: u64,
}

/// The level-2 stores as the compile driver sees them: normalized bodies,
/// looked up after mono and published to after normalize, and fused code,
/// looked up after optimize and published to after fuse.
pub(crate) struct FuncStore {
    bodies: Lru<FuncKey, NormFunc>,
    funcs: Lru<FuncKey, SpliceFunc>,
    opts_key: u64,
    /// Not a store hit count: a hit whose replay is refused reuses nothing.
    bodies_reused: AtomicUsize,
}

/// One compile's normalized-body lookups, taken on the post-mono module.
pub(crate) struct BodyLookups {
    ctx: (u64, u64),
    fps: Vec<Option<(u64, u64)>>,
    /// The stored bodies found, for normalize.
    pub(crate) plan: NormPlan,
}

/// One compile's reuse decisions, taken on the optimized module.
pub(crate) struct Splices {
    ctx: (u64, u64),
    fps: Vec<(u64, u64)>,
    /// The spliced methods' relocatable code, for lowering.
    pub(crate) plan: ReusePlan,
    /// The plan's counts.
    pub(crate) reuse: Reuse,
}

/// What one [`IncrementalCompiler::compile_reporting`] call reused: its own
/// counts, whatever else the shared stores serve meanwhile.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Reuse {
    /// The whole artifact came from the level-1 store; nothing ran, so
    /// every method count is 0.
    pub artifact_hit: bool,
    /// Methods whose normalized body was copied from the level-2 store
    /// instead of flattened.
    pub bodies_reused: usize,
    /// Methods whose lower and fuse work was spliced from the level-2 store.
    pub methods_spliced: usize,
    /// Methods lowered and fused afresh.
    pub methods_compiled: usize,
}

impl FuncStore {
    /// Looks every representative bodied method of the post-mono `module`
    /// up in the body store, under the fingerprints mono took for `dup`.
    /// `None` when mono took none (the per-instance cache is off).
    pub(crate) fn lookup_bodies(
        &self,
        module: &Module,
        dup: Option<&DupMap>,
    ) -> Option<BodyLookups> {
        let dup = dup.filter(|d| d.prints.len() == module.methods.len())?;
        let ctx = context_digest(module);
        let funcs = dup
            .prints
            .iter()
            .enumerate()
            .map(|(i, fp)| {
                let fp = fp.filter(|_| !dup.is_dup(i))?;
                self.bodies.get(&FuncKey { ctx, fp, opts: self.opts_key })
            })
            .collect();
        Some(BodyLookups { ctx, fps: dup.prints.clone(), plan: NormPlan { funcs } })
    }

    /// Publishes every body the normalized `module` flattened afresh and
    /// returns how many bodies it reused: the plan entries whose method
    /// got no record.
    pub(crate) fn publish_bodies(
        &self,
        lookups: BodyLookups,
        module: &Module,
        records: Vec<Option<NormRecord>>,
    ) -> usize {
        let mut reused = 0;
        for (i, record) in records.into_iter().enumerate() {
            match (record, lookups.fps[i]) {
                (Some(record), Some(fp)) => {
                    let key = FuncKey { ctx: lookups.ctx, fp, opts: self.opts_key };
                    self.bodies.insert(key, record.capture(module, i));
                }
                (None, _) if lookups.plan.funcs[i].is_some() => reused += 1,
                _ => {}
            }
        }
        self.bodies_reused.fetch_add(reused, Ordering::Relaxed);
        reused
    }

    /// Looks every method of the optimized `module` up in the store, one
    /// `get` each, so the store's hits are the spliced methods.
    pub(crate) fn splice(&self, module: &Module) -> Splices {
        let ctx = context_digest(module);
        let fps: Vec<(u64, u64)> = module.methods.iter().map(cache::method_fingerprint).collect();
        let funcs: Vec<Option<Arc<SpliceFunc>>> = fps
            .iter()
            .map(|&fp| self.funcs.get(&FuncKey { ctx, fp, opts: self.opts_key }))
            .collect();
        let n = funcs.len();
        let spliced = funcs.iter().filter(|f| f.is_some()).count();
        let reuse = Reuse {
            methods_spliced: spliced,
            methods_compiled: n - spliced,
            ..Reuse::default()
        };
        Splices { ctx, fps, plan: ReusePlan { funcs }, reuse }
    }

    /// Publishes every method this compile lowered afresh, from the final
    /// `program`. Insert is content-addressed first-writer-wins, so racing
    /// compiles of equal methods share one entry; duplicate instances
    /// collapse onto their representative's key by fingerprint equality.
    pub(crate) fn publish(
        &self,
        splices: Splices,
        program: &VmProgram,
        records: Vec<Option<SpliceRecord>>,
    ) {
        for (i, record) in records.into_iter().enumerate() {
            let Some(record) = record else { continue };
            self.funcs.insert(
                FuncKey { ctx: splices.ctx, fp: splices.fps[i], opts: self.opts_key },
                record.capture(program, i),
            );
        }
    }
}

/// Snapshot of the incremental stores' effectiveness, for `vgld stats`.
#[derive(Clone, Copy, Debug, Default)]
pub struct IncrementalStats {
    /// Level-1 (whole-artifact) store counters.
    pub artifacts: StoreStats,
    /// Level-2 normalized-body store counters.
    pub bodies: StoreStats,
    /// Level-2 fused-code store counters.
    pub funcs: StoreStats,
    /// Methods whose normalized body was reused instead of flattened.
    pub bodies_reused: usize,
    /// Methods whose lower and fuse work was skipped via splicing.
    pub methods_spliced: usize,
    /// Methods lowered and fused from scratch (and published to the store).
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
    /// store holds at most that many entries (at least one); the two
    /// level-2 stores each hold `func_capacity`.
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
                bodies: Lru::new(func_capacity),
                funcs: Lru::new(func_capacity),
                opts_key,
                bodies_reused: AtomicUsize::new(0),
            },
        }
    }

    /// The wrapped compiler's options.
    pub fn options(&self) -> &Options {
        &self.compiler.options
    }

    /// Store effectiveness counters since construction.
    pub fn stats(&self) -> IncrementalStats {
        let funcs = self.store.funcs.stats();
        IncrementalStats {
            artifacts: self.artifacts.stats(),
            bodies: self.store.bodies.stats(),
            funcs,
            bodies_reused: self.store.bodies_reused.load(Ordering::Relaxed),
            methods_spliced: funcs.hits,
            methods_compiled: funcs.lookups - funcs.hits,
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
    fn without_the_instance_cache_no_body_is_looked_up() {
        // Mono takes no fingerprints, so the body store has no keys; the
        // fused-code store still serves the edit.
        let options = Options { pass_cache: false, ..Options::default() };
        let inc = IncrementalCompiler::new(Compiler::with_options(options));
        inc.compile(BASE).expect("compiles");
        let warm = inc.compile(EDITED).expect("compiles");
        let cold = Compiler::with_options(options).compile(EDITED).expect("compiles");
        assert_eq!(program_bytes(&warm), program_bytes(&cold));
        let st = inc.stats();
        assert_eq!((st.bodies.lookups, st.bodies_reused), (0, 0), "{st:?}");
        assert!(st.methods_spliced > 0, "{st:?}");
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
    fn splice_counts_are_the_fused_code_store_counters() {
        // A cold compile and two warm edits: the per-call counts sum to
        // what `stats` reads off the fused-code store.
        let inc = IncrementalCompiler::new(Compiler::new());
        let (mut spliced, mut compiled) = (0, 0);
        for src in [BASE, EDITED, &EDITED.replace("s * s", "s * s + 1")] {
            let (_, reuse) = inc.compile_reporting(src).expect("compiles");
            spliced += reuse.methods_spliced;
            compiled += reuse.methods_compiled;
        }
        let st = inc.stats();
        assert!(spliced > 0 && compiled > 0, "{st:?}");
        assert_eq!((st.methods_spliced, st.methods_compiled), (spliced, compiled));
        assert_eq!((st.funcs.hits, st.funcs.lookups), (spliced, spliced + compiled));
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
