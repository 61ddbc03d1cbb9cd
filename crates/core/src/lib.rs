//! # vgl — virgil-rs
//!
//! A Rust reproduction of the language and compiler described in
//! *Harmonizing Classes, Functions, Tuples, and Type Parameters in Virgil
//! III* (Ben L. Titzer, PLDI 2013).
//!
//! This crate is the public facade over the whole system:
//!
//! * front end: `vgl-syntax` (lexer/parser) and `vgl-sema` (typechecking,
//!   inference) produce a typed [`Module`];
//! * the **reference interpreter** (`vgl-interp`) executes it directly with
//!   runtime type arguments and boxed tuples — the paper's §4.3 interpreter
//!   strategy;
//! * the **static pipeline** (`vgl-passes`) monomorphizes (§4.3), normalizes
//!   tuples away (§4.2), and optimizes (§3.3's query folding);
//! * the **VM** (`vgl-vm`) runs the compiled form with a scalar calling
//!   convention, vtables, constant-time type tests, and a generational GC.
//!
//! ## Quickstart
//!
//! ```
//! use vgl::Compiler;
//!
//! let source = "
//!     def square(x: int) -> int { return x * x; }
//!     def main() -> int { return square(6) + 6; }
//! ";
//! let c = Compiler::new().compile(source).expect("compiles");
//! let run = c.execute();                  // compiled, on the VM
//! assert_eq!(run.result.unwrap(), "42");
//! let run = c.interpret();                // reference interpreter
//! assert_eq!(run.result.unwrap(), "42");
//! ```

#![warn(missing_docs)]

pub mod chrome;
pub mod incremental;
pub mod proto;
pub mod report;
pub mod serve;

use std::fmt;

use incremental::FuncStore;

pub use vgl_interp::{Interp, InterpError, InterpStats};
pub use vgl_ir::{Exception, Module, ModuleSize};
pub use vgl_obs::PhaseTrace;
pub use vgl_passes::{
    module_fingerprint, BackendConfig, BackendReport, CacheStats, MonoStats, NormStats,
    OptStats, PipelineStats,
};
pub use vgl_runtime::{AllocStats, GcInfo, HeapStats};
pub use vgl_syntax::{Diagnostic, Diagnostics, LineMap, Severity};
pub use vgl_types::{constructor_summary, ConstructorRow, Variance};
pub use vgl_obs::trace::ChromeTrace;
pub use vgl_vm::{
    FlightRecorder, FuncSpan, FuseStats, GcEvent, GcKind, HotFunc, RuntimeProfile, TraceLog, Vm,
    VmError, VmProfile, VmProgram, VmStats,
};

pub use vgl_fuzz as fuzz;

pub use incremental::{IncrementalCompiler, IncrementalStats, Reuse};

/// A compilation failure: rendered diagnostics.
#[derive(Clone, Debug)]
pub struct CompileError {
    /// The diagnostics, in source order.
    pub diagnostics: Vec<Diagnostic>,
    /// Diagnostics rendered with line/column positions.
    pub rendered: Vec<String>,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.rendered.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            f.write_str(r)?;
        }
        Ok(())
    }
}

impl std::error::Error for CompileError {}

/// Compiler options.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Run the optimizer after normalization (default true). Turning it off
    /// isolates the effect of §3.3 query folding in ablation benchmarks.
    pub optimize: bool,
    /// Heap capacity (slots) for VMs created by [`Compilation::execute`];
    /// default [`vgl_vm::DEFAULT_HEAP_SLOTS`]. A capacity, not a footprint:
    /// the heap commits its memory as it fills, and grows past this when a
    /// collection cannot free enough.
    pub heap_slots: usize,
    /// Nursery size (slots) carved out of the heap for the generational
    /// collector's young generation. `0` disables the nursery and falls
    /// back to the pure semispace collector — every collection is a major.
    /// `vglc --nursery-slots` overrides it.
    pub nursery_slots: usize,
    /// Fuel (steps/instructions) for the convenience runners; `None` means
    /// unbounded.
    pub fuel: Option<u64>,
    /// Run the bytecode back-end optimizer after lowering: copy propagation,
    /// dead-register elimination, and superinstruction fusion
    /// ([`vgl_vm::fuse`](mod@vgl_vm::fuse)). Default on; turn it off for
    /// ablation with [`Compiler::without_fuse`] or `vglc --no-fuse`. It
    /// shapes the static pipeline only: a tiered VM ([`Options::tier`])
    /// always runs the fused program, so `vglc` refuses `--no-fuse` with
    /// tiering.
    pub fuse: bool,
    /// Worker threads for fuse, the one pooled back-end phase; instance
    /// fingerprinting, normalize and optimize run on the calling thread at
    /// every count. `0` (the default) means auto: the `VGL_JOBS`
    /// environment variable if set, else the machine's available
    /// parallelism. **The jobs count never changes compiled output** —
    /// fused functions are committed in stable function-index order, so
    /// `--jobs 1` and `--jobs 8` produce bit-identical modules and bytecode.
    pub jobs: usize,
    /// Per-instance pass cache (default on): duplicate post-mono method
    /// instances — content-identical up to their name — skip
    /// normalize/optimize and copy their representative's result. Output
    /// is identical either way, so no CLI flag or builder sets it; the
    /// field stays only because perfbench reads it, and ROADMAP lists its
    /// deletion next to `BackendConfig.chunking` among the items blocked
    /// until the next benchmark change. See [`BackendReport`] for hit
    /// rates.
    pub pass_cache: bool,
    /// Tiered profile-guided execution (default off in the library; `vglc`
    /// turns it on). When set, the compile skips the static whole-program
    /// fuse pass and the program keeps its unfused code; the VM
    /// ([`Compilation::vm`]) fuses it once with the same pass and runs the
    /// fused code. A function that gets hot tiers up, which only
    /// speculates: each monomorphic call site checks its receiver's class
    /// and calls the expected callee directly or runs its one-instruction
    /// body in place, in every frame of the function, and a receiver of
    /// another class deoptimizes the site in place to a plain virtual call.
    pub tier: bool,
    /// Hotness weight (calls + back-edge ticks) at which a function tiers
    /// up. `vglc --tier-threshold` / `VGL_TIER_THRESHOLD` override it.
    pub tier_threshold: u64,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            optimize: true,
            heap_slots: vgl_vm::DEFAULT_HEAP_SLOTS,
            nursery_slots: vgl_vm::DEFAULT_NURSERY_SLOTS,
            fuel: Some(1 << 32),
            fuse: true,
            jobs: 0,
            pass_cache: true,
            tier: false,
            tier_threshold: vgl_vm::DEFAULT_TIER_THRESHOLD,
        }
    }
}

/// The compiler driver.
#[derive(Clone, Debug, Default)]
pub struct Compiler {
    pub(crate) options: Options,
}

impl Compiler {
    /// A compiler with default options.
    pub fn new() -> Compiler {
        Compiler::default()
    }

    /// Overrides the options.
    pub fn with_options(options: Options) -> Compiler {
        Compiler { options }
    }

    /// Disables the optimizer (ablation).
    pub fn without_optimizer(mut self) -> Compiler {
        self.options.optimize = false;
        self
    }

    /// Forces the bytecode fusion pass off (ablation / unfused baseline).
    pub fn without_fuse(mut self) -> Compiler {
        self.options.fuse = false;
        self
    }

    /// Sets the back-end worker count (`0` = auto; see [`Options::jobs`]).
    pub fn with_jobs(mut self, jobs: usize) -> Compiler {
        self.options.jobs = jobs;
        self
    }

    /// Enables tiered profile-guided execution (see [`Options::tier`]).
    pub fn with_tiering(mut self) -> Compiler {
        self.options.tier = true;
        self
    }

    /// Parses, typechecks, and runs the full static pipeline.
    ///
    /// # Errors
    /// Returns every parse and type error with rendered positions.
    pub fn compile(&self, source: &str) -> Result<Compilation, CompileError> {
        self.drive(source, None).map(|(c, _)| c)
    }

    /// The one compile pipeline behind one-shot and served builds: lex,
    /// parse, sema, mono, normalize, optimize, lower, fuse, each recorded
    /// on [`Compilation::trace`]. The IR passes assert their §4
    /// postconditions in debug builds; the bytecode, spliced functions
    /// included, is checked with [`vgl_vm::check_fused`] in every build.
    ///
    /// With no `store` this is the cold compile: it takes no digests and
    /// records nothing. With one, reuse happens at two horizons. After mono,
    /// every representative method is looked up in the body store under
    /// mono's fingerprint and the post-mono context digest; normalize
    /// copies in each stored body whose replayed demands come out as
    /// recorded and flattens the rest, which are published before the phase
    /// ends. After optimize, every method whose optimized body the store
    /// already holds under the same module context has its fused code
    /// spliced in, skipping lowering and fusion, and every freshly compiled
    /// method is published once fusion is done. Optimize itself always runs
    /// in full, because inlining reads other methods' bodies. The [`Reuse`]
    /// counts what this compile reused (all zero without a store).
    pub(crate) fn drive(
        &self,
        source: &str,
        store: Option<&FuncStore>,
    ) -> Result<(Compilation, Reuse), CompileError> {
        let o = self.options;
        let mut trace = PhaseTrace::new();
        let mut diags = Diagnostics::new();
        let tokens = trace.time(
            "lex",
            source.len(),
            || vgl_syntax::lexer::lex(source, &mut diags),
            Vec::len,
        );
        let ast = trace.time(
            "parse",
            tokens.len(),
            || vgl_syntax::parse_tokens(source, tokens, &mut diags),
            |p| p.decls.len(),
        );
        if diags.has_errors() {
            return Err(render(source, diags));
        }
        // Each phase drops or measures its own output: sema is the AST's
        // last reader, and each `vgl_ir::measure` is a full IR walk, taken
        // once and threaded into both the trace and the pipeline stats.
        let (analyzed, size_before) = trace.time(
            "sema",
            ast.decls.len(),
            || {
                let module = vgl_sema::analyze(&ast, &mut diags);
                drop(ast);
                let size = module.as_ref().map(vgl_ir::measure).unwrap_or_default();
                (module, size)
            },
            |(_, size)| size.expr_nodes,
        );
        let Some(module) = analyzed else {
            return Err(render(source, diags));
        };
        // Back-end configuration: jobs resolved once per compile (explicit
        // request → VGL_JOBS → available parallelism) for fuse's pool, the
        // one pooled phase. No knob changes output.
        let jobs = vgl_passes::sched::resolve_jobs(o.jobs);
        let backend_cfg = BackendConfig { jobs, cache: o.pass_cache, chunking: true };
        let mut backend = BackendReport { jobs, ..BackendReport::default() };
        // With the cache on, mono fingerprints its finished module, so the
        // duplicate map is ready for normalize the moment it returns.
        let (mut compiled, mono, size_after_mono) = trace.time(
            "mono",
            size_before.expr_nodes,
            || {
                let (m, stats) =
                    vgl_passes::monomorphize_cfg(&module, &backend_cfg, &mut backend);
                let size = vgl_ir::measure(&m);
                (m, stats, size)
            },
            |(_, _, size)| size.expr_nodes,
        );
        // The body store's lookups and publishing run inside the phase they
        // serve, so a served compile's time stays in recorded phases.
        let (norm, bodies_reused, size_after_norm) = trace.time(
            "normalize",
            size_after_mono.expr_nodes,
            || {
                let lookups =
                    store.and_then(|s| s.lookup_bodies(&compiled, backend.dup_map.as_ref()));
                let (stats, records) = vgl_passes::normalize_reusing(
                    &mut compiled,
                    &backend_cfg,
                    &mut backend,
                    lookups.as_ref().map(|l| &l.plan),
                );
                let reused = match (store, lookups) {
                    (Some(s), Some(l)) => s.publish_bodies(l, &compiled, records),
                    _ => 0,
                };
                (stats, reused, vgl_ir::measure(&compiled))
            },
            |(_, _, size)| size.expr_nodes,
        );
        let (opt, size_after) = trace.time(
            "optimize",
            size_after_norm.expr_nodes,
            || {
                let stats = if o.optimize {
                    vgl_passes::optimize_cfg(&mut compiled, &backend_cfg, &mut backend)
                } else {
                    OptStats::default()
                };
                (stats, vgl_ir::measure(&compiled))
            },
            |(_, size)| size.expr_nodes,
        );
        // Every body is final here, and lowering and fusion read nothing of
        // another method's body, so a method's fused code is a function of
        // its store key.
        let splices = store.map(|s| s.splice(&compiled));
        let (mut program, records) = trace.time(
            "lower",
            size_after.expr_nodes,
            || vgl_vm::lower_reusing(&compiled, splices.as_ref().map(|s| &s.plan)),
            |(p, _)| p.code_size(),
        );
        // Under tiering the VM fuses the program when it starts, serially,
        // so the compile skips the whole-program pass and its worker pool.
        let fuse = if o.fuse && !o.tier {
            // Spliced code is final: the pool neither fuses it again nor
            // copies it into a duplicate.
            let skip = splices.as_ref().map(|s| {
                let mut mask: Vec<bool> = s.plan.funcs.iter().map(Option::is_some).collect();
                mask.resize(program.funcs.len(), false);
                mask
            });
            let (stats, _) = trace.time(
                "fuse",
                program.code_size(),
                || {
                    let (stats, workers) =
                        vgl_vm::fuse_cfg_masked(&mut program, &backend_cfg, skip.as_deref());
                    backend.workers.extend(workers);
                    (stats, program.code_size())
                },
                |&(_, size)| size,
            );
            stats
        } else {
            vgl_vm::FuseStats::default()
        };
        vgl_ir::assert_valid(
            "bytecode back end broke a VM invariant",
            &vgl_vm::check_fused(&program),
        );
        let reuse = Reuse {
            bodies_reused,
            ..splices.as_ref().map_or_else(Reuse::default, |s| s.reuse)
        };
        if let (Some(store), Some(splices)) = (store, splices) {
            store.publish(splices, &program, records);
        }
        trace.workers = std::mem::take(&mut backend.workers);
        let compilation = Compilation {
            options: o,
            module,
            compiled,
            program,
            fuse,
            backend,
            stats: PipelineStats { mono, norm, opt, size_before, size_after_mono, size_after },
            trace,
        };
        Ok((compilation, reuse))
    }
}

/// The result of [`Compiler::check`]: every front-end diagnostic for one
/// source file, with rendered source windows, produced without running the
/// program.
///
/// Unlike [`Compiler::compile`], a parse error does not stop semantic
/// analysis here — the partial AST (with its error placeholders) is analyzed
/// anyway, so a single run reports everything the front end can find.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// File name used in rendered positions.
    pub file_name: String,
    /// The diagnostics, in source order.
    pub diagnostics: Vec<Diagnostic>,
    /// Line/column of each diagnostic's start (parallel to `diagnostics`).
    pub positions: Vec<vgl_syntax::LineCol>,
    /// Each diagnostic rendered as a rustc-style source window (parallel to
    /// `diagnostics`).
    pub rendered: Vec<String>,
}

impl CheckReport {
    /// Whether the file is clean (no errors; warnings are fine).
    pub fn ok(&self) -> bool {
        self.error_count() == 0
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == vgl_syntax::Severity::Error)
            .count()
    }

    /// The report as a JSON object (for `vglc check --json`).
    pub fn to_json(&self) -> vgl_obs::json::Json {
        use vgl_obs::json::Json;
        let mut o = Json::object();
        o.set("file", Json::from(self.file_name.as_str()));
        o.set("errors", Json::from(self.error_count()));
        o.set(
            "warnings",
            Json::from(
                self.diagnostics
                    .iter()
                    .filter(|d| d.severity == vgl_syntax::Severity::Warning)
                    .count(),
            ),
        );
        let mut arr = Vec::new();
        for (i, d) in self.diagnostics.iter().enumerate() {
            let mut jd = Json::object();
            jd.set("severity", Json::from(d.severity.to_string().as_str()));
            jd.set("line", Json::from(self.positions[i].line as u64));
            jd.set("col", Json::from(self.positions[i].col as u64));
            jd.set("message", Json::from(d.message.as_str()));
            if !d.notes.is_empty() {
                jd.set(
                    "notes",
                    Json::Arr(
                        d.notes
                            .iter()
                            .map(|n| Json::from(n.message.as_str()))
                            .collect(),
                    ),
                );
            }
            jd.set("rendered", Json::from(self.rendered[i].as_str()));
            arr.push(jd);
        }
        o.set("diagnostics", Json::Arr(arr));
        o
    }
}

impl Compiler {
    /// Parses and typechecks `source`, reporting every diagnostic the front
    /// end can find, without running the program. Parse errors do not
    /// suppress semantic analysis: the partial AST is analyzed so
    /// independent mistakes all surface in one run.
    pub fn check(&self, file_name: &str, source: &str) -> CheckReport {
        let mut diags = Diagnostics::new();
        let ast = vgl_syntax::parse_program(source, &mut diags);
        // Analyze even when parsing failed: error nodes carry the poisoned
        // type, so this is safe and finds independent type errors.
        let _ = vgl_sema::analyze(&ast, &mut diags);
        let lines = LineMap::new(source);
        let diagnostics = diags.into_vec();
        let positions = diagnostics
            .iter()
            .map(|d| lines.lookup(d.span.start))
            .collect();
        let rendered = diagnostics
            .iter()
            .map(|d| d.render_window(file_name, source, &lines))
            .collect();
        CheckReport {
            file_name: file_name.to_string(),
            diagnostics,
            positions,
            rendered,
        }
    }
}

pub(crate) fn render(source: &str, diags: Diagnostics) -> CompileError {
    let lines = LineMap::new(source);
    let diagnostics = diags.into_vec();
    let rendered = diagnostics
        .iter()
        .map(|d| d.render("<input>", &lines))
        .collect();
    CompileError { diagnostics, rendered }
}

/// The outcome of running a program on either engine.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// `Ok(value)` (display form) or `Err(exception)` (display form).
    pub result: Result<String, String>,
    /// Everything printed via `System.*`.
    pub output: String,
    /// Interpreter cost counters, when run on the interpreter.
    pub interp_stats: Option<InterpStats>,
    /// VM counters, when run on the VM.
    pub vm_stats: Option<VmStats>,
}

/// A compiled program: the typed source module, the post-pipeline module,
/// the bytecode, and the pipeline statistics (code-expansion data for E4).
#[derive(Debug)]
pub struct Compilation {
    pub(crate) options: Options,
    /// The typed source-level module (polymorphic; what the interpreter runs).
    pub module: Module,
    /// The monomorphized + normalized (+ optimized) module.
    pub compiled: Module,
    /// The bytecode program (post-fusion when [`Options::fuse`] is set).
    pub program: VmProgram,
    /// What the bytecode back-end optimizer did (all zero when disabled).
    pub fuse: FuseStats,
    /// Cached back-end report: fuse's effective jobs and per-pass
    /// instance cache hit rates. Its worker spans are moved onto
    /// [`Compilation::trace`].
    pub backend: BackendReport,
    /// Pipeline statistics.
    pub stats: PipelineStats,
    /// The compile's recorded timeline: one sample per phase (lex through
    /// fuse), one per fuse pool worker, and one worker-0 sample per
    /// fingerprinting pass and optimizer round, all on the `vgl-obs` epoch.
    pub trace: PhaseTrace,
}

impl Compilation {
    /// Runs the *reference interpreter* on the source module — the paper's
    /// type-argument-passing strategy with boxed tuples and §4.1 dynamic
    /// call-site checks.
    pub fn interpret(&self) -> RunOutcome {
        let mut i = Interp::new(&self.module);
        if let Some(f) = self.options.fuel {
            i.set_fuel(f);
        }
        let result = match i.run() {
            Ok(v) => Ok(v.to_string()),
            Err(e) => Err(e.to_string()),
        };
        RunOutcome {
            result,
            output: i.output(),
            interp_stats: Some(i.stats),
            vm_stats: None,
        }
    }

    /// A VM over the compiled program, set up from [`Options`]: heap and
    /// nursery sizes, tiering at its threshold, and fuel. Enable any
    /// instruments on it (opcode or hotness profiles, trace log, flight
    /// recorder), then run it with [`Compilation::run_vm`].
    pub fn vm(&self) -> Vm<'_> {
        let mut vm = Vm::with_heap_config(
            &self.program,
            self.options.heap_slots,
            self.options.nursery_slots,
        );
        if self.options.tier {
            vm.enable_tiering(self.options.tier_threshold);
        }
        if let Some(f) = self.options.fuel {
            vm.set_fuel(f);
        }
        vm
    }

    /// Runs `vm` (from [`Compilation::vm`]) to completion. Whatever its
    /// instruments recorded stays on `vm` to be taken afterwards.
    pub fn run_vm(&self, vm: &mut Vm<'_>) -> RunOutcome {
        let result = match vm.run() {
            Ok(words) => Ok(display_words(&words)),
            Err(e) => Err(e.to_string()),
        };
        RunOutcome {
            result,
            output: vm.output(),
            interp_stats: None,
            vm_stats: Some(vm.stats),
        }
    }

    /// Runs the compiled program on the VM — the "native target" with the
    /// scalar calling convention and the generational collector.
    pub fn execute(&self) -> RunOutcome {
        self.run_vm(&mut self.vm())
    }

    /// [`Compilation::execute`] with VM profiling enabled: also returns the
    /// per-opcode retired-instruction histogram and the GC event log.
    pub fn execute_profiled(&self) -> (RunOutcome, VmProfile) {
        let mut vm = self.vm();
        vm.enable_profiling();
        let outcome = self.run_vm(&mut vm);
        (outcome, vm.take_profile().unwrap_or_default())
    }

    /// Code expansion ratio due to monomorphization (E4): IR nodes after
    /// specialization over IR nodes before.
    pub fn expansion_ratio(&self) -> f64 {
        self.stats.size_after_mono.expansion_over(&self.stats.size_before)
    }

    /// Static bytecode size (instructions).
    pub fn code_size(&self) -> usize {
        self.program.code_size()
    }
}

fn display_words(words: &[vgl_runtime::Word]) -> String {
    match words.len() {
        0 => "()".to_string(),
        1 => {
            if vgl_vm::ret_is_ref(words) {
                "<ref>".to_string()
            } else {
                vgl_vm::ret_as_int(words).unwrap_or(0).to_string()
            }
        }
        _ => {
            let parts: Vec<String> = words
                .iter()
                .map(|&w| {
                    if vgl_runtime::heap::is_ref(w) {
                        "<ref>".to_string()
                    } else {
                        vgl_runtime::heap::as_i32(w).to_string()
                    }
                })
                .collect();
            format!("({})", parts.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_and_run_both_engines() {
        let c = Compiler::new()
            .compile("def main() -> int { return 40 + 2; }")
            .expect("compiles");
        assert_eq!(c.interpret().result.unwrap(), "42");
        assert_eq!(c.execute().result.unwrap(), "42");
    }

    #[test]
    fn compile_error_is_rendered() {
        let err = Compiler::new()
            .compile("def main() -> int { return x; }")
            .expect_err("unknown identifier");
        assert!(err.to_string().contains("unknown identifier"));
        assert!(err.to_string().contains("<input>:1:"));
    }

    #[test]
    fn stats_expose_expansion() {
        let c = Compiler::new()
            .compile(
                "def id<T>(x: T) -> T { return x; }\n\
                 def main() -> int { id(true); id('x'); return id(3); }",
            )
            .expect("compiles");
        assert!(c.stats.mono.method_instances >= 4);
        assert!(c.expansion_ratio() > 1.0);
        assert!(c.code_size() > 0);
    }

    #[test]
    fn without_optimizer_keeps_queries() {
        let src = "def q<T>(x: T) -> bool { return int.?(x); }\n\
                   def main() -> bool { return q(1); }";
        let with_opt = Compiler::new().compile(src).expect("compiles");
        let without = Compiler::new().without_optimizer().compile(src).expect("compiles");
        assert!(with_opt.stats.opt.queries_folded >= 1);
        assert_eq!(without.stats.opt.queries_folded, 0);
        // Both still run correctly.
        assert_eq!(with_opt.execute().result.unwrap(), "1");
        assert_eq!(without.execute().result.unwrap(), "1");
    }

    #[test]
    fn outputs_agree_across_engines() {
        let c = Compiler::new()
            .compile(
                "def main() { System.puts(\"hi \"); System.puti(3); System.ln(); }",
            )
            .expect("compiles");
        assert_eq!(c.interpret().output, c.execute().output);
    }
}
