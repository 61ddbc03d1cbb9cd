//! The traced run. The benchmark calls each layer's public function itself
//! and records a span around every call; the program under test is not
//! instrumented. Spans stay in memory until the run ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use vgl::serve::ServeConfig;
use vgl::{Compiler, IncrementalCompiler, IncrementalStats, Options, RunOutcome};
use vgl_passes::{BackendConfig, BackendReport, CacheStats};
use vgl_runtime::heap::{as_i32, is_ref};
use vgl_runtime::{Word, NULL};
use vgl_vm::Vm;

use crate::corpus::Corpus;
use crate::run::{check, may_stop, report_failure, Op, MIN_OPS};

/// One timed call: which layer, when, inside which span, for which
/// operation.
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub op: usize,
}

pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enter(&mut self, name: &'static str, op: usize) -> usize {
        let now = self.epoch.elapsed();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close in order");
        self.spans[id].end = self.epoch.elapsed();
    }

    pub fn time<T>(&mut self, name: &'static str, op: usize, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, op);
        let r = f();
        self.exit(id);
        r
    }

    /// Per span name: the summed self time, a span's duration minus the
    /// part of it that its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_default() += (s.end - s.start).saturating_sub(c);
        }
        out
    }

    /// Per span name: the summed duration, children included.
    pub fn inclusive(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }
}

/// Counts one program gives on every run: compared between two visits of
/// the same program for the determinism check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub tokens: usize,
    pub decls: usize,
    pub method_instances: usize,
    pub mono_nodes: usize,
    pub norm_nodes: usize,
    pub opt_nodes: usize,
    pub folds: usize,
    pub lower_instrs: usize,
    pub fuse_instrs: usize,
    pub code_size: usize,
    pub exec_instrs: u64,
    pub tier_ups: u64,
    pub deopts: u64,
    pub inlined: u64,
    pub gc_minor: usize,
    pub gc_major: usize,
    pub copied_slots: usize,
}

/// What one traced operation adds to the run-wide rates.
#[derive(Default)]
struct Rates {
    norm_cache: CacheStats,
    opt_cache: CacheStats,
    ic_hits: u64,
    ic_lookups: u64,
    exec_instrs: u64,
    fuse_instrs_in: usize,
}

impl Rates {
    fn add_exec(&mut self, s: &vgl::VmStats) {
        self.ic_hits += s.ic_hits;
        self.ic_lookups += s.ic_hits + s.ic_misses;
        self.exec_instrs += s.instrs;
    }
}

/// The VM's return words as `Compilation::execute` renders them.
fn display_words(words: &[Word]) -> String {
    let one = |w: Word| {
        if is_ref(w) && w != NULL {
            "<ref>".to_string()
        } else {
            as_i32(w).to_string()
        }
    };
    match words {
        [] => "()".to_string(),
        [w] => one(*w),
        _ => {
            let parts: Vec<String> = words
                .iter()
                .map(|&w| {
                    if is_ref(w) {
                        "<ref>".to_string()
                    } else {
                        as_i32(w).to_string()
                    }
                })
                .collect();
            format!("({})", parts.join(", "))
        }
    }
}

fn folds(s: &vgl::OptStats) -> usize {
    s.consts_folded + s.queries_folded + s.casts_folded + s.branches_folded
}

/// One source-to-result operation, layer by layer, in the order
/// `Compiler::compile` and `Compilation::execute` call the layers.
fn decompose(
    rec: &mut Recorder,
    op: usize,
    source: &str,
    o: &Options,
    rates: &mut Rates,
) -> Result<(Counts, RunOutcome, vgl::VmProgram), String> {
    let mut c = Counts::default();
    let root = rec.enter("operation", op);
    let compile = rec.enter("compile", op);
    let mut scratch = vgl_syntax::Diagnostics::new();
    c.tokens = rec
        .time("lex", op, || vgl_syntax::lexer::lex(source, &mut scratch))
        .len();
    let mut diags = vgl_syntax::Diagnostics::new();
    let ast = rec.time("parse", op, || {
        vgl_syntax::parse_program(source, &mut diags)
    });
    c.decls = ast.decls.len();
    let module = rec.time("sema", op, || vgl_sema::analyze(&ast, &mut diags));
    let module = match module {
        Some(m) if !diags.has_errors() => m,
        _ => {
            rec.exit(compile);
            rec.exit(root);
            return Err("does not compile".into());
        }
    };
    let cfg = BackendConfig {
        jobs: vgl_passes::sched::resolve_jobs(o.jobs),
        cache: o.pass_cache,
        chunking: true,
    };
    let mut backend = BackendReport {
        jobs: cfg.jobs,
        ..BackendReport::default()
    };
    let (mut compiled, mono) = rec.time("mono", op, || {
        vgl_passes::monomorphize_cfg(&module, &cfg, &mut backend)
    });
    c.method_instances = mono.method_instances;
    c.mono_nodes = vgl_ir::measure(&compiled).expr_nodes;
    rec.time("normalize", op, || {
        vgl_passes::normalize_cfg(&mut compiled, &cfg, &mut backend)
    });
    c.norm_nodes = vgl_ir::measure(&compiled).expr_nodes;
    if o.optimize {
        let opt = rec.time("optimize", op, || {
            vgl_passes::optimize_cfg(&mut compiled, &cfg, &mut backend)
        });
        c.folds = folds(&opt);
    }
    c.opt_nodes = vgl_ir::measure(&compiled).expr_nodes;
    let mut program = rec.time("lower", op, || vgl_vm::lower(&compiled));
    c.lower_instrs = program.code_size();
    if o.fuse && !o.tier {
        rec.time("fuse", op, || vgl_vm::fuse_cfg(&mut program, &cfg));
        c.fuse_instrs = program.code_size();
        rates.fuse_instrs_in += c.lower_instrs;
    }
    c.code_size = program.code_size();
    rec.exit(compile);
    rates.norm_cache.merge(&backend.norm_cache);
    rates.opt_cache.merge(&backend.opt_cache);

    let exec = rec.enter("execute", op);
    let mut vm = Vm::with_heap_config(&program, o.heap_slots, o.nursery_slots);
    if o.tier {
        vm.enable_tiering(o.tier_threshold);
    }
    if let Some(f) = o.fuel {
        vm.set_fuel(f);
    }
    let result = vm.run();
    rec.exit(exec);
    rec.exit(root);
    let s = vm.stats;
    rates.add_exec(&s);
    c.exec_instrs = s.instrs;
    c.tier_ups = s.tier_ups;
    c.deopts = s.deopts;
    c.inlined = s.inlined_calls;
    c.gc_minor = s.heap.minor_collections;
    c.gc_major = s.heap.major_collections;
    c.copied_slots = s.heap.copied_slots;
    let outcome = RunOutcome {
        result: result.map(|w| display_words(&w)).map_err(|e| e.to_string()),
        output: vm.output(),
        interp_stats: None,
        vm_stats: Some(s),
    };
    drop(vm);
    Ok((c, outcome, program))
}

/// GC pauses of one profiled run of `program`, in microseconds.
fn gc_pauses(program: &vgl::VmProgram, o: &Options) -> Vec<f64> {
    let mut vm = Vm::with_heap_config(program, o.heap_slots, o.nursery_slots);
    if o.tier {
        vm.enable_tiering(o.tier_threshold);
    }
    vm.enable_profiling();
    if let Some(f) = o.fuel {
        vm.set_fuel(f);
    }
    let _ = vm.run();
    vm.take_profile()
        .map(|p| {
            p.gc_events
                .iter()
                .map(|e| e.pause.as_secs_f64() * 1e6)
                .collect()
        })
        .unwrap_or_default()
}

/// The per-layer result of a traced run.
pub struct Traced {
    pub metrics: BTreeMap<&'static str, f64>,
    pub ops: usize,
    pub failed: usize,
}

/// Every per-layer metric, with its unit. A layer that does not run on a
/// workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lex.ms", "ms"),
    ("lex.tokens", "count"),
    ("parse.ms", "ms"),
    ("parse.decls", "count"),
    ("sema.ms", "ms"),
    ("mono.ms", "ms"),
    ("mono.method_instances", "count"),
    ("mono.ir_nodes_out", "count"),
    ("normalize.ms", "ms"),
    ("normalize.ir_nodes_out", "count"),
    ("normalize.cache_hit_rate", "ratio"),
    ("optimize.ms", "ms"),
    ("optimize.ir_nodes_out", "count"),
    ("optimize.folds", "count"),
    ("optimize.cache_hit_rate", "ratio"),
    ("lower.ms", "ms"),
    ("lower.instrs_out", "instrs"),
    ("fuse.ms", "ms"),
    ("fuse.instrs_out", "instrs"),
    ("fuse.us_per_instr", "us/instr"),
    ("fuse.compile_share", "ratio"),
    ("store.compile_ms", "ms"),
    ("store.splice_rate", "ratio"),
    ("store.methods_compiled", "count"),
    ("store.artifact_hit_rate", "ratio"),
    ("serve.request_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("execute.ms", "ms"),
    ("execute.instrs", "instrs"),
    ("execute.instrs_per_us", "instrs/us"),
    ("execute.ic_hit_rate", "ratio"),
    ("tier.ups", "count"),
    ("tier.deopts", "count"),
    ("tier.inlined_calls", "count"),
    ("gc.minor", "count"),
    ("gc.major", "count"),
    ("gc.copied_slots", "count"),
    ("gc.pause_us_p99", "us"),
    ("rss.peak_mb", "MB"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
];

/// Compile layers, in pipeline order.
const COMPILE_LAYERS: [&str; 8] = [
    "lex",
    "parse",
    "sema",
    "mono",
    "normalize",
    "optimize",
    "lower",
    "fuse",
];

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn base_counts(m: &mut BTreeMap<&'static str, f64>, counts: &[Counts]) {
    let sum = |f: fn(&Counts) -> f64| counts.iter().map(f).sum::<f64>();
    m.insert("lex.tokens", sum(|c| c.tokens as f64));
    m.insert("parse.decls", sum(|c| c.decls as f64));
    m.insert("mono.method_instances", sum(|c| c.method_instances as f64));
    m.insert("mono.ir_nodes_out", sum(|c| c.mono_nodes as f64));
    m.insert("normalize.ir_nodes_out", sum(|c| c.norm_nodes as f64));
    m.insert("optimize.ir_nodes_out", sum(|c| c.opt_nodes as f64));
    m.insert("optimize.folds", sum(|c| c.folds as f64));
    m.insert("lower.instrs_out", sum(|c| c.lower_instrs as f64));
    m.insert("fuse.instrs_out", sum(|c| c.fuse_instrs as f64));
    m.insert("execute.instrs", sum(|c| c.exec_instrs as f64));
    m.insert("tier.ups", sum(|c| c.tier_ups as f64));
    m.insert("tier.deopts", sum(|c| c.deopts as f64));
    m.insert("tier.inlined_calls", sum(|c| c.inlined as f64));
    m.insert("gc.minor", sum(|c| c.gc_minor as f64));
    m.insert("gc.major", sum(|c| c.gc_major as f64));
    m.insert("gc.copied_slots", sum(|c| c.copied_slots as f64));
}

fn p99(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    xs[((xs.len() as f64 * 0.99).ceil() as usize).clamp(1, xs.len()) - 1]
}

fn empty_metrics() -> BTreeMap<&'static str, f64> {
    PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect()
}

/// `cold_build` / `run_tiered`, traced: the cycle runs layer by layer for
/// at least two whole cycles and `seconds`. Each operation must give the
/// bytecode size `Compiler::compile` gave (`shipped`) and the reference
/// result; every later visit of a program must repeat its counts.
/// `untraced` is the same sequence's untraced loop, for the overhead.
pub fn local(
    corpus: &Corpus,
    options: Options,
    seconds: f64,
    shipped: &[usize],
    untraced: &[Op],
) -> Traced {
    let cycle = &corpus.sequences[0];
    let mut rec = Recorder::new();
    let mut rates = Rates::default();
    let mut first: Vec<Option<Counts>> = vec![None; corpus.programs.len()];
    let mut pauses = Vec::new();
    let mut failed = 0;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut ops = 0;
    for (op, &p) in cycle.iter().cycle().enumerate() {
        if may_stop(op, cycle.len(), 2, deadline) {
            break;
        }
        ops += 1;
        let prog = &corpus.programs[p];
        let verdict = decompose(&mut rec, op, &prog.source, &options, &mut rates).and_then(
            |(counts, outcome, program)| {
                check(&prog.expected, &outcome)?;
                if counts.code_size != shipped[p] {
                    return Err(format!(
                        "layer by layer gives {} instrs, Compiler::compile {}",
                        counts.code_size, shipped[p]
                    ));
                }
                match first[p] {
                    None => {
                        first[p] = Some(counts);
                        pauses.extend(gc_pauses(&program, &options));
                    }
                    Some(c) if c != counts => {
                        return Err(format!("counts differ between runs: {c:?} vs {counts:?}"));
                    }
                    Some(_) => {}
                }
                Ok(())
            },
        );
        if let Err(why) = verdict {
            report_failure(&prog.name, &why);
            failed += 1;
        }
    }

    let mut m = empty_metrics();
    let counts: Vec<Counts> = corpus.base.iter().filter_map(|&p| first[p]).collect();
    base_counts(&mut m, &counts);
    let selfs = rec.self_times();
    let per_op = |name: &str| ms(selfs.get(name).copied().unwrap_or_default()) / ops as f64;
    for layer in COMPILE_LAYERS {
        m.insert(layer_ms(layer), per_op(layer));
    }
    m.insert("execute.ms", per_op("execute"));
    let fuse = selfs.get("fuse").copied().unwrap_or_default();
    let compile_total: Duration = COMPILE_LAYERS.iter().filter_map(|l| selfs.get(l)).sum();
    m.insert(
        "fuse.us_per_instr",
        ratio(fuse.as_secs_f64() * 1e6, rates.fuse_instrs_in as f64),
    );
    m.insert(
        "fuse.compile_share",
        ratio(fuse.as_secs_f64(), compile_total.as_secs_f64()),
    );
    m.insert("normalize.cache_hit_rate", rates.norm_cache.hit_rate());
    m.insert("optimize.cache_hit_rate", rates.opt_cache.hit_rate());
    m.insert(
        "execute.instrs_per_us",
        ratio(
            rates.exec_instrs as f64,
            rec.inclusive("execute").as_secs_f64() * 1e6,
        ),
    );
    m.insert(
        "execute.ic_hit_rate",
        ratio(rates.ic_hits as f64, rates.ic_lookups as f64),
    );
    m.insert("gc.pause_us_p99", p99(pauses));
    // Tracing overhead: the traced and untraced loops run the same
    // sequence, so compare their common prefix.
    let n = ops.min(untraced.len());
    let traced_ms: f64 = rec
        .spans
        .iter()
        .filter(|s| s.name == "operation" && s.op < n)
        .map(|s| ms(s.end - s.start))
        .sum();
    let untraced_ms: f64 = untraced[..n].iter().map(|o| ms(o.latency)).sum();
    m.insert("trace.overhead_ms", (traced_ms - untraced_ms) / n as f64);
    m.insert("trace.spans", rec.spans.len() as f64);
    print_breakdown(corpus, &rec);
    Traced {
        metrics: m,
        ops,
        failed,
    }
}

fn layer_ms(layer: &str) -> &'static str {
    match layer {
        "lex" => "lex.ms",
        "parse" => "parse.ms",
        "sema" => "sema.ms",
        "mono" => "mono.ms",
        "normalize" => "normalize.ms",
        "optimize" => "optimize.ms",
        "lower" => "lower.ms",
        "fuse" => "fuse.ms",
        _ => unreachable!("not a compile layer: {layer}"),
    }
}

/// Writes each program's mean self time per layer to stderr.
fn print_breakdown(corpus: &Corpus, rec: &Recorder) {
    let cycle = &corpus.sequences[0];
    let mut ops_of: BTreeMap<usize, usize> = BTreeMap::new();
    let mut per: BTreeMap<(usize, &str), Duration> = BTreeMap::new();
    for s in &rec.spans {
        let p = cycle[s.op % cycle.len()];
        if s.name == "operation" {
            *ops_of.entry(p).or_default() += 1;
        }
        *per.entry((p, s.name)).or_default() += s.end - s.start;
    }
    eprintln!(
        "perfbench: mean ms per operation, by layer (compile and execute include their children)"
    );
    let cols = [
        "lex",
        "parse",
        "sema",
        "mono",
        "normalize",
        "optimize",
        "lower",
        "fuse",
        "compile",
        "execute",
    ];
    eprintln!(
        "  {:<34}{}",
        "program",
        cols.map(|c| format!("{c:>10}")).concat()
    );
    for (&p, &n) in &ops_of {
        let row: String = cols
            .iter()
            .map(|c| {
                format!(
                    "{:>10.3}",
                    ms(per.get(&(p, *c)).copied().unwrap_or_default()) / n as f64
                )
            })
            .collect();
        eprintln!("  {:<34}{row}", corpus.programs[p].name);
    }
}

/// `edit_serve`, traced: the client side cannot be split into layers, so
/// the requests the clients completed are replayed, interleaved, through
/// an in-process `IncrementalCompiler` with the daemon's options, after
/// priming it as set-up primed the daemon. The serial replay is slower
/// than two live clients, so it stops after `seconds` and `MIN_OPS`
/// requests.
pub fn serve(corpus: &Corpus, primed: &[Op], live: &[Vec<Op>], seconds: f64) -> Traced {
    let config = ServeConfig::default();
    let inc = IncrementalCompiler::with_capacity(
        Compiler::with_options(config.options),
        config.artifact_capacity,
        config.func_capacity,
    );
    let mut order: Vec<&Op> = primed.iter().collect();
    let longest = live.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        order.extend(live.iter().filter_map(|ops| ops.get(i)));
    }
    let mut rec = Recorder::new();
    let mut rates = Rates::default();
    let mut counts = Vec::new();
    let mut pauses = Vec::new();
    let mut phases: BTreeMap<&'static str, Duration> = BTreeMap::new();
    let mut failed = 0;
    let (mut served_ms, mut overhead_ms, mut store_ms) = (0.0, 0.0, 0.0);
    let mut store = IncrementalStats::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut ops = 0;
    for (op, live_op) in order.iter().enumerate() {
        if op >= primed.len() + MIN_OPS && Instant::now() >= deadline {
            break;
        }
        ops += 1;
        let is_primed = op < primed.len();
        let prog = &corpus.programs[live_op.program];
        let src = prog.source.as_str();
        let root = rec.enter("operation", op);
        let mut scratch = vgl_syntax::Diagnostics::new();
        let tokens = rec
            .time("lex", op, || vgl_syntax::lexer::lex(src, &mut scratch))
            .len();
        let mut diags = vgl_syntax::Diagnostics::new();
        let ast = rec.time("parse", op, || vgl_syntax::parse_program(src, &mut diags));
        rec.time("sema", op, || vgl_sema::analyze(&ast, &mut diags));
        let before = inc.stats();
        let id = rec.enter("store.compile", op);
        let compiled = inc.compile(src);
        rec.exit(id);
        let after = inc.stats();
        let compile_d = rec.spans[id].end - rec.spans[id].start;
        let id = rec.enter("execute", op);
        let outcome = compiled.as_ref().ok().map(|c| c.execute());
        rec.exit(id);
        let exec_d = rec.spans[id].end - rec.spans[id].start;
        rec.exit(root);
        let verdict = match (&compiled, &outcome) {
            (Ok(c), Some(out)) => check(&prog.expected, out).and_then(|()| {
                if c.code_size() == live_op.code_size {
                    Ok(())
                } else {
                    Err(format!(
                        "replay gives {} instrs, vgld {}",
                        c.code_size(),
                        live_op.code_size
                    ))
                }
            }),
            (Err(e), _) => Err(format!("compile error: {e}")),
            _ => unreachable!("a compiled program always runs"),
        };
        if let Err(why) = &verdict {
            report_failure(&prog.name, why);
            failed += 1;
        }
        let (Ok(c), Some(out)) = (&compiled, &outcome) else {
            continue;
        };
        let vm = out.vm_stats.unwrap_or_default();
        rates.add_exec(&vm);
        rates.norm_cache.merge(&c.backend.norm_cache);
        rates.opt_cache.merge(&c.backend.opt_cache);
        if after.artifacts.hits == before.artifacts.hits {
            for ph in &c.trace.phases {
                *phases.entry(ph.name).or_default() += ph.duration;
            }
        }
        if is_primed {
            counts.push(Counts {
                tokens,
                decls: ast.decls.len(),
                method_instances: c.stats.mono.method_instances,
                mono_nodes: c.stats.size_after_mono.expr_nodes,
                norm_nodes: phase_out(c, "normalize"),
                opt_nodes: c.stats.size_after.expr_nodes,
                folds: folds(&c.stats.opt),
                lower_instrs: c.fuse.instrs_before,
                fuse_instrs: c.fuse.instrs_after,
                code_size: c.code_size(),
                exec_instrs: vm.instrs,
                tier_ups: vm.tier_ups,
                deopts: vm.deopts,
                inlined: vm.inlined_calls,
                gc_minor: vm.heap.minor_collections,
                gc_major: vm.heap.major_collections,
                copied_slots: vm.heap.copied_slots,
            });
            let (_, profile) = c.execute_profiled();
            pauses.extend(
                profile
                    .gc_events
                    .iter()
                    .map(|e| e.pause.as_secs_f64() * 1e6),
            );
        } else {
            store.artifacts.lookups += after.artifacts.lookups - before.artifacts.lookups;
            store.artifacts.hits += after.artifacts.hits - before.artifacts.hits;
            store.methods_spliced += after.methods_spliced - before.methods_spliced;
            store.methods_compiled += after.methods_compiled - before.methods_compiled;
            served_ms += ms(live_op.latency);
            overhead_ms += ms(live_op.latency) - ms(compile_d + exec_d);
            store_ms += ms(compile_d);
        }
    }

    let requests = (ops - primed.len()).max(1) as f64;
    let mut m = empty_metrics();
    base_counts(&mut m, &counts);
    let selfs = rec.self_times();
    let per_op = |d: Option<&Duration>| ms(d.copied().unwrap_or_default()) / ops as f64;
    for layer in ["lex", "parse", "sema"] {
        m.insert(layer_ms(layer), per_op(selfs.get(layer)));
    }
    // The daemon's warm path joins lower and fuse in one call, so its
    // `lower` phase covers both and `fuse.ms` stays 0 here.
    for layer in ["mono", "normalize", "optimize", "lower"] {
        m.insert(layer_ms(layer), per_op(phases.get(layer)));
    }
    m.insert("execute.ms", per_op(selfs.get("execute")));
    m.insert("normalize.cache_hit_rate", rates.norm_cache.hit_rate());
    m.insert("optimize.cache_hit_rate", rates.opt_cache.hit_rate());
    m.insert(
        "execute.instrs_per_us",
        ratio(
            rates.exec_instrs as f64,
            rec.inclusive("execute").as_secs_f64() * 1e6,
        ),
    );
    m.insert(
        "execute.ic_hit_rate",
        ratio(rates.ic_hits as f64, rates.ic_lookups as f64),
    );
    m.insert("gc.pause_us_p99", p99(pauses));
    m.insert("store.compile_ms", store_ms / requests);
    m.insert("store.splice_rate", store.splice_rate());
    m.insert(
        "store.methods_compiled",
        store.methods_compiled as f64 / requests,
    );
    m.insert("store.artifact_hit_rate", store.artifacts.hit_rate());
    m.insert("serve.request_ms", served_ms / requests);
    m.insert("serve.overhead_ms", overhead_ms / requests);
    // The replay's own cost beyond the compile and run it measures: the
    // separately timed front end and the span bookkeeping.
    let work = rec.inclusive("store.compile") + rec.inclusive("execute");
    m.insert(
        "trace.overhead_ms",
        ms(rec.inclusive("operation").saturating_sub(work)) / ops as f64,
    );
    m.insert("trace.spans", rec.spans.len() as f64);
    Traced {
        metrics: m,
        ops,
        failed,
    }
}

fn phase_out(c: &vgl::Compilation, name: &str) -> usize {
    c.trace
        .phases
        .iter()
        .find(|p| p.name == name)
        .map_or(0, |p| p.items_out)
}
