//! # vgl-bench
//!
//! The benchmark harness that regenerates every evaluation claim of the
//! paper (see DESIGN.md's per-experiment index, E1–E6 and T1). The
//! `paper_tables` binary prints the tables recorded in EXPERIMENTS.md
//! (`--json` emits them machine-readable via `vgl_obs::json`); the
//! `benches/` directory holds the timing benches, built on the in-tree
//! [`harness`] so the workspace builds with no external dependencies.

pub mod harness;
pub mod workloads;

use std::time::{Duration, Instant};
use vgl::{Compilation, Compiler};

/// Compiles a workload or panics with rendered diagnostics (workloads are
/// trusted sources).
pub fn compile(source: &str) -> Compilation {
    match Compiler::new().compile(source) {
        Ok(c) => c,
        Err(e) => panic!("workload failed to compile:\n{e}"),
    }
}

/// Measured observations of one engine run.
#[derive(Clone, Debug)]
pub struct Measured {
    /// Wall-clock time.
    pub time: Duration,
    /// Result display form.
    pub result: Result<String, String>,
    /// Interpreter stats when applicable.
    pub interp: Option<vgl::InterpStats>,
    /// VM stats when applicable.
    pub vm: Option<vgl::VmStats>,
}

/// Runs the reference interpreter (type-argument passing) and measures it.
pub fn measure_interp(c: &Compilation) -> Measured {
    let start = Instant::now();
    let out = c.interpret();
    Measured {
        time: start.elapsed(),
        result: out.result,
        interp: out.interp_stats,
        vm: None,
    }
}

/// Runs the compiled VM and measures it.
pub fn measure_vm(c: &Compilation) -> Measured {
    let start = Instant::now();
    let out = c.execute();
    Measured {
        time: start.elapsed(),
        result: out.result,
        interp: None,
        vm: out.vm_stats,
    }
}

/// Asserts both engines agree, then returns (interp, vm) measurements.
pub fn measure_both(c: &Compilation) -> (Measured, Measured) {
    let i = measure_interp(c);
    let v = measure_vm(c);
    assert_eq!(i.result, v.result, "engines disagree");
    (i, v)
}

/// Formats a duration in microseconds with 1 decimal.
pub fn us(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e6)
}

/// One workload measured on the VM with hotness profiling off, on
/// (default sampling mode), and on in precise mode — the E10
/// observability-overhead data point.
#[derive(Clone, Debug)]
pub struct ObsMeasurement {
    /// Workload label.
    pub name: String,
    /// Total VM time with profiling off.
    pub plain: Duration,
    /// Total VM time with the sampling hotness profiler on.
    pub profiled: Duration,
    /// Total VM time with the precise (exact inclusive/exclusive) profiler.
    pub precise: Duration,
    /// Name of the hottest function the profiled run reported.
    pub hottest: String,
    /// Back-edge ticks attributed to the hottest function.
    pub hottest_ticks: u64,
}

impl ObsMeasurement {
    /// profiled/plain − 1 — the fractional slowdown the default sampling
    /// profiler costs (what the `bench_obs` gate enforces).
    pub fn overhead(&self) -> f64 {
        self.profiled.as_secs_f64() / self.plain.as_secs_f64().max(1e-9) - 1.0
    }

    /// precise/plain − 1 — the slowdown of precise mode (reported in E10,
    /// never gated: precise mode is an offline-analysis configuration).
    pub fn overhead_precise(&self) -> f64 {
        self.precise.as_secs_f64() / self.plain.as_secs_f64().max(1e-9) - 1.0
    }
}

/// Compiles `source` once, asserts profiling changes no observable
/// behavior, then times `samples` interleaved plain/sampling/precise run
/// triples and reports the **summed** time per mode. Sums (equivalently,
/// means) beat medians of single runs here: one run is a few milliseconds,
/// where scheduler noise swamps a single-digit-percent effect; the
/// interleaved sum sees every run and cancels drift across modes.
pub fn measure_obs(name: &str, source: &str, samples: usize) -> ObsMeasurement {
    let c = compile(source);
    // Only the hotness profiler, no opcode histogram: sampling mode is the
    // low-overhead production configuration the `bench_obs` gate holds.
    let hotness_run = |precise: bool| {
        let mut vm = c.vm();
        if precise {
            vm.enable_runtime_profiling_precise();
        } else {
            vm.enable_runtime_profiling();
        }
        let out = c.run_vm(&mut vm);
        (out, vm.take_runtime_profile().expect("hotness enabled"))
    };
    let plain_out = c.execute();
    let (profiled_out, hotness) = hotness_run(false);
    let (precise_out, precise_hotness) = hotness_run(true);
    assert_eq!(plain_out.result, profiled_out.result, "{name}: profiling changed the result");
    assert_eq!(plain_out.output, profiled_out.output, "{name}: profiling changed the output");
    assert_eq!(plain_out.result, precise_out.result, "{name}: precise mode changed the result");
    for (a, b) in hotness.rows.iter().zip(precise_hotness.rows.iter()) {
        assert_eq!(a.calls, b.calls, "{name}: modes disagree on call counts");
        assert_eq!(a.ticks, b.ticks, "{name}: modes disagree on ticks");
    }
    let (mut tp, mut to, mut tq) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    for _ in 0..samples {
        let start = Instant::now();
        let _ = c.execute();
        tp += start.elapsed();
        let start = Instant::now();
        let _ = hotness_run(false);
        to += start.elapsed();
        let start = Instant::now();
        let _ = hotness_run(true);
        tq += start.elapsed();
    }
    let top = hotness.hotness_ranked(&c.program).into_iter().next();
    ObsMeasurement {
        name: name.to_string(),
        plain: tp,
        profiled: to,
        precise: tq,
        hottest: top.as_ref().map(|r| r.name.to_string()).unwrap_or_default(),
        hottest_ticks: top.map(|r| r.ticks).unwrap_or(0),
    }
}

/// One workload measured on the VM with the bytecode back-end optimizer
/// (superinstruction fusion + inline caches) off and on — the E8 data point.
#[derive(Clone, Debug)]
pub struct FusionMeasurement {
    /// Workload label.
    pub name: String,
    /// Best (min-of-N after warmup) VM time without fusion.
    pub unfused: Duration,
    /// Best (min-of-N after warmup) VM time with fusion.
    pub fused: Duration,
    /// Static instruction count before the fusion pass.
    pub instrs_before: usize,
    /// Static instruction count after.
    pub instrs_after: usize,
    /// Inline-cache hit rate of the fused run.
    pub ic_hit_rate: f64,
    /// Share of retired instructions that were superinstructions.
    pub super_share: f64,
}

impl FusionMeasurement {
    /// unfused/fused — above 1.0 means fusion wins.
    pub fn speedup(&self) -> f64 {
        self.unfused.as_secs_f64() / self.fused.as_secs_f64().max(1e-9)
    }
}

/// Compiles `source` twice (fusion off/on), asserts both programs behave
/// identically, and reports interleaved timings plus the fused run's IC and
/// superinstruction attribution. Like [`measure_backend`], one untimed
/// warmup pair precedes `samples` timed pairs and the **minimum** per
/// engine is reported: for a deterministic CPU-bound run the minimum is
/// the sample with the least scheduler interference, and interleaving
/// makes clock drift and cache warmth hit both engines equally.
pub fn measure_fusion(name: &str, source: &str, samples: usize) -> FusionMeasurement {
    let unfused = match Compiler::new().without_fuse().compile(source) {
        Ok(c) => c,
        Err(e) => panic!("workload failed to compile:\n{e}"),
    };
    let fused = match Compiler::new().compile(source) {
        Ok(c) => c,
        Err(e) => panic!("workload failed to compile:\n{e}"),
    };
    let a = unfused.execute();
    let b = fused.execute();
    assert_eq!(a.result, b.result, "{name}: fusion changed the result");
    assert_eq!(a.output, b.output, "{name}: fusion changed the output");
    let stats = b.vm_stats.as_ref().expect("vm stats");
    assert_eq!(stats.heap.tuple_boxes, 0, "{name}: fused run boxed a tuple");
    let [tu, tf] = harness::measure_min_of_n(samples, |_| {
        [measure_vm(&unfused).time, measure_vm(&fused).time]
    });
    let (_, profile) = fused.execute_profiled();
    FusionMeasurement {
        name: name.to_string(),
        unfused: tu,
        fused: tf,
        instrs_before: fused.fuse.instrs_before,
        instrs_after: fused.fuse.instrs_after,
        ic_hit_rate: stats.ic_hit_rate(),
        super_share: profile.super_share(),
    }
}

/// One workload measured with static whole-program fusion vs the tiered
/// back end (unfused start, hot functions re-fuse themselves with their own
/// runtime profile and inline-cache feedback) — the E11 data point.
#[derive(Clone, Debug)]
pub struct TieredMeasurement {
    /// Workload label.
    pub name: String,
    /// Best (min-of-N after warmup) VM time with static fusion.
    pub fused: Duration,
    /// Best (min-of-N after warmup) VM time with runtime tiering.
    pub tiered: Duration,
    /// Functions tiered up (re-fusions, including re-tiers) in one run.
    pub tier_ups: u64,
    /// Guard-failure deoptimizations in one run.
    pub deopts: u64,
    /// Virtual calls that went through a speculated class guard.
    pub guarded_calls: u64,
    /// Guarded calls whose callee was inlined to a micro-op (no frame).
    pub inlined_calls: u64,
}

impl TieredMeasurement {
    /// fused/tiered — above 1.0 means the tiered back end beats static
    /// fusion (the warmup knee is inside the tiered measurement).
    pub fn speedup(&self) -> f64 {
        self.fused.as_secs_f64() / self.tiered.as_secs_f64().max(1e-9)
    }
}

/// Compiles `source` twice — static fusion vs tiering (which starts from
/// the unfused baseline and re-fuses at runtime) — asserts both behave
/// identically, and reports interleaved warmup + min-of-N timings plus the
/// tiered run's speculation counters. Every tiered sample re-warms from the
/// cold tier, so the warmup knee is honestly inside the measurement.
pub fn measure_tiered(name: &str, source: &str, samples: usize) -> TieredMeasurement {
    let fused = match Compiler::new().compile(source) {
        Ok(c) => c,
        Err(e) => panic!("workload failed to compile:\n{e}"),
    };
    let tiered = match Compiler::new().with_tiering().compile(source) {
        Ok(c) => c,
        Err(e) => panic!("workload failed to compile:\n{e}"),
    };
    let a = fused.execute();
    let b = tiered.execute();
    assert_eq!(a.result, b.result, "{name}: tiering changed the result");
    assert_eq!(a.output, b.output, "{name}: tiering changed the output");
    let stats = b.vm_stats.as_ref().expect("vm stats");
    assert_eq!(stats.heap.tuple_boxes, 0, "{name}: tiered run boxed a tuple");
    assert!(stats.tier_ups > 0, "{name}: workload never tiered up");
    let [tf, tt] = harness::measure_min_of_n(samples, |_| {
        [measure_vm(&fused).time, measure_vm(&tiered).time]
    });
    TieredMeasurement {
        name: name.to_string(),
        fused: tf,
        tiered: tt,
        tier_ups: stats.tier_ups,
        deopts: stats.deopts,
        guarded_calls: stats.guarded_calls,
        inlined_calls: stats.inlined_calls,
    }
}

/// One server workload measured under the pure semispace collector vs the
/// generational collector at equal heap capacity — the E12 data point.
#[derive(Clone, Debug)]
pub struct GcMeasurement {
    /// Workload label.
    pub name: String,
    /// p99 GC pause under the semispace collector (nursery disabled),
    /// pooled over every collection in every sample run.
    pub semi_p99: Duration,
    /// p99 GC pause under the generational collector, pooled likewise over
    /// minor *and* major pauses — majors are not allowed to hide.
    pub gen_p99: Duration,
    /// Best (min-of-N after warmup) wall-clock VM time, semispace.
    pub semi_time: Duration,
    /// Best (min-of-N after warmup) wall-clock VM time, generational.
    pub gen_time: Duration,
    /// Collections per run under the semispace collector (all majors).
    pub semi_collections: u64,
    /// Minor collections per run under the generational collector.
    pub gen_minors: u64,
    /// Major collections per run under the generational collector.
    pub gen_majors: u64,
}

impl GcMeasurement {
    /// gen_p99 / semi_p99 — below 1.0 means the generational collector
    /// pauses shorter at the tail (the `bench_gc` gate wants ≤ 0.5 on the
    /// steady-state server workload).
    pub fn pause_ratio(&self) -> f64 {
        self.gen_p99.as_secs_f64() / self.semi_p99.as_secs_f64().max(1e-9)
    }

    /// semi_time / gen_time — at or above 1.0 means the nursery costs no
    /// throughput ("equal throughput" in the gate allows a small tolerance
    /// for the write-barrier tax).
    pub fn throughput_ratio(&self) -> f64 {
        self.semi_time.as_secs_f64() / self.gen_time.as_secs_f64().max(1e-9)
    }
}

/// p99 by rank over the pooled pauses: the value below which 99% of pauses
/// fall. Zero when nothing collected.
fn pause_p99(pauses: &mut [Duration]) -> Duration {
    if pauses.is_empty() {
        return Duration::ZERO;
    }
    pauses.sort();
    let idx = ((pauses.len() as f64 - 1.0) * 0.99).ceil() as usize;
    pauses[idx.min(pauses.len() - 1)]
}

/// Compiles `source` twice — nursery disabled (pure semispace) vs a
/// `nursery_slots` young generation, both at `heap_slots` total capacity —
/// asserts the collector choice changes no observable behavior, then runs
/// `samples` interleaved pairs. Pauses are pooled across all profiled
/// sample runs before taking p99 (a single run rarely collects often
/// enough for a stable tail); wall-clock is min-of-N from untimed-warmup
/// interleaved pairs, like every other timing in this harness.
pub fn measure_gc(
    name: &str,
    source: &str,
    heap_slots: usize,
    nursery_slots: usize,
    samples: usize,
) -> GcMeasurement {
    let compile_with = |nursery: usize| {
        let options = vgl::Options {
            heap_slots,
            nursery_slots: nursery,
            ..Default::default()
        };
        match Compiler::with_options(options).compile(source) {
            Ok(c) => c,
            Err(e) => panic!("workload failed to compile:\n{e}"),
        }
    };
    let semi = compile_with(0);
    let generational = compile_with(nursery_slots);
    let a = semi.execute();
    let b = generational.execute();
    assert_eq!(a.result, b.result, "{name}: the nursery changed the result");
    assert_eq!(a.output, b.output, "{name}: the nursery changed the output");
    let gen_stats = b.vm_stats.as_ref().expect("vm stats");
    assert_eq!(gen_stats.heap.tuple_boxes, 0, "{name}: generational run boxed a tuple");

    let mut semi_pauses: Vec<Duration> = Vec::new();
    let mut gen_pauses: Vec<Duration> = Vec::new();
    let (mut semi_collections, mut gen_minors, mut gen_majors) = (0u64, 0u64, 0u64);
    let [ts, tg] = harness::measure_min_of_n(samples, |sample| {
        let start = Instant::now();
        let (_, sp) = semi.execute_profiled();
        let s = start.elapsed();
        let start = Instant::now();
        let (_, gp) = generational.execute_profiled();
        let g = start.elapsed();
        if sample > 0 {
            semi_pauses.extend(sp.gc_events.iter().map(|e| e.pause));
            gen_pauses.extend(gp.gc_events.iter().map(|e| e.pause));
            semi_collections = sp.gc_events.len() as u64;
            gen_minors = gp
                .gc_events
                .iter()
                .filter(|e| e.kind == vgl::GcKind::Minor)
                .count() as u64;
            gen_majors = gp.gc_events.len() as u64 - gen_minors;
        }
        [s, g]
    });
    GcMeasurement {
        name: name.to_string(),
        semi_p99: pause_p99(&mut semi_pauses),
        gen_p99: pause_p99(&mut gen_pauses),
        semi_time: ts,
        gen_time: tg,
        semi_collections,
        gen_minors,
        gen_majors,
    }
}

/// One back-end configuration measured on one workload — the E9 data point.
#[derive(Clone, Debug)]
pub struct BackendMeasurement {
    /// Workload label.
    pub name: String,
    /// Thread count the back half ran with.
    pub jobs: usize,
    /// Whether the per-instance pass cache was on.
    pub cache: bool,
    /// Best (min-of-N after warmup) wall-clock time of the back half
    /// (mono → fuse).
    pub time: Duration,
    /// Normalize-pass instance-cache stats from the last sample.
    pub norm_cache: vgl::CacheStats,
    /// Optimize-pass instance-cache stats from the last sample.
    pub opt_cache: vgl::CacheStats,
}

/// Times the back half of the pipeline (mono → normalize → optimize →
/// lower → fuse) at one `(jobs, cache)` configuration. The front end
/// runs outside the timer — it is identical across configurations — but
/// monomorphization is timed: with the cache on it ends by fingerprinting
/// every bodied method on the pool ([`vgl_passes::monomorphize_cfg`]), and
/// leaving that hashing off the clock would overstate the cache rows.
///
/// One untimed warmup run precedes the samples: the first run pays thread
/// spawn, allocator growth, and cold icache for every configuration alike,
/// and a scaling comparison should not be decided by who went first.
/// Returns the **minimum** of `samples` timed runs — for a deterministic
/// CPU-bound workload the minimum is the run with the least scheduler
/// interference, which is the quantity the scaling claim is about.
pub fn measure_backend(
    name: &str,
    source: &str,
    jobs: usize,
    cache: bool,
    samples: usize,
) -> BackendMeasurement {
    let mut diags = vgl_syntax::Diagnostics::new();
    let ast = vgl_syntax::parse_program(source, &mut diags);
    assert!(!diags.has_errors(), "{name}: workload failed to parse");
    let module = vgl_sema::analyze(&ast, &mut diags)
        .unwrap_or_else(|| panic!("{name}: workload failed to analyze"));
    let cfg = vgl_passes::BackendConfig { jobs, cache, chunking: true };
    let mut report = vgl::BackendReport::default();
    let [time] = harness::measure_min_of_n(samples, |_| {
        report = vgl::BackendReport { jobs, ..Default::default() };
        let start = Instant::now();
        let (mut m, _) = vgl_passes::monomorphize_cfg(&module, &cfg, &mut report);
        vgl_passes::normalize_cfg(&mut m, &cfg, &mut report);
        vgl_passes::optimize_cfg(&mut m, &cfg, &mut report);
        let mut prog = vgl_vm::lower(&m);
        vgl_vm::fuse_cfg(&mut prog, &cfg);
        [start.elapsed()]
    });
    BackendMeasurement {
        name: name.to_string(),
        jobs,
        cache,
        time,
        norm_cache: report.norm_cache,
        opt_cache: report.opt_cache,
    }
}

/// Simple fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells.to_vec());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(&format!("{:>width$}", c, width = widths[i]));
            }
            out.push('\n');
        };
        line(&self.headers, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for r in &self.rows {
            line(r, &widths, &mut out);
        }
        out
    }

    /// The table as a JSON array of `{header: cell}` objects (cells stay
    /// strings — they carry formatted units).
    pub fn to_json(&self) -> vgl_obs::json::Json {
        use vgl_obs::json::Json;
        Json::Arr(
            self.rows
                .iter()
                .map(|r| {
                    let mut o = Json::object();
                    for (h, c) in self.headers.iter().zip(r) {
                        o.set(h, Json::Str(c.clone()));
                    }
                    o
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_compile_and_agree() {
        for src in [
            workloads::tuple_heavy(50),
            workloads::polymorphic(2),
            workloads::dispatch_chain(20),
            workloads::instantiations(3),
            workloads::tuple_width(4, 20),
            workloads::callsite_checks(20),
            workloads::mixed_app(5),
            workloads::server_churn(200),
            workloads::server_cache(200),
            workloads::server_steady(200),
        ] {
            let c = compile(&src);
            let (i, v) = measure_both(&c);
            assert!(i.result.is_ok(), "{:?}", i.result);
            let _ = v;
        }
    }

    #[test]
    fn table_renders() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        let r = t.render();
        assert!(r.contains('1') && r.contains('b'));
    }
}
