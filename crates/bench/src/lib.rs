//! # vgl-bench
//!
//! The benchmark harness that regenerates every evaluation claim of the
//! paper (see DESIGN.md's per-experiment index). The `paper_tables` binary
//! prints the tables recorded in EXPERIMENTS.md and runs the paper-claim
//! [`gate`]s; `--json` emits one `BENCH_ledger.jsonl` row. The `measure_*`
//! functions below take every timing through [`harness`].

pub mod gate;
pub mod harness;
pub mod workloads;

use std::time::{Duration, Instant};
use vgl::serve::{with_daemon, Client, Request, ServeConfig};
use vgl::{Compilation, Compiler, Options};
use vgl_obs::json::Json;

/// Compiles a workload or panics with rendered diagnostics (workloads are
/// trusted sources).
pub fn compile(source: &str) -> Compilation {
    compile_with(&Compiler::new(), source)
}

/// [`compile`] with a configured compiler.
pub fn compile_with(compiler: &Compiler, source: &str) -> Compilation {
    compiler
        .compile(source)
        .unwrap_or_else(|e| panic!("workload failed to compile:\n{e}"))
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

/// Runs both engines on `c` in interleaved pairs, asserting on every run
/// that they agree, and returns (interp, vm) with each time the min of
/// `samples` (see [`harness::measure_min_of_n`]).
pub fn measure_both(c: &Compilation, samples: usize) -> (Measured, Measured) {
    let mut last = None;
    let [ti, tv] = harness::measure_min_of_n(samples, |_| {
        let (i, v) = (measure_interp(c), measure_vm(c));
        assert_eq!(i.result, v.result, "engines disagree");
        let times = [i.time, v.time];
        last = Some((i, v));
        times
    });
    let (mut i, mut v) = last.expect("at least one run");
    (i.time, v.time) = (ti, tv);
    (i, v)
}

/// Compiles `source` and returns the compilation with the min-of-`samples`
/// compile time (dropping a compilation is not timed).
pub fn measure_compile(source: &str, samples: usize) -> (Compilation, Duration) {
    let mut last = None;
    let [time] = harness::measure_min_of_n(samples, |_| {
        let start = Instant::now();
        let c = compile(source);
        let time = start.elapsed();
        last = Some(c);
        [time]
    });
    (last.expect("at least one compile"), time)
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
    /// profiler costs (what the E10 gate bounds).
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
    // low-overhead production configuration the E10 gate holds.
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
    assert_eq!(plain_out.output, precise_out.output, "{name}: precise mode changed the output");
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
    /// Best (min-of-N after warmup) VM time without fusion.
    pub unfused: Duration,
    /// Best (min-of-N after warmup) VM time with fusion.
    pub fused: Duration,
    /// Static instruction count before the fusion pass.
    pub instrs_before: usize,
    /// Static instruction count after.
    pub instrs_after: usize,
    /// Inline-cache hit rate of the fused run (1.0 when it made no lookups).
    pub ic_hit_rate: f64,
    /// Inline-cache lookups (hits and misses) of the fused run.
    pub ic_lookups: u64,
    /// Share of retired instructions that were superinstructions.
    pub super_share: f64,
}

impl FusionMeasurement {
    /// unfused/fused — above 1.0 means fusion wins.
    pub fn speedup(&self) -> f64 {
        self.unfused.as_secs_f64() / self.fused.as_secs_f64().max(1e-9)
    }

    /// The IC hit rate as a table cell: `n/a` when the run made no
    /// inline-cache lookups, since a rate over nothing measures nothing.
    pub fn ic_hit_rate_cell(&self) -> String {
        if self.ic_lookups == 0 {
            "n/a".into()
        } else {
            format!("{:.1}%", self.ic_hit_rate * 100.0)
        }
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
    let unfused = compile_with(&Compiler::new().without_fuse(), source);
    let fused = compile(source);
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
        unfused: tu,
        fused: tf,
        instrs_before: fused.fuse.instrs_before,
        instrs_after: fused.fuse.instrs_after,
        ic_hit_rate: stats.ic_hit_rate(),
        ic_lookups: stats.ic_hits + stats.ic_misses,
        super_share: profile.super_share(),
    }
}

/// One workload measured with static whole-program fusion vs the tiered
/// back end (the program fused once when the VM starts, hot functions
/// speculating on their inline-cache feedback) — the E11 data point.
#[derive(Clone, Debug)]
pub struct TieredMeasurement {
    /// Best (min-of-N after warmup) VM time with static fusion.
    pub fused: Duration,
    /// Best (min-of-N after warmup) VM time with runtime tiering.
    pub tiered: Duration,
    /// Functions tiered up (including re-tiers) in one run.
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

/// Compiles `source` twice — static fusion vs tiering (which compiles
/// unfused, fuses the program when the VM starts, and speculates once a
/// function is hot) — asserts both behave identically, and reports
/// interleaved warmup + min-of-N timings plus the tiered run's speculation
/// counters. Every tiered sample starts a fresh VM, so the VM's fusion of
/// the program and the warmup knee are honestly inside the measurement.
pub fn measure_tiered(name: &str, source: &str, samples: usize) -> TieredMeasurement {
    let fused = compile(source);
    let tiered = compile_with(&Compiler::new().with_tiering(), source);
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
    /// pauses shorter at the tail (the E12 gate wants ≤ 0.5 on the
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

/// Pools E12's trials of one workload. The trial with the lowest pause
/// ratio supplies the pauses and collection counts, and each collector's
/// time is its fastest sample over every trial. Both collectors draw on
/// the same number of samples, so the pooling favours neither, and a trial
/// picked for its pauses cannot bring a stalled minimum to the throughput.
pub fn pool_gc_trials(trials: impl IntoIterator<Item = GcMeasurement>) -> GcMeasurement {
    let mut trials = trials.into_iter();
    let first = trials.next().expect("at least one trial");
    trials.fold(first, |best, m| {
        let (semi_time, gen_time) =
            (best.semi_time.min(m.semi_time), best.gen_time.min(m.gen_time));
        let pauses = if m.pause_ratio().total_cmp(&best.pause_ratio()).is_lt() { m } else { best };
        GcMeasurement { semi_time, gen_time, ..pauses }
    })
}

/// The `q` quantile by rank of `sorted`: the value below which a `q`
/// share of the samples fall. Zero when there are none.
fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).ceil() as usize;
    sorted[idx.min(sorted.len() - 1)]
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
        compile_with(&Compiler::with_options(options), source)
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
    semi_pauses.sort();
    gen_pauses.sort();
    GcMeasurement {
        semi_p99: percentile(&semi_pauses, 0.99),
        gen_p99: percentile(&gen_pauses, 0.99),
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
/// every bodied method ([`vgl_passes::monomorphize_cfg`]), and leaving
/// that hashing off the clock would overstate the cache rows. Only fuse
/// reads `jobs`.
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
        time,
        norm_cache: report.norm_cache,
        opt_cache: report.opt_cache,
    }
}

/// Warm served edit cycles against the same compiles done cold — the E13
/// data point.
#[derive(Clone, Debug)]
pub struct ServeMeasurement {
    /// Best (min-of-N after warmup) wall time of one batch of cold one-shot
    /// compile-and-runs.
    pub cold: Duration,
    /// Best (min-of-N after warmup) wall time of the same batch served.
    pub warm: Duration,
    /// Client-observed latency of every timed served request, sorted.
    pub latencies: Vec<Duration>,
    /// Function-store lookups the daemon reported after the last batch.
    pub store_lookups: u64,
    /// Function-store hits the daemon reported after the last batch.
    pub store_hits: u64,
    /// Normalized-body store hits the daemon reported after the last batch.
    pub body_hits: u64,
}

impl ServeMeasurement {
    /// cold/warm — at or above 1.0 means serving never loses.
    pub fn speedup(&self) -> f64 {
        self.cold.as_secs_f64() / self.warm.as_secs_f64().max(1e-9)
    }

    /// The `q` quantile of the served request latencies.
    pub fn latency(&self, q: f64) -> Duration {
        percentile(&self.latencies, q)
    }
}

/// Runs `client(i, sources)` for each client's sources, one thread per
/// client, and returns the wall time of the whole batch with each client's
/// output in order.
fn on_clients<T: Send>(
    batch: &[Vec<String>],
    client: impl Fn(usize, &[String]) -> T + Sync,
) -> (Duration, Vec<T>) {
    let client = &client;
    let start = Instant::now();
    let out = std::thread::scope(|s| {
        let handles: Vec<_> = batch
            .iter()
            .enumerate()
            .map(|(i, sources)| s.spawn(move || client(i, sources)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    (start.elapsed(), out)
}

/// `clients` concurrent editing sessions, each `cycles` edit/recompile/run
/// requests of [`workloads::serve_edit`]`(workers, ·)` against a live
/// daemon, versus the same compiles done cold (a fresh `Compiler` per
/// source — what `vglc build` pays per invocation). Every served result is
/// asserted equal to the cold one, so the comparison is at equal output.
/// Sample 0 is the untimed warmup that also seeds the daemon's function
/// store, like the first build of an editing session.
pub fn measure_serve(
    clients: usize,
    cycles: usize,
    workers: usize,
    samples: usize,
) -> ServeMeasurement {
    // Both sides run the fused back end with backend jobs pinned to 1: the
    // parallelism under test is across concurrent requests, and letting
    // every compile fan out its own pool too oversubscribes the machine
    // identically for cold and warm while adding only noise.
    let options = Options {
        fuse: true,
        jobs: 1,
        ..Options::default()
    };
    let config = ServeConfig {
        options,
        ..ServeConfig::default()
    };
    let mut latencies = Vec::new();
    // Edit stamps never repeat, across clients, cycles *and* samples, so the
    // daemon's whole-artifact cache stays out of the data.
    let mut edits = 0..;
    let (cold, warm, stats) = with_daemon(config, |socket| {
        let [cold, warm] = harness::measure_min_of_n(samples, |sample| {
            let batch: Vec<Vec<String>> = (0..clients)
                .map(|_| {
                    (&mut edits)
                        .take(cycles)
                        .map(|e| workloads::serve_edit(workers, e))
                        .collect()
                })
                .collect();
            let (cold, expected) = on_clients(&batch, |_, sources| {
                let run = |src: &String| {
                    let c = compile_with(&Compiler::with_options(options), src);
                    c.execute()
                        .result
                        .unwrap_or_else(|t| panic!("workload trapped: {t}"))
                };
                sources.iter().map(run).collect::<Vec<String>>()
            });
            // Each client its own connection and session, every response
            // checked against the cold result of the same source.
            let (warm, lat) = on_clients(&batch, |c, sources| {
                let mut client = Client::connect(socket).expect("client connects");
                let request = |(src, want): (&String, &String)| {
                    let t0 = Instant::now();
                    let resp = client
                        .request(&Request::Run {
                            session: format!("bench-{c}"),
                            source: src.clone(),
                        })
                        .expect("daemon responds");
                    let latency = t0.elapsed();
                    assert_eq!(
                        resp.get("ok").and_then(Json::as_bool),
                        Some(true),
                        "served compile failed: {resp}"
                    );
                    let got = resp
                        .get("result")
                        .and_then(Json::as_str)
                        .unwrap_or("<none>");
                    assert_eq!(got, want, "served result diverged from cold one-shot");
                    latency
                };
                sources
                    .iter()
                    .zip(&expected[c])
                    .map(request)
                    .collect::<Vec<Duration>>()
            });
            if sample > 0 {
                latencies.extend(lat.into_iter().flatten());
            }
            [cold, warm]
        });
        let mut client = Client::connect(socket).expect("stats client");
        (
            cold,
            warm,
            client.request(&Request::Stats).expect("stats response"),
        )
    });
    latencies.sort();
    let count = |store, key| {
        stats
            .get("cache")
            .and_then(|c| c.get(store))
            .and_then(|f| f.get(key))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    ServeMeasurement {
        cold,
        warm,
        latencies,
        store_lookups: count("funcs", "lookups"),
        store_hits: count("funcs", "hits"),
        body_hits: count("bodies", "hits"),
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
            let (i, v) = measure_both(&c, 1);
            assert!(i.result.is_ok(), "{:?}", i.result);
            let _ = v;
        }
    }

    #[test]
    fn e8_ic_cell_is_na_without_lookups() {
        // E8's polymorphic row executes no virtual call, so there is no
        // hit rate to report.
        let m = measure_fusion("polymorphic(200)", &workloads::polymorphic(200), 1);
        assert_eq!(m.ic_lookups, 0);
        assert_eq!(m.ic_hit_rate_cell(), "n/a");
        let virtual_calls = "
            class A { def f() -> int { return 1; } }
            class B extends A { def f() -> int { return 2; } }
            def main() -> int {
                var a: A = B.new();
                var s = 0;
                for (i = 0; i < 10; i = i + 1) s = s + a.f();
                return s;
            }";
        let m = measure_fusion("virtual calls", virtual_calls, 1);
        assert!(m.ic_lookups > 0);
        assert!(m.ic_hit_rate_cell().ends_with('%'), "{}", m.ic_hit_rate_cell());
    }

    #[test]
    fn gc_trials_pool_times_over_every_trial() {
        let us = Duration::from_micros;
        let trial = |gen_p99, semi_time, gen_time| GcMeasurement {
            semi_p99: us(100),
            gen_p99: us(gen_p99),
            semi_time: us(semi_time),
            gen_time: us(gen_time),
            semi_collections: 9,
            gen_minors: 140,
            gen_majors: 0,
        };
        // The trial with the quietest pauses carries a stalled generational
        // minimum: on its own it reads 0.76, below E12's 0.85 bar.
        let pooled = pool_gc_trials([
            trial(40, 21_000, 21_500),
            trial(30, 21_200, 27_800),
            trial(45, 20_900, 22_000),
        ]);
        assert_eq!(pooled.gen_p99, us(30), "pauses come from the quietest trial");
        assert_eq!((pooled.semi_time, pooled.gen_time), (us(20_900), us(21_500)));
        assert!((pooled.throughput_ratio() - 20_900.0 / 21_500.0).abs() < 1e-12);
        // Equal pause ratios keep the first trial, as `min_by` does.
        let tied = pool_gc_trials([trial(30, 1, 1), trial(30, 2, 2)]);
        assert_eq!(tied.semi_time, us(1));
    }

    #[test]
    fn table_renders() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        let r = t.render();
        assert!(r.contains('1') && r.contains('b'));
    }
}
