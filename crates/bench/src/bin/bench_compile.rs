//! CI bench-smoke for the parallel/cached back end: times the back half of
//! the pipeline (mono → normalize → optimize → lower → fuse) on the E9
//! instance-fan-out workloads, writes min-of-N times to
//! `BENCH_compile.json`, and gates two claims:
//!
//! 1. **Cache gate (every machine):** the configuration tuned for this
//!    host (jobs = min(8, cores), instance cache on) must be ≥ 1.3× faster
//!    than the seed baseline (jobs = 1, cache off) on the
//!    duplicate-instance workload. The cache win is core-count
//!    independent, so this gate never relaxes — but nobody runs jobs = 8
//!    on a single-core host, so the gated row is the one a user would
//!    actually pick there (`tuned_jobs` in the report says which).
//! 2. **Parallelism gate (machine-aware):** on the cache-hostile distinct
//!    workload, with the cache off so parallelism is the only lever, jobs=8
//!    must be ≥ 3× faster than jobs = 1 — but only when the machine can
//!    physically deliver that (≥ 8 available cores). On smaller machines
//!    the gate degrades to an overhead bound: jobs = 8 may cost at most
//!    1.5× the serial time, i.e. threads must stay cheap even when they
//!    cannot help. The mode in force is recorded in the report as
//!    `parallel_gate`.
//!
//! Honesty rules: the seed baseline is measured and recorded for **every**
//! workload — every row can answer "faster than what?" against the same
//! file. The host's `available_parallelism` is recorded so a reader can
//! judge the scaling rows. A jobs > 1 row that is more than 10% slower
//! than its jobs = 1 counterpart **on a host with at least that many
//! cores** is printed as a visible warning and recorded in the report's
//! `warnings` array rather than silently buried in the rows (the 10% band
//! absorbs residual scheduler noise that min-of-N cannot). Rows the host
//! cannot parallelize (jobs > cores) are recorded but not judged — thread
//! overhead there is expected, and pretending otherwise would train
//! readers to ignore the warnings that matter.
//!
//! Usage: `cargo run --release -p vgl-bench --bin bench_compile [out.json]`
//! Sample count honors `VGL_BENCH_SAMPLES` (default 10).

use std::process::ExitCode;
use vgl_bench::{measure_backend, workloads, BackendMeasurement};
use vgl_obs::json::Json;

const CACHE_GATE_SPEEDUP: f64 = 1.3;
const PARALLEL_GATE_SPEEDUP: f64 = 3.0;
const PARALLEL_GATE_CORES: usize = 8;
const OVERHEAD_TOLERANCE: f64 = 1.5;
const WARN_TOLERANCE: f64 = 1.10;

fn row_json(m: &BackendMeasurement) -> Json {
    let mut o = Json::object();
    o.set("workload", Json::Str(m.name.clone()));
    o.set("jobs", Json::from(m.jobs));
    o.set("cache", Json::Bool(m.cache));
    o.set("time_us", Json::Num(m.time.as_secs_f64() * 1e6));
    o.set("norm_hit_rate", Json::Num(m.norm_cache.hit_rate()));
    o.set("opt_hit_rate", Json::Num(m.opt_cache.hit_rate()));
    o
}

fn print_row(m: &BackendMeasurement, baseline: &BackendMeasurement) {
    println!(
        "{:<28} {:>4} {:>6} {:>12.1} {:>8.2}x {:>9.0}% {:>9.0}%",
        m.name,
        m.jobs,
        if m.cache { "on" } else { "off" },
        m.time.as_secs_f64() * 1e6,
        baseline.time.as_secs_f64() / m.time.as_secs_f64().max(1e-9),
        m.norm_cache.hit_rate() * 100.0,
        m.opt_cache.hit_rate() * 100.0,
    );
}

fn speedup_of(baseline: &BackendMeasurement, m: &BackendMeasurement) -> f64 {
    baseline.time.as_secs_f64() / m.time.as_secs_f64().max(1e-9)
}

fn main() -> ExitCode {
    let out_path =
        std::env::args().nth(1).unwrap_or_else(|| "BENCH_compile.json".to_string());
    let samples = std::env::var("VGL_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or(10);
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let full_parallel_gate = cores >= PARALLEL_GATE_CORES;
    // Tuned = the largest measured job count this host has cores for.
    let tuned_jobs = *[8usize, 4, 2, 1].iter().find(|&&j| cores >= j).unwrap_or(&1);
    let dup = workloads::instance_fanout_dup(96);
    let distinct = workloads::instance_fanout_distinct(96);

    println!("host: {cores} core(s) available; {samples} samples, min-of-N after warmup");
    println!(
        "{:<28} {:>4} {:>6} {:>12} {:>9} {:>10} {:>10}",
        "workload", "jobs", "cache", "best (us)", "speedup", "norm hit%", "opt hit%"
    );
    let mut rows = Vec::new();
    let mut warnings: Vec<String> = Vec::new();
    let mut cache_gate_speedup = None;
    let mut parallel_gate_speedup = None;

    for (name, src) in [("fanout_dup(96)", &dup), ("fanout_distinct(96)", &distinct)] {
        // The seed baseline is never skipped: jobs = 1, cache off, the
        // configuration the repo shipped with before the parallel back end.
        let seed = measure_backend(name, src, 1, false, samples);
        print_row(&seed, &seed);
        rows.push(row_json(&seed));

        // Scaling curve, cache on, speedups reported against the seed.
        let serial_cached = measure_backend(name, src, 1, true, samples);
        print_row(&serial_cached, &seed);
        if name == "fanout_dup(96)" && tuned_jobs == 1 {
            cache_gate_speedup = Some(speedup_of(&seed, &serial_cached));
        }
        rows.push(row_json(&serial_cached));
        for jobs in [2, 4, 8] {
            let m = measure_backend(name, src, jobs, true, samples);
            print_row(&m, &seed);
            let overhead = m.time.as_secs_f64() / serial_cached.time.as_secs_f64().max(1e-9);
            if cores >= jobs && overhead > WARN_TOLERANCE {
                warnings.push(format!(
                    "{name}: jobs={jobs} (cache on) is {overhead:.2}x slower than jobs=1 \
                     (cache on) on a {cores}-core host — the threads add overhead"
                ));
            }
            if name == "fanout_dup(96)" && jobs == tuned_jobs {
                // The cache gate compares the host-tuned configuration
                // against the seed baseline of the same workload.
                cache_gate_speedup = Some(speedup_of(&seed, &m));
            }
            rows.push(row_json(&m));
        }

        // The pure-parallelism row: cache off, so nothing dedups and the
        // chunked scheduler is the only thing between jobs=1 and jobs=8.
        let par = measure_backend(name, src, 8, false, samples);
        print_row(&par, &seed);
        let overhead = par.time.as_secs_f64() / seed.time.as_secs_f64().max(1e-9);
        if cores >= 8 && overhead > WARN_TOLERANCE {
            warnings.push(format!(
                "{name}: jobs=8 (cache off) is {overhead:.2}x slower than jobs=1 \
                 (cache off) on a {cores}-core host — the threads add overhead"
            ));
        }
        if name == "fanout_distinct(96)" {
            parallel_gate_speedup = Some(speedup_of(&seed, &par));
        }
        rows.push(row_json(&par));
    }
    let cache_speedup = cache_gate_speedup.expect("dup workload measured at jobs=8");
    let parallel_speedup = parallel_gate_speedup.expect("distinct workload measured uncached");

    for w in &warnings {
        eprintln!("bench_compile: warning: {w}");
    }

    let mut root = Json::object();
    root.set("samples", Json::from(samples));
    root.set("parallelism", Json::from(cores));
    root.set("tuned_jobs", Json::from(tuned_jobs));
    root.set("cache_gate_speedup", Json::Num(CACHE_GATE_SPEEDUP));
    root.set("measured_cache_speedup", Json::Num(cache_speedup));
    root.set(
        "parallel_gate",
        Json::Str(
            if full_parallel_gate { "full-speedup" } else { "overhead-tolerance" }.to_string(),
        ),
    );
    root.set(
        "parallel_gate_speedup",
        Json::Num(if full_parallel_gate { PARALLEL_GATE_SPEEDUP } else { 1.0 / OVERHEAD_TOLERANCE }),
    );
    root.set("measured_parallel_speedup", Json::Num(parallel_speedup));
    root.set("warnings", Json::Arr(warnings.iter().map(|w| Json::Str(w.clone())).collect()));
    root.set("rows", Json::Arr(rows));
    if let Err(e) = std::fs::write(&out_path, format!("{root}\n")) {
        eprintln!("bench_compile: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");

    let mut failed = false;
    if cache_speedup < CACHE_GATE_SPEEDUP {
        eprintln!(
            "bench_compile: REGRESSION — jobs={tuned_jobs} + cache is only \
             {cache_speedup:.2}x over the jobs=1 uncached baseline (gate: \
             {CACHE_GATE_SPEEDUP}x)"
        );
        failed = true;
    }
    if full_parallel_gate {
        if parallel_speedup < PARALLEL_GATE_SPEEDUP {
            eprintln!(
                "bench_compile: REGRESSION — jobs=8 (cache off) is only \
                 {parallel_speedup:.2}x over jobs=1 on fanout_distinct with {cores} cores \
                 (gate: {PARALLEL_GATE_SPEEDUP}x)"
            );
            failed = true;
        }
    } else if parallel_speedup < 1.0 / OVERHEAD_TOLERANCE {
        eprintln!(
            "bench_compile: REGRESSION — jobs=8 (cache off) costs \
             {:.2}x the serial time on fanout_distinct; thread overhead exceeds the \
             {OVERHEAD_TOLERANCE}x tolerance for a {cores}-core host",
            1.0 / parallel_speedup.max(1e-9)
        );
        failed = true;
    }
    if failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
