//! CI bench-smoke for the `vgld` compile server: N clients × M
//! edit/recompile cycles against a live daemon, versus the same clients
//! doing cold one-shot compiles (a fresh `Compiler`, empty caches — what
//! `vglc build` does per invocation). Writes the curve to
//! `BENCH_serve.json` and **fails (exit 1) if warm served cycles are
//! slower than cold one-shot compiles at byte-equal results**, with
//! client-observed p50/p99/max latency recorded.
//!
//! The edit model ([`vgl_bench::workloads::serve_edit`]) changes one hot
//! function per cycle and stamps every source unique, so the daemon's
//! whole-artifact cache can never short-circuit a request — every warm
//! win comes from the per-function fingerprint store re-running
//! optimize/lower/fuse only for the two changed methods. With fusion
//! linear in function size, that back half is a minority of a cold
//! compile: the front end, mono, normalize and fingerprinting run on
//! every request either way, so the measured margin is modest and the
//! gate only asserts that serving never loses. The correctness half is
//! inline: every served `run` result is compared against the cold compile
//! of the exact same source, so the comparison is at equal output by
//! construction.
//!
//! Usage: `cargo run --release -p vgl-bench --bin bench_serve [out.json]`
//! Sample count honors `VGL_BENCH_SAMPLES` (default 5); sample 0 is the
//! untimed warmup that also seeds the daemon's function store, exactly
//! like the first build of an editing session.

use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use vgl::serve::{with_daemon, Client, Request, ServeConfig};
use vgl::{Compiler, Options};
use vgl_bench::harness::measure_min_of_n;
use vgl_bench::workloads;
use vgl_obs::json::Json;

/// Concurrent editing sessions.
const CLIENTS: usize = 4;
/// Edit/recompile cycles per client per sample.
const CYCLES: usize = 6;
/// Heavy straight-line worker functions per source, all unchanged across
/// edits — the half of the workload the function store skips (see
/// `serve_edit`).
const WORKERS: usize = 2;
/// Warm served throughput must be at least this multiple of cold one-shot:
/// a served edit is never slower than compiling it from scratch.
const GATE_SPEEDUP: f64 = 1.0;

/// Globally unique edit stamps: no source ever repeats, across clients,
/// cycles, *and* samples — the whole-artifact cache stays out of the data.
fn next_edit() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// p99-by-rank over client-observed request latencies.
fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).ceil() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One batch of CLIENTS × CYCLES cold one-shot compile+run, returning the
/// wall time and every result display (the ground truth the served run
/// must match).
fn cold_batch(options: &Options, jobs: &[Vec<(u64, String)>]) -> (Duration, Vec<Vec<String>>) {
    let start = Instant::now();
    let expected = std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|cycles| {
                s.spawn(move || {
                    cycles
                        .iter()
                        .map(|(_, src)| {
                            let c = Compiler::with_options(*options)
                                .compile(src)
                                .expect("workload compiles");
                            match c.execute().result {
                                Ok(v) => v,
                                Err(t) => panic!("workload trapped: {t}"),
                            }
                        })
                        .collect::<Vec<String>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("cold client")).collect()
    });
    (start.elapsed(), expected)
}

/// The same batch through the daemon: each client its own connection and
/// session, every response checked against the cold ground truth.
/// Returns the wall time and per-request latencies.
fn warm_batch(
    socket: &std::path::Path,
    jobs: &[Vec<(u64, String)>],
    expected: &[Vec<String>],
) -> (Duration, Vec<Duration>) {
    let start = Instant::now();
    let latencies = std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .iter()
            .zip(expected)
            .enumerate()
            .map(|(c, (cycles, truth))| {
                s.spawn(move || {
                    let mut client = Client::connect(socket).expect("client connects");
                    let mut lat = Vec::with_capacity(cycles.len());
                    for ((_, src), want) in cycles.iter().zip(truth) {
                        let t0 = Instant::now();
                        let resp = client
                            .request(&Request::Run {
                                session: format!("bench-{c}"),
                                source: src.clone(),
                            })
                            .expect("daemon responds");
                        lat.push(t0.elapsed());
                        assert_eq!(
                            resp.get("ok").and_then(Json::as_bool),
                            Some(true),
                            "served compile failed: {resp}"
                        );
                        let got = resp.get("result").and_then(Json::as_str).unwrap_or("<none>");
                        assert_eq!(got, want, "served result diverged from cold one-shot");
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("warm client"))
            .collect::<Vec<Duration>>()
    });
    (start.elapsed(), latencies)
}

fn main() -> ExitCode {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_serve.json".to_string());
    let samples = std::env::var("VGL_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or(5);

    // The daemon and the cold one-shots run the exact same configuration:
    // the fused back end, the one the paper's evaluation serves. Backend
    // jobs are pinned to 1 on both sides: the parallelism under test is
    // across concurrent requests (CLIENTS threads each way), and letting
    // every compile also fan out its own worker pool oversubscribes the
    // machine identically for cold and warm while adding only noise.
    let options = Options { fuse: true, jobs: 1, ..Options::default() };
    let config = ServeConfig { options, ..ServeConfig::default() };

    let mut latencies: Vec<Duration> = Vec::new();
    let mut requests = 0u64;
    let (cold, warm, daemon_stats) = with_daemon(config, |socket| {
        let [cold, warm] = measure_min_of_n(samples, |sample| {
            // Fresh sources every sample — see `next_edit`.
            let jobs: Vec<Vec<(u64, String)>> = (0..CLIENTS)
                .map(|_| {
                    (0..CYCLES)
                        .map(|_| {
                            let e = next_edit();
                            (e, workloads::serve_edit(WORKERS, e))
                        })
                        .collect()
                })
                .collect();
            let (cold, expected) = cold_batch(&options, &jobs);
            let (warm, lat) = warm_batch(socket, &jobs, &expected);
            if sample > 0 {
                requests += lat.len() as u64;
                latencies.extend(lat);
            }
            [cold, warm]
        });
        let mut client = Client::connect(socket).expect("stats client");
        let stats = client.request(&Request::Stats).expect("stats response");
        (cold, warm, stats)
    });

    latencies.sort();
    let speedup = cold.as_secs_f64() / warm.as_secs_f64().max(1e-9);
    let (p50, p99, max) = (
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.99),
        percentile(&latencies, 1.0),
    );
    let func_hits = daemon_stats
        .get("cache")
        .and_then(|c| c.get("funcs"))
        .and_then(|f| f.get("hits"))
        .and_then(Json::as_u64)
        .unwrap_or(0);

    println!(
        "{CLIENTS} clients x {CYCLES} cycles ({WORKERS} heavy workers + 6-class battery), min of {samples}:"
    );
    println!(
        "  cold one-shot {:>10.1} us   warm served {:>10.1} us   speedup {:.2}x (gate >= {:.1}x)",
        cold.as_secs_f64() * 1e6,
        warm.as_secs_f64() * 1e6,
        speedup,
        GATE_SPEEDUP
    );
    println!(
        "  latency over {requests} served requests: p50 {:.1} us, p99 {:.1} us, max {:.1} us; {} function-store hits",
        p50.as_secs_f64() * 1e6,
        p99.as_secs_f64() * 1e6,
        max.as_secs_f64() * 1e6,
        func_hits
    );

    let mut failures: Vec<String> = Vec::new();
    if speedup < GATE_SPEEDUP {
        failures.push(format!(
            "warm served throughput is {speedup:.2}x cold one-shot (gate: >= {GATE_SPEEDUP:.1}x)"
        ));
    }
    if func_hits == 0 {
        failures.push("daemon reported zero function-store hits — the warm path never engaged".into());
    }

    let mut root = Json::object();
    root.set("clients", Json::from(CLIENTS as u64));
    root.set("cycles", Json::from(CYCLES as u64));
    root.set("workers", Json::from(WORKERS as u64));
    root.set("samples", Json::from(samples));
    root.set("cold_us", Json::Num(cold.as_secs_f64() * 1e6));
    root.set("warm_us", Json::Num(warm.as_secs_f64() * 1e6));
    root.set("speedup", Json::Num(speedup));
    root.set("gate_speedup", Json::Num(GATE_SPEEDUP));
    root.set("requests", Json::from(requests));
    root.set("p50_us", Json::Num(p50.as_secs_f64() * 1e6));
    root.set("p99_us", Json::Num(p99.as_secs_f64() * 1e6));
    root.set("max_us", Json::Num(max.as_secs_f64() * 1e6));
    root.set("daemon", daemon_stats);
    root.set("pass", Json::Bool(failures.is_empty()));
    std::fs::write(&out_path, root.render()).expect("write BENCH_serve.json");
    println!("wrote {out_path}");

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("GATE FAILURE: {f}");
        }
        ExitCode::FAILURE
    }
}
