//! perfbench: one seeded benchmark for virgil-rs, end to end and per layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_build|edit_serve|run_tiered> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` it measures the shipped
//! entry points untraced and prints the end-to-end metrics; with
//! `--trace 1` it measures again untraced, then runs each layer's public
//! function itself under spans and prints the per-layer metrics. The last
//! line of standard output is one JSON object; the line before it
//! describes the host and the inputs. See `perfbench/README.md`.

mod calib;
mod corpus;
mod layers;
mod run;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use vgl::Options;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdBuild,
    EditServe,
    RunTiered,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "cold_build" => Some(Workload::ColdBuild),
            "edit_serve" => Some(Workload::EditServe),
            "run_tiered" => Some(Workload::RunTiered),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ColdBuild => "cold_build",
            Workload::EditServe => "edit_serve",
            Workload::RunTiered => "run_tiered",
        }
    }

    /// Compiler options of the local workloads: release defaults, as
    /// `vglc run --no-tier` (fuse on, tier off) and `vglc run` (tier on).
    fn options(self) -> Options {
        Options {
            tier: self == Workload::RunTiered,
            ..Options::default()
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <cold_build|edit_serve|run_tiered> \
                     --seed N --seconds S --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload must be cold_build, edit_serve or run_tiered")?,
        seed: seed.ok_or("--seed must be a whole number")?,
        seconds: seconds.ok_or("--seconds must be a positive number")?,
        trace: trace.ok_or("--trace must be 0 or 1")?,
    })
}

fn main() -> ExitCode {
    run::pin_allocator();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// An untraced run sets up at least `SETUPS.0` and at most `SETUPS.1`
/// times, stopping once set-up has taken [`SETUP_BUDGET_S`] in all;
/// `setup_s` is the median. A quick set-up is repeated more, as its time
/// spreads more.
const SETUPS: (usize, usize) = (3, 9);
const SETUP_BUDGET_S: f64 = 3.0;

/// Calibration samples taken before and after each set-up.
const SETUP_SAMPLES: usize = 5;

/// One metric of the result line.
struct Metric {
    value: f64,
    unit: &'static str,
}

fn bench(a: &Args) -> Result<(), String> {
    // The inputs are a function of the seed alone: another seed must give
    // other sources, and every set-up below must give the same ones.
    let other = corpus::sources(a.workload, a.seed.wrapping_add(1), a.seconds)?;
    let other_digest = corpus::digest(&other);
    drop(other);

    let (min_setups, max_setups) = if a.trace { (1, 1) } else { SETUPS };
    let (mut setup_times, mut setup_scaled) = (Vec::new(), Vec::new());
    let mut digest = None;
    let mut kept = None;
    while setup_times.len() < max_setups
        && (setup_times.len() < min_setups || setup_times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // Tear the previous set-up down first, so no two overlap.
        if let Some((_, Some(served))) = kept.take() {
            run::Served::stop(served);
        }
        let before_ms = calib::median_ms(SETUP_SAMPLES);
        let t = Instant::now();
        let corpus = corpus::build(a.workload, a.seed, a.seconds)?;
        let served = match a.workload {
            Workload::EditServe => Some(run::start_daemon(&corpus)?),
            _ => None,
        };
        let took = t.elapsed().as_secs_f64();
        let host_ms = (before_ms + calib::median_ms(SETUP_SAMPLES)) / 2.0;
        setup_times.push(took);
        setup_scaled.push(took * calib::NOMINAL_MS / host_ms);
        if *digest.get_or_insert(corpus.digest) != corpus.digest {
            return Err("the same seed gave different sources".into());
        }
        kept = Some((corpus, served));
    }
    let (corpus, served) = kept.expect("at least one set-up");
    if corpus.digest == other_digest {
        return Err("seeds differing by one gave the same sources".into());
    }

    // Each thread's operations, in order: one per client for `edit_serve`,
    // one thread for the local workloads.
    let (threads, primed, served) = match served {
        Some(mut s) => {
            let live = run::serve(&corpus, &mut s, a.seconds);
            let primed = s.primed.clone();
            s.stop();
            (live, primed, true)
        }
        None => {
            let ops = run::local(&corpus, a.workload.options(), a.seconds);
            (vec![ops], Vec::new(), false)
        }
    };
    let ops: Vec<run::Op> = threads.iter().flatten().cloned().collect();
    let mut attempted = ops.len();
    let mut failed = ops.iter().filter(|o| !o.ok).count();

    // Bytecode size per program as the shipped entry point produced it.
    let mut shipped = vec![None; corpus.programs.len()];
    for o in primed.iter().chain(&ops) {
        shipped[o.program].get_or_insert(o.code_size);
    }
    let code_instrs: usize = corpus.base.iter().map(|&p| shipped[p].unwrap_or(0)).sum();

    let mut metrics: BTreeMap<&'static str, Metric> = BTreeMap::new();
    if a.trace {
        let mut traced = if served {
            layers::serve(&corpus, &primed, &threads, a.seconds)
        } else {
            let shipped: Vec<usize> = shipped.iter().map(|s| s.unwrap_or(0)).collect();
            layers::local(&corpus, a.workload.options(), a.seconds, &shipped, &ops)
        };
        attempted += traced.ops;
        failed += traced.failed;
        let units: BTreeMap<&str, &'static str> = layers::PER_LAYER.iter().copied().collect();
        traced.metrics.insert("rss.peak_mb", run::peak_rss_mb());
        for (name, value) in traced.metrics {
            metrics.insert(
                name,
                Metric {
                    value,
                    unit: units[name],
                },
            );
        }
    } else {
        // Times scaled to the reference host's speed, thread by thread, as
        // each thread's kernel samples follow its own operations.
        let (mut lat, mut comp, mut rest) = (Vec::new(), Vec::new(), Vec::new());
        let mut throughput = 0.0;
        for t in &threads {
            let samples: Vec<Duration> = t.iter().map(|o| o.calib).collect();
            let mut busy_s = 0.0;
            for (o, f) in t.iter().zip(calib::scales(&samples)) {
                lat.push(ms(o.latency) * f);
                comp.push(ms(o.compile) * f);
                rest.push(ms(o.run) * f);
                busy_s += o.latency.as_secs_f64() * f;
            }
            // A closed-loop client completes one operation per latency.
            throughput += t.len() as f64 / busy_s;
        }
        let n = ops.len() as f64;
        let mut put = |name, value, unit| {
            metrics.insert(name, Metric { value, unit });
        };
        put("setup_s", median(setup_scaled), "s");
        put("throughput_ops_s", throughput, "ops/s");
        put("latency_ms_p50", quantile(lat.clone(), 0.5), "ms");
        put("latency_ms_p90", quantile(lat, 0.9), "ms");
        put("compile_ms_p50", quantile(comp, 0.5), "ms");
        put("run_ms_p50", quantile(rest, 0.5), "ms");
        put("code_instrs", code_instrs as f64, "instrs");
        put(
            "heap_mb_p50",
            median(ops.iter().map(|o| o.heap_mb).collect()),
            "MB",
        );
        put("ok_frac", (n - failed as f64) / n, "ratio");
    }

    let calib_ms = median(ops.iter().map(|o| ms(o.calib)).collect());
    print_host(a, &corpus, &setup_times, calib_ms);
    print_result(failed == 0, attempted, failed, &metrics);
    Ok(())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank quantile.
fn quantile(mut xs: Vec<f64>, q: f64) -> f64 {
    xs.sort_by(f64::total_cmp);
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

fn median(xs: Vec<f64>) -> f64 {
    quantile(xs, 0.5)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

/// The host descriptor, printed beside every result.
/// `setup_times` are unscaled; `calib_ms` is the median kernel time of the
/// loop, against [`calib::NOMINAL_MS`].
fn print_host(a: &Args, corpus: &corpus::Corpus, setup_times: &[f64], calib_ms: f64) {
    let revision = git_revision().map_or("null".into(), |r| json_str(&r));
    let setups: Vec<String> = setup_times.iter().map(|&t| json_num(t)).collect();
    println!(
        "{{\"host\": {{\"nproc\": {}, \"jobs\": {}, \"profile\": {}, \"revision\": {}, \
         \"source_digest\": \"{:016x}\", \"seed\": {}, \"workload\": \"{}\", \"seconds\": {}, \
         \"trace\": {}, \"corpus_digest\": \"{:016x}\", \"programs\": {}, \"setup_s_unscaled\": [{}], \
         \"calib_ms\": {}, \"calib_nominal_ms\": {}}}}}",
        nproc(),
        vgl_passes::sched::resolve_jobs(0),
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        revision,
        source_digest(),
        a.seed,
        a.workload.name(),
        json_num(a.seconds),
        u8::from(a.trace),
        corpus.digest,
        corpus.programs.len(),
        setups.join(", "),
        json_num(calib_ms),
        json_num(calib::NOMINAL_MS),
    );
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &BTreeMap<&str, Metric>) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// The commit checked out, when the working directory is a git checkout.
fn git_revision() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(r)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(r).map(|id| id.trim().to_string()))
}

/// FNV-1a over the program's sources (`crates/`, `Cargo.toml`), which
/// names the code measured when there is no git checkout.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = vec![Path::new("Cargo.toml").to_path_buf()];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}
