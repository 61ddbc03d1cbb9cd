//! Regenerates every table of the paper's evaluation (see DESIGN.md's
//! per-experiment index) and runs the paper-claim gates of E8–E13.
//!
//! Usage: `paper_tables [--json] [ID]...`, IDs from `t1` and `e1`–`e13`.
//! With no ID it runs every experiment; experiments always run in table
//! order. Text mode prints the tables recorded in EXPERIMENTS.md, then the
//! gate verdicts. `--json` prints exactly one line, a row of
//! `BENCH_ledger.jsonl`: the selected tables (one array of row objects per
//! ID), `samples` per timed experiment, `gates`, E9's `warnings`, `host`
//! and `rev`.
//!
//! Each experiment's sample count defaults to its entry in [`EXPERIMENTS`];
//! `VGL_BENCH_SAMPLES` overrides all of them. Exit status: 0 when every
//! selected gate passes, 1 when one fails, 2 on a usage error.

use std::process::ExitCode;
use std::time::Duration;

use vgl_bench::gate::{self, Gate};
use vgl_bench::harness::measure_min_of_n;
use vgl_bench::{
    compile, compile_with, measure_backend, measure_both, measure_compile, measure_fusion,
    measure_gc, measure_obs, measure_serve, measure_tiered, measure_vm, us, workloads, Table,
};
use vgl_obs::json::Json;

const USAGE: &str = "usage: paper_tables [--json] [t1|e1|e2|...|e13]...";

type Experiment = fn(&mut Run, usize);

/// Every experiment in run order: its ID, its default sample count (0 for
/// the untimed T1) and the function that runs it at a sample count.
const EXPERIMENTS: [(&str, usize, Experiment); 14] = [
    ("t1", 0, t1),
    ("e1", 5, e1),
    ("e2", 5, e2),
    ("e3", 5, e3),
    ("e4", 5, e4),
    ("e5", 5, e5),
    ("e6", 5, e6),
    ("e7", 3, e7),
    ("e8", 10, e8),
    ("e9", 10, e9),
    // E10 sums its samples instead of taking their minimum; see `measure_obs`.
    ("e10", 30, e10),
    ("e11", 10, e11),
    ("e12", 10, e12),
    ("e13", 5, e13),
];

/// E10 and E12 keep the quietest of this many trials. Their gates are
/// one-sided, so this filters scheduler noise without hiding a real
/// regression, which shows in every trial.
const TRIALS: usize = 3;

/// What one invocation accumulates.
struct Run {
    /// The tables by experiment ID with `--json`; `None` prints them.
    json: Option<Json>,
    gates: Vec<Gate>,
    /// E9's parallel rows that are slower than serial on a host with the
    /// cores to run them.
    warnings: Vec<String>,
}

impl Run {
    fn section(&mut self, key: &str, title: &str, table: &Table, note: &str) {
        match &mut self.json {
            Some(root) => root.set(key, table.to_json()),
            None => {
                println!("{title}");
                println!("{}", table.render());
                if !note.is_empty() {
                    println!("{note}\n");
                }
            }
        }
    }
}

fn main() -> ExitCode {
    let mut json = false;
    let mut selected = Vec::new();
    for arg in std::env::args().skip(1) {
        match EXPERIMENTS.iter().position(|(id, ..)| *id == arg) {
            Some(i) => selected.push(i),
            None if arg == "--json" => json = true,
            None => return usage(&format!("unknown experiment `{arg}`")),
        }
    }
    let samples_override = match std::env::var("VGL_BENCH_SAMPLES") {
        Err(_) => None,
        Ok(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => Some(n),
            _ => {
                return usage(&format!(
                    "VGL_BENCH_SAMPLES must be a positive count, not `{v}`"
                ))
            }
        },
    };
    if selected.is_empty() {
        selected = (0..EXPERIMENTS.len()).collect();
    }
    selected.sort_unstable();
    selected.dedup();

    let mut run = Run {
        json: json.then(Json::object),
        gates: Vec::new(),
        warnings: Vec::new(),
    };
    let mut samples = Json::object();
    for i in selected {
        let (id, default, experiment) = EXPERIMENTS[i];
        let n = samples_override.filter(|_| default > 0).unwrap_or(default);
        if n > 0 {
            samples.set(id, Json::from(n));
        }
        experiment(&mut run, n);
    }

    for w in &run.warnings {
        eprintln!("paper_tables: warning: {w}");
    }
    for g in run.gates.iter().filter(|g| !g.pass()) {
        eprintln!(
            "paper_tables: GATE FAILED — {} {}: {} is {:.3} against a threshold of {:.3}",
            g.experiment, g.workload, g.metric, g.measured, g.threshold
        );
    }
    match run.json.take() {
        Some(mut root) => {
            root.set("samples", samples);
            root.set(
                "gates",
                Json::Arr(run.gates.iter().map(Gate::to_json).collect()),
            );
            root.set(
                "warnings",
                Json::Arr(run.warnings.iter().map(|w| w.as_str().into()).collect()),
            );
            root.set("host", host());
            root.set("rev", Json::Str(rev()));
            println!("{root}");
        }
        None => {
            for g in &run.gates {
                let verdict = if g.pass() { "pass" } else { "FAIL" };
                println!(
                    "gate {} {}: {} {:.3} against {:.3}: {verdict}",
                    g.experiment, g.workload, g.metric, g.measured, g.threshold
                );
            }
        }
    }
    if run.gates.iter().all(Gate::pass) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("paper_tables: {problem}\n{USAGE}");
    ExitCode::from(2)
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn host() -> Json {
    let mut h = Json::object();
    h.set("cores", Json::from(cores()));
    h.set("os", Json::from(std::env::consts::OS));
    h.set("arch", Json::from(std::env::consts::ARCH));
    h
}

/// `git describe --always --dirty`, or `unknown` where git cannot say.
fn rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// T1 — the §2.5 type-constructor summary table, printed from the live
/// type-system data (variance verified by the vgl-types test suite).
fn t1(run: &mut Run, _samples: usize) {
    let mut t = Table::new(&["Typecon", "Type Parameters", "Syntax"]);
    for row in vgl::constructor_summary() {
        let params = if row.params.is_empty() {
            "—".to_string()
        } else {
            row.params
                .iter()
                .map(|v| match v {
                    vgl::Variance::Invariant => "T (invariant)",
                    vgl::Variance::Covariant => "▷T (covariant)",
                    vgl::Variance::Contravariant => "◁T (contravariant)",
                })
                .collect::<Vec<_>>()
                .join(" · ")
        };
        t.row(&[row.constructor.to_string(), params, row.syntax.to_string()]);
    }
    run.section(
        "t1",
        "== T1: type constructor summary (paper §2.5 table) ==",
        &t,
        "",
    );
}

/// E1 — normalization removes all tuple boxing (§4.2).
fn e1(run: &mut Run, samples: usize) {
    let mut t = Table::new(&[
        "n (iterations)",
        "interp tuple boxes",
        &format!("interp time (us, min of {samples})"),
        "vm tuple boxes",
        "vm explicit allocs",
        &format!("vm time (us, min of {samples})"),
    ]);
    for n in [1_000usize, 10_000, 100_000] {
        let c = compile(&workloads::tuple_heavy(n));
        let (i, v) = measure_both(&c, samples);
        let is = i.interp.expect("interp stats");
        let vs = v.vm.expect("vm stats");
        t.row(&[
            n.to_string(),
            is.allocs.tuples.to_string(),
            us(i.time),
            vs.heap.tuple_boxes.to_string(),
            (vs.heap.objects + vs.heap.arrays).to_string(),
            us(v.time),
        ]);
    }
    run.section(
        "e1",
        "== E1: tuple boxing — interpreter vs compiled VM (§4.2) ==",
        &t,
        "shape check: interpreter boxes grow linearly with n; VM boxes are always 0.",
    );
}

/// E2 — monomorphized execution vs type-argument-passing interpretation
/// (§4.3: the interpreter strategy "exacts a considerable runtime cost").
fn e2(run: &mut Run, samples: usize) {
    let mut t = Table::new(&[
        "rounds",
        &format!("interp time (us, min of {samples})"),
        "interp type substs",
        &format!("vm time (us, min of {samples})"),
        "speedup",
    ]);
    for n in [10usize, 50, 200] {
        let c = compile(&workloads::polymorphic(n));
        let (i, v) = measure_both(&c, samples);
        let is = i.interp.expect("interp stats");
        let speed = i.time.as_secs_f64() / v.time.as_secs_f64();
        t.row(&[
            n.to_string(),
            us(i.time),
            is.type_substitutions.to_string(),
            us(v.time),
            format!("{speed:.1}x"),
        ]);
    }
    run.section(
        "e2",
        "== E2: monomorphization vs type-argument passing (§4.3) ==",
        &t,
        "shape check: compiled wins on polymorphic code; no type info is passed at runtime.",
    );
}

/// E3 — §3.3: the type-query dispatch chain folds away after specialization.
fn e3(run: &mut Run, samples: usize) {
    let src = workloads::dispatch_chain(20_000);
    let with_opt = compile(&src);
    let without = compile_with(&vgl::Compiler::new().without_optimizer(), &src);
    let mut instrs = [0; 2];
    let [t_opt, t_raw] = measure_min_of_n(samples, |_| {
        let (a, b) = (measure_vm(&with_opt), measure_vm(&without));
        instrs = [
            a.vm.expect("vm stats").instrs,
            b.vm.expect("vm stats").instrs,
        ];
        [a.time, b.time]
    });
    let mut t = Table::new(&[
        "configuration",
        "queries folded",
        "branches folded",
        "bytecode size",
        "vm instrs",
        &format!("vm time (us, min of {samples})"),
    ]);
    for (label, c, instrs, time) in [
        ("specialize + fold (paper)", &with_opt, instrs[0], t_opt),
        ("specialize only (ablation)", &without, instrs[1], t_raw),
    ] {
        t.row(&[
            label.into(),
            c.stats.opt.queries_folded.to_string(),
            c.stats.opt.branches_folded.to_string(),
            c.code_size().to_string(),
            instrs.to_string(),
            us(time),
        ]);
    }
    run.section(
        "e3",
        "== E3: dispatch-chain folding (§3.3 print1 claim) ==",
        &t,
        "shape check: with folding, dispatch is \"just as efficient as if the caller had \
         called the appropriate print* method directly\".",
    );
}

/// E4 — code expansion from monomorphization (§4.3 tradeoffs, §6.1), and
/// what it costs in compile time.
fn e4(run: &mut Run, samples: usize) {
    let mut t = Table::new(&[
        "instantiations k",
        "IR nodes before",
        "IR nodes after mono",
        "expansion",
        "method instances",
        "bytecode size",
        &format!("compile time (us, min of {samples})"),
    ]);
    for k in [1usize, 2, 4, 8, 16] {
        let (c, time) = measure_compile(&workloads::instantiations(k), samples);
        t.row(&[
            k.to_string(),
            c.stats.size_before.expr_nodes.to_string(),
            c.stats.size_after_mono.expr_nodes.to_string(),
            format!("{:.2}x", c.expansion_ratio()),
            c.stats.mono.method_instances.to_string(),
            c.code_size().to_string(),
            us(time),
        ]);
    }
    run.section(
        "e4",
        "== E4: code expansion vs distinct instantiations (§4.3/§6.1) ==",
        &t,
        "shape check: expansion grows linearly in distinct instantiations (no sharing).",
    );
}

/// E5 — tuple width sweep (§4.2 tradeoffs: "large tuples might actually
/// perform better if allocated on the heap").
fn e5(run: &mut Run, samples: usize) {
    let mut t = Table::new(&[
        "width w",
        &format!("interp (boxed) time (us, min of {samples})"),
        &format!("vm (flattened) time (us, min of {samples})"),
        "flattened/boxed",
    ]);
    for w in [1usize, 2, 4, 8, 16, 32] {
        let c = compile(&workloads::tuple_width(w, 20_000));
        let (i, v) = measure_both(&c, samples);
        let ratio = v.time.as_secs_f64() / i.time.as_secs_f64();
        t.row(&[w.to_string(), us(i.time), us(v.time), format!("{ratio:.2}")]);
    }
    run.section(
        "e5",
        "== E5: tuple width — flattened scalars vs boxed records (§4.2 tradeoffs) ==",
        &t,
        "shape check: flattening wins strongly at small widths; the per-element cost \
         grows with w (the paper's predicted crossover pressure for large tuples).",
    );
}

/// E6 — §4.1: dynamic calling-convention checks at first-class call sites.
fn e6(run: &mut Run, samples: usize) {
    let mut t = Table::new(&[
        "calls n",
        "interp checks",
        "interp adaptations",
        "interp tuple boxes",
        &format!("interp time (us, min of {samples})"),
        "vm checks",
        "vm closure calls",
        &format!("vm time (us, min of {samples})"),
    ]);
    for n in [1_000usize, 10_000] {
        let c = compile(&workloads::callsite_checks(n));
        let (i, v) = measure_both(&c, samples);
        let is = i.interp.expect("interp stats");
        let vs = v.vm.expect("vm stats");
        t.row(&[
            n.to_string(),
            is.callsite_checks.to_string(),
            is.callsite_adaptations.to_string(),
            is.allocs.tuples.to_string(),
            us(i.time),
            "0 (structurally absent)".into(),
            vs.closure_calls.to_string(),
            us(v.time),
        ]);
    }
    run.section(
        "e6",
        "== E6: first-class call-site checks (§4.1) ==",
        &t,
        "shape check: the interpreter checks every first-class call and adapts \
         (boxes/unboxes) when conventions mismatch; after normalization \"all method \
         calls pass scalar arguments\" and the check does not exist.",
    );
}

/// E7 — compile throughput (§5: "the Virgil compiler ... compiles very
/// fast"). Measures the whole pipeline: parse → typecheck → monomorphize →
/// normalize → optimize → lower to bytecode.
fn e7(run: &mut Run, samples: usize) {
    let mut t = Table::new(&[
        "classes k",
        "source lines",
        &format!("compile time (ms, min of {samples})"),
        "lines/sec",
        "bytecode instrs",
    ]);
    for k in [10usize, 50, 200] {
        let src = workloads::big_program(k);
        let lines = src.lines().count();
        let (c, time) = measure_compile(&src, samples);
        t.row(&[
            k.to_string(),
            lines.to_string(),
            format!("{:.1}", time.as_secs_f64() * 1e3),
            format!("{:.0}", lines as f64 / time.as_secs_f64()),
            c.code_size().to_string(),
        ]);
    }
    run.section(
        "e7",
        "== E7: compile throughput (§5 'compiles very fast') ==",
        &t,
        "shape check: compile time scales roughly linearly with program size.",
    );
}

/// E8 — the bytecode back-end optimizer (superinstruction fusion + inline
/// caches): fused vs unfused VM time on the E2/E3 runtime workloads, with
/// the fused run's IC hit rate and superinstruction attribution.
fn e8(run: &mut Run, samples: usize) {
    let mut t = Table::new(&[
        "workload",
        "instrs (unfused -> fused)",
        &format!("vm unfused (us, min of {samples})"),
        &format!("vm fused (us, min of {samples})"),
        "speedup",
        "ic hit rate",
        "super share",
    ]);
    for (name, src) in [
        ("E2 polymorphic(200)", workloads::polymorphic(200)),
        (
            "E3 dispatch_chain(20000)",
            workloads::dispatch_chain(20_000),
        ),
    ] {
        let m = measure_fusion(name, &src, samples);
        t.row(&[
            name.into(),
            format!("{} -> {}", m.instrs_before, m.instrs_after),
            us(m.unfused),
            us(m.fused),
            format!("{:.2}x", m.speedup()),
            format!("{:.1}%", m.ic_hit_rate * 100.0),
            format!("{:.1}%", m.super_share * 100.0),
        ]);
        run.gates.push(gate::e8(name, m.speedup()));
    }
    run.section(
        "e8",
        "== E8: bytecode back-end optimizer — fusion + inline caches ==",
        &t,
        "shape check: fused beats unfused on both runtime workloads; the \
         superinstruction share explains where the cycles went. Gate: fused is at \
         most 10% slower.",
    );
}

/// E9 — the cost-chunked parallel back end and its per-instance cache:
/// back-half (mono → fuse) times on the instance fan-outs, each row against
/// the seed baseline (jobs 1, cache off) of its workload.
fn e9(run: &mut Run, samples: usize) {
    /// A jobs > 1 row more than this much slower than jobs 1 at the same
    /// cache setting, on a host with the cores for it, is a warning; the
    /// band absorbs scheduler noise that min-of-N cannot.
    const WARN_TOLERANCE: f64 = 1.10;
    let cores = cores();
    let tuned = gate::tuned_jobs(cores);
    let mut t = Table::new(&[
        "workload",
        "jobs",
        "cache",
        &format!("time (us, min of {samples})"),
        "speedup",
        "norm hit%",
        "opt hit%",
    ]);
    for (name, src) in [
        ("fanout_dup(96)", workloads::instance_fanout_dup(96)),
        (
            "fanout_distinct(96)",
            workloads::instance_fanout_distinct(96),
        ),
    ] {
        // The jobs-1 time per cache setting, off then on; the seed (cache
        // off) is measured first.
        let mut serial: [Option<Duration>; 2] = [None, None];
        // Jobs 8 with the cache off is the pure-parallelism row: nothing
        // dedups, so the chunked scheduler is the only lever.
        for (jobs, cache) in [
            (1, false),
            (1, true),
            (2, true),
            (4, true),
            (8, true),
            (8, false),
        ] {
            let m = measure_backend(name, &src, jobs, cache, samples);
            let base = *serial[cache as usize].get_or_insert(m.time);
            let seed = serial[0].expect("the seed row runs first");
            let speedup = seed.as_secs_f64() / m.time.as_secs_f64().max(1e-9);
            let overhead = m.time.as_secs_f64() / base.as_secs_f64().max(1e-9);
            let on = if cache { "on" } else { "off" };
            if jobs > 1 && cores >= jobs && overhead > WARN_TOLERANCE {
                run.warnings.push(format!(
                    "{name}: jobs={jobs} (cache {on}) is {overhead:.2}x slower than jobs=1 \
                     (cache {on}) on a {cores}-core host — the threads add overhead"
                ));
            }
            if name == "fanout_dup(96)" && cache && jobs == tuned {
                run.gates.push(gate::e9_cache(name, speedup));
            }
            if name == "fanout_distinct(96)" && !cache && jobs == 8 {
                run.gates.push(gate::e9_parallel(name, cores, speedup));
            }
            t.row(&[
                name.into(),
                jobs.to_string(),
                on.into(),
                us(m.time),
                format!("{speedup:.2}x"),
                format!("{:.0}%", m.norm_cache.hit_rate() * 100.0),
                format!("{:.0}%", m.opt_cache.hit_rate() * 100.0),
            ]);
        }
    }
    run.section(
        "e9",
        "== E9: cost-chunked parallel back end with a per-instance cache ==",
        &t,
        &format!(
            "host: {cores} core(s). Gates: the cache at jobs {tuned} is at least 1.3x the \
             seed on fanout_dup; jobs 8 without it is at least 3x the seed on \
             fanout_distinct with 8 or more cores, else at least 1/1.5x."
        ),
    );
}

/// E10 — runtime profiling overhead: the VM with the hotness profiler off,
/// in its default sampling mode, and in precise mode.
fn e10(run: &mut Run, samples: usize) {
    let mut t = Table::new(&[
        "workload",
        &format!("plain (us, sum of {samples})"),
        &format!("profiled (us, sum of {samples})"),
        "overhead",
        "precise overhead",
        "hottest",
    ]);
    for (name, src) in [
        ("polymorphic(200)", workloads::polymorphic(200)),
        ("dispatch_chain(20000)", workloads::dispatch_chain(20_000)),
    ] {
        let m = (0..TRIALS)
            .map(|_| measure_obs(name, &src, samples))
            .min_by(|a, b| a.overhead().total_cmp(&b.overhead()))
            .expect("at least one trial");
        t.row(&[
            name.into(),
            us(m.plain),
            us(m.profiled),
            format!("{:.2}%", m.overhead() * 100.0),
            format!("{:.2}%", m.overhead_precise() * 100.0),
            format!("{} ({} ticks)", m.hottest, m.hottest_ticks),
        ]);
        run.gates.push(gate::e10(name, m.overhead()));
    }
    run.section(
        "e10",
        "== E10: runtime profiling overhead ==",
        &t,
        "best of 3 trials. Gate: the sampling profiler costs at most 5%; precise mode \
         is an offline-analysis configuration and is not gated.",
    );
}

/// E11 — tiered profile-guided execution against static whole-program
/// fusion, over a growing monomorphic phase.
fn e11(run: &mut Run, samples: usize) {
    let mut t = Table::new(&[
        "mono iters",
        &format!("fused (us, min of {samples})"),
        &format!("tiered (us, min of {samples})"),
        "speedup",
        "tier-ups",
        "deopts",
        "guarded",
        "inlined",
    ]);
    // The gated point runs first, directly after E8 when both are selected.
    for n in [20_000usize, 50, 200, 1_000, 5_000, 60_000] {
        let name = format!("poly_then_mono({n})");
        let m = measure_tiered(&name, &workloads::polymorphic_then_monomorphic(n), samples);
        if n == 20_000 {
            run.gates.push(gate::e11(&name, m.speedup()));
        }
        t.row(&[
            n.to_string(),
            us(m.fused),
            us(m.tiered),
            format!("{:.2}x", m.speedup()),
            m.tier_ups.to_string(),
            m.deopts.to_string(),
            m.guarded_calls.to_string(),
            m.inlined_calls.to_string(),
        ]);
    }
    run.section(
        "e11",
        "== E11: tiered profile-guided execution vs static fusion ==",
        &t,
        "Gate: on the first row, 20000 mono iterations, the tiered VM is at least 1.5x \
         static fusion; the other rows trace the warmup knee.",
    );
}

/// E12 — the generational collector against pure semispace at equal heap
/// capacity, on the server workload family.
fn e12(run: &mut Run, samples: usize) {
    let mut t = Table::new(&[
        "workload",
        "semi p99 (us)",
        "gen p99 (us)",
        "pause ratio",
        &format!("semi (us, min of {samples})"),
        &format!("gen (us, min of {samples})"),
        "throughput",
        "collections",
    ]);
    for (name, src, steady) in [
        (
            "server_churn(30000)",
            workloads::server_churn(30_000),
            false,
        ),
        (
            "server_cache(30000)",
            workloads::server_cache(30_000),
            false,
        ),
        (
            "server_steady(30000)",
            workloads::server_steady(30_000),
            true,
        ),
    ] {
        // 2^16 heap slots either way; the generational run carves a 2^12-slot
        // nursery out of them.
        let m = (0..TRIALS)
            .map(|_| measure_gc(name, &src, 1 << 16, 1 << 12, samples))
            .min_by(|a, b| a.pause_ratio().total_cmp(&b.pause_ratio()))
            .expect("at least one trial");
        t.row(&[
            name.into(),
            us(m.semi_p99),
            us(m.gen_p99),
            format!("{:.3}", m.pause_ratio()),
            us(m.semi_time),
            us(m.gen_time),
            format!("{:.2}", m.throughput_ratio()),
            format!(
                "{} semi / {}+{} gen",
                m.semi_collections, m.gen_minors, m.gen_majors
            ),
        ]);
        run.gates.extend(gate::e12(
            name,
            steady,
            m.pause_ratio(),
            m.throughput_ratio(),
        ));
    }
    run.section(
        "e12",
        "== E12: generational GC — semispace vs nursery pauses ==",
        &t,
        "best of 3 trials by pause ratio; pauses pooled over every timed sample. Gates: \
         generational p99 at most 0.5x semispace on the steady row, throughput at least \
         0.85x on every row.",
    );
}

/// E13 — warm served edit cycles against the same compiles done cold.
fn e13(run: &mut Run, samples: usize) {
    let (clients, cycles, workers) = (4, 6, 2);
    let m = measure_serve(clients, cycles, workers, samples);
    let workload = format!("serve_edit({workers}) {clients}x{cycles}");
    let ms = |d: Duration| format!("{:.1}", d.as_secs_f64() * 1e3);
    let mut t = Table::new(&[
        "workload",
        &format!("cold batch (ms, min of {samples})"),
        &format!("warm batch (ms, min of {samples})"),
        "speedup",
        "requests",
        "p50 (ms)",
        "p99 (ms)",
        "max (ms)",
        "store lookups",
        "store hits",
    ]);
    t.row(&[
        workload.clone(),
        ms(m.cold),
        ms(m.warm),
        format!("{:.2}x", m.speedup()),
        m.latencies.len().to_string(),
        ms(m.latency(0.5)),
        ms(m.latency(0.99)),
        ms(m.latency(1.0)),
        m.store_lookups.to_string(),
        m.store_hits.to_string(),
    ]);
    run.gates
        .extend(gate::e13(&workload, m.speedup(), m.store_hits));
    run.section(
        "e13",
        "== E13: serving — warm edit cycles vs cold one-shot compiles ==",
        &t,
        "each batch: 4 clients x 6 edit/recompile/run requests, 2 unchanged heavy workers \
         per source; every served result equals the cold one. Gates: warm is at least 1.0x \
         cold, with at least one function-store hit.",
    );
}
