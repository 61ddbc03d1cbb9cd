//! `vglc` — the virgil-rs command-line driver.
//!
//! ```text
//! vglc run <file.v>            compile and run on the VM (default)
//! vglc interp <file.v>         run on the reference interpreter
//! vglc both <file.v>           run on both engines and compare
//! vglc stats [--json] <file.v> print pipeline statistics; --json emits one
//!                              JSON object (phases, pipeline, both engines,
//!                              and the unified `runtime` counters)
//! vglc profile <file.v>        run on the VM with profiling: per-phase
//!                              compile times, opcode histogram (with the
//!                              superinstruction share), the per-function
//!                              hotness ranking, IC hit/miss, GC
//! vglc trace [-o out] <file.v> compile and run with wall-clock tracing,
//!                              writing a Chrome trace-event JSON file
//!                              (default trace.json) that unifies compile
//!                              phases, back-end worker lanes, VM function
//!                              spans, and GC events — open it in
//!                              chrome://tracing or Perfetto
//! vglc disasm <file.v>         print the compiled bytecode; with fusion on
//!                              (the default), unfused and fused code are
//!                              shown side by side
//! vglc check [--json] <file.v> parse and typecheck only, reporting every
//!                              diagnostic the front end can find (parse
//!                              errors do not hide type errors); --json
//!                              emits one JSON object
//! vglc fuzz [--seed N] [--cases N] [--dump]
//!                              differential fuzzing: generate N programs,
//!                              run them on eight engine configurations, and
//!                              shrink + report the first disagreement
//! vglc fuzz --chaos [--seed N] [--cases N]
//!                              crash fuzzing: corrupt generated programs
//!                              (token surgery, byte splices, truncation,
//!                              nesting bombs) and demand diagnostics, not
//!                              panics; minimizes + reports the first crash
//! vglc fuzz --protocol [--seed N] [--cases N]
//!                              hostile client scripts against a live daemon
//! vglc serve [--socket PATH] [--no-fuse] [--no-opt] [--jobs N]
//!            [--artifact-cap N] [--func-cap N]
//!                              run the compile daemon; the level-1 store
//!                              holds at most N whole compilations, each
//!                              level-2 store (normalized bodies, compiled
//!                              functions) at most N entries
//! vglc client [--socket PATH] [--session NAME] <request> [file.v]
//!                              send one request to a running daemon
//! ```
//!
//! `--no-fuse` turns off the bytecode back-end optimizer (on by default) for
//! any compile-based subcommand. A tiered VM always runs the fused program,
//! so `--no-fuse` also selects the static pipeline for `run` and `trace`,
//! and combining it with `--tier`, `--tier-threshold N` or `disasm
//! --tiered` is a usage error.
//!
//! `--jobs N` sets the worker-thread count for fuse, the one pooled back-end
//! phase (default: the `VGL_JOBS` environment variable, else the machine's
//! available parallelism). The jobs count never changes compiled output —
//! `--jobs 1` and `--jobs 8` produce bit-identical bytecode.
//!
//! `--heap-slots N` sets the VM heap capacity in 8-byte slots (default
//! 2^20), memory the heap commits as it fills;
//! `--nursery-slots N` sets the generational collector's nursery size
//! (default 2^14, clamped to half the heap). `--nursery-slots 0` disables
//! the nursery and falls back to the pure semispace collector — every
//! collection is then a major.
//!
//! `--flight-record[=N]` (for `run`) keeps a ring of the last N runtime
//! events (calls, IC misses, collections, tier-ups, deopts; default 64) and
//! dumps it to stderr when the run ends in a trap or `System.error`.
//!
//! Tiered execution: `run` and `trace` tier by default — the VM runs the
//! program the static fuse pass gives, and tier-up only speculates: once a
//! function is hot, each of its monomorphic virtual call sites checks its
//! receiver's class and calls the expected callee directly or runs its
//! one-instruction body in place, in every frame of the function. A
//! receiver of another class deoptimizes the site in place: it goes
//! megamorphic and the call proceeds as a plain virtual call.
//! `--no-tier` restores the static pipeline; `--tier` forces tiering for
//! any compile-based subcommand; `--tier-threshold N` (or the
//! `VGL_TIER_THRESHOLD` environment variable) sets the hotness weight at
//! which a function tiers up. `disasm --tiered` runs the program and shows
//! each tiered function's fused code beside the same code with its
//! speculated sites annotated. Calls nested past the VM's stack budget end
//! a run with the runtime error `stack overflow`.

use std::process::ExitCode;
use vgl::{Compilation, Compiler, RunOutcome, RuntimeProfile, VmProfile};

fn usage() -> ExitCode {
    eprintln!(
        "usage: vglc [run|interp|both|check [--json]|stats [--json]|profile|\
         disasm [--tiered]|trace [-o out.json]] \
         [--no-fuse] [--tier|--no-tier] [--tier-threshold N] [--jobs N] \
         [--heap-slots N] [--nursery-slots N] [--flight-record[=N]] <file.v>\n\
         \x20      vglc fuzz [--chaos|--protocol] [--seed N] [--cases N] [--dump]\n\
         \x20      vglc serve [--socket PATH] [--no-fuse] [--no-opt] [--jobs N] \
         [--artifact-cap N] [--func-cap N]\n\
         \x20      vglc client [--socket PATH] [--session NAME] \
         <compile|check|run|stats|shutdown> [file.v]"
    );
    ExitCode::from(2)
}

/// The daemon socket: `--socket`, else `VGLD_SOCKET`, else a fixed name in
/// the system temp dir (one default daemon per machine/user temp).
fn default_socket() -> std::path::PathBuf {
    std::env::var_os("VGLD_SOCKET")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("vgld.sock"))
}

/// `vglc serve`: run the compile daemon in the foreground until a client
/// sends `shutdown`.
fn serve(args: &[String]) -> ExitCode {
    let mut config = vgl::serve::ServeConfig::default();
    let mut socket = default_socket();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--socket" => match it.next() {
                Some(p) => socket = std::path::PathBuf::from(p),
                None => return usage(),
            },
            "--no-fuse" => config.options.fuse = false,
            "--no-opt" => config.options.optimize = false,
            "--jobs" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => config.options.jobs = n,
                None => return usage(),
            },
            // A store holds exactly its capacity, so it must hold something.
            "--artifact-cap" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => config.artifact_capacity = n,
                _ => return usage(),
            },
            "--func-cap" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => config.func_capacity = n,
                _ => return usage(),
            },
            _ => return usage(),
        }
    }
    let daemon = match vgl::serve::Daemon::start(&socket, config) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("vgld: cannot bind {}: {e}", socket.display());
            return ExitCode::FAILURE;
        }
    };
    println!("vgld: serving on {}", socket.display());
    daemon.wait();
    println!("vgld: shut down");
    ExitCode::SUCCESS
}

/// `vglc client`: one request against a running daemon, response printed
/// as JSON (except `run`, which prints program output then the result).
fn client(args: &[String]) -> ExitCode {
    use vgl::serve::Client;
    let mut socket = default_socket();
    let mut session = "default".to_string();
    let mut rest: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--socket" => match it.next() {
                Some(p) => socket = std::path::PathBuf::from(p),
                None => return usage(),
            },
            "--session" => match it.next() {
                Some(s) => session = s.clone(),
                None => return usage(),
            },
            _ => rest.push(flag),
        }
    }
    let with_source = |cmd: &str, path: &String| {
        let source = std::fs::read_to_string(path).map_err(|e| {
            eprintln!("vglc: cannot read {path}: {e}");
        })?;
        Ok::<_, ()>(match cmd {
            "compile" => vgl::serve::Request::Compile { session: session.clone(), source },
            "check" => vgl::serve::Request::Check { session: session.clone(), source },
            _ => vgl::serve::Request::Run { session: session.clone(), source },
        })
    };
    let req = match rest.as_slice() {
        [cmd, path] if matches!(cmd.as_str(), "compile" | "check" | "run") => {
            match with_source(cmd, path) {
                Ok(r) => r,
                Err(()) => return ExitCode::FAILURE,
            }
        }
        [cmd] if cmd.as_str() == "stats" => vgl::serve::Request::Stats,
        [cmd] if cmd.as_str() == "shutdown" => vgl::serve::Request::Shutdown,
        _ => return usage(),
    };
    let mut client = match Client::connect(&socket) {
        Ok(c) => c,
        Err(e) => {
            eprintln!(
                "vglc: cannot connect to {} ({e}); is `vglc serve` running?",
                socket.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let resp = match client.request(&req) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("vglc: daemon request failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ok = resp.get("ok").and_then(vgl::serve::Json::as_bool).unwrap_or(false);
    if let vgl::serve::Request::Run { .. } = req {
        if let Some(out) = resp.get("output").and_then(vgl::serve::Json::as_str) {
            print!("{out}");
        }
        match (
            resp.get("result").and_then(vgl::serve::Json::as_str),
            resp.get("trap").and_then(vgl::serve::Json::as_str),
        ) {
            (Some(v), _) => println!("result: {v}"),
            (None, Some(t)) => println!("trap: {t}"),
            (None, None) => println!("{resp}"),
        }
    } else {
        println!("{resp}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn chaos(seed: Option<u64>, cases: Option<u64>) -> ExitCode {
    let mut cfg = vgl::fuzz::ChaosConfig::default();
    if let Some(s) = seed {
        cfg.seed = s;
    }
    if let Some(c) = cases {
        cfg.cases = c;
    }
    println!(
        "chaos fuzzing: seed {}, {} cases (mutated inputs, full pipeline, \
         diagnostics-or-bust)",
        cfg.seed, cfg.cases
    );
    let report = vgl::fuzz::run_chaos(&cfg, |i, _| {
        if (i + 1) % 500 == 0 {
            println!("  ... case {}", i + 1);
        }
    });
    println!("{}", report.summary());
    match report.failure {
        None => ExitCode::SUCCESS,
        Some(f) => {
            eprintln!("\nFAILURE at case {} (seed {}):", f.case_index, f.seed);
            eprintln!("{}", f.kind);
            eprintln!("\nminimized input:\n{}", f.shrunk);
            eprintln!("reproduce with: vglc fuzz --chaos --seed {} --cases 1", f.seed);
            ExitCode::FAILURE
        }
    }
}

fn protocol_chaos(seed: Option<u64>, cases: Option<u64>) -> ExitCode {
    let seed = seed.unwrap_or(0xC0FFEE);
    let cases = cases.unwrap_or(2000);
    println!(
        "protocol chaos: seed {seed}, {cases} hostile client scripts against a live \
         daemon (no panic, no hang, or bust)"
    );
    let report = vgl::serve::run_protocol_chaos(seed, cases, |i| {
        if i % 500 == 0 {
            println!("  ... case {i}");
        }
    });
    println!("{}", report.summary());
    match report.failure {
        None => ExitCode::SUCCESS,
        Some(f) => {
            eprintln!("\nFAILURE: {f}");
            eprintln!("reproduce with: vglc fuzz --protocol --seed <seed> --cases 1");
            ExitCode::FAILURE
        }
    }
}

fn fuzz(args: &[String]) -> ExitCode {
    let mut cfg = vgl::fuzz::FuzzConfig::default();
    let mut dump = false;
    let mut chaos_mode = false;
    let mut protocol_mode = false;
    let mut seed = None;
    let mut cases = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--dump" {
            dump = true;
            continue;
        }
        if flag == "--chaos" {
            chaos_mode = true;
            continue;
        }
        if flag == "--protocol" {
            protocol_mode = true;
            continue;
        }
        let value = it.next().and_then(|v| v.parse::<u64>().ok());
        match (flag.as_str(), value) {
            ("--seed", Some(v)) => seed = Some(v),
            ("--cases", Some(v)) => cases = Some(v),
            _ => return usage(),
        }
    }
    if protocol_mode {
        return protocol_chaos(seed, cases);
    }
    if chaos_mode {
        return chaos(seed, cases);
    }
    if let Some(v) = seed {
        cfg.seed = v;
    }
    if let Some(v) = cases {
        cfg.cases = v;
    }
    if dump {
        for i in 0..cfg.cases {
            let seed = cfg.seed.wrapping_add(i);
            let prog = vgl::fuzz::gen_program(seed, &cfg.gen);
            eprintln!("// ---- seed {seed} ----\n{}", vgl::fuzz::emit(&prog));
        }
    }
    println!("fuzzing: seed {}, {} cases, 8 engine configurations", cfg.seed, cfg.cases);
    let report = vgl::fuzz::run_fuzz(&cfg, |i, v| {
        if (i + 1) % 50 == 0 {
            println!("  ... case {} ({})", i + 1, vgl::fuzz::describe(v));
        }
    });
    println!("{}", report.summary());
    match report.failure {
        None => ExitCode::SUCCESS,
        Some(f) => {
            eprintln!("\nFAILURE at case {} (seed {}):", f.case_index, f.seed);
            eprintln!("{}", f.verdict);
            eprintln!("\nshrunk repro ({} lines):\n{}", f.shrunk_lines, f.shrunk);
            eprintln!("reproduce with: vglc fuzz --seed {} --cases 1", f.seed);
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("fuzz") {
        return fuzz(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("serve") {
        return serve(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("client") {
        return client(&args[1..]);
    }
    let mut options = vgl::Options::default();
    let mut out_path: Option<String> = None;
    let mut flight: Option<usize> = None;
    let mut tier_flag: Option<bool> = None;
    let mut tier_threshold: Option<u64> = None;
    let mut tiered_view = false;
    // Valued flags (`--jobs N`, `-o out`, `--flight-record[=N]`): consume
    // them before the positional scan.
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--jobs" && i + 1 < args.len() {
            let Ok(n) = args[i + 1].parse::<usize>() else { return usage() };
            options.jobs = n;
            args.drain(i..i + 2);
        } else if let Some(v) = args[i].strip_prefix("--jobs=") {
            let Ok(n) = v.parse::<usize>() else { return usage() };
            options.jobs = n;
            args.remove(i);
        } else if args[i] == "--heap-slots" && i + 1 < args.len() {
            let Ok(n) = args[i + 1].parse::<usize>() else { return usage() };
            options.heap_slots = n;
            args.drain(i..i + 2);
        } else if let Some(v) = args[i].strip_prefix("--heap-slots=") {
            let Ok(n) = v.parse::<usize>() else { return usage() };
            options.heap_slots = n;
            args.remove(i);
        } else if args[i] == "--nursery-slots" && i + 1 < args.len() {
            let Ok(n) = args[i + 1].parse::<usize>() else { return usage() };
            options.nursery_slots = n;
            args.drain(i..i + 2);
        } else if let Some(v) = args[i].strip_prefix("--nursery-slots=") {
            let Ok(n) = v.parse::<usize>() else { return usage() };
            options.nursery_slots = n;
            args.remove(i);
        } else if args[i] == "-o" && i + 1 < args.len() {
            out_path = Some(args[i + 1].clone());
            args.drain(i..i + 2);
        } else if args[i] == "--tier-threshold" && i + 1 < args.len() {
            let Ok(n) = args[i + 1].parse::<u64>() else { return usage() };
            tier_threshold = Some(n);
            args.drain(i..i + 2);
        } else if let Some(v) = args[i].strip_prefix("--tier-threshold=") {
            let Ok(n) = v.parse::<u64>() else { return usage() };
            tier_threshold = Some(n);
            args.remove(i);
        } else if args[i] == "--flight-record" {
            flight = Some(64);
            args.remove(i);
        } else if let Some(v) = args[i].strip_prefix("--flight-record=") {
            let Ok(n) = v.parse::<usize>() else { return usage() };
            flight = Some(n.max(1));
            args.remove(i);
        } else {
            i += 1;
        }
    }
    args.retain(|a| match a.as_str() {
        "--no-fuse" => {
            options.fuse = false;
            false
        }
        "--tier" => {
            tier_flag = Some(true);
            false
        }
        "--no-tier" => {
            tier_flag = Some(false);
            false
        }
        "--tiered" => {
            tiered_view = true;
            false
        }
        _ => true,
    });
    let (cmd, json, path) = match args.as_slice() {
        [path] if !path.starts_with('-') => ("run".to_string(), false, path.clone()),
        [cmd, path] if !path.starts_with('-') => (cmd.clone(), false, path.clone()),
        [cmd, flag, path] if flag == "--json" => (cmd.clone(), true, path.clone()),
        _ => return usage(),
    };
    if json && cmd != "stats" && cmd != "check" {
        return usage();
    }
    // A tiered VM always runs the fused program, so `--no-fuse` selects the
    // static pipeline and cannot be combined with a request for tiering.
    if !options.fuse && (tier_flag == Some(true) || tier_threshold.is_some() || tiered_view) {
        return usage();
    }
    let source = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("vglc: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if cmd == "check" {
        return check(&path, &source, json);
    }
    // Tier policy: `run` and `trace` tier by default (the production
    // configuration) unless `--no-fuse` selects the static pipeline;
    // everything else opts in via `--tier` or an explicit
    // `--tier-threshold`. `VGL_TIER_THRESHOLD` overrides the threshold.
    let env_threshold = std::env::var("VGL_TIER_THRESHOLD")
        .ok()
        .and_then(|v| v.parse::<u64>().ok());
    if let Some(t) = tier_threshold.or(env_threshold) {
        options.tier_threshold = t;
    }
    options.tier = options.fuse
        && match tier_flag {
            Some(v) => v,
            None => tier_threshold.is_some() || matches!(cmd.as_str(), "run" | "trace"),
        };
    // `disasm` always compiles unfused so the side-by-side view can show the
    // fusion pass's before and after on the same baseline.
    let fuse_requested = options.fuse;
    if cmd == "disasm" {
        options.fuse = false;
        options.tier = false;
    }
    let compilation = match Compiler::with_options(options).compile(&source) {
        Ok(c) => c,
        Err(e) => {
            // Re-render with the real file name.
            let lines = vgl::LineMap::new(&source);
            for d in &e.diagnostics {
                eprintln!("{}", d.render(&path, &lines));
            }
            return ExitCode::FAILURE;
        }
    };
    match cmd.as_str() {
        "run" => {
            let mut vm = compilation.vm();
            if let Some(capacity) = flight {
                vm.enable_flight_recorder(capacity);
            }
            let out = compilation.run_vm(&mut vm);
            print!("{}", out.output);
            if out.result.is_err() {
                if let Some(d) = vm.flight_dump() {
                    eprint!("{d}");
                }
            }
            finish(out.result)
        }
        "trace" => {
            let mut vm = compilation.vm();
            vm.enable_trace_log(vgl::chrome::MAX_VM_SPANS);
            let out = compilation.run_vm(&mut vm);
            let log = vm.take_trace_log().expect("trace log enabled");
            let trace = vgl::chrome::chrome_trace(&compilation, &out, &log);
            let text = trace.render();
            // Self-validate: the exporter's output must round-trip through
            // the in-tree parser before it is allowed on disk.
            if let Err(e) = vgl_obs::json::parse(&text) {
                eprintln!("vglc: internal error: trace output is not valid JSON: {e}");
                return ExitCode::FAILURE;
            }
            let dest = out_path.unwrap_or_else(|| "trace.json".to_string());
            if let Err(e) = std::fs::write(&dest, &text) {
                eprintln!("vglc: cannot write {dest}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "vglc: wrote {dest}: {} events (compile {:.1}us, {} vm spans, {} gc)",
                trace.len(),
                compilation.trace.total().as_secs_f64() * 1e6,
                log.span_count(),
                log.gc.len()
            );
            print!("{}", out.output);
            finish(out.result)
        }
        "interp" => {
            let out = compilation.interpret();
            print!("{}", out.output);
            finish(out.result)
        }
        "both" => {
            let i = compilation.interpret();
            let v = compilation.execute();
            if i.result != v.result || i.output != v.output {
                eprintln!("vglc: ENGINES DISAGREE");
                eprintln!("interp: {:?}\n{}", i.result, i.output);
                eprintln!("vm:     {:?}\n{}", v.result, v.output);
                return ExitCode::FAILURE;
            }
            print!("{}", v.output);
            finish(v.result)
        }
        "stats" if json => {
            let i = compilation.interpret();
            let (v, profile, hotness) = run_profiled(&compilation);
            let report = vgl::report::stats_json(
                &compilation,
                Some(&i),
                Some(&v),
                Some(&profile),
                Some(&hotness),
            );
            println!("{report}");
            ExitCode::SUCCESS
        }
        "profile" => {
            let (out, profile, hotness) = run_profiled(&compilation);
            println!("== compile phases ==");
            print!("{}", compilation.trace.render_table());
            let b = &compilation.backend;
            println!(
                "backend: {} job(s); instance cache: norm {}/{} hits ({:.0}%), \
                 opt {}/{} hits ({:.0}%)",
                b.jobs,
                b.norm_cache.hits,
                b.norm_cache.lookups,
                b.norm_cache.hit_rate() * 100.0,
                b.opt_cache.hits,
                b.opt_cache.lookups,
                b.opt_cache.hit_rate() * 100.0
            );
            let workers = compilation.trace.render_workers();
            if !workers.is_empty() {
                println!("== workers ==");
                print!("{workers}");
            }
            let f = &compilation.fuse;
            if f.instrs_before > 0 {
                println!(
                    "fuse: {} -> {} instrs ({} rewrites)",
                    f.instrs_before,
                    f.instrs_after,
                    f.fused_total()
                );
            }
            println!("== vm profile ==");
            print!("{}", profile.render_table());
            println!("== hotness ==");
            print!("{}", hotness.render_table(&compilation.program));
            if let Some(s) = &out.vm_stats {
                // With no virtual call there is no rate to report.
                let rate = if s.ic_hits + s.ic_misses == 0 {
                    "n/a".to_string()
                } else {
                    format!("{:.1}%", s.ic_hit_rate() * 100.0)
                };
                println!("ic: {} hits, {} misses ({rate} hit rate)", s.ic_hits, s.ic_misses);
                if s.tier_ups > 0 || s.deopts > 0 {
                    println!(
                        "tier: {} tier-ups, {} deopts; {} guarded calls, {} inlined calls",
                        s.tier_ups, s.deopts, s.guarded_calls, s.inlined_calls
                    );
                }
            }
            if !out.output.is_empty() {
                println!("== program output ==");
                print!("{}", out.output);
            }
            finish(out.result)
        }
        "stats" => {
            let s = &compilation.stats;
            println!("size before:       {}", s.size_before);
            println!("size after mono:   {}", s.size_after_mono);
            println!("size after all:    {}", s.size_after);
            println!("bytecode:          {} instructions", compilation.code_size());
            println!(
                "mono:  {} method instances, {} class instances (from {} / {} live)",
                s.mono.method_instances,
                s.mono.class_instances,
                s.mono.live_source_methods,
                s.mono.live_source_classes
            );
            println!(
                "norm:  {} tuple exprs removed, {} params expanded, {} fields expanded, \
                 {} multi-return methods, {} wrappers",
                s.norm.tuple_exprs_removed,
                s.norm.params_expanded,
                s.norm.fields_expanded,
                s.norm.multi_return_methods,
                s.norm.wrappers_synthesized
            );
            println!(
                "opt:   {} consts, {} queries, {} casts, {} branches folded; \
                 {} dead stmts; {} inlined",
                s.opt.consts_folded,
                s.opt.queries_folded,
                s.opt.casts_folded,
                s.opt.branches_folded,
                s.opt.dead_stmts_removed,
                s.opt.inlined
            );
            let f = &compilation.fuse;
            if f.instrs_before > 0 {
                println!(
                    "fuse:  {} -> {} instrs; {} copies propagated, {} movs coalesced, \
                     {} dead removed, {} pairs fused",
                    f.instrs_before,
                    f.instrs_after,
                    f.copies_propagated,
                    f.movs_coalesced,
                    f.dead_removed,
                    f.fused_total()
                );
            }
            println!("expansion:         x{:.2}", compilation.expansion_ratio());
            println!(
                "pass times:        mono {:.1}us, norm {:.1}us, opt {:.1}us",
                compilation.trace.duration("mono").as_secs_f64() * 1e6,
                compilation.trace.duration("normalize").as_secs_f64() * 1e6,
                compilation.trace.duration("optimize").as_secs_f64() * 1e6
            );
            ExitCode::SUCCESS
        }
        "disasm" => {
            if tiered_view {
                // Run the program with tiering forced on, then show each
                // tiered function pre/post tier-up with guard sites.
                let mut vm = compilation.vm();
                vm.enable_tiering(options.tier_threshold);
                let out = compilation.run_vm(&mut vm);
                if let Some(t) = vm.tier_state() {
                    print!("{}", vgl_vm::tiered_view(&compilation.program, t));
                }
                if let Err(e) = out.result {
                    eprintln!("runtime error: {e}");
                    return ExitCode::FAILURE;
                }
            } else if fuse_requested {
                let mut fused = compilation.program.clone();
                vgl_vm::fuse(&mut fused);
                print!("{}", vgl_vm::side_by_side(&compilation.program, &fused));
            } else {
                print!("{}", vgl_vm::disasm(&compilation.program));
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

/// Runs with the opcode histogram and the precise hotness profiler on:
/// everything `profile` and `stats --json` report.
fn run_profiled(c: &Compilation) -> (RunOutcome, VmProfile, RuntimeProfile) {
    let mut vm = c.vm();
    vm.enable_profiling();
    vm.enable_runtime_profiling_precise();
    let out = c.run_vm(&mut vm);
    let profile = vm.take_profile().expect("profiling enabled");
    let hotness = vm.take_runtime_profile().expect("hotness enabled");
    (out, profile, hotness)
}

fn check(path: &str, source: &str, json: bool) -> ExitCode {
    let report = Compiler::new().check(path, source);
    if json {
        println!("{}", report.to_json().render());
    } else {
        for r in &report.rendered {
            eprint!("{r}");
        }
        eprintln!(
            "{}: {} error(s), {} diagnostic(s)",
            path,
            report.error_count(),
            report.diagnostics.len()
        );
    }
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn finish(result: Result<String, String>) -> ExitCode {
    match result {
        Ok(v) => {
            if v != "()" {
                eprintln!("=> {v}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("runtime error: {e}");
            ExitCode::FAILURE
        }
    }
}
