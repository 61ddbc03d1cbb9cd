//! Chrome-trace export for `vglc trace`: one timeline unifying the compile
//! phases, the back-end worker lanes, the VM's function spans, and GC
//! activity.
//!
//! Every record is stamped on the `vgl-obs` epoch ([`vgl_obs::since_epoch`])
//! when it is taken, so the export is a plain dump: each stamp is written
//! as recorded, rebased so the first compile phase starts at `t = 0`. That
//! a worker lane lies inside its phase, and that execution starts after
//! compilation, is read off the recorded stamps.
//!
//! The dump uses two process lanes:
//!
//! * **pid 1 "compile"** — tid 0 carries the phase spans (lex through
//!   fuse); tids 1+ carry one lane per worker (worker 0 also runs the
//!   fingerprinting and the optimizer);
//! * **pid 2 "runtime"** — tid 0 carries the VM's per-function wall-clock
//!   spans, with GC collections and tier transitions as instant ticks and
//!   the heap occupancy curve as a stacked counter track (`live` + `free` =
//!   semispace capacity).
//!
//! Truncation is reported, never hidden: when the VM's span log hit its
//! cap, a `vm-spans-truncated` instant carries the dropped count; when the
//! run trapped, a `trap` instant carries the error.

use std::time::Duration;

use crate::{Compilation, RunOutcome};
use vgl_obs::json::Json;
use vgl_obs::trace::ChromeTrace;
use vgl_vm::TraceLog;

/// Process id of the compile-time lanes.
pub const COMPILE_PID: u64 = 1;
/// Process id of the runtime lanes.
pub const RUNTIME_PID: u64 = 2;
/// First thread id used for back-end worker lanes (tid 0 is the phases).
pub const WORKER_TID0: u64 = 1;
/// VM function spans to keep for a trace ([`crate::Vm::enable_trace_log`]).
pub const MAX_VM_SPANS: usize = 1 << 18;

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Builds the unified Chrome trace for one compiled-and-executed program.
///
/// `run` and `log` come from [`Compilation::run_vm`] on a VM with the trace
/// log enabled; the compile side is read off the compilation's own
/// [`crate::PhaseTrace`].
pub fn chrome_trace(c: &Compilation, run: &RunOutcome, log: &TraceLog) -> ChromeTrace {
    let mut t = ChromeTrace::new();
    t.name_process(COMPILE_PID, "compile");
    t.name_thread(COMPILE_PID, 0, "phases");
    t.name_process(RUNTIME_PID, "runtime");
    t.name_thread(RUNTIME_PID, 0, "vm");

    let origin = c.trace.phases.first().map_or(Duration::ZERO, |p| p.start);
    let ts = |at: Duration| micros(at.saturating_sub(origin));
    for p in &c.trace.phases {
        t.complete(
            p.name,
            COMPILE_PID,
            0,
            ts(p.start),
            micros(p.duration),
            &[
                ("items_in", Json::from(p.items_in as u64)),
                ("items_out", Json::from(p.items_out as u64)),
            ],
        );
    }
    for w in &c.trace.workers {
        t.complete(
            w.phase,
            COMPILE_PID,
            WORKER_TID0 + w.worker as u64,
            ts(w.start),
            micros(w.duration),
            &[("items", Json::from(w.items as u64))],
        );
    }
    if let Some(max) = c.trace.workers.iter().map(|w| w.worker).max() {
        for worker in 0..=max {
            t.name_thread(COMPILE_PID, WORKER_TID0 + worker as u64, &format!("worker {worker}"));
        }
    }

    let func_name = |func: vgl_vm::FuncId| {
        c.program.funcs.get(func as usize).map(|f| f.name.as_str()).unwrap_or("<unknown>")
    };
    let mut run_end = c.trace.phases.last().map_or(0.0, |p| ts(p.start) + micros(p.duration));
    for span in log.spans() {
        let start = ts(span.start);
        t.complete(
            func_name(span.func),
            RUNTIME_PID,
            0,
            start,
            micros(span.dur),
            &[("func", Json::from(span.func as u64)), ("depth", Json::from(span.depth as u64))],
        );
        run_end = run_end.max(start + micros(span.dur));
    }

    // GC: an instant tick per collection (named by generation, so minor
    // and major pauses are visually distinct) plus the occupancy curve.
    // The `live`/`free` series stack to the heap capacity in the viewer.
    for g in &log.gc {
        let at = ts(g.at);
        t.instant(
            match g.kind {
                vgl_vm::GcKind::Minor => "gc-minor",
                vgl_vm::GcKind::Major => "gc-major",
            },
            RUNTIME_PID,
            0,
            at,
            &[
                ("kind", Json::Str(g.kind.label().into())),
                ("pause_us", Json::Num(micros(g.pause))),
                ("live_slots", Json::from(g.live_slots as u64)),
                ("capacity_slots", Json::from(g.capacity_slots as u64)),
            ],
        );
        t.counter(
            "heap",
            RUNTIME_PID,
            at,
            &[
                ("live", g.live_slots as f64),
                ("free", g.capacity_slots.saturating_sub(g.live_slots) as f64),
            ],
        );
        run_end = run_end.max(at);
    }

    // Tier transitions: tier-up / deopt instants on the runtime lane, so
    // the warmup knee is visible right next to the function spans.
    for ti in &log.tier {
        let at = ts(ti.at);
        t.instant(
            if ti.deopt { "deopt" } else { "tier-up" },
            RUNTIME_PID,
            0,
            at,
            &[("func", Json::Str(func_name(ti.func).to_string()))],
        );
        run_end = run_end.max(at);
    }

    if log.spans_dropped() > 0 {
        t.instant(
            "vm-spans-truncated",
            RUNTIME_PID,
            0,
            run_end,
            &[("dropped", Json::from(log.spans_dropped()))],
        );
    }
    if let Err(e) = &run.result {
        t.instant("trap", RUNTIME_PID, 0, run_end, &[("error", Json::Str(e.clone()))]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Compiler;
    use vgl_obs::json::parse;

    fn traced_run(c: &Compilation) -> (RunOutcome, TraceLog) {
        let mut vm = c.vm();
        vm.enable_trace_log(MAX_VM_SPANS);
        let run = c.run_vm(&mut vm);
        (run, vm.take_trace_log().expect("trace log enabled"))
    }

    const ALLOCATING: &str = "class Node { var v: int; var next: Node; new(v, next) { } }\n\
        def build(n: int) -> Node {\n\
          var head: Node;\n\
          for (i = 0; i < n; i = i + 1) head = Node.new(i, head);\n\
          return head;\n\
        }\n\
        def total(h: Node) -> int {\n\
          var s = 0;\n\
          for (x = h; x != null; x = x.next) s = s + x.v;\n\
          return s;\n\
        }\n\
        def main() -> int {\n\
          var t = 0;\n\
          for (round = 0; round < 40; round = round + 1) t = t + total(build(50));\n\
          return t;\n\
        }";

    #[test]
    fn trace_unifies_compile_and_runtime_lanes() {
        // Small heap to force collections.
        let options = crate::Options { heap_slots: 512, ..Default::default() };
        let c = Compiler::with_options(options).compile(ALLOCATING).expect("compiles");
        let (run, log) = traced_run(&c);
        assert!(run.result.is_ok(), "{:?}", run.result);
        let trace = chrome_trace(&c, &run, &log);

        let parsed = parse(&trace.render()).expect("valid Chrome trace JSON");
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap().to_vec();
        assert!(!events.is_empty());

        let phase = |ev: &Json| ev.get("ph").and_then(Json::as_str).unwrap_or("").to_string();
        let name = |ev: &Json| ev.get("name").and_then(Json::as_str).unwrap_or("").to_string();
        let pid = |ev: &Json| ev.get("pid").and_then(Json::as_f64).unwrap_or(-1.0) as u64;

        // Compile-phase spans are present as X events on pid 1.
        for want in ["lex", "parse", "sema", "mono", "normalize", "optimize", "lower"] {
            assert!(
                events.iter().any(|e| phase(e) == "X" && name(e) == want && pid(e) == COMPILE_PID),
                "missing compile span {want}"
            );
        }
        // VM function spans on pid 2, including main.
        assert!(
            events
                .iter()
                .any(|e| phase(e) == "X" && pid(e) == RUNTIME_PID && name(e).contains("main")),
            "missing VM span for main"
        );
        // GC instants and the occupancy counter for an allocating program.
        assert!(events
            .iter()
            .any(|e| phase(e) == "i" && (name(e) == "gc-minor" || name(e) == "gc-major")));
        assert!(events.iter().any(|e| phase(e) == "C" && name(e) == "heap"));
        // Lanes are labeled.
        assert!(events.iter().any(|e| phase(e) == "M" && name(e) == "process_name"));

        // Runtime spans start after the compile strip ends.
        let compile_end: f64 = events
            .iter()
            .filter(|e| phase(e) == "X" && pid(e) == COMPILE_PID)
            .map(|e| {
                e.get("ts").and_then(Json::as_f64).unwrap_or(0.0)
                    + e.get("dur").and_then(Json::as_f64).unwrap_or(0.0)
            })
            .fold(0.0, f64::max);
        let runtime_min = events
            .iter()
            .filter(|e| phase(e) == "X" && pid(e) == RUNTIME_PID)
            .map(|e| e.get("ts").and_then(Json::as_f64).unwrap_or(0.0))
            .fold(f64::INFINITY, f64::min);
        assert!(runtime_min >= compile_end - 1e-6, "{runtime_min} < {compile_end}");
    }

    #[test]
    fn worker_lanes_appear_at_higher_job_counts() {
        let c = Compiler::new().with_jobs(8).compile(ALLOCATING).expect("compiles");
        let (run, log) = traced_run(&c);
        let trace = chrome_trace(&c, &run, &log);
        let parsed = parse(&trace.render()).expect("valid");
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap().to_vec();
        let worker_spans = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Json::as_str) == Some("X")
                    && e.get("pid").and_then(Json::as_f64) == Some(COMPILE_PID as f64)
                    && e.get("tid").and_then(Json::as_f64).unwrap_or(0.0) >= WORKER_TID0 as f64
            })
            .count();
        assert!(worker_spans >= 1, "expected at least one worker lane span at --jobs 8");
        assert!(events.iter().any(|e| {
            e.get("name").and_then(Json::as_str) == Some("thread_name")
                && e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .map(|n| n.starts_with("worker "))
                    .unwrap_or(false)
        }));
    }

    /// The phases a lane may lie inside: each runs within the phase that
    /// started it. Mono fingerprints its finished module (`hash`);
    /// normalize and optimize fingerprint it themselves when mono left no
    /// map.
    fn home_phases(lane: &str) -> &'static [&'static str] {
        match lane {
            "hash" => &["mono", "normalize", "optimize"],
            "optimize" => &["optimize"],
            "fuse" => &["fuse"],
            _ => &[],
        }
    }

    #[test]
    fn recorded_worker_lanes_lie_inside_their_phases() {
        // Stamps are exact nanoseconds; allow for the µs float rendering.
        const EPS: f64 = 1e-3;
        for jobs in [1, 2] {
            let c = Compiler::new().with_jobs(jobs).compile(ALLOCATING).expect("compiles");
            let (run, log) = traced_run(&c);
            let trace = chrome_trace(&c, &run, &log);
            let parsed = parse(&trace.render()).expect("valid");
            let events = parsed.get("traceEvents").unwrap().as_arr().unwrap().to_vec();
            let num = |e: &Json, k: &str| e.get(k).and_then(Json::as_f64).unwrap_or(-1.0);
            // (name, tid, start, end) of every compile-lane span.
            let (phases, lanes): (Vec<_>, Vec<_>) = events
                .iter()
                .filter(|e| {
                    e.get("ph").and_then(Json::as_str) == Some("X")
                        && num(e, "pid") == COMPILE_PID as f64
                })
                .map(|e| {
                    let name = e.get("name").and_then(Json::as_str).unwrap_or("").to_string();
                    (name, num(e, "tid"), num(e, "ts"), num(e, "ts") + num(e, "dur"))
                })
                .partition(|&(_, tid, _, _)| tid == 0.0);
            assert_eq!(phases[0].0, "lex");
            assert_eq!(phases[0].2, 0.0, "jobs={jobs}: the first phase starts the timeline");
            for pair in phases.windows(2) {
                let ((a, _, _, a_end), (b, _, b_start, _)) = (&pair[0], &pair[1]);
                assert!(*a_end <= b_start + EPS, "jobs={jobs}: {a} overlaps {b}");
            }
            assert!(!lanes.is_empty(), "jobs={jobs}: the back end recorded no worker lanes");
            for (lane, tid, start, end) in &lanes {
                let inside: Vec<&str> = phases
                    .iter()
                    .filter(|(_, _, p_start, p_end)| *p_start <= start + EPS && *end <= p_end + EPS)
                    .map(|(phase, ..)| phase.as_str())
                    .collect();
                assert!(
                    inside.iter().any(|phase| home_phases(lane).contains(phase)),
                    "jobs={jobs}: {lane} lane (tid {tid}) at {start}..{end} lies inside {inside:?}"
                );
            }
        }
    }

    #[test]
    fn trapped_runs_still_export_with_a_trap_instant() {
        let src = "class A { var x: int; new(x) { } }\n\
            def main() -> int { var a: A; return a.x; }";
        let c = Compiler::new().compile(src).expect("compiles");
        let (run, log) = traced_run(&c);
        assert!(run.result.is_err());
        let trace = chrome_trace(&c, &run, &log);
        let parsed = parse(&trace.render()).expect("valid");
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap().to_vec();
        let trap = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("trap"))
            .expect("trap instant");
        let err = trap.get("args").and_then(|a| a.get("error")).and_then(Json::as_str);
        assert_eq!(err, Some("!NullCheckException"));
        // The unwound frames were still closed into spans.
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str).map(|n| n.contains("main")) == Some(true)));
    }
}
