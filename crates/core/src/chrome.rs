//! Chrome-trace assembly for `vglc trace`: one timeline unifying the
//! compile phases, the parallel back-end worker lanes, the VM's function
//! spans, and GC activity.
//!
//! The layout uses two process lanes:
//!
//! * **pid 1 "compile"** — tid 0 carries the phase spans (lex through
//!   fuse) laid end to end from `t = 0`; tids 1+ carry one lane per
//!   back-end worker, offset from the start of the parallel phase that ran
//!   them;
//! * **pid 2 "runtime"** — tid 0 carries the VM's per-function wall-clock
//!   spans (offset so execution starts where compilation ends), with GC
//!   collections as instant ticks and the heap occupancy curve as a
//!   stacked counter track (`live` + `free` = semispace capacity).
//!
//! Truncation is reported, never hidden: when the VM's span log hit its
//! cap, a `vm-spans-truncated` instant carries the dropped count; when the
//! run trapped, a `trap` instant carries the error.

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

    // Compile phases laid end to end. The per-phase samples are wall-clock
    // durations, not absolute timestamps, so the trace presents them as a
    // contiguous strip starting at t = 0.
    let mut phase_start: Vec<(&str, f64)> = Vec::new();
    let mut cursor = 0.0;
    for p in &c.trace.phases {
        let dur = p.duration.as_secs_f64() * 1e6;
        phase_start.push((p.name, cursor));
        t.complete(
            p.name,
            COMPILE_PID,
            0,
            cursor,
            dur,
            &[
                ("items_in", Json::from(p.items_in as u64)),
                ("items_out", Json::from(p.items_out as u64)),
            ],
        );
        cursor += dur;
    }
    let compile_total = cursor;

    // Worker lanes. A sample's `start` is relative to its pool's start,
    // which coincides with its parallel phase's start. Mono's streamed
    // "mono-hash" pool runs inside mono, so anchor it there. The "hash"
    // fingerprinting pool has no phase of its own — it runs at the head of
    // the next parallel phase in commit order, so anchor it there.
    let anchor =
        |name: &str| phase_start.iter().find(|&&(n, _)| n == name).map(|&(_, s)| s);
    let workers = &c.trace.workers;
    let mut max_worker = None;
    for (i, w) in workers.iter().enumerate() {
        let base = anchor(w.phase)
            .or_else(|| w.phase.strip_suffix("-hash").and_then(anchor))
            .or_else(|| workers[i + 1..].iter().find_map(|later| anchor(later.phase)))
            .unwrap_or(0.0);
        max_worker = Some(max_worker.unwrap_or(0).max(w.worker));
        t.complete(
            w.phase,
            COMPILE_PID,
            WORKER_TID0 + w.worker as u64,
            base + w.start.as_secs_f64() * 1e6,
            w.duration.as_secs_f64() * 1e6,
            &[("items", Json::from(w.items as u64))],
        );
    }
    if let Some(max) = max_worker {
        for worker in 0..=max {
            t.name_thread(COMPILE_PID, WORKER_TID0 + worker as u64, &format!("worker {worker}"));
        }
    }

    // VM function spans, shifted so the runtime strip starts where the
    // compile strip ends.
    let at = |d: std::time::Duration| compile_total + d.as_secs_f64() * 1e6;
    let mut run_end = compile_total;
    for span in log.spans() {
        let name = c
            .program
            .funcs
            .get(span.func as usize)
            .map(|f| f.name.as_str())
            .unwrap_or("<unknown>");
        t.complete(
            name,
            RUNTIME_PID,
            0,
            at(span.start),
            span.dur.as_secs_f64() * 1e6,
            &[("func", Json::from(span.func as u64)), ("depth", Json::from(span.depth as u64))],
        );
        run_end = run_end.max(at(span.start) + span.dur.as_secs_f64() * 1e6);
    }

    // GC: an instant tick per collection (named by generation, so minor
    // and major pauses are visually distinct) plus the occupancy curve.
    // The `live`/`free` series stack to the heap capacity in the viewer.
    for g in &log.gc {
        let ts = at(g.at);
        t.instant(
            match g.kind {
                vgl_vm::GcKind::Minor => "gc-minor",
                vgl_vm::GcKind::Major => "gc-major",
            },
            RUNTIME_PID,
            0,
            ts,
            &[
                ("kind", Json::Str(g.kind.label().into())),
                ("pause_us", Json::Num(g.pause.as_secs_f64() * 1e6)),
                ("live_slots", Json::from(g.live_slots as u64)),
                ("capacity_slots", Json::from(g.capacity_slots as u64)),
            ],
        );
        t.counter(
            "heap",
            RUNTIME_PID,
            ts,
            &[
                ("live", g.live_slots as f64),
                ("free", g.capacity_slots.saturating_sub(g.live_slots) as f64),
            ],
        );
        run_end = run_end.max(ts);
    }

    // Tier transitions: tier-up / deopt instants on the runtime lane, so
    // the warmup knee is visible right next to the function spans.
    for ti in &log.tier {
        let ts = at(ti.at);
        let name = c
            .program
            .funcs
            .get(ti.func as usize)
            .map(|f| f.name.as_str())
            .unwrap_or("<unknown>");
        t.instant(
            if ti.deopt { "deopt" } else { "tier-up" },
            RUNTIME_PID,
            0,
            ts,
            &[("func", Json::Str(name.to_string()))],
        );
        run_end = run_end.max(ts);
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
