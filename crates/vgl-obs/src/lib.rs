//! # vgl-obs
//!
//! The observability substrate of virgil-rs: one process-wide clock
//! ([`since_epoch`]) that every recorded span is stamped against, the
//! per-compile timeline of phases and pool workers ([`PhaseTrace`]), a
//! fixed-capacity ring ([`flight::Ring`]), the Chrome trace-event builder
//! ([`trace`]), and a dependency-free JSON value type (writer *and* parser)
//! in [`json`].
//!
//! Every layer of the system reports through this crate:
//!
//! * the **compiler pipeline** records one [`PhaseSample`] per phase (lex,
//!   parse, sema, mono, normalize, optimize, lower, fuse) with its start,
//!   duration and IR size in/out, plus one [`WorkerSample`] per back-end
//!   pool worker;
//! * the **VM** exports a per-opcode retired-instruction histogram, GC
//!   pause events and, for `vglc trace`, per-function spans;
//! * the **interpreter** exports the §4 type-argument-passing cost counters.
//!
//! The paper's evaluation rests on *measured* claims (no boxing after
//! normalization, code expansion under monomorphization, the interpreter's
//! "considerable runtime cost"); this crate is the measurement substrate
//! that makes those claims reproducible per run.
//!
//! ## One timeline
//!
//! Each record is stamped with [`since_epoch`] when its work starts, so
//! compile phases, pool workers, VM function spans, GC pauses and daemon
//! requests share one time axis: which work ran inside which, and in what
//! order, is read off the recorded stamps. Hot loops (the VM dispatch loop)
//! never read the clock per iteration; they accumulate plain counters and
//! report once.
//!
//! ```
//! use vgl_obs::PhaseTrace;
//!
//! let mut trace = PhaseTrace::new();
//! let tokens = trace.time("lex", 3, || vec!['a', 'b', 'c'], Vec::len);
//! trace.time("parse", tokens.len(), || (), |_| 1);
//! let (lex, parse) = (trace.phases[0], trace.phases[1]);
//! assert!(lex.start + lex.duration <= parse.start);
//! ```

#![warn(missing_docs)]

pub mod flight;
pub mod json;
pub mod trace;

use std::sync::OnceLock;
use std::time::{Duration, Instant};

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Time since the process epoch: the instant of the first call in this
/// process. Every span virgil-rs records is stamped with it, so stamps
/// taken on different threads and in different layers compare directly.
pub fn since_epoch() -> Duration {
    EPOCH.get_or_init(Instant::now).elapsed()
}

/// One timed compiler phase with item counts in/out (IR nodes, instructions
/// — whatever the phase transforms).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseSample {
    /// Phase name (`"parse"`, `"mono"`, ...).
    pub name: &'static str,
    /// When the phase started, since the process epoch ([`since_epoch`]).
    pub start: Duration,
    /// Wall-clock duration.
    pub duration: Duration,
    /// Items entering the phase.
    pub items_in: usize,
    /// Items leaving the phase.
    pub items_out: usize,
}

/// One worker's share of a parallel phase: which phase, which worker, how
/// many items it claimed from the shared queue, and how long its claim loop
/// ran. Worker attribution is telemetry only — it is explicitly *not* part
/// of the determinism contract (the same compile at a different `--jobs`
/// produces identical output but different worker spans).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerSample {
    /// Parallel phase name (`"optimize"`, `"fuse"`, `"hash"`, ...).
    pub phase: &'static str,
    /// Worker index within the pool (0-based; jobs=1 runs inline as worker 0).
    pub worker: usize,
    /// Items this worker claimed and processed.
    pub items: usize,
    /// When this worker started claiming, since the process epoch
    /// ([`since_epoch`]) — the same axis as [`PhaseSample::start`].
    pub start: Duration,
    /// Busy wall-clock time of this worker's claim loop.
    pub duration: Duration,
}

/// The recorded timeline of one compilation: its [`PhaseSample`]s and the
/// [`WorkerSample`]s of the pools those phases ran.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseTrace {
    /// Samples in phase order.
    pub phases: Vec<PhaseSample>,
    /// Worker-attributed spans from parallel phases, in commit order.
    pub workers: Vec<WorkerSample>,
}

impl PhaseTrace {
    /// An empty trace.
    pub fn new() -> PhaseTrace {
        PhaseTrace::default()
    }

    /// Times `f`, recording a sample named `name` with the given in/out item
    /// counts computed from its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        items_in: usize,
        f: impl FnOnce() -> T,
        items_out: impl FnOnce(&T) -> usize,
    ) -> T {
        let start = since_epoch();
        let r = f();
        self.phases.push(PhaseSample {
            name,
            start,
            duration: since_epoch().saturating_sub(start),
            items_in,
            items_out: items_out(&r),
        });
        r
    }

    /// The compile's wall span: the last phase's end minus the first
    /// phase's start (zero for an empty trace). Time that falls between
    /// phases counts, so unrecorded work shows as the gap between this and
    /// the summed phase durations.
    pub fn total(&self) -> Duration {
        match (self.phases.first(), self.phases.last()) {
            (Some(first), Some(last)) => (last.start + last.duration).saturating_sub(first.start),
            _ => Duration::ZERO,
        }
    }

    /// Wall-clock time of the phases named `name` (zero when none ran).
    pub fn duration(&self, name: &str) -> Duration {
        self.phases.iter().filter(|p| p.name == name).map(|p| p.duration).sum()
    }

    /// Updates `items_out` on the most recent sample *iff* it is named
    /// `name`; a no-op when the trace is empty or the last phase is a
    /// different one (e.g. the phase list was reordered or tracing is
    /// disabled). Replaces the old `phases.last_mut().expect(...)` pattern,
    /// which panicked instead of degrading.
    pub fn set_items_out(&mut self, name: &'static str, items: usize) {
        if let Some(p) = self.phases.last_mut() {
            if p.name == name {
                p.items_out = items;
            }
        }
    }

    /// Renders an aligned per-phase table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:>12} {:>10} {:>10}\n",
            "phase", "time (us)", "items in", "items out"
        ));
        for p in &self.phases {
            out.push_str(&format!(
                "{:<10} {:>12.1} {:>10} {:>10}\n",
                p.name,
                p.duration.as_secs_f64() * 1e6,
                p.items_in,
                p.items_out
            ));
        }
        out.push_str(&format!(
            "{:<10} {:>12.1}\n",
            "total",
            self.total().as_secs_f64() * 1e6
        ));
        out
    }

    /// JSON: an array of per-phase objects (`name`, `start_us` since the
    /// epoch, `dur_us`, `items_in`, `items_out`).
    pub fn to_json(&self) -> json::Json {
        json::Json::Arr(
            self.phases
                .iter()
                .map(|p| {
                    let mut o = json::Json::object();
                    o.set("name", json::Json::Str(p.name.to_string()));
                    o.set("start_us", json::Json::Num(p.start.as_secs_f64() * 1e6));
                    o.set("dur_us", json::Json::Num(p.duration.as_secs_f64() * 1e6));
                    o.set("items_in", json::Json::from(p.items_in as u64));
                    o.set("items_out", json::Json::from(p.items_out as u64));
                    o
                })
                .collect(),
        )
    }

    /// JSON: an array of per-worker objects for the parallel phases
    /// (`phase`, `worker`, `items`, `start_us` since the epoch, `dur_us`).
    pub fn workers_json(&self) -> json::Json {
        json::Json::Arr(
            self.workers
                .iter()
                .map(|w| {
                    let mut o = json::Json::object();
                    o.set("phase", json::Json::Str(w.phase.to_string()));
                    o.set("worker", json::Json::from(w.worker as u64));
                    o.set("items", json::Json::from(w.items as u64));
                    o.set("start_us", json::Json::Num(w.start.as_secs_f64() * 1e6));
                    o.set("dur_us", json::Json::Num(w.duration.as_secs_f64() * 1e6));
                    o
                })
                .collect(),
        )
    }

    /// Renders an aligned per-worker table for the parallel phases; empty
    /// string when no parallel phase ran.
    pub fn render_workers(&self) -> String {
        if self.workers.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:>6} {:>8} {:>12}\n",
            "phase", "worker", "items", "busy (us)"
        ));
        for w in &self.workers {
            out.push_str(&format!(
                "{:<10} {:>6} {:>8} {:>12.1}\n",
                w.phase,
                w.worker,
                w.items,
                w.duration.as_secs_f64() * 1e6
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_trace_times_and_renders() {
        let mut trace = PhaseTrace::new();
        let v = trace.time("parse", 100, || vec![1, 2, 3], |r| r.len());
        assert_eq!(v.len(), 3);
        assert_eq!(trace.phases.len(), 1);
        assert_eq!(trace.phases[0].items_in, 100);
        assert_eq!(trace.phases[0].items_out, 3);
        let table = trace.render_table();
        assert!(table.contains("parse"));
        assert!(table.contains("total"));
        let j = trace.to_json().render();
        let parsed = json::parse(&j).expect("valid");
        assert_eq!(parsed.as_arr().unwrap().len(), 1);
    }

    /// The total spans the gap between phases instead of summing their
    /// durations; built by hand, so no clock is read.
    #[test]
    fn total_is_the_wall_span_of_the_phases() {
        let ms = Duration::from_millis;
        let phase = |name, start| PhaseSample {
            name,
            start,
            duration: ms(1),
            ..PhaseSample::default()
        };
        let trace = PhaseTrace {
            phases: vec![phase("lex", ms(0)), phase("parse", ms(5))],
            workers: Vec::new(),
        };
        assert_eq!(trace.total(), ms(6));
        assert_eq!(trace.duration("lex") + trace.duration("parse"), ms(2));
        assert_eq!(PhaseTrace::new().total(), Duration::ZERO);
    }
}
