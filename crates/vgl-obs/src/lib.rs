//! # vgl-obs
//!
//! The unified observability substrate of virgil-rs: structured spans and
//! events with monotonic wall-clock timing, pluggable sinks, and a
//! dependency-free JSON value type (writer *and* parser) in [`json`].
//!
//! Every layer of the system reports through this crate:
//!
//! * the **compiler pipeline** emits one [`PhaseSample`] per phase (lex,
//!   parse, sema, mono, normalize, optimize, lower) with duration and IR
//!   size in/out;
//! * the **VM** exports a per-opcode retired-instruction histogram and GC
//!   pause events;
//! * the **interpreter** exports the §4 type-argument-passing cost counters.
//!
//! The paper's evaluation rests on *measured* claims (no boxing after
//! normalization, code expansion under monomorphization, the interpreter's
//! "considerable runtime cost"); this crate is the measurement substrate
//! that makes those claims reproducible per run.
//!
//! ## Design
//!
//! A [`Tracer`] either borrows a [`Sink`] or is
//! [disabled](Tracer::disabled). Disabled tracers never read clocks, never
//! format anything, and never call a sink — span bookkeeping reduces to a
//! branch on an `Option`, so instrumented code pays nothing measurable when
//! tracing is off. Hot loops (the VM dispatch loop) must not call the
//! tracer per iteration at all; they accumulate plain counters and report
//! once.
//!
//! ```
//! use vgl_obs::{FieldValue, JsonLinesSink, Tracer};
//!
//! let mut sink = JsonLinesSink::new();
//! {
//!     let mut t = Tracer::new(&mut sink);
//!     let span = t.start("mono");
//!     // ... work ...
//!     t.finish(span, &[("instances", FieldValue::UInt(7))]);
//! }
//! assert!(sink.as_str().contains("\"name\":\"mono\""));
//! ```

#![warn(missing_docs)]

pub mod flight;
pub mod json;
pub mod trace;

use std::time::{Duration, Instant};

/// A typed field value attached to an event or span.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (counters).
    UInt(u64),
    /// Floating point (ratios, times).
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// Text.
    Str(String),
}

impl FieldValue {
    /// Converts to a JSON value.
    pub fn to_json(&self) -> json::Json {
        match self {
            FieldValue::Int(v) => json::Json::from(*v),
            FieldValue::UInt(v) => json::Json::from(*v),
            FieldValue::Float(v) => json::Json::Num(*v),
            FieldValue::Bool(v) => json::Json::Bool(*v),
            FieldValue::Str(v) => json::Json::Str(v.clone()),
        }
    }

    /// Human-readable rendering (no quotes on strings).
    pub fn render(&self) -> String {
        match self {
            FieldValue::Int(v) => v.to_string(),
            FieldValue::UInt(v) => v.to_string(),
            FieldValue::Float(v) => format!("{v:.3}"),
            FieldValue::Bool(v) => v.to_string(),
            FieldValue::Str(v) => v.clone(),
        }
    }
}

/// A named field: key + value.
pub type Field = (&'static str, FieldValue);

/// A point-in-time structured event.
#[derive(Debug)]
pub struct Event<'a> {
    /// Event name.
    pub name: &'a str,
    /// Time since the tracer's origin.
    pub at: Duration,
    /// Nesting depth (enclosing open spans).
    pub depth: usize,
    /// Attached fields.
    pub fields: &'a [Field],
}

/// A completed span: a named region of time with fields.
#[derive(Debug)]
pub struct SpanRecord<'a> {
    /// Span name.
    pub name: &'a str,
    /// Start offset since the tracer's origin.
    pub start: Duration,
    /// Wall-clock duration.
    pub duration: Duration,
    /// Nesting depth at the time the span was opened.
    pub depth: usize,
    /// Attached fields.
    pub fields: &'a [Field],
}

/// Where structured records go. Implementations must be cheap to call; the
/// tracer guarantees they are never called when tracing is disabled.
pub trait Sink {
    /// Receives a point event.
    fn event(&mut self, event: &Event<'_>);
    /// Receives a completed span.
    fn span(&mut self, span: &SpanRecord<'_>);
}

/// A sink that drops everything. [`Tracer::disabled`] is cheaper still (no
/// clock reads); this exists for APIs that demand a concrete sink.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn event(&mut self, _: &Event<'_>) {}
    fn span(&mut self, _: &SpanRecord<'_>) {}
}

/// A sink that appends one compact JSON object per record to an in-memory
/// buffer (JSON-lines). The output parses back with [`json::parse`].
#[derive(Clone, Debug, Default)]
pub struct JsonLinesSink {
    buf: String,
}

impl JsonLinesSink {
    /// An empty sink.
    pub fn new() -> JsonLinesSink {
        JsonLinesSink::default()
    }

    /// The buffered JSON-lines text so far.
    pub fn as_str(&self) -> &str {
        &self.buf
    }

    /// Consumes the sink, returning the buffered text.
    pub fn into_string(self) -> String {
        self.buf
    }

    fn push(&mut self, kind: &str, name: &str, fields: &[Field], extra: &[(&str, json::Json)]) {
        let mut obj = json::Json::object();
        obj.set("type", json::Json::Str(kind.to_string()));
        obj.set("name", json::Json::Str(name.to_string()));
        for (k, v) in extra {
            obj.set(k, v.clone());
        }
        for (k, v) in fields {
            obj.set(k, v.to_json());
        }
        self.buf.push_str(&obj.render());
        self.buf.push('\n');
    }
}

impl Sink for JsonLinesSink {
    fn event(&mut self, e: &Event<'_>) {
        let at = json::Json::Num(e.at.as_secs_f64() * 1e6);
        self.push("event", e.name, e.fields, &[("at_us", at)]);
    }

    fn span(&mut self, s: &SpanRecord<'_>) {
        let start = json::Json::Num(s.start.as_secs_f64() * 1e6);
        let dur = json::Json::Num(s.duration.as_secs_f64() * 1e6);
        let depth = json::Json::from(s.depth as u64);
        self.push(
            "span",
            s.name,
            s.fields,
            &[("start_us", start), ("dur_us", dur), ("depth", depth)],
        );
    }
}

/// A sink that renders an indented human-readable line per record.
#[derive(Clone, Debug, Default)]
pub struct TableSink {
    buf: String,
}

impl TableSink {
    /// An empty sink.
    pub fn new() -> TableSink {
        TableSink::default()
    }

    /// The rendered text so far.
    pub fn as_str(&self) -> &str {
        &self.buf
    }

    /// Consumes the sink, returning the rendered text.
    pub fn into_string(self) -> String {
        self.buf
    }

    fn fields(fields: &[Field]) -> String {
        fields
            .iter()
            .map(|(k, v)| format!("{k}={}", v.render()))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

impl Sink for TableSink {
    fn event(&mut self, e: &Event<'_>) {
        self.buf.push_str(&format!(
            "{:indent$}• {:<16} {}\n",
            "",
            e.name,
            TableSink::fields(e.fields),
            indent = e.depth * 2
        ));
    }

    fn span(&mut self, s: &SpanRecord<'_>) {
        self.buf.push_str(&format!(
            "{:indent$}{:<16} {:>10.1}us  {}\n",
            "",
            s.name,
            s.duration.as_secs_f64() * 1e6,
            TableSink::fields(s.fields),
            indent = s.depth * 2
        ));
    }
}

/// An open span handle returned by [`Tracer::start`]; pass it back to
/// [`Tracer::finish`].
#[derive(Debug)]
#[must_use = "finish the span with Tracer::finish"]
pub struct OpenSpan {
    name: &'static str,
    start: Option<Instant>,
    depth: usize,
}

/// The front door: timestamps records and forwards them to a borrowed sink.
///
/// A disabled tracer ([`Tracer::disabled`]) reads no clocks and formats
/// nothing — instrumentation sites cost one branch.
#[derive(Default)]
pub struct Tracer<'s> {
    sink: Option<&'s mut dyn Sink>,
    origin: Option<Instant>,
    depth: usize,
}

impl std::fmt::Debug for Tracer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.sink.is_some())
            .field("depth", &self.depth)
            .finish()
    }
}

impl<'s> Tracer<'s> {
    /// A tracer that records nothing (the default).
    pub fn disabled() -> Tracer<'static> {
        Tracer::default()
    }

    /// A tracer over a borrowed sink.
    pub fn new(sink: &'s mut dyn Sink) -> Tracer<'s> {
        Tracer { sink: Some(sink), origin: Some(Instant::now()), depth: 0 }
    }

    /// True when records reach a sink.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits a point event.
    pub fn event(&mut self, name: &str, fields: &[Field]) {
        let Some(origin) = self.origin else { return };
        let at = origin.elapsed();
        let depth = self.depth;
        if let Some(sink) = &mut self.sink {
            sink.event(&Event { name, at, depth, fields });
        }
    }

    /// Opens a span. Cost when disabled: one branch, no clock read.
    pub fn start(&mut self, name: &'static str) -> OpenSpan {
        if self.origin.is_none() {
            return OpenSpan { name, start: None, depth: 0 };
        }
        let depth = self.depth;
        self.depth += 1;
        OpenSpan { name, start: Some(Instant::now()), depth }
    }

    /// Closes a span, attaching fields.
    pub fn finish(&mut self, span: OpenSpan, fields: &[Field]) {
        let (Some(origin), Some(start)) = (self.origin, span.start) else {
            return;
        };
        self.depth = span.depth;
        let duration = start.elapsed();
        let record = SpanRecord {
            name: span.name,
            start: start - origin,
            duration,
            depth: span.depth,
            fields,
        };
        if let Some(sink) = &mut self.sink {
            sink.span(&record);
        }
    }

    /// Convenience: times a closure as a span.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.start(name);
        let r = f();
        self.finish(span, &[]);
        r
    }
}

/// One timed compiler phase with item counts in/out (IR nodes, instructions
/// — whatever the phase transforms).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseSample {
    /// Phase name (`"parse"`, `"mono"`, ...).
    pub name: &'static str,
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
    /// Offset of this worker's first claim relative to the start of the
    /// parallel phase — places the lane on a shared timeline.
    pub start: Duration,
    /// Busy wall-clock time of this worker's claim loop.
    pub duration: Duration,
}

/// An ordered collection of [`PhaseSample`]s for one compilation.
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
        let start = Instant::now();
        let r = f();
        self.phases.push(PhaseSample {
            name,
            duration: start.elapsed(),
            items_in,
            items_out: items_out(&r),
        });
        r
    }

    /// Total wall-clock time across phases.
    pub fn total(&self) -> Duration {
        self.phases.iter().map(|p| p.duration).sum()
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

    /// JSON: an array of per-phase objects.
    pub fn to_json(&self) -> json::Json {
        json::Json::Arr(
            self.phases
                .iter()
                .map(|p| {
                    let mut o = json::Json::object();
                    o.set("name", json::Json::Str(p.name.to_string()));
                    o.set("dur_us", json::Json::Num(p.duration.as_secs_f64() * 1e6));
                    o.set("items_in", json::Json::from(p.items_in as u64));
                    o.set("items_out", json::Json::from(p.items_out as u64));
                    o
                })
                .collect(),
        )
    }

    /// JSON: an array of per-worker objects for the parallel phases.
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

    /// Replays the trace into a tracer as spans (one per phase).
    pub fn emit(&self, tracer: &mut Tracer<'_>) {
        for p in &self.phases {
            let span = tracer.start(p.name);
            tracer.finish(
                span,
                &[
                    ("items_in", FieldValue::UInt(p.items_in as u64)),
                    ("items_out", FieldValue::UInt(p.items_out as u64)),
                    ("dur_us", FieldValue::Float(p.duration.as_secs_f64() * 1e6)),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let mut t = Tracer::disabled();
        assert!(!t.enabled());
        let s = t.start("x");
        t.finish(s, &[("k", FieldValue::Int(1))]);
        t.event("e", &[]);
    }

    #[test]
    fn json_sink_emits_parseable_lines() {
        let mut sink = JsonLinesSink::new();
        {
            let mut t = Tracer::new(&mut sink);
            let span = t.start("mono");
            t.finish(span, &[("instances", FieldValue::UInt(3))]);
            t.event("gc", &[("copied", FieldValue::UInt(128))]);
        }
        let mut lines = sink.as_str().lines();
        let span = json::parse(lines.next().unwrap()).expect("valid json");
        assert_eq!(span.get("type").unwrap().as_str(), Some("span"));
        assert_eq!(span.get("name").unwrap().as_str(), Some("mono"));
        assert_eq!(span.get("instances").unwrap().as_f64(), Some(3.0));
        assert!(span.get("dur_us").unwrap().as_f64().unwrap() >= 0.0);
        let event = json::parse(lines.next().unwrap()).expect("valid json");
        assert_eq!(event.get("type").unwrap().as_str(), Some("event"));
        assert_eq!(event.get("copied").unwrap().as_f64(), Some(128.0));
    }

    #[test]
    fn table_sink_indents_by_depth() {
        let mut sink = TableSink::new();
        sink.span(&SpanRecord {
            name: "outer",
            start: Duration::ZERO,
            duration: Duration::from_micros(10),
            depth: 0,
            fields: &[],
        });
        sink.span(&SpanRecord {
            name: "inner",
            start: Duration::ZERO,
            duration: Duration::from_micros(5),
            depth: 1,
            fields: &[("n", FieldValue::UInt(2))],
        });
        let text = sink.as_str();
        assert!(text.contains("outer"));
        assert!(text.contains("  inner"));
        assert!(text.contains("n=2"));
    }

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

    #[test]
    fn nested_spans_track_depth() {
        let mut sink = TableSink::new();
        let mut t = Tracer::new(&mut sink);
        let outer = t.start("outer");
        let inner = t.start("inner");
        t.finish(inner, &[]);
        t.finish(outer, &[]);
        // Depth restored after matching finishes.
        let top = t.start("top");
        assert_eq!(top.depth, 0);
        t.finish(top, &[]);
    }

    #[test]
    fn phase_trace_emit_replays_spans() {
        let mut trace = PhaseTrace::new();
        trace.time("opt", 10, || (), |_| 8);
        let mut sink = JsonLinesSink::new();
        {
            let mut t = Tracer::new(&mut sink);
            trace.emit(&mut t);
        }
        let v = json::parse(sink.as_str().trim()).expect("valid");
        assert_eq!(v.get("name").unwrap().as_str(), Some("opt"));
        assert_eq!(v.get("items_out").unwrap().as_f64(), Some(8.0));
    }
}
