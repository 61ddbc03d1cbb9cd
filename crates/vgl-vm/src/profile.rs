//! Optional execution profiling for the VM: a per-opcode
//! retired-instruction histogram and per-collection GC events.
//!
//! Profiling is off by default. The dispatch loop is monomorphized over it,
//! so when disabled it costs nothing per instruction (see the
//! `profiling_disabled_is_free` differential check in the VM tests). Enable
//! it with [`crate::Vm::enable_profiling`].

use crate::bytecode::{FuncId, VmProgram, FIRST_SUPER_OPCODE, OPCODE_COUNT, OPCODE_NAMES};
use std::time::Duration;
use vgl_obs::json::Json;
use vgl_obs::since_epoch;
use vgl_runtime::heap::GcKind;

/// One garbage collection observed during a profiled or traced run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcEvent {
    /// Minor (nursery) or major (full-heap) collection.
    pub kind: GcKind,
    /// When the pause started, since the process epoch
    /// ([`vgl_obs::since_epoch`]).
    pub at: Duration,
    /// Wall-clock pause.
    pub pause: Duration,
    /// Slots live after the collection.
    pub live_slots: usize,
    /// Slots copied by the collection (promoted, for a minor).
    pub copied_slots: usize,
    /// Heap capacity at collection time.
    pub capacity_slots: usize,
    /// Instructions retired when the collection happened.
    pub at_instr: u64,
}

/// Profiling data for one VM run.
#[derive(Clone, Debug)]
pub struct VmProfile {
    /// Retired instructions per opcode, indexed like
    /// [`crate::bytecode::OPCODE_NAMES`].
    pub opcodes: [u64; OPCODE_COUNT],
    /// Every collection, in order.
    pub gc_events: Vec<GcEvent>,
}

impl Default for VmProfile {
    fn default() -> VmProfile {
        VmProfile { opcodes: [0; OPCODE_COUNT], gc_events: Vec::new() }
    }
}

impl VmProfile {
    /// An empty profile.
    pub fn new() -> VmProfile {
        VmProfile::default()
    }

    /// Total retired instructions.
    pub fn retired(&self) -> u64 {
        self.opcodes.iter().sum()
    }

    /// Total GC pause time.
    pub fn gc_pause_total(&self) -> Duration {
        self.gc_events.iter().map(|e| e.pause).sum()
    }

    /// Retired instructions that were fusion-emitted superinstructions.
    pub fn super_retired(&self) -> u64 {
        self.opcodes[FIRST_SUPER_OPCODE..].iter().sum()
    }

    /// Share of retired instructions that were superinstructions, in
    /// `[0, 1]` — the "how much of the hot path did fusion cover"
    /// attribution number `vglc profile` reports.
    pub fn super_share(&self) -> f64 {
        let total = self.retired();
        if total == 0 {
            0.0
        } else {
            self.super_retired() as f64 / total as f64
        }
    }

    /// `(mnemonic, count)` for every executed opcode, most-retired first.
    pub fn opcode_histogram(&self) -> Vec<(&'static str, u64)> {
        let mut rows: Vec<(&'static str, u64)> = OPCODE_NAMES
            .iter()
            .zip(self.opcodes.iter())
            .filter(|(_, &c)| c > 0)
            .map(|(&n, &c)| (n, c))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        rows
    }

    /// Renders the histogram and GC summary as an aligned table.
    pub fn render_table(&self) -> String {
        let total = self.retired().max(1);
        let mut out = String::new();
        out.push_str(&format!("{:<16} {:>12} {:>7}\n", "opcode", "retired", "%"));
        for (name, count) in self.opcode_histogram() {
            out.push_str(&format!(
                "{:<16} {:>12} {:>6.1}%\n",
                name,
                count,
                count as f64 * 100.0 / total as f64
            ));
        }
        out.push_str(&format!(
            "superinstructions: {} retired ({:.1}% of all)\n",
            self.super_retired(),
            self.super_share() * 100.0
        ));
        let minors = self.gc_events.iter().filter(|e| e.kind == GcKind::Minor).count();
        out.push_str(&format!(
            "gc: {} collections ({} minor, {} major), {} slots copied, {:.1}us total pause\n",
            self.gc_events.len(),
            minors,
            self.gc_events.len() - minors,
            self.gc_events.iter().map(|e| e.copied_slots).sum::<usize>(),
            self.gc_pause_total().as_secs_f64() * 1e6
        ));
        out
    }

    /// JSON: `{"opcodes": {...}, "super_retired": n, "super_share": x,
    /// "gc": [...]}`.
    pub fn to_json(&self) -> Json {
        let mut opcodes = Json::object();
        for (name, count) in self.opcode_histogram() {
            opcodes.set(name, Json::from(count));
        }
        let gc = Json::Arr(
            self.gc_events
                .iter()
                .map(|e| {
                    let mut o = Json::object();
                    o.set("kind", Json::Str(e.kind.label().into()));
                    o.set("pause_us", Json::Num(e.pause.as_secs_f64() * 1e6));
                    o.set("live_slots", Json::from(e.live_slots));
                    o.set("copied_slots", Json::from(e.copied_slots));
                    o.set("capacity_slots", Json::from(e.capacity_slots));
                    o.set("at_instr", Json::from(e.at_instr));
                    o
                })
                .collect(),
        );
        let mut j = Json::object();
        j.set("opcodes", opcodes);
        j.set("super_retired", Json::from(self.super_retired()));
        j.set("super_share", Json::Num(self.super_share()));
        j.set("gc", gc);
        j
    }
}

// ---------------------------------------------------------------------------
// Per-function hotness (the tier-up substrate)
// ---------------------------------------------------------------------------

/// Per-function hotness counters accumulated by the VM's runtime profiler.
///
/// All counters are **deterministic**: they count calls, loop back-edges,
/// and retired instructions — never wall-clock — so the same program
/// produces the same profile on every run (the property the determinism
/// suite checks with profiling enabled). The default (sampling) mode hooks
/// only calls and back-edges (the existing fuel-check points) — that
/// configuration is what the E10 5% overhead gate (`paper_tables e10`) measures.
/// Precise mode additionally maintains exact inclusive/exclusive
/// retired-instruction counts at every frame exit; it costs more and is
/// meant for offline analysis (`vglc stats`, `vglc profile`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuntimeProfile {
    /// One counter row per function, indexed by function id. Empty when
    /// profiling is off: the VM holds this inline (no `Option`, no box).
    /// The dispatch loop's `HOT` const compiles its hooks in or out, so the
    /// disabled case costs the loop nothing and the enabled case touches
    /// one row per call, return or back-edge; only `Vm::call_function`'s
    /// entry bumps a row through `rows.get_mut(func)`.
    pub rows: Vec<FuncHotness>,
}

/// One function's hotness counters, packed so a call or return updates a
/// single row.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FuncHotness {
    /// Times the function was entered (any dispatch kind).
    pub calls: u64,
    /// Loop back-edges taken inside the function — the loop-hotness signal
    /// tier-up keys on.
    pub ticks: u64,
    /// Instructions retired *including* callees (accumulated at frame
    /// exit; frames still live when a run traps are not closed). Only
    /// maintained in precise mode
    /// ([`crate::Vm::enable_runtime_profiling_precise`]) — zero under the
    /// default tick sampling.
    pub incl_instrs: u64,
    /// Instructions retired *excluding* callees. Precise mode only.
    pub excl_instrs: u64,
}

/// One row of [`RuntimeProfile::hotness_ranked`]: a function with its
/// counters, hottest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HotFunc<'p> {
    /// Function id in the program.
    pub func: FuncId,
    /// Function name.
    pub name: &'p str,
    /// Entries.
    pub calls: u64,
    /// Back-edges taken.
    pub ticks: u64,
    /// Inclusive retired instructions.
    pub incl_instrs: u64,
    /// Exclusive retired instructions.
    pub excl_instrs: u64,
}

impl RuntimeProfile {
    /// An empty profile sized for `func_count` functions.
    pub fn new(func_count: usize) -> RuntimeProfile {
        RuntimeProfile { rows: vec![FuncHotness::default(); func_count] }
    }

    /// Every function that ran, ranked hottest first: by back-edge ticks,
    /// then exclusive instructions, then call count (function id breaks
    /// remaining ties, keeping the ranking deterministic).
    pub fn hotness_ranked<'p>(&self, program: &'p VmProgram) -> Vec<HotFunc<'p>> {
        let mut rows: Vec<HotFunc<'p>> = self
            .rows
            .iter()
            .enumerate()
            .filter(|(_, r)| r.calls > 0)
            .map(|(i, r)| HotFunc {
                func: i as FuncId,
                name: program.funcs.get(i).map(|f| f.name.as_str()).unwrap_or("<unknown>"),
                calls: r.calls,
                ticks: r.ticks,
                incl_instrs: r.incl_instrs,
                excl_instrs: r.excl_instrs,
            })
            .collect();
        rows.sort_by(|a, b| {
            b.ticks
                .cmp(&a.ticks)
                .then(b.excl_instrs.cmp(&a.excl_instrs))
                .then(b.calls.cmp(&a.calls))
                .then(a.func.cmp(&b.func))
        });
        rows
    }

    /// Renders the hotness ranking as an aligned table.
    pub fn render_table(&self, program: &VmProgram) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>10} {:>10} {:>12} {:>12}\n",
            "function", "calls", "ticks", "incl instrs", "excl instrs"
        ));
        for row in self.hotness_ranked(program) {
            out.push_str(&format!(
                "{:<24} {:>10} {:>10} {:>12} {:>12}\n",
                row.name, row.calls, row.ticks, row.incl_instrs, row.excl_instrs
            ));
        }
        out
    }

    /// JSON: an array of per-function objects, hottest first.
    pub fn to_json(&self, program: &VmProgram) -> Json {
        Json::Arr(
            self.hotness_ranked(program)
                .iter()
                .map(|row| {
                    let mut o = Json::object();
                    o.set("func", Json::from(row.func as u64));
                    o.set("name", Json::Str(row.name.to_string()));
                    o.set("calls", Json::from(row.calls));
                    o.set("ticks", Json::from(row.ticks));
                    o.set("incl_instrs", Json::from(row.incl_instrs));
                    o.set("excl_instrs", Json::from(row.excl_instrs));
                    o
                })
                .collect(),
        )
    }
}

// ---------------------------------------------------------------------------
// Wall-clock trace log (vglc trace)
// ---------------------------------------------------------------------------

/// One function execution as a wall-clock span, for Chrome-trace export.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FuncSpan {
    /// The function that ran.
    pub func: FuncId,
    /// Entry time, since the process epoch ([`vgl_obs::since_epoch`]).
    pub start: Duration,
    /// Wall-clock duration (to the matching return, or to the unwind point
    /// when the run trapped).
    pub dur: Duration,
    /// Call depth at entry (0 = outermost).
    pub depth: u32,
}

/// One tier transition as a wall-clock instant, for Chrome-trace export.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TierInstant {
    /// Since the process epoch ([`vgl_obs::since_epoch`]).
    pub at: Duration,
    /// The function that changed tier.
    pub func: FuncId,
    /// `false` = tier-up (hot body installed), `true` = deoptimization.
    pub deopt: bool,
}

/// A wall-clock log of VM function spans, collections and tier transitions,
/// recorded only in explicit `vglc trace` runs (it reads the clock twice per
/// call, which is exactly the overhead the deterministic [`RuntimeProfile`]
/// avoids). Every stamp is taken on the process epoch
/// ([`vgl_obs::since_epoch`]), the same axis as the compile phases.
///
/// Span storage is a fixed ring of `max_spans` entries: a long run keeps
/// its *last* `max_spans` completed spans — the tail of execution plus the
/// outermost frames, which close last — and the overflow is counted in
/// [`TraceLog::spans_dropped`] so the exporter reports the truncation
/// rather than hiding it.
#[derive(Clone, Debug)]
pub struct TraceLog {
    /// Open frames with their entry stamps.
    open: Vec<(FuncId, Duration)>,
    spans: vgl_obs::flight::Ring<FuncSpan>,
    /// Collections, in order.
    pub gc: Vec<GcEvent>,
    /// Tier-ups and deoptimizations, in order.
    pub tier: Vec<TierInstant>,
}

impl TraceLog {
    /// A log keeping the last `max_spans` completed spans (clamped to ≥ 1).
    pub fn new(max_spans: usize) -> TraceLog {
        TraceLog {
            open: Vec::with_capacity(64),
            spans: vgl_obs::flight::Ring::new(max_spans),
            gc: Vec::new(),
            tier: Vec::new(),
        }
    }

    /// Marks entry into `func`.
    #[inline]
    pub fn enter(&mut self, func: FuncId) {
        self.open.push((func, since_epoch()));
    }

    /// Marks exit from the innermost open function.
    #[inline]
    pub fn exit(&mut self) {
        let Some((func, entered)) = self.open.pop() else { return };
        self.spans.push(FuncSpan {
            func,
            start: entered,
            dur: since_epoch().saturating_sub(entered),
            depth: self.open.len() as u32,
        });
    }

    /// Retained spans, oldest first (completion order).
    pub fn spans(&self) -> impl Iterator<Item = &FuncSpan> {
        self.spans.iter()
    }

    /// Spans currently retained.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Spans overwritten because the ring filled up.
    pub fn spans_dropped(&self) -> u64 {
        self.spans.dropped()
    }

    /// Records a tier transition (`deopt: false` = tier-up, `true` = deopt).
    pub fn record_tier(&mut self, func: FuncId, deopt: bool) {
        self.tier.push(TierInstant { at: since_epoch(), func, deopt });
    }

    /// Closes every open span at the current instant — called when a run
    /// unwinds through a trap, so the trace still shows where time went.
    pub fn close_all(&mut self) {
        while !self.open.is_empty() {
            self.exit();
        }
    }
}
