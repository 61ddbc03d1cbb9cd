//! The register VM: executes bytecode over tagged words with the semispace
//! GC heap. No instruction allocates implicitly — the heap statistics after a
//! run *prove* the §4.2 claim that compiled programs only allocate at
//! explicit `new`/literals (plus closure cells, reported separately).
//!
//! The dispatch loop is **allocation-free in steady state** (the Rust side,
//! not just the VM heap): call frames keep their return registers in inline
//! storage ([`RetSlots`], spilling only for >2 returns — counted by
//! [`VmStats::ret_spills`]), arguments are copied directly between stack
//! frames with no temporary `Vec`, the value stack is pre-sized from the
//! static max-frame analysis done at lowering/fusion time
//! ([`crate::VmProgram::max_frame_regs`]), and the fuel check runs only at
//! loop back-edges and calls — the two places a program can cycle — instead
//! of once per instruction.
//!
//! Virtual calls go through **monomorphic inline caches** (Hölzle): each
//! `CallVirt` site caches its last (class-id → callee) pair and skips the
//! vtable load on a hit. Hit/miss counts are in [`VmStats`].

use crate::bytecode::*;
use crate::flight::{CallKind, FlightKind, FlightRecorder};
use crate::fuse::{tier_fuse_func, TierFeedback, TieredBody};
use crate::profile::{GcEvent, RuntimeProfile, TraceLog, VmProfile};
use crate::tier::{site_speculation, Speculation, TierState};
use std::rc::Rc;
use vgl_ir::ops::{self, Exception};
use vgl_ir::Builtin;
use vgl_runtime::heap::{
    self, as_i32, from_i32, is_ref, CellKind, Heap, HeapStats, NeedsGc, Word, NULL,
};

/// Default nursery size in slots (128 KiB of tagged words): small enough
/// that minor pauses stay far below a full-heap copy, large enough that
/// short-lived request/response churn dies in place without promotion.
pub const DEFAULT_NURSERY_SLOTS: usize = 1 << 14;

/// Why execution stopped abnormally.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VmError {
    /// A language-level exception.
    Exception(Exception),
    /// The configured instruction budget ran out.
    OutOfFuel,
    /// The program has no main function.
    NoMain,
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::Exception(e) => write!(f, "{e}"),
            VmError::OutOfFuel => write!(f, "out of fuel"),
            VmError::NoMain => write!(f, "program has no main"),
        }
    }
}

impl std::error::Error for VmError {}

/// Execution statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct VmStats {
    /// Instructions executed.
    pub instrs: u64,
    /// Calls performed (all kinds).
    pub calls: u64,
    /// Virtual dispatches.
    pub virtual_calls: u64,
    /// Closure invocations. Note there is **no calling-convention check**:
    /// normalization made every function scalar, so arities always match
    /// (E6's compiled side).
    pub closure_calls: u64,
    /// Inline-cache hits: `CallVirt` sites whose receiver class matched the
    /// cached class, skipping the vtable load.
    pub ic_hits: u64,
    /// Inline-cache misses (first execution of a site, or a megamorphic
    /// receiver change); each miss refills the cache.
    pub ic_misses: u64,
    /// Return-register lists that spilled to the Rust heap because a callee
    /// returns more than [`RET_INLINE`] values. Zero for all-scalar code —
    /// the steady-state dispatch loop performs **no Rust-side allocation**.
    pub ret_spills: u64,
    /// Functions promoted to the hot tier (counting re-tiers).
    pub tier_ups: u64,
    /// Guard failures that deoptimized a frame back to its baseline body.
    pub deopts: u64,
    /// Devirtualized virtual calls dispatched through a passing
    /// `CallGuard` receiver-class guard.
    pub guarded_calls: u64,
    /// Virtual calls whose one-instruction callee ran inline via
    /// `CallInline` — no frame was pushed.
    pub inlined_calls: u64,
    /// Heap statistics (tuple_boxes is always 0 — E1's compiled side).
    pub heap: HeapStats,
}

impl VmStats {
    /// Inline-cache hit rate in `[0, 1]`, or 1.0 when no virtual calls ran.
    pub fn ic_hit_rate(&self) -> f64 {
        let total = self.ic_hits + self.ic_misses;
        if total == 0 {
            1.0
        } else {
            self.ic_hits as f64 / total as f64
        }
    }
}

/// Return registers kept inline in the frame; larger lists spill.
pub const RET_INLINE: usize = 2;

/// A call frame's return-destination registers: inline array for the common
/// ≤[`RET_INLINE`] case, boxed slice fallback for wide multi-returns
/// (normalized tuples can return up to 16 scalars).
enum RetSlots {
    Inline { len: u8, regs: [Reg; RET_INLINE] },
    Spill(Box<[Reg]>),
}

impl RetSlots {
    #[inline]
    fn new(rets: &[Reg], spills: &mut u64) -> RetSlots {
        if rets.len() <= RET_INLINE {
            let mut regs = [0; RET_INLINE];
            regs[..rets.len()].copy_from_slice(rets);
            RetSlots::Inline { len: rets.len() as u8, regs }
        } else {
            *spills += 1;
            RetSlots::Spill(rets.into())
        }
    }

    #[inline]
    fn as_slice(&self) -> &[Reg] {
        match self {
            RetSlots::Inline { len, regs } => &regs[..*len as usize],
            RetSlots::Spill(b) => b,
        }
    }
}

/// One monomorphic inline-cache entry: the last receiver class seen at a
/// `CallVirt` site and the callee its vtable resolved to.
#[derive(Clone, Copy)]
struct IcEntry {
    class: u32,
    func: FuncId,
}

/// No class has this id; an entry holding it always misses.
const IC_EMPTY: u32 = u32::MAX;

struct FrameInfo {
    func: FuncId,
    pc: usize,
    base: usize,
    rets: RetSlots,
    /// `stats.instrs` at frame entry — the runtime profiler derives
    /// inclusive instruction counts from this at frame exit.
    entry_instr: u64,
    /// Instructions retired by completed callees of this frame; the
    /// profiler subtracts it from the inclusive total at frame exit to
    /// get the exclusive share without any bookkeeping at call time.
    child_instrs: u64,
    /// The hot-tier body this frame executes, pinned at frame push — `None`
    /// runs the baseline body. The `Rc` keeps the code alive even if the
    /// function re-tiers or deoptimizes while this frame is live; tier
    /// transitions only affect *future* frame pushes (no on-stack
    /// replacement), except that a failing guard clears this frame's own
    /// handle as it transfers to the baseline body.
    code: Option<Rc<TieredBody>>,
}

/// The virtual machine.
pub struct Vm<'p> {
    program: &'p VmProgram,
    heap: Heap,
    globals: Vec<Word>,
    stack: Vec<Word>,
    frames: Vec<FrameInfo>,
    /// One entry per `CallVirt` site (dense `site` indices from lowering).
    ic: Vec<IcEntry>,
    out: Vec<u8>,
    /// Statistics.
    pub stats: VmStats,
    /// `u64::MAX` when unbounded, so the hot check is one compare.
    fuel_limit: u64,
    /// Boxed so the disabled case costs the dispatch loop nothing: the loop
    /// is monomorphized over a `PROFILE` const and picked once per run.
    profile: Option<Box<VmProfile>>,
    /// Per-function hotness counters (calls, back-edge ticks, incl/excl
    /// retired instructions). Held inline with empty rows when disabled:
    /// every hook gates on `rows.get_mut(func)`, so the disabled case is
    /// one always-failing bounds check and the enabled case touches one
    /// packed row — checked only at calls, returns, and back-edges, never
    /// per instruction, which keeps it inside the E10 5% gate.
    hotness: RuntimeProfile,
    /// When true, the runtime profiler also maintains exact
    /// inclusive/exclusive retired-instruction counts at every frame exit
    /// (precise mode — costs more than the default tick sampling).
    hot_precise: bool,
    /// `stats.instrs` at the last call/return boundary. The profiler
    /// attributes the instructions retired since the previous boundary to
    /// the function that was running — exclusive counts without touching
    /// the caller's frame on every return.
    /// Wall-clock function spans + GC instants for `vglc trace`.
    tracelog: Option<Box<TraceLog>>,
    /// Crash flight recorder (`--flight-record`).
    flight: Option<Box<FlightRecorder>>,
    /// Tiered-execution state ([`Vm::enable_tiering`]): per-function
    /// hot-tier bodies, re-tier schedule, and speculation bookkeeping.
    /// Boxed like the profilers; the dispatch loop is monomorphized over a
    /// `TIER` const so the disabled case costs nothing.
    tier: Option<Box<TierState>>,
    /// Bumped on every frame push, pop, and deopt. The dispatch loop keys
    /// its cached tier-body handle on this, so the per-instruction cost of
    /// tiering is one compare instead of an `Rc` clone.
    code_gen: u64,
}

impl<'p> Vm<'p> {
    /// Creates a VM over a compiled program with the given heap size (slots)
    /// and the default nursery ([`DEFAULT_NURSERY_SLOTS`]).
    pub fn new(program: &'p VmProgram) -> Vm<'p> {
        Vm::with_heap_config(program, 1 << 20, DEFAULT_NURSERY_SLOTS)
    }

    /// Creates a VM with a specific heap capacity in slots and **no
    /// nursery** — the pure semispace collector (every collection major).
    pub fn with_heap(program: &'p VmProgram, heap_slots: usize) -> Vm<'p> {
        Vm::with_heap_config(program, heap_slots, 0)
    }

    /// Creates a VM with a specific heap capacity and nursery size in
    /// slots; `nursery_slots == 0` disables the generational split.
    pub fn with_heap_config(
        program: &'p VmProgram,
        heap_slots: usize,
        nursery_slots: usize,
    ) -> Vm<'p> {
        Vm {
            program,
            heap: Heap::with_nursery(heap_slots, nursery_slots),
            globals: (0..program.global_count)
                .map(|i| {
                    if program.global_nullable.get(i).copied().unwrap_or(false) {
                        NULL
                    } else {
                        0
                    }
                })
                .collect(),
            // Pre-size from the static max-frame analysis: room for a
            // healthy call depth of the largest frame before any realloc.
            stack: Vec::with_capacity((program.max_frame_regs * 64).max(4096)),
            frames: Vec::with_capacity(64),
            ic: vec![IcEntry { class: IC_EMPTY, func: 0 }; program.virt_sites],
            out: Vec::new(),
            stats: VmStats::default(),
            fuel_limit: u64::MAX,
            profile: None,
            hotness: RuntimeProfile::default(),
            hot_precise: false,
            tracelog: None,
            flight: None,
            tier: None,
            code_gen: 0,
        }
    }

    /// Limits execution to an instruction budget. The budget is checked at
    /// loop back-edges and calls (the only ways a program can run forever),
    /// so a run may overshoot by the length of one straight-line block.
    pub fn set_fuel(&mut self, instrs: u64) {
        self.fuel_limit = instrs;
    }

    /// Turns on profiling: per-opcode retired-instruction histogram and GC
    /// pause events, readable afterwards via [`Vm::profile`].
    pub fn enable_profiling(&mut self) {
        if self.profile.is_none() {
            self.profile = Some(Box::default());
        }
    }

    /// The profile collected so far, when profiling is enabled.
    pub fn profile(&self) -> Option<&VmProfile> {
        self.profile.as_deref()
    }

    /// Consumes the collected profile.
    pub fn take_profile(&mut self) -> Option<VmProfile> {
        self.profile.take().map(|b| *b)
    }

    /// Turns on the per-function runtime (hotness) profiler: call counts
    /// plus coarse cost sampling — one tick per loop back-edge, attributed
    /// to the running function at the existing fuel-check points. This is
    /// the low-overhead production configuration tier-up will consume;
    /// read the result via [`Vm::runtime_profile`]. Fully deterministic —
    /// no clocks — so output stays byte-identical.
    pub fn enable_runtime_profiling(&mut self) {
        if self.hotness.rows.is_empty() {
            self.hotness = RuntimeProfile::new(self.program.funcs.len());
        }
    }

    /// [`Vm::enable_runtime_profiling`] plus exact inclusive/exclusive
    /// retired-instruction accounting at every frame exit. Still
    /// deterministic, but the extra per-return work costs more than the
    /// default tick sampling — use for offline analysis (`vglc stats`,
    /// `vglc profile`), not for always-on telemetry.
    pub fn enable_runtime_profiling_precise(&mut self) {
        self.enable_runtime_profiling();
        self.hot_precise = true;
    }

    /// The runtime profile collected so far, when enabled.
    pub fn runtime_profile(&self) -> Option<&RuntimeProfile> {
        if self.hotness.rows.is_empty() {
            None
        } else {
            Some(&self.hotness)
        }
    }

    /// Consumes the collected runtime profile.
    pub fn take_runtime_profile(&mut self) -> Option<RuntimeProfile> {
        if self.hotness.rows.is_empty() {
            None
        } else {
            Some(std::mem::take(&mut self.hotness))
        }
    }

    /// Turns on tiered execution: every function starts in the cheap
    /// unfused (baseline) tier, and when its sampled hotness — calls plus
    /// back-edge ticks — crosses `threshold` (clamped to ≥ 1) the VM
    /// re-fuses it using its own runtime profile: IC-feedback
    /// devirtualization behind receiver-class guards, profile-selected
    /// superinstructions, and deoptimization back to the baseline body on
    /// guard failure. Implies [`Vm::enable_runtime_profiling`] (tiering
    /// consumes the sampling rows).
    pub fn enable_tiering(&mut self, threshold: u64) {
        self.enable_runtime_profiling();
        if self.tier.is_none() {
            self.tier = Some(Box::new(TierState::new(self.program, threshold)));
        }
    }

    /// The tiering state, when enabled — `vglc disasm --tiered` and the
    /// tier tests read hot-tier bodies and megamorphic marks through this.
    pub fn tier_state(&self) -> Option<&TierState> {
        self.tier.as_deref()
    }

    /// Turns on the wall-clock trace log for Chrome-trace export: one span
    /// per function execution (capped at `max_spans`) plus GC instants.
    pub fn enable_trace_log(&mut self, max_spans: usize) {
        if self.tracelog.is_none() {
            self.tracelog = Some(Box::new(TraceLog::new(max_spans)));
        }
    }

    /// Consumes the collected trace log.
    pub fn take_trace_log(&mut self) -> Option<TraceLog> {
        self.tracelog.take().map(|b| *b)
    }

    /// Turns on the crash flight recorder, keeping the last `capacity`
    /// runtime events (calls, IC misses, GC, traps).
    pub fn enable_flight_recorder(&mut self, capacity: usize) {
        if self.flight.is_none() {
            self.flight = Some(Box::new(FlightRecorder::new(capacity)));
        }
    }

    /// The flight recorder, when enabled.
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.flight.as_deref()
    }

    /// Renders the flight recorder's dump (oldest event first), when
    /// enabled and non-empty.
    pub fn flight_dump(&self) -> Option<String> {
        match self.flight.as_deref() {
            Some(fr) if !fr.is_empty() => Some(fr.dump(self.program)),
            _ => None,
        }
    }

    /// Captured output.
    pub fn output(&self) -> String {
        String::from_utf8_lossy(&self.out).into_owned()
    }

    /// Runs global initializers then `main`; returns main's return words.
    pub fn run(&mut self) -> Result<Vec<Word>, VmError> {
        let Some(main) = self.program.main else {
            return Err(VmError::NoMain);
        };
        for (g, fid) in self.program.global_inits.clone() {
            let vals = self.call_function(fid, &[])?;
            self.globals[g as usize] = vals.first().copied().unwrap_or(0);
        }
        self.call_function(main, &[])
    }

    /// Calls a function with arguments (testing hook).
    pub fn call_function(&mut self, func: FuncId, args: &[Word]) -> Result<Vec<Word>, VmError> {
        let f = &self.program.funcs[func as usize];
        debug_assert_eq!(args.len(), f.param_count, "arity calling {}", f.name);
        let base = self.stack.len();
        self.stack.resize(base + f.reg_count, 0);
        self.stack[base..base + args.len()].copy_from_slice(args);
        let ret_count = f.ret_count;
        if let Some(h) = self.hotness.rows.get_mut(func as usize) {
            h.calls += 1;
        }
        if let Some(t) = self.tracelog.as_deref_mut() {
            t.enter(func);
        }
        if let Some(fr) = self.flight.as_deref_mut() {
            fr.record(self.stats.instrs, FlightKind::Call { kind: CallKind::Static, func });
        }
        self.code_gen = self.code_gen.wrapping_add(1);
        self.frames.push(FrameInfo {
            func,
            pc: 0,
            base,
            rets: RetSlots::Inline { len: 0, regs: [0; RET_INLINE] },
            entry_instr: self.stats.instrs,
            child_instrs: 0,
            code: self
                .tier
                .as_deref()
                .and_then(|t| t.slots[func as usize].body.clone()),
        });
        let depth = self.frames.len();
        // Monomorphize the dispatch loop over the profilers once per run:
        // the disabled cases pay nothing per instruction or per call, and
        // the enabled hooks compile to straight-line counter updates.
        // HOT: 0 = off, 1 = sampling (calls + back-edge ticks), 2 = precise
        // (sampling plus exact inclusive/exclusive accounting per return).
        // TIER requires the sampling rows, so it never combines with HOT=0.
        let hot = match (self.hotness.rows.is_empty(), self.hot_precise) {
            (true, _) => 0,
            (false, false) => 1,
            (false, true) => 2,
        };
        let tier = self.tier.is_some();
        let r = match (self.profile.is_some(), hot, tier) {
            (false, 0, _) => self.interp_until::<false, 0, false>(depth - 1),
            (false, 1, false) => self.interp_until::<false, 1, false>(depth - 1),
            (false, 1, true) => self.interp_until::<false, 1, true>(depth - 1),
            (false, _, false) => self.interp_until::<false, 2, false>(depth - 1),
            (false, _, true) => self.interp_until::<false, 2, true>(depth - 1),
            (true, 0, _) => self.interp_until::<true, 0, false>(depth - 1),
            (true, 1, false) => self.interp_until::<true, 1, false>(depth - 1),
            (true, 1, true) => self.interp_until::<true, 1, true>(depth - 1),
            (true, _, false) => self.interp_until::<true, 2, false>(depth - 1),
            (true, _, true) => self.interp_until::<true, 2, true>(depth - 1),
        };
        match r {
            Ok(values) => {
                debug_assert_eq!(values.len(), ret_count);
                Ok(values)
            }
            Err(e) => {
                // Record the trap before unwinding: the deepest frame is
                // still on the stack and names the faulting function.
                if let Some(fr) = self.flight.as_deref_mut() {
                    let (tf, tpc) =
                        self.frames.last().map(|f| (f.func, f.pc)).unwrap_or((func, 0));
                    fr.record(
                        self.stats.instrs,
                        FlightKind::Trap { error: e, func: tf, pc: tpc },
                    );
                }
                if let Some(t) = self.tracelog.as_deref_mut() {
                    t.close_all();
                }
                self.frames.truncate(depth - 1);
                self.stack.truncate(base);
                Err(e)
            }
        }
    }

    /// Runs frames until the frame stack drops back to `floor`, returning
    /// the popped frame's return values.
    fn interp_until<const PROFILE: bool, const HOT: u8, const TIER: bool>(
        &mut self,
        floor: usize,
    ) -> Result<Vec<Word>, VmError> {
        let program: &'p VmProgram = self.program;
        // The top frame's pinned tier body. Holding a clone of the frame's
        // `Rc` handle keeps the instruction borrow independent of `self`,
        // so deopt can swap the frame's handle mid-arm; keying the cache on
        // `code_gen` (bumped at every frame push, pop, and deopt) makes the
        // per-instruction cost one compare instead of an `Rc` clone.
        let mut tier_code: Option<Rc<TieredBody>> = None;
        let mut tier_gen: u64 = u64::MAX;
        loop {
            self.stats.instrs += 1;
            let fi = self.frames.len() - 1;
            let (func, pc, base) = {
                let f = &self.frames[fi];
                (f.func, f.pc, f.base)
            };
            // Default: advance to the next instruction.
            self.frames[fi].pc = pc + 1;
            if TIER && tier_gen != self.code_gen {
                tier_gen = self.code_gen;
                tier_code = self.frames[fi].code.clone();
            }
            let instr = match if TIER { tier_code.as_deref() } else { None } {
                Some(t) => &t.code[pc],
                None => {
                    let i = &program.funcs[func as usize].code[pc];
                    if TIER {
                        // Histogram only while in the baseline tier: this
                        // is the profile that picks the hot tier's fusion
                        // patterns, and the hot tier itself stays free of
                        // per-instruction bookkeeping.
                        if let Some(t) = self.tier.as_deref_mut() {
                            t.hist[func as usize][i.opcode()] += 1;
                        }
                    }
                    i
                }
            };
            if PROFILE {
                if let Some(p) = self.profile.as_deref_mut() {
                    p.opcodes[instr.opcode()] += 1;
                }
            }
            macro_rules! reg {
                ($r:expr) => {
                    self.stack[base + $r as usize]
                };
            }
            // Every loop in the bytecode crosses a backward branch, so the
            // fuel check lives here (and at calls) instead of per-instruction.
            macro_rules! jump {
                ($off:expr) => {{
                    let off = $off;
                    if off < 0 {
                        if self.stats.instrs >= self.fuel_limit {
                            return Err(VmError::OutOfFuel);
                        }
                        // Back-edge tick: the loop-hotness signal. Rides the
                        // existing fuel-check point so straight-line code
                        // never sees the profiler.
                        if HOT != 0 {
                            self.hotness.rows[func as usize].ticks += 1;
                            if TIER {
                                self.check_tier_up(func);
                            }
                        }
                    }
                    self.frames[fi].pc = (pc as i64 + off as i64) as usize;
                }};
            }
            macro_rules! check_fuel {
                () => {
                    if self.stats.instrs >= self.fuel_limit {
                        return Err(VmError::OutOfFuel);
                    }
                };
            }
            match instr {
                Instr::ConstI(d, v) => reg!(*d) = heap::scalar(*v),
                Instr::ConstNull(d) => reg!(*d) = NULL,
                Instr::ConstPool(d, ix) => {
                    let bytes = self.program.pool[*ix as usize].clone();
                    let r = self.alloc(CellKind::Array, 0, bytes.len())?;
                    for (i, b) in bytes.iter().enumerate() {
                        self.heap.set(r, i, heap::scalar(*b as i64));
                    }
                    self.stack[base + *d as usize] = r;
                }
                Instr::Mov(d, s) => reg!(*d) = reg!(*s),
                Instr::Bin(k, d, a, b) => {
                    let x = as_i32(reg!(*a));
                    let y = as_i32(reg!(*b));
                    reg!(*d) = bin_value(*k, x, y)?;
                }
                Instr::Neg(d, a) => {
                    let x = as_i32(reg!(*a));
                    reg!(*d) = from_i32(ops::int_sub(0, x));
                }
                Instr::Not(d, a) => {
                    let x = as_i32(reg!(*a));
                    reg!(*d) = heap::scalar(i64::from(x == 0));
                }
                Instr::EqRR(d, a, b) => {
                    let eq = reg!(*a) == reg!(*b);
                    reg!(*d) = heap::scalar(i64::from(eq));
                }
                Instr::EqClos(d, a, b) => {
                    let (x, y) = (reg!(*a), reg!(*b));
                    let eq = if x == y {
                        true
                    } else if x == NULL || y == NULL {
                        false
                    } else {
                        self.heap.get(x, 0) == self.heap.get(y, 0)
                            && self.heap.get(x, 1) == self.heap.get(y, 1)
                    };
                    self.stack[base + *d as usize] = heap::scalar(i64::from(eq));
                }
                Instr::Jump(off) => jump!(*off),
                Instr::BrFalse(c, off) => {
                    if as_i32(reg!(*c)) == 0 {
                        jump!(*off);
                    }
                }
                Instr::BrTrue(c, off) => {
                    if as_i32(reg!(*c)) != 0 {
                        jump!(*off);
                    }
                }
                Instr::Call { func: callee, args, rets } => {
                    self.stats.calls += 1;
                    check_fuel!();
                    let rets = RetSlots::new(rets, &mut self.stats.ret_spills);
                    self.note_call::<HOT, TIER>(*callee);
                    self.push_frame_args::<TIER>(*callee, CallKind::Static, base, None, args, rets);
                }
                Instr::CallVirt { slot, site, args, rets } => {
                    self.stats.calls += 1;
                    self.stats.virtual_calls += 1;
                    check_fuel!();
                    let recv = reg!(args[0]);
                    if recv == NULL {
                        return Err(VmError::Exception(Exception::NullCheck));
                    }
                    let class = self.heap.meta(recv);
                    // Monomorphic inline cache: one compare against the last
                    // receiver class replaces the two-load vtable walk.
                    let cached = self.ic[*site as usize];
                    let callee = if cached.class == class {
                        self.stats.ic_hits += 1;
                        cached.func
                    } else {
                        self.stats.ic_misses += 1;
                        let f = self.program.classes[class as usize].vtable[*slot as usize];
                        self.ic[*site as usize] = IcEntry { class, func: f };
                        if TIER {
                            // Stability signal for speculation: a site that
                            // keeps missing is never devirtualized.
                            if let Some(t) = self.tier.as_deref_mut() {
                                t.site_miss[*site as usize] += 1;
                            }
                        }
                        if let Some(fr) = self.flight.as_deref_mut() {
                            fr.record(
                                self.stats.instrs,
                                FlightKind::IcMiss { site: *site, class, func: f },
                            );
                        }
                        f
                    };
                    let rets = RetSlots::new(rets, &mut self.stats.ret_spills);
                    self.note_call::<HOT, TIER>(callee);
                    self.push_frame_args::<TIER>(callee, CallKind::Virtual, base, None, args, rets);
                }
                Instr::CallGuard { class, func: callee, site, deopt_pc, args, rets } => {
                    // Speculative devirtualization (tier-only): one class
                    // compare replaces IC probe + vtable walk. A mismatching
                    // (or null) receiver deoptimizes this frame to the
                    // baseline body, which re-executes the site as a plain
                    // `CallVirt` — identical observable behaviour, including
                    // the null-check trap.
                    debug_assert!(TIER, "CallGuard outside tiered body");
                    let recv = reg!(args[0]);
                    let seen = if recv == NULL { IC_EMPTY } else { self.heap.meta(recv) };
                    if seen == *class {
                        self.stats.calls += 1;
                        self.stats.virtual_calls += 1;
                        self.stats.guarded_calls += 1;
                        check_fuel!();
                        let rets = RetSlots::new(rets, &mut self.stats.ret_spills);
                        self.note_call::<HOT, TIER>(*callee);
                        self.push_frame_args::<TIER>(
                            *callee,
                            CallKind::Virtual,
                            base,
                            None,
                            args,
                            rets,
                        );
                    } else {
                        self.deopt(fi, func, *site, *deopt_pc, seen);
                    }
                }
                Instr::CallInline { class, site, deopt_pc, op, args, rets } => {
                    // Speculatively inlined one-instruction leaf callee: the
                    // whole call collapses to the callee's single operation,
                    // with no frame push at all.
                    debug_assert!(TIER, "CallInline outside tiered body");
                    let recv = reg!(args[0]);
                    let seen = if recv == NULL { IC_EMPTY } else { self.heap.meta(recv) };
                    if seen == *class {
                        self.stats.calls += 1;
                        self.stats.virtual_calls += 1;
                        self.stats.inlined_calls += 1;
                        let v = match *op {
                            InlOp::Arg(p) => reg!(args[p as usize]),
                            InlOp::Const(c) => heap::scalar(c as i64),
                            InlOp::Bin(k, a, b) => {
                                let x = as_i32(reg!(args[a as usize]));
                                let y = as_i32(reg!(args[b as usize]));
                                bin_value(k, x, y)?
                            }
                            InlOp::BinI(k, a, imm) => {
                                let x = as_i32(reg!(args[a as usize]));
                                bin_value(k, x, imm)?
                            }
                            InlOp::Field(slot, obj) => {
                                let o = reg!(args[obj as usize]);
                                if o == NULL {
                                    return Err(VmError::Exception(Exception::NullCheck));
                                }
                                self.heap.get(o, slot as usize)
                            }
                        };
                        if let Some(&dst) = rets.first() {
                            reg!(dst) = v;
                        }
                    } else {
                        self.deopt(fi, func, *site, *deopt_pc, seen);
                    }
                }
                Instr::CallClos { clos, args, rets } => {
                    self.stats.calls += 1;
                    self.stats.closure_calls += 1;
                    check_fuel!();
                    let c = reg!(*clos);
                    if c == NULL {
                        return Err(VmError::Exception(Exception::NullCheck));
                    }
                    let fnid = as_i32(self.heap.get(c, 0)) as FuncId;
                    let recv = self.heap.get(c, 1);
                    // NOTE: no calling-convention check here — arity is
                    // statically exact after normalization (§4.1/§4.2).
                    let rets = RetSlots::new(rets, &mut self.stats.ret_spills);
                    let prepend = (recv != NULL).then_some(recv);
                    self.note_call::<HOT, TIER>(fnid);
                    self.push_frame_args::<TIER>(fnid, CallKind::Closure, base, prepend, args, rets);
                }
                Instr::CallBuiltin { b, args, rets } => {
                    debug_assert!(args.len() <= 2, "builtin arity");
                    let mut argv = [0 as Word; 2];
                    for (i, &a) in args.iter().enumerate() {
                        argv[i] = reg!(a);
                    }
                    let r = self.builtin(*b, &argv[..args.len()])?;
                    if let (Some(&dst), Some(v)) = (rets.first(), r) {
                        reg!(dst) = v;
                    }
                }
                Instr::MakeClos { dst, func: f2, recv } => {
                    // Allocate FIRST: the receiver must be re-read from its
                    // register after a potential collection (registers are
                    // roots and get forwarded; a cached copy would dangle).
                    let (f2, dst, recv) = (*f2, *dst, *recv);
                    let c = self.alloc(CellKind::Closure, 0, 2)?;
                    let rv = recv
                        .map(|r| self.stack[base + r as usize])
                        .unwrap_or(NULL);
                    self.heap.set(c, 0, heap::scalar(f2 as i64));
                    // The fresh cell may be pre-tenured: barrier the receiver.
                    self.heap.set_ref(c, 1, rv);
                    self.stack[base + dst as usize] = c;
                }
                Instr::MakeClosVirt { dst, slot, recv } => {
                    let rv = reg!(*recv);
                    if rv == NULL {
                        return Err(VmError::Exception(Exception::NullCheck));
                    }
                    let class = self.heap.meta(rv) as usize;
                    let callee = self.program.classes[class].vtable[*slot as usize];
                    let (dst, recv) = (*dst, *recv);
                    let c = self.alloc(CellKind::Closure, 0, 2)?;
                    // Re-read the receiver: it may have moved.
                    let rv = self.stack[base + recv as usize];
                    self.heap.set(c, 0, heap::scalar(callee as i64));
                    // The fresh cell may be pre-tenured: barrier the receiver.
                    self.heap.set_ref(c, 1, rv);
                    self.stack[base + dst as usize] = c;
                }
                Instr::NewObject { dst, class } => {
                    let n = self.program.classes[*class as usize].field_count;
                    let (dst, class) = (*dst, *class);
                    let r = self.alloc(CellKind::Object, class, n)?;
                    // Reference-typed fields default to null.
                    for (i, &nullable) in self.program.classes[class as usize]
                        .field_nullable
                        .clone()
                        .iter()
                        .enumerate()
                    {
                        if nullable {
                            self.heap.set(r, i, NULL);
                        }
                    }
                    self.stack[base + dst as usize] = r;
                }
                Instr::NewArray { dst, len, nullable } => {
                    let n = as_i32(reg!(*len));
                    if n < 0 {
                        return Err(VmError::Exception(Exception::BoundsCheck));
                    }
                    let (dst, nullable) = (*dst, *nullable);
                    let r = self.alloc(CellKind::Array, 0, n as usize)?;
                    if nullable {
                        for i in 0..n as usize {
                            self.heap.set(r, i, NULL);
                        }
                    }
                    self.stack[base + dst as usize] = r;
                }
                Instr::ArrayLit { dst, elems } => {
                    let elems = elems.clone();
                    let dst = *dst;
                    let r = self.alloc(CellKind::Array, 0, elems.len())?;
                    for (i, e) in elems.iter().enumerate() {
                        let v = self.stack[base + *e as usize];
                        // Elements may be references and the fresh array may
                        // be pre-tenured: store through the barrier.
                        self.heap.set_ref(r, i, v);
                    }
                    self.stack[base + dst as usize] = r;
                }
                Instr::ArrayLen { dst, arr } => {
                    let a = reg!(*arr);
                    if a == NULL {
                        return Err(VmError::Exception(Exception::NullCheck));
                    }
                    let n = self.heap.len(a);
                    reg!(*dst) = heap::scalar(n as i64);
                }
                Instr::ArrayGet { dst, arr, idx } => {
                    let a = reg!(*arr);
                    if a == NULL {
                        return Err(VmError::Exception(Exception::NullCheck));
                    }
                    let i = as_i32(reg!(*idx));
                    if i < 0 || i as usize >= self.heap.len(a) {
                        return Err(VmError::Exception(Exception::BoundsCheck));
                    }
                    reg!(*dst) = self.heap.get(a, i as usize);
                }
                Instr::ArraySet { arr, idx, val } => {
                    let a = reg!(*arr);
                    if a == NULL {
                        return Err(VmError::Exception(Exception::NullCheck));
                    }
                    let i = as_i32(reg!(*idx));
                    if i < 0 || i as usize >= self.heap.len(a) {
                        return Err(VmError::Exception(Exception::BoundsCheck));
                    }
                    let v = reg!(*val);
                    self.heap.set(a, i as usize, v);
                }
                Instr::ArraySetRef { arr, idx, val } => {
                    let a = reg!(*arr);
                    if a == NULL {
                        return Err(VmError::Exception(Exception::NullCheck));
                    }
                    let i = as_i32(reg!(*idx));
                    if i < 0 || i as usize >= self.heap.len(a) {
                        return Err(VmError::Exception(Exception::BoundsCheck));
                    }
                    let v = reg!(*val);
                    self.heap.set_ref(a, i as usize, v);
                }
                Instr::FieldGet { dst, obj, slot } => {
                    let o = reg!(*obj);
                    if o == NULL {
                        return Err(VmError::Exception(Exception::NullCheck));
                    }
                    reg!(*dst) = self.heap.get(o, *slot as usize);
                }
                Instr::FieldSet { obj, slot, val } => {
                    let o = reg!(*obj);
                    if o == NULL {
                        return Err(VmError::Exception(Exception::NullCheck));
                    }
                    let v = reg!(*val);
                    self.heap.set(o, *slot as usize, v);
                }
                Instr::FieldSetRef { obj, slot, val } => {
                    let o = reg!(*obj);
                    if o == NULL {
                        return Err(VmError::Exception(Exception::NullCheck));
                    }
                    let v = reg!(*val);
                    self.heap.set_ref(o, *slot as usize, v);
                }
                Instr::GlobalGet { dst, g } => reg!(*dst) = self.globals[*g as usize],
                Instr::GlobalSet { g, src } => self.globals[*g as usize] = reg!(*src),
                Instr::ClassQuery { dst, obj, lo, hi } => {
                    let o = reg!(*obj);
                    let ok = if o == NULL || !is_ref(o) {
                        false
                    } else {
                        let pre = self.program.classes[self.heap.meta(o) as usize].pre;
                        *lo <= pre && pre <= *hi
                    };
                    reg!(*dst) = heap::scalar(i64::from(ok));
                }
                Instr::ClassCast { obj, lo, hi } => {
                    let o = reg!(*obj);
                    if o != NULL {
                        let pre = self.program.classes[self.heap.meta(o) as usize].pre;
                        if !(*lo <= pre && pre <= *hi) {
                            return Err(VmError::Exception(Exception::TypeCheck));
                        }
                    }
                }
                Instr::ClosQuery { dst, clos, test } => {
                    let c = reg!(*clos);
                    let ok = if c == NULL {
                        false
                    } else {
                        let fnid = as_i32(self.heap.get(c, 0)) as usize;
                        let bound = self.heap.get(c, 1) != NULL;
                        let t = &self.program.clos_tests[*test as usize];
                        if bound { t.allowed_bound[fnid] } else { t.allowed_unbound[fnid] }
                    };
                    reg!(*dst) = heap::scalar(i64::from(ok));
                }
                Instr::ClosCast { clos, test } => {
                    let c = reg!(*clos);
                    if c != NULL {
                        let fnid = as_i32(self.heap.get(c, 0)) as usize;
                        let bound = self.heap.get(c, 1) != NULL;
                        let t = &self.program.clos_tests[*test as usize];
                        let ok =
                            if bound { t.allowed_bound[fnid] } else { t.allowed_unbound[fnid] };
                        if !ok {
                            return Err(VmError::Exception(Exception::TypeCheck));
                        }
                    }
                }
                Instr::IntToByte { dst, src } => {
                    let v = as_i32(reg!(*src));
                    let b = ops::int_to_byte(v).map_err(VmError::Exception)?;
                    reg!(*dst) = heap::scalar(b as i64);
                }
                Instr::CheckNull(r) => {
                    if reg!(*r) == NULL {
                        return Err(VmError::Exception(Exception::NullCheck));
                    }
                }
                Instr::IsNull(d, v) => {
                    let n = reg!(*v) == NULL;
                    reg!(*d) = heap::scalar(i64::from(n));
                }
                Instr::Ret(regs) => {
                    self.code_gen = self.code_gen.wrapping_add(1);
                    let frame = self.frames.pop().expect("frame present");
                    self.note_return::<HOT>(&frame);
                    if self.frames.len() == floor {
                        // Boundary of this `call_function`: the only
                        // allocation on the return path, once per entry.
                        let values: Vec<Word> =
                            regs.iter().map(|&r| self.stack[base + r as usize]).collect();
                        self.stack.truncate(frame.base);
                        return Ok(values);
                    }
                    let cbase = self.frames.last().expect("caller present").base;
                    // Copy returned words straight into the caller's
                    // registers: the regions are disjoint (cbase < base).
                    for (&dst, &src) in frame.rets.as_slice().iter().zip(regs.iter()) {
                        self.stack[cbase + dst as usize] = self.stack[base + src as usize];
                    }
                    self.stack.truncate(frame.base);
                }
                Instr::Trap(x) => return Err(VmError::Exception(*x)),

                // ---- superinstructions (fusion-emitted) -------------------
                Instr::BinI { k, dst, a, imm } => {
                    let x = as_i32(reg!(*a));
                    reg!(*dst) = bin_value(*k, x, *imm)?;
                }
                Instr::IncLocal { r, imm } => {
                    let slot = base + *r as usize;
                    self.stack[slot] =
                        from_i32(ops::int_add(as_i32(self.stack[slot]), *imm));
                }
                Instr::CmpBr { k, a, b, off, expect } => {
                    let x = as_i32(reg!(*a));
                    let y = as_i32(reg!(*b));
                    if cmp_value(*k, x, y) == *expect {
                        jump!(*off);
                    }
                }
                Instr::CmpBrI { k, a, imm, off, expect } => {
                    let x = as_i32(reg!(*a));
                    if cmp_value(*k, x, *imm) == *expect {
                        jump!(*off);
                    }
                }
                Instr::EqBr { a, b, off, expect } => {
                    if (reg!(*a) == reg!(*b)) == *expect {
                        jump!(*off);
                    }
                }
                Instr::NullBr { v, off, expect } => {
                    if (reg!(*v) == NULL) == *expect {
                        jump!(*off);
                    }
                }
                Instr::GlobalBin { k, dst, g, b } => {
                    let x = as_i32(self.globals[*g as usize]);
                    let y = as_i32(reg!(*b));
                    reg!(*dst) = bin_value(*k, x, y)?;
                }
                Instr::GlobalAccum { k, g, b } => {
                    let x = as_i32(self.globals[*g as usize]);
                    let y = as_i32(reg!(*b));
                    self.globals[*g as usize] = bin_value(*k, x, y)?;
                }
                Instr::FieldGetRet { obj, slot } => {
                    let o = reg!(*obj);
                    if o == NULL {
                        return Err(VmError::Exception(Exception::NullCheck));
                    }
                    let v = self.heap.get(o, *slot as usize);
                    self.code_gen = self.code_gen.wrapping_add(1);
                    let frame = self.frames.pop().expect("frame present");
                    self.note_return::<HOT>(&frame);
                    self.stack.truncate(frame.base);
                    if self.frames.len() == floor {
                        return Ok(vec![v]);
                    }
                    let cbase = self.frames.last().expect("caller present").base;
                    if let Some(&dst) = frame.rets.as_slice().first() {
                        self.stack[cbase + dst as usize] = v;
                    }
                }
            }
        }
    }



    /// Records a call in the runtime profile — a single counter bump; all
    /// cost attribution happens at frame exit. Kept out of
    /// [`Vm::push_frame_args`] so the frame-push fast path stays small.
    #[inline]
    fn note_call<const HOT: u8, const TIER: bool>(&mut self, callee: FuncId) {
        if HOT != 0 {
            self.hotness.rows[callee as usize].calls += 1;
            if TIER {
                // Checked before the frame push reads the tier slot, so the
                // threshold-crossing call itself already runs the hot tier.
                self.check_tier_up(callee);
            }
        }
    }

    /// Tier-up trigger, checked at the fuel-check points (calls and loop
    /// back-edges). A function (re-)tiers once its hotness weight — calls
    /// plus back-edge ticks — reaches its slot's `next_at`.
    #[inline]
    fn check_tier_up(&mut self, func: FuncId) {
        let Some(t) = self.tier.as_deref() else { return };
        let row = &self.hotness.rows[func as usize];
        let w = row.calls + row.ticks;
        if w >= t.slots[func as usize].next_at {
            self.tier_up(func, w);
        }
    }

    /// Re-runs fusion on one function using its own runtime profile and
    /// installs the result as the function's hot-tier body. Frames already
    /// running the old body keep their pinned `Rc` — there is no OSR; the
    /// new body applies to future pushes only.
    #[cold]
    fn tier_up(&mut self, func: FuncId, weight: u64) {
        let body = {
            let t = self.tier.as_deref().expect("tiering enabled");
            let ic = &self.ic;
            // Speculate only on sites the IC history says are monomorphic
            // and stable, and that never deopted (sticky mega mark).
            let spec = |site: u32| {
                let e = ic[site as usize];
                let cached = (e.class != IC_EMPTY).then_some((e.class, e.func));
                match site_speculation(cached, t.site_miss[site as usize], t.mega[site as usize])
                {
                    Speculation::Speculate { class, func } => Some((class, func)),
                    _ => None,
                }
            };
            let fb = TierFeedback {
                spec: &spec,
                hist: &t.hist[func as usize],
                hot_min: t.hot_min,
            };
            tier_fuse_func(self.program, func, &fb)
        };
        let t = self.tier.as_deref_mut().expect("tiering enabled");
        let threshold = t.threshold;
        let slot = &mut t.slots[func as usize];
        slot.body = Some(Rc::new(body));
        slot.tier_ups += 1;
        // Doubling schedule bounds re-fuse churn on functions that stay hot.
        slot.next_at = weight.max(threshold).saturating_mul(2);
        self.stats.tier_ups += 1;
        if let Some(fr) = self.flight.as_deref_mut() {
            fr.record(self.stats.instrs, FlightKind::TierUp { func });
        }
        if let Some(tl) = self.tracelog.as_deref_mut() {
            tl.record_tier(func, false);
        }
    }

    /// Guard failure: transfer the current frame back to the baseline body
    /// at the pc the failed site originated from, and mark the site
    /// megamorphic so no future tier-up re-speculates it. The tier pipeline
    /// only performs transformations that keep every baseline-live register
    /// valid at guard points, so the transfer is a plain pc swap.
    #[cold]
    fn deopt(&mut self, fi: usize, func: FuncId, site: u32, deopt_pc: u32, seen: u32) {
        self.stats.deopts += 1;
        let t = self.tier.as_deref_mut().expect("tiering enabled");
        t.mega[site as usize] = true;
        t.slots[func as usize].body = None;
        // Re-tier at the next trigger point: the replacement body has the
        // failed site de-speculated but keeps everything else.
        t.slots[func as usize].next_at = 0;
        self.frames[fi].code = None;
        self.frames[fi].pc = deopt_pc as usize;
        self.code_gen = self.code_gen.wrapping_add(1);
        if let Some(fr) = self.flight.as_deref_mut() {
            fr.record(self.stats.instrs, FlightKind::Deopt { site, class: seen, func });
        }
        if let Some(tl) = self.tracelog.as_deref_mut() {
            tl.record_tier(func, true);
        }
    }

    /// Closes a popped frame's telemetry: the inclusive total is the
    /// instructions retired since entry, the exclusive share is that minus
    /// the completed callees accumulated in `child_instrs`, and the caller
    /// inherits the inclusive total as its own child cost. One profile row
    /// and the (cache-hot) caller frame per return — nothing is tracked
    /// between boundaries. Also ends the frame's trace-log span.
    #[inline]
    fn note_return<const HOT: u8>(&mut self, frame: &FrameInfo) {
        if HOT == 2 {
            let inc = self.stats.instrs - frame.entry_instr;
            let h = &mut self.hotness.rows[frame.func as usize];
            h.incl_instrs += inc;
            h.excl_instrs += inc - frame.child_instrs;
            if let Some(parent) = self.frames.last_mut() {
                parent.child_instrs += inc;
            }
        }
        if let Some(t) = self.tracelog.as_deref_mut() {
            t.exit();
        }
    }

    /// Pushes a callee frame, copying `prepend` (a bound receiver) and then
    /// the caller registers `args` directly into the new frame — no
    /// temporary argument vector.
    #[inline]
    fn push_frame_args<const TIER: bool>(
        &mut self,
        callee: FuncId,
        kind: CallKind,
        caller_base: usize,
        prepend: Option<Word>,
        args: &[Reg],
        rets: RetSlots,
    ) {
        let f = &self.program.funcs[callee as usize];
        debug_assert_eq!(
            args.len() + usize::from(prepend.is_some()),
            f.param_count,
            "arity calling {}",
            f.name
        );
        if let Some(t) = self.tracelog.as_deref_mut() {
            t.enter(callee);
        }
        if let Some(fr) = self.flight.as_deref_mut() {
            fr.record(self.stats.instrs, FlightKind::Call { kind, func: callee });
        }
        let base = self.stack.len();
        self.stack.resize(base + f.reg_count, 0);
        let mut at = base;
        if let Some(w) = prepend {
            self.stack[at] = w;
            at += 1;
        }
        for &r in args {
            self.stack[at] = self.stack[caller_base + r as usize];
            at += 1;
        }
        self.code_gen = self.code_gen.wrapping_add(1);
        self.frames.push(FrameInfo {
            func: callee,
            pc: 0,
            base,
            rets,
            entry_instr: self.stats.instrs,
            child_instrs: 0,
            code: if TIER {
                self.tier.as_deref().and_then(|t| t.slots[callee as usize].body.clone())
            } else {
                None
            },
        });
    }

    fn alloc(&mut self, kind: CellKind, meta: u32, len: usize) -> Result<Word, VmError> {
        match self.heap.try_alloc(kind, meta, len) {
            Ok(r) => {
                self.stats.heap = self.heap.stats;
                Ok(r)
            }
            Err(NeedsGc) => {
                // The retry ladder: collect (minor when the heap is
                // generational and the mature space has headroom, else
                // major) → retry → force a major → retry → grow → retry.
                self.collect_now(false);
                let r = match self.heap.try_alloc(kind, meta, len) {
                    Ok(r) => r,
                    Err(NeedsGc) => {
                        // A minor may not have freed enough (survivors
                        // promote rather than vanish, and pre-tenured cells
                        // need mature space): escalate to a full copy.
                        self.collect_now(true);
                        match self.heap.try_alloc(kind, meta, len) {
                            Ok(r) => r,
                            Err(NeedsGc) => {
                                self.heap.grow(len + 64);
                                self.heap
                                    .try_alloc(kind, meta, len)
                                    .expect("allocation after grow")
                            }
                        }
                    }
                };
                self.stats.heap = self.heap.stats;
                Ok(r)
            }
        }
    }

    /// Runs one collection with the stack and globals as roots and records
    /// it in every enabled telemetry surface (profile, trace log, flight
    /// recorder). `force_major` bypasses the minor/major heuristic.
    fn collect_now(&mut self, force_major: bool) {
        let sp = self.stack.len();
        let mut stack = std::mem::take(&mut self.stack);
        let mut globals = std::mem::take(&mut self.globals);
        let pause_start = (self.profile.is_some() || self.tracelog.is_some())
            .then(vgl_obs::since_epoch);
        let roots = &mut [&mut stack[..sp], &mut globals[..]];
        let info = if force_major {
            self.heap.collect_major(roots)
        } else {
            self.heap.collect(roots)
        };
        if let Some(at) = pause_start {
            let event = GcEvent {
                kind: info.kind,
                at,
                pause: vgl_obs::since_epoch().saturating_sub(at),
                live_slots: info.live_slots,
                copied_slots: info.copied_slots,
                capacity_slots: info.capacity_slots,
                at_instr: self.stats.instrs,
            };
            if let Some(p) = self.profile.as_deref_mut() {
                p.gc_events.push(event);
            }
            if let Some(t) = self.tracelog.as_deref_mut() {
                t.gc.push(event);
            }
        }
        if let Some(fr) = self.flight.as_deref_mut() {
            fr.record(
                self.stats.instrs,
                FlightKind::Gc {
                    kind: info.kind,
                    live_slots: info.live_slots,
                    capacity_slots: info.capacity_slots,
                },
            );
        }
        self.stack = stack;
        self.globals = globals;
    }

    fn builtin(&mut self, b: Builtin, args: &[Word]) -> Result<Option<Word>, VmError> {
        match b {
            Builtin::Puts => {
                let a = args[0];
                if a == NULL {
                    return Err(VmError::Exception(Exception::NullCheck));
                }
                for i in 0..self.heap.len(a) {
                    self.out.push(as_i32(self.heap.get(a, i)) as u8);
                }
                Ok(None)
            }
            Builtin::Puti => {
                let s = as_i32(args[0]).to_string();
                self.out.extend_from_slice(s.as_bytes());
                Ok(None)
            }
            Builtin::Putb => {
                let s = if as_i32(args[0]) != 0 { "true" } else { "false" };
                self.out.extend_from_slice(s.as_bytes());
                Ok(None)
            }
            Builtin::Putc => {
                self.out.push(as_i32(args[0]) as u8);
                Ok(None)
            }
            Builtin::Ln => {
                self.out.push(b'\n');
                Ok(None)
            }
            Builtin::Ticks => Ok(Some(heap::scalar(self.stats.instrs as i64))),
            Builtin::Error => Err(VmError::Exception(Exception::UserError)),
        }
    }
}

/// Evaluates one scalar binary operation (shared by `Bin` and `BinI`).
#[inline(always)]
fn bin_value(k: BinKind, x: i32, y: i32) -> Result<Word, VmError> {
    Ok(match k {
        BinKind::Add => from_i32(ops::int_add(x, y)),
        BinKind::Sub => from_i32(ops::int_sub(x, y)),
        BinKind::Mul => from_i32(ops::int_mul(x, y)),
        BinKind::Div => from_i32(ops::int_div(x, y).map_err(VmError::Exception)?),
        BinKind::Mod => from_i32(ops::int_mod(x, y).map_err(VmError::Exception)?),
        BinKind::Lt => heap::scalar(i64::from(x < y)),
        BinKind::Le => heap::scalar(i64::from(x <= y)),
        BinKind::Gt => heap::scalar(i64::from(x > y)),
        BinKind::Ge => heap::scalar(i64::from(x >= y)),
        BinKind::And => from_i32(x & y),
        BinKind::Or => from_i32(x | y),
        BinKind::Xor => from_i32(x ^ y),
        BinKind::Shl => from_i32(ops::int_shl(x, y)),
        BinKind::Shr => from_i32(ops::int_shr(x, y)),
    })
}

/// Evaluates an ordering comparison for `CmpBr`/`CmpBrI`. The fusion
/// validator guarantees `k` is one of the four orderings.
#[inline(always)]
fn cmp_value(k: BinKind, x: i32, y: i32) -> bool {
    match k {
        BinKind::Lt => x < y,
        BinKind::Le => x <= y,
        BinKind::Gt => x > y,
        BinKind::Ge => x >= y,
        _ => {
            debug_assert!(false, "{k:?} is not a comparison kind");
            false
        }
    }
}

/// Convenience: decode a returned word as an `i32` (ints, bytes, bools).
pub fn ret_as_int(words: &[Word]) -> Option<i32> {
    words.first().map(|&w| as_i32(w))
}

/// Convenience: true if the single returned word is a reference.
pub fn ret_is_ref(words: &[Word]) -> bool {
    words.first().map(|&w| is_ref(w) && w != NULL).unwrap_or(false)
}
