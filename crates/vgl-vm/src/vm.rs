//! The register VM: executes bytecode over tagged words with the semispace
//! GC heap. No instruction allocates implicitly — the heap statistics after a
//! run *prove* the §4.2 claim that compiled programs only allocate at
//! explicit `new`/literals (plus closure cells, reported separately).
//!
//! One dispatch loop, `interp_until`, runs every frame. Per instruction it
//! bumps a local instruction count, fetches `code[pc]` from the running
//! function's code held in a local, advances the local `pc` and executes
//! the instruction. The running frame's pc and register base live in
//! locals too; they reach the frame stack only at calls, returns and error
//! exits, and the count reaches [`VmStats::instrs`] only before
//! something reads it. The loop is monomorphized over the profilers and
//! tiering, so a disabled instrument costs nothing per instruction.
//!
//! The loop **allocates nothing on the Rust heap per instruction or per
//! call**. A call frame is three 32-bit words: function, resume pc and
//! register base. A return copies its values straight into the registers the
//! caller's call instruction names — the instruction just before the
//! caller's resume pc — so no frame keeps a copy of them, however many
//! scalars a function returns. Arguments are copied directly between stack
//! frames with no temporary `Vec`, allocating instructions borrow their
//! class, pool and element lists from the program, the value stack is
//! pre-sized from the static max-frame analysis done at lowering/fusion
//! time ([`crate::VmProgram::max_frame_regs`]), and the fuel check runs only
//! at loop back-edges and calls — the two places a program can cycle —
//! instead of once per instruction.
//!
//! Virtual calls go through **monomorphic inline caches** (Hölzle): each
//! `CallVirt` site caches its last (class-id → callee) pair and skips the
//! vtable load on a hit. Hit/miss counts are in [`VmStats`].

use crate::bytecode::*;
use crate::flight::{CallKind, FlightKind, FlightRecorder};
use crate::fuse::inline_op;
use crate::profile::{GcEvent, RuntimeProfile, TraceLog, VmProfile};
use crate::tier::{site_speculation, SiteSpec, Speculation, TierState};
use std::io::Write;
use std::rc::Rc;
use vgl_ir::ops::{self, Exception};
use vgl_ir::Builtin;
use vgl_runtime::heap::{self, as_i32, from_i32, is_ref, CellKind, Heap, HeapStats, Word, NULL};

/// Default heap capacity in slots (8 MiB of tagged words). A capacity, not
/// a footprint: the heap commits its memory as it fills.
pub const DEFAULT_HEAP_SLOTS: usize = 1 << 20;

/// Default nursery size in slots (128 KiB of tagged words): small enough
/// that minor pauses stay far below a full-heap copy, large enough that
/// short-lived request/response churn dies in place without promotion.
pub const DEFAULT_NURSERY_SLOTS: usize = 1 << 14;

/// The call-depth bound, in words: a frame push that would take the value
/// stack's length plus the frame count past it raises
/// [`VmError::StackOverflow`]. 2^22 words are 32 MB of registers, about a
/// million frames of a small function.
const STACK_BUDGET_WORDS: usize = 1 << 22;

/// Why execution stopped abnormally.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VmError {
    /// A language-level exception.
    Exception(Exception),
    /// The configured instruction budget ran out.
    OutOfFuel,
    /// A call would have taken the VM's stacks past their fixed budget.
    StackOverflow,
    /// The program has no main function.
    NoMain,
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::Exception(e) => write!(f, "{e}"),
            VmError::OutOfFuel => write!(f, "out of fuel"),
            VmError::StackOverflow => write!(f, "stack overflow"),
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
    /// Tier-ups, counting re-tiers.
    pub tier_ups: u64,
    /// Speculated call sites that saw a receiver of another class: each
    /// deoptimized in place and went megamorphic.
    pub deopts: u64,
    /// Virtual calls at speculated sites whose receiver passed the class
    /// guard and called the callee directly, skipping the inline cache.
    pub guarded_calls: u64,
    /// Virtual calls at speculated sites whose one-instruction callee ran in
    /// place of the call — no frame was pushed.
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

/// One monomorphic inline-cache entry: the last receiver class seen at a
/// `CallVirt` site and the callee its vtable resolved to.
#[derive(Clone, Copy)]
struct IcEntry {
    class: u32,
    func: FuncId,
}

/// No class has this id; an entry holding it always misses.
const IC_EMPTY: u32 = u32::MAX;

/// A call frame. The dispatch loop keeps the running frame's pc and base in
/// locals, so its entry here is read once it is a caller again, when a
/// trap names it, and for its function at a back-edge of an untiered
/// profiling run. A caller's `pc` is its resume point, one past
/// the call instruction whose `rets` receive the callee's return values.
/// `u32` holds any pc, and any base below [`STACK_BUDGET_WORDS`].
struct FrameInfo {
    func: FuncId,
    pc: u32,
    base: u32,
}

/// The precise profiler's bookkeeping for one open frame. It lives on a
/// side stack that only the `HOT == 2` instance of the dispatch loop, and
/// [`Vm::call_function`] under it, push and pop in step with the frames.
struct ProfFrame {
    /// `stats.instrs` at frame entry — the profiler derives inclusive
    /// instruction counts from this at frame exit.
    entry_instr: u64,
    /// Instructions retired by completed callees of this frame; the
    /// profiler subtracts it from the inclusive total at frame exit to
    /// get the exclusive share without any bookkeeping at call time.
    child_instrs: u64,
}

/// The virtual machine.
pub struct Vm<'p> {
    program: &'p VmProgram,
    heap: Heap,
    globals: Vec<Word>,
    stack: Vec<Word>,
    frames: Vec<FrameInfo>,
    /// One entry per open frame while the precise profiler runs; empty
    /// otherwise.
    prof_frames: Vec<ProfFrame>,
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
    /// retired instructions). Held inline with empty rows when disabled.
    /// The dispatch loop's `HOT` const compiles its hooks out when off;
    /// when on, each hook touches one packed row, only at calls, returns
    /// and back-edges, never per instruction, which keeps it inside the
    /// E10 5% gate.
    hotness: RuntimeProfile,
    /// When true, the runtime profiler also maintains exact
    /// inclusive/exclusive retired-instruction counts at every frame exit
    /// (precise mode — costs more than the default tick sampling).
    hot_precise: bool,
    /// Wall-clock function spans + GC instants for `vglc trace`.
    tracelog: Option<Box<TraceLog>>,
    /// Crash flight recorder (`--flight-record`).
    flight: Option<Box<FlightRecorder>>,
    /// Tiered-execution state ([`Vm::enable_tiering`]): the fused code and
    /// per-site speculation. Boxed like the profilers; the dispatch loop is
    /// monomorphized over a `TIER` const so the disabled case costs nothing.
    tier: Option<Box<TierState>>,
    /// The tier-up schedule, one entry per function while tiering is on:
    /// the hotness weight (calls plus back-edge ticks) at which the
    /// function tiers up next. It starts at the threshold, doubles after
    /// every tier-up (bounding re-tier churn), and resets to zero on a
    /// deopt so the function re-speculates at its next trigger point. Kept
    /// outside the box, since every call and back-edge reads it.
    tier_at: Vec<u64>,
}

impl<'p> Vm<'p> {
    /// Creates a VM over a compiled program with the default heap capacity
    /// ([`DEFAULT_HEAP_SLOTS`]) and nursery ([`DEFAULT_NURSERY_SLOTS`]).
    pub fn new(program: &'p VmProgram) -> Vm<'p> {
        Vm::with_heap_config(program, DEFAULT_HEAP_SLOTS, DEFAULT_NURSERY_SLOTS)
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
            prof_frames: Vec::new(),
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
            tier_at: Vec::new(),
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

    /// Turns on tiered execution: the VM fuses the program once, with the
    /// static pass, and runs the fused code. When a function's sampled
    /// hotness — calls plus back-edge ticks — crosses `threshold` (clamped
    /// to ≥ 1) the VM tiers it up, which only speculates: each monomorphic
    /// call site of the function checks its receiver's class and calls the
    /// expected callee directly, or runs its one-instruction body in place.
    /// A receiver of another class deoptimizes the site in place: it goes
    /// megamorphic and the call proceeds as a plain virtual call. Implies
    /// [`Vm::enable_runtime_profiling`] (tiering consumes the sampling
    /// rows).
    pub fn enable_tiering(&mut self, threshold: u64) {
        self.enable_runtime_profiling();
        if self.tier.is_none() {
            let t = TierState::new(self.program, threshold);
            self.tier_at = vec![t.threshold; self.program.funcs.len()];
            self.tier = Some(Box::new(t));
        }
    }

    /// The tiering state, when enabled — `vglc disasm --tiered` and the
    /// tier tests read the fused code, the speculated sites and the
    /// megamorphic marks through this.
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
        let program = self.program;
        for &(g, fid) in &program.global_inits {
            let vals = self.call_function(fid, &[])?;
            self.globals[g as usize] = vals.first().copied().unwrap_or(0);
        }
        self.call_function(main, &[])
    }

    /// Calls a function with arguments (testing hook).
    pub fn call_function(&mut self, func: FuncId, args: &[Word]) -> Result<Vec<Word>, VmError> {
        let program = self.program;
        // A tiered run executes the fused code its tier state holds. Fusion
        // rewrites only code, so frame shapes come from the program.
        let fused = self.tier.as_deref().map(|t| Rc::clone(&t.funcs));
        let funcs: &[VmFunc] = fused.as_deref().unwrap_or(&program.funcs);
        let f = &program.funcs[func as usize];
        debug_assert_eq!(args.len(), f.param_count, "arity calling {}", f.name);
        let base = self.stack.len();
        if base + f.reg_count + self.frames.len() >= STACK_BUDGET_WORDS {
            return Err(VmError::StackOverflow);
        }
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
        self.frames.push(FrameInfo { func, pc: 0, base: base as u32 });
        if hot == 2 {
            self.prof_frames.push(ProfFrame { entry_instr: self.stats.instrs, child_instrs: 0 });
        }
        let depth = self.frames.len();
        let tier = self.tier.is_some();
        let r = match (self.profile.is_some(), hot, tier) {
            (false, 0, _) => self.interp_until::<false, 0, false>(funcs, depth - 1),
            (false, 1, false) => self.interp_until::<false, 1, false>(funcs, depth - 1),
            (false, 1, true) => self.interp_until::<false, 1, true>(funcs, depth - 1),
            (false, _, false) => self.interp_until::<false, 2, false>(funcs, depth - 1),
            (false, _, true) => self.interp_until::<false, 2, true>(funcs, depth - 1),
            (true, 0, _) => self.interp_until::<true, 0, false>(funcs, depth - 1),
            (true, 1, false) => self.interp_until::<true, 1, false>(funcs, depth - 1),
            (true, 1, true) => self.interp_until::<true, 1, true>(funcs, depth - 1),
            (true, _, false) => self.interp_until::<true, 2, false>(funcs, depth - 1),
            (true, _, true) => self.interp_until::<true, 2, true>(funcs, depth - 1),
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
                        self.frames.last().map(|f| (f.func, f.pc as usize)).unwrap_or((func, 0));
                    fr.record(
                        self.stats.instrs,
                        FlightKind::Trap { error: e, func: tf, pc: tpc },
                    );
                }
                if let Some(t) = self.tracelog.as_deref_mut() {
                    t.close_all();
                }
                // The precise side stack is empty or in step with the frames.
                self.frames.truncate(depth - 1);
                self.prof_frames.truncate(depth - 1);
                self.stack.truncate(base);
                Err(e)
            }
        }
    }

    /// Runs frames until the frame stack drops back to `floor`, returning
    /// the popped frame's return values.
    ///
    /// The running frame's pc, register base and code, and the
    /// retired-instruction count, live in locals, as does its function in
    /// a tiered run (`running!` says why only there). They reach the frame
    /// stack and `stats.instrs` only where something reads them: the
    /// caller's resume pc before a push, the count before any call that
    /// reads it (frame pushes, returns, allocation, tier-up and deopt,
    /// `System.ticks()`), and both at every exit. A return reads its
    /// destination registers from the call instruction before the caller's
    /// resume pc.
    fn interp_until<const PROFILE: bool, const HOT: u8, const TIER: bool>(
        &mut self,
        funcs: &[VmFunc],
        floor: usize,
    ) -> Result<Vec<Word>, VmError> {
        let program = self.program;
        let fuel_limit = self.fuel_limit;
        let mut instrs = self.stats.instrs;
        let top = self.frames.last().expect("frame present");
        let (mut func, mut pc, mut base) = (top.func, top.pc as usize, top.base as usize);
        let mut code: &[Instr] = &funcs[func as usize].code;
        let result = 'run: loop {
            instrs += 1;
            let instr = &code[pc];
            // Default: advance to the next instruction.
            pc += 1;
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
            macro_rules! throw {
                ($e:expr) => {
                    break 'run Err($e)
                };
            }
            macro_rules! tri {
                ($e:expr) => {
                    match $e {
                        Ok(v) => v,
                        Err(e) => throw!(e),
                    }
                };
            }
            macro_rules! check_fuel {
                () => {
                    if instrs >= fuel_limit {
                        throw!(VmError::OutOfFuel);
                    }
                };
            }
            // The running function. A tiered run reads it at every
            // back-edge and keeps it in `func`; the other instances read
            // it from its frame at a back-edge, which keeps a register
            // free for the rest of the loop.
            macro_rules! running {
                () => {
                    if TIER {
                        func
                    } else {
                        self.frames.last().expect("frame present").func
                    }
                };
            }
            // Every loop in the bytecode crosses a backward branch, so the
            // fuel check lives here (and at calls) instead of per-instruction.
            // Offsets are relative to the branch itself, one behind `pc`.
            macro_rules! jump {
                ($off:expr) => {{
                    let off = $off;
                    if off < 0 {
                        check_fuel!();
                        // Back-edge tick: the loop-hotness signal. Rides the
                        // existing fuel-check point so straight-line code
                        // never sees the profiler.
                        if HOT != 0 {
                            let func = running!();
                            if let Some(h) = self.hotness.rows.get_mut(func as usize) {
                                h.ticks += 1;
                            }
                            if TIER {
                                self.stats.instrs = instrs;
                                self.check_tier_up(func);
                            }
                        }
                    }
                    pc = pc.wrapping_add_signed(off as isize - 1);
                }};
            }
            // Pushes the callee's frame behind the caller's resume pc and
            // makes it the running frame.
            macro_rules! enter {
                ($callee:expr, $kind:expr, $prepend:expr, $args:expr) => {{
                    let callee: FuncId = $callee;
                    self.stats.instrs = instrs;
                    self.note_call::<HOT, TIER>(callee);
                    self.frames.last_mut().expect("caller present").pc = pc as u32;
                    base = tri!(self.push_frame_args::<HOT>(callee, $kind, base, $prepend, $args));
                    (func, pc) = (callee, 0);
                    code = &funcs[func as usize].code;
                }};
            }
            // Pops the running frame and closes its telemetry.
            macro_rules! pop_frame {
                () => {{
                    self.stats.instrs = instrs;
                    let frame = self.frames.pop().expect("frame present");
                    self.note_return::<HOT>(frame.func);
                }};
            }
            // Makes the frame on top of the stack the running one again.
            macro_rules! resume {
                () => {{
                    let caller = self.frames.last().expect("caller present");
                    (func, pc, base) = (caller.func, caller.pc as usize, caller.base as usize);
                    code = &funcs[func as usize].code;
                }};
            }
            match instr {
                Instr::ConstI(d, v) => reg!(*d) = heap::scalar(*v),
                Instr::ConstNull(d) => reg!(*d) = NULL,
                Instr::ConstPool(d, ix) => {
                    let bytes = &program.pool[*ix as usize];
                    self.stats.instrs = instrs;
                    let r = self.alloc(CellKind::Array, 0, bytes.len());
                    for (i, b) in bytes.iter().enumerate() {
                        self.heap.set(r, i, heap::scalar(*b as i64));
                    }
                    reg!(*d) = r;
                }
                Instr::Mov(d, s) => reg!(*d) = reg!(*s),
                Instr::Bin(k, d, a, b) => {
                    let x = as_i32(reg!(*a));
                    let y = as_i32(reg!(*b));
                    reg!(*d) = tri!(bin_value(*k, x, y));
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
                    reg!(*d) = heap::scalar(i64::from(eq));
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
                Instr::Call { func: callee, args, .. } => {
                    self.stats.calls += 1;
                    check_fuel!();
                    enter!(*callee, CallKind::Static, None, args);
                }
                Instr::CallVirt { slot, site, args, rets } => {
                    self.stats.calls += 1;
                    self.stats.virtual_calls += 1;
                    let recv = reg!(args[0]);
                    if TIER {
                        // A speculated site: one class compare replaces the
                        // IC probe, and the expected callee runs directly or
                        // in place of the call. Any other receiver, null
                        // included, deoptimizes the site and carries on as
                        // the plain call below.
                        let spec = self
                            .tier
                            .as_deref()
                            .and_then(|t| t.spec.get(*site as usize).copied().flatten());
                        if let Some(spec) = spec {
                            let seen = if recv == NULL { IC_EMPTY } else { self.heap.meta(recv) };
                            if seen != spec.class {
                                self.stats.instrs = instrs;
                                self.deopt(func, *site, seen);
                            } else if let Some(op) = spec.op {
                                self.stats.inlined_calls += 1;
                                let v = match op {
                                    InlOp::Arg(p) => reg!(args[p as usize]),
                                    InlOp::Const(c) => heap::scalar(c as i64),
                                    InlOp::Bin(k, a, b) => {
                                        let x = as_i32(reg!(args[a as usize]));
                                        let y = as_i32(reg!(args[b as usize]));
                                        tri!(bin_value(k, x, y))
                                    }
                                    InlOp::BinI(k, a, imm) => {
                                        let x = as_i32(reg!(args[a as usize]));
                                        tri!(bin_value(k, x, imm))
                                    }
                                    InlOp::Field(slot, obj) => {
                                        let o = reg!(args[obj as usize]);
                                        if o == NULL {
                                            throw!(VmError::Exception(Exception::NullCheck));
                                        }
                                        self.heap.get(o, slot as usize)
                                    }
                                };
                                if let Some(&dst) = rets.first() {
                                    reg!(dst) = v;
                                }
                                continue;
                            } else {
                                self.stats.guarded_calls += 1;
                                check_fuel!();
                                enter!(spec.func, CallKind::Virtual, None, args);
                                continue;
                            }
                        }
                    }
                    check_fuel!();
                    if recv == NULL {
                        throw!(VmError::Exception(Exception::NullCheck));
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
                        let f = program.classes[class as usize].vtable[*slot as usize];
                        self.ic[*site as usize] = IcEntry { class, func: f };
                        if TIER {
                            // Stability signal for speculation: a site that
                            // keeps missing is never devirtualized.
                            if let Some(t) = self.tier.as_deref_mut() {
                                t.site_miss[*site as usize] += 1;
                            }
                        }
                        if let Some(fr) = self.flight.as_deref_mut() {
                            fr.record(instrs, FlightKind::IcMiss { site: *site, class, func: f });
                        }
                        f
                    };
                    enter!(callee, CallKind::Virtual, None, args);
                }
                Instr::CallClos { clos, args, .. } => {
                    self.stats.calls += 1;
                    self.stats.closure_calls += 1;
                    check_fuel!();
                    let c = reg!(*clos);
                    if c == NULL {
                        throw!(VmError::Exception(Exception::NullCheck));
                    }
                    let fnid = as_i32(self.heap.get(c, 0)) as FuncId;
                    let recv = self.heap.get(c, 1);
                    // NOTE: no calling-convention check here — arity is
                    // statically exact after normalization (§4.1/§4.2).
                    let prepend = (recv != NULL).then_some(recv);
                    enter!(fnid, CallKind::Closure, prepend, args);
                }
                Instr::CallBuiltin { b, args, rets } => {
                    debug_assert!(args.len() <= 2, "builtin arity");
                    let mut argv = [0 as Word; 2];
                    for (i, &a) in args.iter().enumerate() {
                        argv[i] = reg!(a);
                    }
                    self.stats.instrs = instrs;
                    let r = tri!(self.builtin(*b, &argv[..args.len()]));
                    if let (Some(&dst), Some(v)) = (rets.first(), r) {
                        reg!(dst) = v;
                    }
                }
                Instr::MakeClos { dst, func: f2, recv } => {
                    // Allocate FIRST: the receiver must be re-read from its
                    // register after a potential collection (registers are
                    // roots and get forwarded; a cached copy would dangle).
                    self.stats.instrs = instrs;
                    let c = self.alloc(CellKind::Closure, 0, 2);
                    let rv = recv.map(|r| reg!(r)).unwrap_or(NULL);
                    self.heap.set(c, 0, heap::scalar(*f2 as i64));
                    // The fresh cell may be pre-tenured: barrier the receiver.
                    self.heap.set_ref(c, 1, rv);
                    reg!(*dst) = c;
                }
                Instr::MakeClosVirt { dst, slot, recv } => {
                    let rv = reg!(*recv);
                    if rv == NULL {
                        throw!(VmError::Exception(Exception::NullCheck));
                    }
                    let class = self.heap.meta(rv) as usize;
                    let callee = program.classes[class].vtable[*slot as usize];
                    self.stats.instrs = instrs;
                    let c = self.alloc(CellKind::Closure, 0, 2);
                    // Re-read the receiver: it may have moved.
                    let rv = reg!(*recv);
                    self.heap.set(c, 0, heap::scalar(callee as i64));
                    // The fresh cell may be pre-tenured: barrier the receiver.
                    self.heap.set_ref(c, 1, rv);
                    reg!(*dst) = c;
                }
                Instr::NewObject { dst, class } => {
                    let cls = &program.classes[*class as usize];
                    self.stats.instrs = instrs;
                    let r = self.alloc(CellKind::Object, *class, cls.field_count);
                    // Reference-typed fields default to null.
                    for (i, &nullable) in cls.field_nullable.iter().enumerate() {
                        if nullable {
                            self.heap.set(r, i, NULL);
                        }
                    }
                    reg!(*dst) = r;
                }
                Instr::NewArray { dst, len, nullable } => {
                    let n = as_i32(reg!(*len));
                    if n < 0 {
                        throw!(VmError::Exception(Exception::BoundsCheck));
                    }
                    self.stats.instrs = instrs;
                    let r = self.alloc(CellKind::Array, 0, n as usize);
                    if *nullable {
                        for i in 0..n as usize {
                            self.heap.set(r, i, NULL);
                        }
                    }
                    reg!(*dst) = r;
                }
                Instr::ArrayLit { dst, elems } => {
                    self.stats.instrs = instrs;
                    let r = self.alloc(CellKind::Array, 0, elems.len());
                    for (i, e) in elems.iter().enumerate() {
                        // Elements may be references and the fresh array may
                        // be pre-tenured: store through the barrier.
                        let v = reg!(*e);
                        self.heap.set_ref(r, i, v);
                    }
                    reg!(*dst) = r;
                }
                Instr::ArrayLen { dst, arr } => {
                    let a = reg!(*arr);
                    if a == NULL {
                        throw!(VmError::Exception(Exception::NullCheck));
                    }
                    let n = self.heap.len(a);
                    reg!(*dst) = heap::scalar(n as i64);
                }
                Instr::ArrayGet { dst, arr, idx } => {
                    let a = reg!(*arr);
                    if a == NULL {
                        throw!(VmError::Exception(Exception::NullCheck));
                    }
                    let i = as_i32(reg!(*idx));
                    if i < 0 || i as usize >= self.heap.len(a) {
                        throw!(VmError::Exception(Exception::BoundsCheck));
                    }
                    reg!(*dst) = self.heap.get(a, i as usize);
                }
                Instr::ArraySet { arr, idx, val } => {
                    let a = reg!(*arr);
                    if a == NULL {
                        throw!(VmError::Exception(Exception::NullCheck));
                    }
                    let i = as_i32(reg!(*idx));
                    if i < 0 || i as usize >= self.heap.len(a) {
                        throw!(VmError::Exception(Exception::BoundsCheck));
                    }
                    let v = reg!(*val);
                    self.heap.set(a, i as usize, v);
                }
                Instr::ArraySetRef { arr, idx, val } => {
                    let a = reg!(*arr);
                    if a == NULL {
                        throw!(VmError::Exception(Exception::NullCheck));
                    }
                    let i = as_i32(reg!(*idx));
                    if i < 0 || i as usize >= self.heap.len(a) {
                        throw!(VmError::Exception(Exception::BoundsCheck));
                    }
                    let v = reg!(*val);
                    self.heap.set_ref(a, i as usize, v);
                }
                Instr::FieldGet { dst, obj, slot } => {
                    let o = reg!(*obj);
                    if o == NULL {
                        throw!(VmError::Exception(Exception::NullCheck));
                    }
                    reg!(*dst) = self.heap.get(o, *slot as usize);
                }
                Instr::FieldSet { obj, slot, val } => {
                    let o = reg!(*obj);
                    if o == NULL {
                        throw!(VmError::Exception(Exception::NullCheck));
                    }
                    let v = reg!(*val);
                    self.heap.set(o, *slot as usize, v);
                }
                Instr::FieldSetRef { obj, slot, val } => {
                    let o = reg!(*obj);
                    if o == NULL {
                        throw!(VmError::Exception(Exception::NullCheck));
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
                        let pre = program.classes[self.heap.meta(o) as usize].pre;
                        *lo <= pre && pre <= *hi
                    };
                    reg!(*dst) = heap::scalar(i64::from(ok));
                }
                Instr::ClassCast { obj, lo, hi } => {
                    let o = reg!(*obj);
                    if o != NULL {
                        let pre = program.classes[self.heap.meta(o) as usize].pre;
                        if !(*lo <= pre && pre <= *hi) {
                            throw!(VmError::Exception(Exception::TypeCheck));
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
                        let t = &program.clos_tests[*test as usize];
                        if bound { t.allowed_bound[fnid] } else { t.allowed_unbound[fnid] }
                    };
                    reg!(*dst) = heap::scalar(i64::from(ok));
                }
                Instr::ClosCast { clos, test } => {
                    let c = reg!(*clos);
                    if c != NULL {
                        let fnid = as_i32(self.heap.get(c, 0)) as usize;
                        let bound = self.heap.get(c, 1) != NULL;
                        let t = &program.clos_tests[*test as usize];
                        let ok =
                            if bound { t.allowed_bound[fnid] } else { t.allowed_unbound[fnid] };
                        if !ok {
                            throw!(VmError::Exception(Exception::TypeCheck));
                        }
                    }
                }
                Instr::IntToByte { dst, src } => {
                    let v = as_i32(reg!(*src));
                    let b = tri!(ops::int_to_byte(v).map_err(VmError::Exception));
                    reg!(*dst) = heap::scalar(b as i64);
                }
                Instr::CheckNull(r) => {
                    if reg!(*r) == NULL {
                        throw!(VmError::Exception(Exception::NullCheck));
                    }
                }
                Instr::IsNull(d, v) => {
                    let n = reg!(*v) == NULL;
                    reg!(*d) = heap::scalar(i64::from(n));
                }
                Instr::Ret(regs) => {
                    pop_frame!();
                    if self.frames.len() == floor {
                        // Boundary of this `call_function`: the only
                        // allocation on the return path, once per entry.
                        let values = regs.iter().map(|&r| reg!(r)).collect();
                        self.stack.truncate(base);
                        break 'run Ok(values);
                    }
                    let callee_base = base;
                    resume!();
                    // Copy returned words straight into the registers the
                    // caller's call names: the regions are disjoint
                    // (base < callee_base).
                    for (&dst, &src) in call_rets(&code[pc - 1]).iter().zip(regs.iter()) {
                        self.stack[base + dst as usize] = self.stack[callee_base + src as usize];
                    }
                    self.stack.truncate(callee_base);
                }
                Instr::Trap(x) => throw!(VmError::Exception(*x)),

                // ---- superinstructions (fusion-emitted) -------------------
                Instr::BinI { k, dst, a, imm } => {
                    let x = as_i32(reg!(*a));
                    reg!(*dst) = tri!(bin_value(*k, x, *imm));
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
                    reg!(*dst) = tri!(bin_value(*k, x, y));
                }
                Instr::GlobalAccum { k, g, b } => {
                    let x = as_i32(self.globals[*g as usize]);
                    let y = as_i32(reg!(*b));
                    self.globals[*g as usize] = tri!(bin_value(*k, x, y));
                }
                Instr::FieldGetRet { obj, slot } => {
                    let o = reg!(*obj);
                    if o == NULL {
                        throw!(VmError::Exception(Exception::NullCheck));
                    }
                    let v = self.heap.get(o, *slot as usize);
                    pop_frame!();
                    self.stack.truncate(base);
                    if self.frames.len() == floor {
                        break 'run Ok(vec![v]);
                    }
                    resume!();
                    if let Some(&dst) = call_rets(&code[pc - 1]).first() {
                        reg!(dst) = v;
                    }
                }
            }
        };
        self.stats.instrs = instrs;
        self.stats.heap = self.heap.stats;
        if result.is_err() {
            // The trap's pc, which `call_function` records, is the one
            // after the faulting instruction.
            self.frames.last_mut().expect("faulting frame").pc = pc as u32;
        }
        result
    }

    /// Records a call in the runtime profile — a single counter bump; all
    /// cost attribution happens at frame exit. The hotness rows, `tier_at`
    /// and the site speculation cover every function and site while their
    /// instrument is on; the loop's hooks read them through `get` and
    /// `get_mut` because a panicking index there measured slower on the
    /// call-dense E10 and E11 workloads.
    #[inline(always)]
    fn note_call<const HOT: u8, const TIER: bool>(&mut self, callee: FuncId) {
        if HOT != 0 {
            if let Some(h) = self.hotness.rows.get_mut(callee as usize) {
                h.calls += 1;
            }
            if TIER {
                // Checked before the callee's frame runs, so the
                // threshold-crossing call already sees its speculation.
                self.check_tier_up(callee);
            }
        }
    }

    /// Tier-up trigger, checked at the fuel-check points (calls and loop
    /// back-edges) of a tiered run. A function (re-)tiers once its hotness
    /// weight — calls plus back-edge ticks — reaches its `tier_at` entry.
    #[inline(always)]
    fn check_tier_up(&mut self, func: FuncId) {
        let Some(row) = self.hotness.rows.get(func as usize) else { return };
        let w = row.calls + row.ticks;
        if self.tier_at.get(func as usize).is_some_and(|&at| w >= at) {
            self.tier_up(func, w);
        }
    }

    /// Tier-up: records for each `CallVirt` site of `func` what its inline
    /// cache licenses ([`site_speculation`]) — the expected class, its
    /// callee, and the callee's body as an [`InlOp`] when it inlines — or
    /// clears the site. The code is untouched, so the speculation applies
    /// at once to every frame of `func`, running ones included.
    #[cold]
    fn tier_up(&mut self, func: FuncId, weight: u64) {
        let t = self.tier.as_deref_mut().expect("tiering enabled");
        for instr in &t.funcs[func as usize].code {
            let Instr::CallVirt { site, args, .. } = instr else { continue };
            let s = *site as usize;
            let e = self.ic[s];
            let cached = (e.class != IC_EMPTY).then_some((e.class, e.func));
            t.spec[s] = match site_speculation(cached, t.site_miss[s], t.mega[s]) {
                Speculation::Speculate { class, func: callee } => Some(SiteSpec {
                    class,
                    func: callee,
                    op: inline_op(&t.funcs, callee, args.len()),
                }),
                _ => None,
            };
        }
        t.tier_ups[func as usize] += 1;
        // Doubling schedule bounds re-tier churn on functions that stay hot.
        self.tier_at[func as usize] = weight.max(t.threshold).saturating_mul(2);
        self.stats.tier_ups += 1;
        if let Some(fr) = self.flight.as_deref_mut() {
            fr.record(self.stats.instrs, FlightKind::TierUp { func });
        }
        if let Some(tl) = self.tracelog.as_deref_mut() {
            tl.record_tier(func, false);
        }
    }

    /// Deopt: a speculated site of `func` saw a receiver of class `seen`.
    /// The site loses its speculation and is marked megamorphic so no
    /// future tier-up re-speculates it, and `func` re-tiers at its next
    /// trigger point. The frame stays where it is: the caller goes on to
    /// run the site as the plain `CallVirt` it is.
    #[cold]
    fn deopt(&mut self, func: FuncId, site: u32, seen: u32) {
        self.stats.deopts += 1;
        let t = self.tier.as_deref_mut().expect("tiering enabled");
        t.spec[site as usize] = None;
        t.mega[site as usize] = true;
        self.tier_at[func as usize] = 0;
        if let Some(fr) = self.flight.as_deref_mut() {
            fr.record(self.stats.instrs, FlightKind::Deopt { site, class: seen, func });
        }
        if let Some(tl) = self.tracelog.as_deref_mut() {
            tl.record_tier(func, true);
        }
    }

    /// Closes the telemetry of `func`'s frame, just popped. In precise mode
    /// the inclusive total is the instructions retired since entry, the
    /// exclusive share is that minus the completed callees accumulated in
    /// `child_instrs`, and the caller inherits the inclusive total as its
    /// own child cost. One profile row and the (cache-hot) caller entry per
    /// return — nothing is tracked between boundaries. Also ends the
    /// frame's trace-log span.
    #[inline(always)]
    fn note_return<const HOT: u8>(&mut self, func: FuncId) {
        if HOT == 2 {
            let frame = self.prof_frames.pop().expect("precise frame present");
            let inc = self.stats.instrs - frame.entry_instr;
            let h = &mut self.hotness.rows[func as usize];
            h.incl_instrs += inc;
            h.excl_instrs += inc - frame.child_instrs;
            if let Some(parent) = self.prof_frames.last_mut() {
                parent.child_instrs += inc;
            }
        }
        if let Some(t) = self.tracelog.as_deref_mut() {
            t.exit();
        }
    }

    /// Pushes a callee frame, copying `prepend` (a bound receiver) and then
    /// the caller registers `args` straight into its fresh, zeroed
    /// registers — no temporary argument vector — and opens its precise
    /// profile entry when `HOT == 2`. Returns the new frame's register
    /// base. Always inlined: the dispatch loop's call path is this body.
    #[inline(always)]
    fn push_frame_args<const HOT: u8>(
        &mut self,
        callee: FuncId,
        kind: CallKind,
        caller_base: usize,
        prepend: Option<Word>,
        args: &[Reg],
    ) -> Result<usize, VmError> {
        let f = &self.program.funcs[callee as usize];
        debug_assert_eq!(
            args.len() + usize::from(prepend.is_some()),
            f.param_count,
            "arity calling {}",
            f.name
        );
        let base = self.stack.len();
        if base + f.reg_count + self.frames.len() >= STACK_BUDGET_WORDS {
            return Err(VmError::StackOverflow);
        }
        if let Some(t) = self.tracelog.as_deref_mut() {
            t.enter(callee);
        }
        if let Some(fr) = self.flight.as_deref_mut() {
            fr.record(self.stats.instrs, FlightKind::Call { kind, func: callee });
        }
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
        self.frames.push(FrameInfo { func: callee, pc: 0, base: base as u32 });
        if HOT == 2 {
            self.prof_frames.push(ProfFrame { entry_instr: self.stats.instrs, child_instrs: 0 });
        }
        Ok(base)
    }

    /// Allocates a cell, collecting and growing as needed: collect (minor
    /// when the heap is generational and the mature space has headroom,
    /// else major) → retry → force a major → retry → grow → retry.
    fn alloc(&mut self, kind: CellKind, meta: u32, len: usize) -> Word {
        if let Ok(r) = self.heap.try_alloc(kind, meta, len) {
            return r;
        }
        self.collect_now(false);
        if let Ok(r) = self.heap.try_alloc(kind, meta, len) {
            return r;
        }
        // A minor may not have freed enough (survivors promote rather than
        // vanish, and pre-tenured cells need mature space): escalate to a
        // full copy.
        self.collect_now(true);
        if let Ok(r) = self.heap.try_alloc(kind, meta, len) {
            return r;
        }
        self.heap.grow(len + 64);
        self.heap.try_alloc(kind, meta, len).expect("allocation after grow")
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
                // Formats straight into the output buffer: no `String`.
                write!(self.out, "{}", as_i32(args[0])).expect("writing to a Vec cannot fail");
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

/// The return registers of the call a frame resumes after: a caller's
/// resume pc is always one past a `Call`, `CallVirt` or `CallClos`.
#[inline(always)]
fn call_rets(call: &Instr) -> &[Reg] {
    match call {
        Instr::Call { rets, .. } | Instr::CallVirt { rets, .. } | Instr::CallClos { rets, .. } => {
            rets
        }
        _ => unreachable!("a frame resumes after its call"),
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
