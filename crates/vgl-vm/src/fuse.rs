//! The bytecode back-end optimizer: peephole cleanup + superinstruction
//! fusion over lowered register code.
//!
//! The paper's §4 position is that each monomorphic version can be
//! "optimized independently" once the harmonizing front-end features have
//! been compiled away — by monomorphization (§4.3) and tuple normalization
//! (§4.2) the bytecode is a flat scalar register program, so classic
//! kernel-level VM optimizations (Ertl & Gregg's superinstructions, Hölzle's
//! inline caches) apply directly. This pass is that back end:
//!
//! 1. **copy propagation** (per basic block) rewrites uses of `Mov` targets
//!    to their sources, with a reverse index from each source to its copies
//!    so a write invalidates only the copies it affects;
//! 2. **def–mov coalescing** redirects a pure producer straight into the
//!    register its value was about to be moved to;
//! 3. **dead-register elimination** drops side-effect-free writes whose
//!    destination is not live afterwards. Liveness is a worklist dataflow
//!    over basic blocks whose bitsets cover only the registers some block
//!    reads before writing (the lowerer reuses a small pool of temps, so
//!    most registers never cross a block boundary); one backward walk per
//!    block then yields the per-instruction answer and drops dead chains
//!    transitively. Each analysis or rewrite round is linear in the
//!    function's length;
//! 4. **superinstruction fusion** collapses hot adjacent pairs:
//!    `ConstI`+`Bin` → [`Instr::BinI`], compare+branch → [`Instr::CmpBr`] /
//!    [`Instr::CmpBrI`], equality/null-test+branch → [`Instr::EqBr`] /
//!    [`Instr::NullBr`], `Not`+branch → inverted branch, `FieldGet`+`Ret` →
//!    [`Instr::FieldGetRet`], `r ← r + imm` → [`Instr::IncLocal`], and the
//!    global-accumulator idiom `GlobalGet`+`Bin` → [`Instr::GlobalBin`],
//!    then +`GlobalSet` → [`Instr::GlobalAccum`] (`g = g ⊕ x` in one step).
//!
//! The pass preserves the structural invariant that matters to the paper's
//! evaluation: **no instruction that can implicitly heap-allocate is ever
//! introduced or removed** — [`fuse`] asserts the multiset of allocating
//! instructions is unchanged, and [`check_fused`] re-validates the whole
//! program (register bounds, branch targets, IC sites, terminators,
//! alloc-opcode set) in the same `Violation`-list form as `vgl_ir`'s
//! validators.

use crate::bytecode::*;
use vgl_ir::Violation;

/// What the fusion pass did, per rewrite kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FuseStats {
    /// Uses rewritten by copy propagation.
    pub copies_propagated: usize,
    /// Pure producers redirected into a `Mov` destination.
    pub movs_coalesced: usize,
    /// Dead pure writes removed.
    pub dead_removed: usize,
    /// `ConstI`+`Bin` pairs fused into `BinI`.
    pub bin_imm_fused: usize,
    /// Compare+branch pairs fused (`CmpBr`, `CmpBrI`, `EqBr`, `NullBr`).
    pub cmp_br_fused: usize,
    /// `Not`+branch pairs folded into the inverted branch.
    pub not_br_folded: usize,
    /// `FieldGet`+`Ret` pairs fused.
    pub field_ret_fused: usize,
    /// `BinI(Add, r, r, imm)` rewritten to `IncLocal`.
    pub inc_local_fused: usize,
    /// Global-accumulator fusions (`GlobalGet`+`Bin` → `GlobalBin` and
    /// `GlobalBin`+`GlobalSet` → `GlobalAccum`).
    pub global_fused: usize,
    /// Instructions before the pass, summed over all functions.
    pub instrs_before: usize,
    /// Instructions after the pass.
    pub instrs_after: usize,
}

impl FuseStats {
    /// Total pair fusions performed.
    pub fn fused_total(&self) -> usize {
        self.bin_imm_fused
            + self.cmp_br_fused
            + self.not_br_folded
            + self.field_ret_fused
            + self.inc_local_fused
            + self.global_fused
    }

    /// Accumulates another run's counters (every field, instrs included).
    fn absorb(&mut self, st: &FuseStats) {
        self.copies_propagated += st.copies_propagated;
        self.movs_coalesced += st.movs_coalesced;
        self.dead_removed += st.dead_removed;
        self.bin_imm_fused += st.bin_imm_fused;
        self.cmp_br_fused += st.cmp_br_fused;
        self.not_br_folded += st.not_br_folded;
        self.field_ret_fused += st.field_ret_fused;
        self.inc_local_fused += st.inc_local_fused;
        self.global_fused += st.global_fused;
        self.instrs_before += st.instrs_before;
        self.instrs_after += st.instrs_after;
    }
}

/// Runs the optimizer over every function in place and refreshes the static
/// max-frame analysis ([`VmProgram::max_frame_regs`]): [`fuse_cfg`] serially
/// with the dedup cache on.
///
/// # Panics
/// Debug-asserts that the multiset of allocating instructions is unchanged
/// (the §4.2 no-implicit-allocation invariant).
pub fn fuse(p: &mut VmProgram) -> FuseStats {
    fuse_cfg(p, &vgl_passes::BackendConfig::default()).0
}

/// Estimated fusion cost of one function for the chunk planner: one per
/// instruction, since bytecode length dominates every sub-pass (liveness,
/// peephole scans), plus one so an empty function still counts.
fn fuse_cost(f: &VmFunc) -> u64 {
    1 + f.code.len() as u64
}

/// [`fuse`] under a [`vgl_passes::BackendConfig`]: up to `cfg.jobs` worker
/// threads with an optional per-function dedup cache, scheduled in
/// cost-balanced chunks when `cfg.chunking` is set (one atomic claim per
/// [`vgl_passes::sched::plan_chunks`] chunk instead of per function).
/// Fusion is strictly function-local, so functions fan out across the pool
/// and the rewritten code is committed back in function-index order — the
/// result is bit-identical at any jobs count and either chunking mode.
///
/// With `cfg.cache` on, functions whose `(param_count, reg_count,
/// ret_count, code)` are equal to an earlier function's (duplicate
/// post-mono instances survive lowering verbatim, names aside) are fused
/// once: the representative's output is copied to each duplicate, which is
/// exactly what re-running the deterministic pass on the identical input
/// would produce. Grouping keys a map by that full tuple, first-seen in
/// index order, so the grouping itself is deterministic. The rewrite
/// counters count performed work only; `instrs_before`/`instrs_after`
/// describe the whole program, duplicates included. Also returns
/// per-worker spans for `vgl-obs`.
pub fn fuse_cfg(
    p: &mut VmProgram,
    cfg: &vgl_passes::BackendConfig,
) -> (FuseStats, Vec<vgl_obs::WorkerSample>) {
    fuse_cfg_masked(p, cfg, None)
}

/// [`fuse_cfg`] with an external skip mask, one entry per function:
/// functions with `skip[i]` true are left exactly as they are. The daemon's
/// warm path uses this for methods whose already-fused code was spliced in
/// from the persistent store. Skipped functions are neither fused nor used
/// as duplicate representatives, and they are left out of every counter,
/// `instrs_before`/`instrs_after` included.
pub fn fuse_cfg_masked(
    p: &mut VmProgram,
    cfg: &vgl_passes::BackendConfig,
    skip: Option<&[bool]>,
) -> (FuseStats, Vec<vgl_obs::WorkerSample>) {
    use std::collections::HashMap;

    let mut stats = FuseStats::default();
    let funcs = std::mem::take(&mut p.funcs);
    let n = funcs.len();
    if let Some(mask) = skip {
        debug_assert_eq!(mask.len(), n, "mask covers every function");
    }
    let skipped = |i: usize| skip.is_some_and(|m| m[i]);
    let mut rep: Vec<usize> = (0..n).collect();
    if cfg.cache {
        let mut first: HashMap<(usize, usize, usize, &[Instr]), usize> = HashMap::new();
        for (i, f) in funcs.iter().enumerate().filter(|&(i, _)| !skipped(i)) {
            let key = (f.param_count, f.reg_count, f.ret_count, f.code.as_slice());
            rep[i] = *first.entry(key).or_insert(i);
        }
    }
    let items: Vec<usize> = (0..n).filter(|&i| rep[i] == i && !skipped(i)).collect();
    let run_item = |cx: &mut Scratch, _: usize, &i: &usize| {
        let mut f = funcs[i].clone();
        let mut st = FuseStats::default();
        fuse_func(&mut f, &mut st, cx);
        (f, st)
    };
    let (results, workers) = if cfg.chunking {
        let costs: Vec<u64> = items.iter().map(|&i| fuse_cost(&funcs[i])).collect();
        let plan = vgl_passes::sched::plan_chunks(&costs, cfg.jobs);
        vgl_passes::sched::par_map_chunks(
            cfg.jobs,
            "fuse",
            &items,
            &plan,
            Scratch::default,
            run_item,
        )
    } else {
        vgl_passes::sched::par_map_ctx(cfg.jobs, "fuse", &items, Scratch::default, run_item)
    };
    let mut fused: Vec<Option<VmFunc>> = (0..n).map(|_| None).collect();
    for (&i, (f, st)) in items.iter().zip(results) {
        stats.absorb(&st);
        fused[i] = Some(f);
    }
    p.funcs = Vec::with_capacity(n);
    for (i, original) in funcs.into_iter().enumerate() {
        let f = if skipped(i) {
            original
        } else if rep[i] == i {
            fused[i].take().expect("representative was fused")
        } else {
            // Representatives precede their duplicates, so the rep's fused
            // form is already committed.
            let r = &p.funcs[rep[i]];
            stats.instrs_before += original.code.len();
            stats.instrs_after += r.code.len();
            VmFunc { name: original.name, ..r.clone() }
        };
        p.funcs.push(f);
    }
    p.max_frame_regs = p.funcs.iter().map(|f| f.reg_count).max().unwrap_or(0);
    (stats, workers)
}

fn count_allocs(code: &[Instr]) -> usize {
    code.iter().filter(|i| i.allocates()).count()
}

fn count_ref_stores(code: &[Instr]) -> usize {
    code.iter().filter(|i| i.is_ref_store()).count()
}

/// Buffers one worker reuses for every function it fuses: once they have
/// grown to the largest function seen, an analysis or rewrite round
/// allocates nothing but the rewritten code.
#[derive(Default)]
struct Scratch {
    live: Liveness,
    copies: Copies,
    /// Per-pc rewrite plan for [`rebuild`].
    plan: Vec<Action>,
    /// `dies[pc]`: the register `code[pc]` writes is dead after `code[pc + 1]`.
    dies: Vec<bool>,
    /// [`rebuild`]'s old→new pc map.
    new_of_old: Vec<usize>,
    /// [`rebuild`]'s new→old pc map.
    old_of_new: Vec<usize>,
}

/// Fuses one function in place: the per-function routine of
/// [`fuse_cfg_masked`]. Debug-asserts that the multisets of allocating
/// instructions and of barrier-carrying stores are unchanged.
fn fuse_func(f: &mut VmFunc, stats: &mut FuseStats, cx: &mut Scratch) {
    stats.instrs_before += f.code.len();
    let allocs_before = count_allocs(&f.code);
    let ref_stores_before = count_ref_stores(&f.code);
    copy_propagate(f, stats, cx);
    // Iterate cleanup + fusion to a fixpoint: coalescing exposes dead
    // writes, `BinI` fusion exposes `CmpBrI`/`IncLocal` fusion, and so on.
    loop {
        let mut changed = eliminate_dead(f, stats, cx);
        changed |= fuse_pairs(f, stats, cx);
        if !changed {
            break;
        }
    }
    // The last rebuild sized the code for the body it started from.
    f.code.shrink_to_fit();
    debug_assert_eq!(
        allocs_before,
        count_allocs(&f.code),
        "fusion changed the allocating-instruction count in {}",
        f.name
    );
    debug_assert_eq!(
        ref_stores_before,
        count_ref_stores(&f.code),
        "fusion changed the barrier-carrying store count in {}",
        f.name
    );
    stats.instrs_after += f.code.len();
}

// ---- use/def accounting ----------------------------------------------------

/// Calls `g` for every source-register operand of `i`.
fn for_each_use(i: &Instr, g: &mut impl FnMut(Reg)) {
    use Instr::*;
    match i {
        ConstI(..) | ConstNull(..) | ConstPool(..) | Jump(..) | GlobalGet { .. }
        | NewObject { .. } | Trap(..) => {}
        Mov(_, s) | Neg(_, s) | Not(_, s) | IsNull(_, s) | IntToByte { src: s, .. } => g(*s),
        Bin(_, _, a, b) | EqRR(_, a, b) | EqClos(_, a, b) => {
            g(*a);
            g(*b);
        }
        BrFalse(c, _) | BrTrue(c, _) => g(*c),
        Call { args, .. } => args.iter().for_each(|&r| g(r)),
        CallVirt { args, .. } => args.iter().for_each(|&r| g(r)),
        CallClos { clos, args, .. } => {
            g(*clos);
            args.iter().for_each(|&r| g(r));
        }
        CallBuiltin { args, .. } => args.iter().for_each(|&r| g(r)),
        MakeClos { recv, .. } => {
            if let Some(r) = recv {
                g(*r);
            }
        }
        MakeClosVirt { recv, .. } => g(*recv),
        NewArray { len, .. } => g(*len),
        ArrayLit { elems, .. } => elems.iter().for_each(|&r| g(r)),
        ArrayLen { arr, .. } => g(*arr),
        ArrayGet { arr, idx, .. } => {
            g(*arr);
            g(*idx);
        }
        ArraySet { arr, idx, val } | ArraySetRef { arr, idx, val } => {
            g(*arr);
            g(*idx);
            g(*val);
        }
        FieldGet { obj, .. } => g(*obj),
        FieldSet { obj, val, .. } | FieldSetRef { obj, val, .. } => {
            g(*obj);
            g(*val);
        }
        GlobalSet { src, .. } => g(*src),
        ClassQuery { obj, .. } => g(*obj),
        ClassCast { obj, .. } => g(*obj),
        ClosQuery { clos, .. } => g(*clos),
        ClosCast { clos, .. } => g(*clos),
        CheckNull(r) => g(*r),
        Ret(rs) => rs.iter().for_each(|&r| g(r)),
        BinI { a, .. } => g(*a),
        IncLocal { r, .. } => g(*r),
        CmpBr { a, b, .. } => {
            g(*a);
            g(*b);
        }
        CmpBrI { a, .. } => g(*a),
        EqBr { a, b, .. } => {
            g(*a);
            g(*b);
        }
        NullBr { v, .. } => g(*v),
        FieldGetRet { obj, .. } => g(*obj),
        GlobalBin { b, .. } | GlobalAccum { b, .. } => g(*b),
    }
}

/// Rewrites every source-register operand of `i` through `g`.
fn map_uses(i: &mut Instr, g: &mut impl FnMut(Reg) -> Reg) {
    use Instr::*;
    match i {
        ConstI(..) | ConstNull(..) | ConstPool(..) | Jump(..) | GlobalGet { .. }
        | NewObject { .. } | Trap(..) => {}
        Mov(_, s) | Neg(_, s) | Not(_, s) | IsNull(_, s) | IntToByte { src: s, .. } => {
            *s = g(*s)
        }
        Bin(_, _, a, b) | EqRR(_, a, b) | EqClos(_, a, b) => {
            *a = g(*a);
            *b = g(*b);
        }
        BrFalse(c, _) | BrTrue(c, _) => *c = g(*c),
        Call { args, .. } | CallVirt { args, .. } | CallBuiltin { args, .. } => {
            args.iter_mut().for_each(|r| *r = g(*r))
        }
        CallClos { clos, args, .. } => {
            *clos = g(*clos);
            args.iter_mut().for_each(|r| *r = g(*r));
        }
        MakeClos { recv, .. } => {
            if let Some(r) = recv {
                *r = g(*r);
            }
        }
        MakeClosVirt { recv, .. } => *recv = g(*recv),
        NewArray { len, .. } => *len = g(*len),
        ArrayLit { elems, .. } => elems.iter_mut().for_each(|r| *r = g(*r)),
        ArrayLen { arr, .. } => *arr = g(*arr),
        ArrayGet { arr, idx, .. } => {
            *arr = g(*arr);
            *idx = g(*idx);
        }
        ArraySet { arr, idx, val } | ArraySetRef { arr, idx, val } => {
            *arr = g(*arr);
            *idx = g(*idx);
            *val = g(*val);
        }
        FieldGet { obj, .. } => *obj = g(*obj),
        FieldSet { obj, val, .. } | FieldSetRef { obj, val, .. } => {
            *obj = g(*obj);
            *val = g(*val);
        }
        GlobalSet { src, .. } => *src = g(*src),
        ClassQuery { obj, .. } | ClassCast { obj, .. } => *obj = g(*obj),
        ClosQuery { clos, .. } | ClosCast { clos, .. } => *clos = g(*clos),
        CheckNull(r) => *r = g(*r),
        Ret(rs) => rs.iter_mut().for_each(|r| *r = g(*r)),
        BinI { a, .. } => *a = g(*a),
        IncLocal { r, .. } => *r = g(*r),
        CmpBr { a, b, .. } | EqBr { a, b, .. } => {
            *a = g(*a);
            *b = g(*b);
        }
        CmpBrI { a, .. } => *a = g(*a),
        NullBr { v, .. } => *v = g(*v),
        FieldGetRet { obj, .. } => *obj = g(*obj),
        GlobalBin { b, .. } | GlobalAccum { b, .. } => *b = g(*b),
    }
}

/// Calls `g` for every register `i` writes.
fn for_each_def(i: &Instr, g: &mut impl FnMut(Reg)) {
    use Instr::*;
    match i {
        ConstI(d, _) | ConstNull(d) | ConstPool(d, _) | Mov(d, _) | Neg(d, _) | Not(d, _)
        | EqRR(d, ..) | EqClos(d, ..) | IsNull(d, _) => g(*d),
        Bin(_, d, ..) => g(*d),
        Call { rets, .. } | CallVirt { rets, .. } | CallClos { rets, .. }
        | CallBuiltin { rets, .. } => rets.iter().for_each(|&r| g(r)),
        MakeClos { dst, .. } | MakeClosVirt { dst, .. } | NewObject { dst, .. }
        | NewArray { dst, .. } | ArrayLit { dst, .. } | ArrayLen { dst, .. }
        | ArrayGet { dst, .. } | FieldGet { dst, .. } | GlobalGet { dst, .. }
        | ClassQuery { dst, .. } | ClosQuery { dst, .. } | IntToByte { dst, .. } => g(*dst),
        BinI { dst, .. } | GlobalBin { dst, .. } => g(*dst),
        IncLocal { r, .. } => g(*r),
        Jump(..) | BrFalse(..) | BrTrue(..) | ArraySet { .. } | ArraySetRef { .. }
        | FieldSet { .. } | FieldSetRef { .. } | GlobalSet { .. } | ClassCast { .. }
        | ClosCast { .. } | CheckNull(..) | Ret(..) | Trap(..) | CmpBr { .. }
        | CmpBrI { .. } | EqBr { .. } | NullBr { .. } | FieldGetRet { .. }
        | GlobalAccum { .. } => {}
    }
}

/// The relative branch offset carried by `i`, if any.
fn branch_off(i: &Instr) -> Option<i32> {
    match i {
        Instr::Jump(off)
        | Instr::BrFalse(_, off)
        | Instr::BrTrue(_, off)
        | Instr::CmpBr { off, .. }
        | Instr::CmpBrI { off, .. }
        | Instr::EqBr { off, .. }
        | Instr::NullBr { off, .. } => Some(*off),
        _ => None,
    }
}

fn set_branch_off(i: &mut Instr, new_off: i32) {
    match i {
        Instr::Jump(off)
        | Instr::BrFalse(_, off)
        | Instr::BrTrue(_, off)
        | Instr::CmpBr { off, .. }
        | Instr::CmpBrI { off, .. }
        | Instr::EqBr { off, .. }
        | Instr::NullBr { off, .. } => *off = new_off,
        _ => unreachable!("set_branch_off on non-branch"),
    }
}

/// Whether `i` may transfer control (ends a basic block).
fn is_control(i: &Instr) -> bool {
    branch_off(i).is_some()
        || matches!(i, Instr::Ret(..) | Instr::Trap(..) | Instr::FieldGetRet { .. })
}

/// Pure producers: no side effect, no trap, exactly one scalar destination.
/// (`Div`/`Mod` trap; loads from objects/arrays null-check; allocating
/// instructions are excluded so the alloc multiset is untouchable.)
fn pure_def(i: &Instr) -> Option<Reg> {
    use Instr::*;
    match i {
        ConstI(d, _) | ConstNull(d) | Mov(d, _) | Neg(d, _) | Not(d, _) | EqRR(d, ..)
        | EqClos(d, ..) | IsNull(d, _) => Some(*d),
        Bin(k, d, ..) | BinI { k, dst: d, .. } | GlobalBin { k, dst: d, .. }
            if !matches!(k, BinKind::Div | BinKind::Mod) =>
        {
            Some(*d)
        }
        GlobalGet { dst, .. } | ClassQuery { dst, .. } | ClosQuery { dst, .. } => Some(*dst),
        _ => None,
    }
}

/// Producers whose destination may be redirected by def–mov coalescing: one
/// destination, written strictly after all operands are read. Trapping
/// loads/conversions qualify (the trap fires before any write either way);
/// allocating instructions are excluded.
fn coalescable_def(i: &Instr) -> Option<Reg> {
    use Instr::*;
    match i {
        ConstI(d, _) | ConstNull(d) | Mov(d, _) | Neg(d, _) | Not(d, _) | EqRR(d, ..)
        | EqClos(d, ..) | IsNull(d, _) | Bin(_, d, ..) => Some(*d),
        BinI { dst, .. }
        | GlobalBin { dst, .. }
        | GlobalGet { dst, .. }
        | ClassQuery { dst, .. }
        | ClosQuery { dst, .. }
        | FieldGet { dst, .. }
        | ArrayGet { dst, .. }
        | ArrayLen { dst, .. }
        | IntToByte { dst, .. } => Some(*dst),
        _ => None,
    }
}

fn set_def(i: &mut Instr, new_dst: Reg) {
    use Instr::*;
    match i {
        ConstI(d, _) | ConstNull(d) | Mov(d, _) | Neg(d, _) | Not(d, _) | EqRR(d, ..)
        | EqClos(d, ..) | IsNull(d, _) | Bin(_, d, ..) => *d = new_dst,
        BinI { dst, .. }
        | GlobalBin { dst, .. }
        | GlobalGet { dst, .. }
        | ClassQuery { dst, .. }
        | ClosQuery { dst, .. }
        | FieldGet { dst, .. }
        | ArrayGet { dst, .. }
        | ArrayLen { dst, .. }
        | IntToByte { dst, .. } => *dst = new_dst,
        _ => unreachable!("set_def on instruction without a redirectable destination"),
    }
}

/// Sets `target[pc]` for every pc some branch in `code` lands on.
fn mark_targets(code: &[Instr], target: &mut Vec<bool>) {
    target.clear();
    target.resize(code.len(), false);
    for (pc, i) in code.iter().enumerate() {
        if let Some(off) = branch_off(i) {
            if let Some(t) = target.get_mut((pc as i64 + off as i64) as usize) {
                *t = true;
            }
        }
    }
}

/// "None" in the `u32` index tables below.
const NONE: u32 = u32::MAX;

// ---- liveness --------------------------------------------------------------

/// Register liveness, answering "may `r` be read after `pc` executes, before
/// being redefined, on some path?" — the exact condition under which a
/// definition of `r` reaching `pc` must be kept.
///
/// The lowerer reuses a small pool of temp registers for every expression,
/// so read counts over the whole function are always saturated; only
/// liveness can see that a temp dies at the instruction that consumes it.
///
/// [`Liveness::compute`] solves the dataflow over basic blocks with a
/// worklist. Only a register some block reads before writing can be live at
/// a block boundary, so the block bitsets index just those registers.
/// [`Liveness::walk`] then recovers the per-instruction answer with one
/// backward pass over each block.
#[derive(Default)]
struct Liveness {
    /// `target[pc]`: some branch lands on `pc`.
    target: Vec<bool>,
    /// Block `b` covers pcs `starts[b]..starts[b + 1]`.
    starts: Vec<usize>,
    /// The block each pc belongs to.
    block_of: Vec<u32>,
    /// Each block's fall-through and taken successors (`NONE` if absent).
    succ: Vec<[u32; 2]>,
    /// The predecessors of block `b` are `preds[pred_start[b]..pred_start[b + 1]]`.
    pred_start: Vec<usize>,
    preds: Vec<u32>,
    /// `slot_of[r]`: `r`'s bit in the block bitsets, `NONE` for a register
    /// no block reads before writing; `regs` maps bits back to registers.
    slot_of: Vec<u32>,
    regs: Vec<Reg>,
    /// `u64` words per block bitset.
    words: usize,
    /// Per-block bitsets: registers read before any write in the block,
    /// registers written, live on entry, and live on exit.
    upward: Vec<u64>,
    kill: Vec<u64>,
    live_in: Vec<u64>,
    live_out: Vec<u64>,
    worklist: Vec<u32>,
    queued: Vec<bool>,
    /// Per-register stamps: a register equals `epoch` when it is written in
    /// the current block (`compute`) or live (`walk`).
    stamp: Vec<u32>,
    epoch: u32,
}

/// The registers live after one instruction, as [`Liveness::walk`] sees it.
struct LiveAfter<'a> {
    stamp: &'a [u32],
    epoch: u32,
}

impl LiveAfter<'_> {
    fn has(&self, r: Reg) -> bool {
        self.stamp[r as usize] == self.epoch
    }
}

impl Liveness {
    /// Splits `code` into basic blocks and solves block live-in/live-out to
    /// the least fixpoint.
    fn compute(&mut self, code: &[Instr], reg_count: usize) {
        let n = code.len();
        mark_targets(code, &mut self.target);
        self.starts.clear();
        self.block_of.clear();
        for pc in 0..n {
            if pc == 0 || self.target[pc] || is_control(&code[pc - 1]) {
                self.starts.push(pc);
            }
            self.block_of.push(self.starts.len() as u32 - 1);
        }
        self.starts.push(n);
        let nb = self.starts.len() - 1;

        self.succ.clear();
        for b in 0..nb {
            let last = self.starts[b + 1] - 1;
            let falls = last + 1 < n
                && !matches!(
                    code[last],
                    Instr::Jump(..) | Instr::Ret(..) | Instr::Trap(..) | Instr::FieldGetRet { .. }
                );
            let taken = branch_off(&code[last])
                .map_or(NONE, |off| self.block_of[(last as i64 + off as i64) as usize]);
            self.succ.push([if falls { b as u32 + 1 } else { NONE }, taken]);
        }
        // Predecessor lists, bucketed by successor (counting sort).
        self.pred_start.clear();
        self.pred_start.resize(nb + 2, 0);
        for &s in self.succ.iter().flatten().filter(|&&s| s != NONE) {
            self.pred_start[s as usize + 2] += 1;
        }
        for b in 2..nb + 2 {
            self.pred_start[b] += self.pred_start[b - 1];
        }
        self.preds.clear();
        self.preds.resize(self.pred_start[nb + 1], 0);
        for (b, ss) in self.succ.iter().enumerate() {
            for &s in ss.iter().filter(|&&s| s != NONE) {
                let at = &mut self.pred_start[s as usize + 1];
                self.preds[*at] = b as u32;
                *at += 1;
            }
        }

        // Give a bit to every register some block reads before writing.
        self.slot_of.clear();
        self.slot_of.resize(reg_count, NONE);
        self.regs.clear();
        self.stamp.clear();
        self.stamp.resize(reg_count, 0);
        self.epoch = 0;
        for b in 0..nb {
            self.epoch += 1;
            let (stamp, slot_of, regs, epoch) =
                (&mut self.stamp, &mut self.slot_of, &mut self.regs, self.epoch);
            for i in &code[self.starts[b]..self.starts[b + 1]] {
                for_each_use(i, &mut |r| {
                    let r = r as usize;
                    if stamp[r] != epoch && slot_of[r] == NONE {
                        slot_of[r] = regs.len() as u32;
                        regs.push(r as Reg);
                    }
                });
                for_each_def(i, &mut |r| stamp[r as usize] = epoch);
            }
        }
        let words = self.regs.len().div_ceil(64);
        self.words = words;
        self.upward.clear();
        self.upward.resize(nb * words, 0);
        self.kill.clear();
        self.kill.resize(nb * words, 0);
        for b in 0..nb {
            self.epoch += 1;
            let (stamp, slot_of, epoch) = (&mut self.stamp, &self.slot_of, self.epoch);
            let (upward, kill) = (&mut self.upward, &mut self.kill);
            let bit = |s: u32| (b * words + s as usize / 64, 1u64 << (s % 64));
            for i in &code[self.starts[b]..self.starts[b + 1]] {
                for_each_use(i, &mut |r| {
                    let s = slot_of[r as usize];
                    if s != NONE && stamp[r as usize] != epoch {
                        let (w, m) = bit(s);
                        upward[w] |= m;
                    }
                });
                for_each_def(i, &mut |r| {
                    stamp[r as usize] = epoch;
                    let s = slot_of[r as usize];
                    if s != NONE {
                        let (w, m) = bit(s);
                        kill[w] |= m;
                    }
                });
            }
        }

        // Backward worklist to the least fixpoint, later blocks first.
        self.live_in.clear();
        self.live_in.extend_from_slice(&self.upward);
        self.live_out.clear();
        self.live_out.resize(nb * words, 0);
        self.queued.clear();
        self.queued.resize(nb, true);
        self.worklist.clear();
        self.worklist.extend(0..nb as u32);
        while let Some(b) = self.worklist.pop() {
            let b = b as usize;
            self.queued[b] = false;
            let mut changed = false;
            for w in 0..words {
                let mut out = 0;
                for &s in self.succ[b].iter().filter(|&&s| s != NONE) {
                    out |= self.live_in[s as usize * words + w];
                }
                let at = b * words + w;
                self.live_out[at] = out;
                let inn = self.upward[at] | (out & !self.kill[at]);
                if inn != self.live_in[at] {
                    self.live_in[at] = inn;
                    changed = true;
                }
            }
            if changed {
                for &p in &self.preds[self.pred_start[b]..self.pred_start[b + 1]] {
                    if !std::mem::replace(&mut self.queued[p as usize], true) {
                        self.worklist.push(p);
                    }
                }
            }
        }
    }

    /// Walks each block of the last [`compute`](Liveness::compute)d code
    /// backwards once, calling `visit(pc, live)` with the registers live
    /// after `pc`. When `visit` returns true the instruction counts as
    /// deleted: it reads and writes nothing on the way up, so a chain of
    /// writes feeding only deleted instructions dies in the same walk.
    fn walk(&mut self, code: &[Instr], mut visit: impl FnMut(usize, &LiveAfter<'_>) -> bool) {
        let words = self.words;
        for b in 0..self.starts.len() - 1 {
            self.epoch += 1;
            let epoch = self.epoch;
            for (w, &word) in self.live_out[b * words..(b + 1) * words].iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let s = w * 64 + bits.trailing_zeros() as usize;
                    self.stamp[self.regs[s] as usize] = epoch;
                    bits &= bits - 1;
                }
            }
            for pc in (self.starts[b]..self.starts[b + 1]).rev() {
                if visit(pc, &LiveAfter { stamp: &self.stamp, epoch }) {
                    continue;
                }
                let stamp = &mut self.stamp;
                for_each_def(&code[pc], &mut |r| stamp[r as usize] = 0);
                for_each_use(&code[pc], &mut |r| stamp[r as usize] = epoch);
            }
        }
    }
}

// ---- copy propagation ------------------------------------------------------

/// Copy-propagation state for one basic block. `copy_of[d]` is the register
/// `d` currently holds a copy of (`NONE` if none). `recorded` lists every
/// copy made since the block began as `(copy, source, previous entry for
/// the same source)`, and `last_copy[s]` heads the chain of `s`'s entries:
/// a reverse index, so a write to `s` visits only `s`'s own copies. An
/// entry goes stale when its copy register is overwritten; the `copy_of`
/// check skips it.
#[derive(Default)]
struct Copies {
    /// `target[pc]`: some branch lands on `pc`, so a block begins there.
    target: Vec<bool>,
    copy_of: Vec<u32>,
    last_copy: Vec<u32>,
    recorded: Vec<(u32, u32, u32)>,
}

impl Copies {
    fn record(&mut self, d: Reg, s: Reg) {
        let (d, s) = (d as usize, s as usize);
        self.copy_of[d] = s as u32;
        self.recorded.push((d as u32, s as u32, self.last_copy[s]));
        self.last_copy[s] = self.recorded.len() as u32 - 1;
    }

    /// `d` is written: it stops being a copy, and its copies stop being
    /// copies of it.
    fn overwrite(&mut self, d: Reg) {
        let d = d as usize;
        self.copy_of[d] = NONE;
        let mut e = std::mem::replace(&mut self.last_copy[d], NONE);
        while e != NONE {
            let (c, _, prev) = self.recorded[e as usize];
            if self.copy_of[c as usize] == d as u32 {
                self.copy_of[c as usize] = NONE;
            }
            e = prev;
        }
    }

    /// Forgets every copy (a block boundary).
    fn clear(&mut self) {
        for &(c, s, _) in &self.recorded {
            self.copy_of[c as usize] = NONE;
            self.last_copy[s as usize] = NONE;
        }
        self.recorded.clear();
    }
}

/// Forward-propagates `Mov(d, s)` within each basic block: later uses of `d`
/// read `s` directly until either register is redefined.
fn copy_propagate(f: &mut VmFunc, stats: &mut FuseStats, cx: &mut Scratch) {
    let cp = &mut cx.copies;
    mark_targets(&f.code, &mut cp.target);
    let regs = f.reg_count.max(1);
    cp.copy_of.clear();
    cp.copy_of.resize(regs, NONE);
    cp.last_copy.clear();
    cp.last_copy.resize(regs, NONE);
    cp.recorded.clear();
    for (pc, i) in f.code.iter_mut().enumerate() {
        if cp.target[pc] {
            cp.clear();
        }
        map_uses(i, &mut |r| match cp.copy_of[r as usize] {
            NONE => r,
            s => {
                stats.copies_propagated += 1;
                s as Reg
            }
        });
        for_each_def(i, &mut |d| cp.overwrite(d));
        if let Instr::Mov(d, s) = *i {
            if d != s {
                cp.record(d, s);
            }
        }
        if is_control(i) {
            cp.clear();
        }
    }
}

// ---- rebuild (instruction removal with branch remapping) -------------------

#[derive(Clone)]
enum Action {
    Keep,
    /// Delete this (pure, unread) instruction.
    Drop,
    /// Rewrite this instruction in place.
    Replace(Instr),
    /// Replace this instruction *and the next* with one fused instruction.
    /// Branch offsets inside the fused instruction must already be expressed
    /// relative to this (the first) pc.
    Fuse(Instr),
}

/// Applies `cx.plan` (consuming it), moving every kept instruction and
/// recomputing every branch offset. Branches into a removed pure
/// instruction fall through to the next kept one; branches into the second
/// element of a fused pair are the planner's responsibility to avoid.
/// The new→old pc map (each new pc's originating old pc) is built in
/// `cx.old_of_new` to re-target the branches.
fn rebuild(f: &mut VmFunc, cx: &mut Scratch) {
    let n = f.code.len();
    let (plan, new_of_old, old_of_new) = (&mut cx.plan, &mut cx.new_of_old, &mut cx.old_of_new);
    let mut new_code: Vec<Instr> = Vec::with_capacity(n);
    old_of_new.clear();
    new_of_old.clear();
    new_of_old.resize(n + 1, usize::MAX);
    let mut second_of_pair = false;
    for (pc, instr) in std::mem::take(&mut f.code).into_iter().enumerate() {
        if std::mem::take(&mut second_of_pair) {
            continue;
        }
        let instr = match std::mem::replace(&mut plan[pc], Action::Keep) {
            Action::Keep => instr,
            Action::Drop => continue,
            Action::Replace(i) => i,
            Action::Fuse(i) => {
                second_of_pair = true;
                i
            }
        };
        new_of_old[pc] = new_code.len();
        old_of_new.push(pc);
        new_code.push(instr);
    }
    new_of_old[n] = new_code.len();
    for i in (0..n).rev() {
        if new_of_old[i] == usize::MAX {
            new_of_old[i] = new_of_old[i + 1];
        }
    }
    for (ni, instr) in new_code.iter_mut().enumerate() {
        if let Some(off) = branch_off(instr) {
            let old_pc = old_of_new[ni];
            let old_target = (old_pc as i64 + off as i64) as usize;
            let new_target = new_of_old[old_target];
            set_branch_off(instr, new_target as i32 - ni as i32);
        }
    }
    f.code = new_code;
}

// ---- dead-register elimination --------------------------------------------

/// Removes pure writes whose destination is not live afterwards, until none
/// is left. Returns whether anything changed.
///
/// Each round computes liveness once and drops, in its backward walk, every
/// dead write including those that only fed writes dropped further down the
/// block. A chain that crosses a block boundary needs another round. Removing
/// a dead write only shrinks liveness, so whatever was dead stays dead and
/// every order of removal reaches the same code: the result is that of
/// dropping only the currently dead writes, round after round.
fn eliminate_dead(f: &mut VmFunc, stats: &mut FuseStats, cx: &mut Scratch) -> bool {
    let mut changed = false;
    loop {
        cx.live.compute(&f.code, f.reg_count);
        cx.plan.clear();
        cx.plan.resize(f.code.len(), Action::Keep);
        let (code, plan) = (&f.code, &mut cx.plan);
        let mut dropped = 0;
        cx.live.walk(code, |pc, live| {
            let dead = pure_def(&code[pc]).is_some_and(|d| !live.has(d));
            if dead {
                plan[pc] = Action::Drop;
                dropped += 1;
            }
            dead
        });
        if dropped == 0 {
            return changed;
        }
        stats.dead_removed += dropped;
        rebuild(f, cx);
        changed = true;
    }
}

// ---- fusion ----------------------------------------------------------------

fn cmp_kind(k: BinKind) -> bool {
    matches!(k, BinKind::Lt | BinKind::Le | BinKind::Gt | BinKind::Ge)
}

/// Mirrors a comparison so its operands can swap sides: `c < x` ⇔ `x > c`.
fn swap_cmp(k: BinKind) -> BinKind {
    match k {
        BinKind::Lt => BinKind::Gt,
        BinKind::Le => BinKind::Ge,
        BinKind::Gt => BinKind::Lt,
        BinKind::Ge => BinKind::Le,
        other => other,
    }
}

fn commutes(k: BinKind) -> bool {
    matches!(
        k,
        BinKind::Add | BinKind::Mul | BinKind::And | BinKind::Or | BinKind::Xor
    )
}

/// One left-to-right scan fusing adjacent pairs. Returns whether anything
/// changed.
fn fuse_pairs(f: &mut VmFunc, stats: &mut FuseStats, cx: &mut Scratch) -> bool {
    let n = f.code.len();
    // Fusing deletes the first instruction's definition of the temp `r`;
    // that is sound exactly when `r` is dead after the pair — not live out
    // of the second instruction (which covers a branch's taken path too),
    // or redefined by the second instruction itself. Every pattern's temp
    // is the first instruction's one coalescable destination, so one
    // liveness walk answers it for every pc up front.
    cx.live.compute(&f.code, f.reg_count);
    let (code, dies) = (&f.code, &mut cx.dies);
    dies.clear();
    dies.resize(n, false);
    cx.live.walk(code, |pc, live| {
        if let Some(r) = pc.checked_sub(1).and_then(|p| coalescable_def(&code[p])) {
            let mut redefined = false;
            for_each_def(&code[pc], &mut |d| redefined |= d == r);
            dies[pc - 1] = redefined || !live.has(r);
        }
        false
    });
    let (dies, targets) = (&cx.dies, &cx.live.target);
    let temp_dies = |r: Reg, pc: usize| {
        debug_assert_eq!(coalescable_def(&code[pc]), Some(r), "pattern temp at pc {pc}");
        dies[pc]
    };
    let plan = &mut cx.plan;
    plan.clear();
    plan.resize(n, Action::Keep);
    let mut changed = false;
    let mut pc = 0;
    while pc < n {
        // Single-instruction rewrite: BinI(Add, r, r, imm) → IncLocal.
        if let Instr::BinI { k: BinKind::Add, dst, a, imm } = code[pc] {
            if dst == a {
                plan[pc] = Action::Replace(Instr::IncLocal { r: dst, imm });
                stats.inc_local_fused += 1;
                changed = true;
                pc += 1;
                continue;
            }
        }
        if pc + 1 >= n || targets[pc + 1] {
            pc += 1;
            continue;
        }
        let (first, second) = (&code[pc], &code[pc + 1]);
        // Branch offsets are relative to the branch (the second element);
        // the fused instruction sits at the first element's pc.
        let refit = |off: i32| off + 1;
        let fused: Option<(Instr, &mut usize)> = match (first, second) {
            // ConstI + Bin → BinI (constant on either side).
            (&Instr::ConstI(t, v), &Instr::Bin(k, d, a, b)) => {
                match i32::try_from(v) {
                    Ok(imm) if b == t && a != t && temp_dies(t, pc) => Some((
                        Instr::BinI { k, dst: d, a, imm },
                        &mut stats.bin_imm_fused,
                    )),
                    Ok(imm)
                        if a == t
                            && b != t
                            && (commutes(k) || cmp_kind(k))
                            && temp_dies(t, pc) =>
                    {
                        Some((
                            Instr::BinI { k: swap_cmp(k), dst: d, a: b, imm },
                            &mut stats.bin_imm_fused,
                        ))
                    }
                    _ => None,
                }
            }
            // GlobalGet + Bin → GlobalBin (global on either side).
            (&Instr::GlobalGet { dst: t, g }, &Instr::Bin(k, d, a, b)) => {
                if a == t && b != t && temp_dies(t, pc) {
                    Some((Instr::GlobalBin { k, dst: d, g, b }, &mut stats.global_fused))
                } else if b == t && a != t && (commutes(k) || cmp_kind(k)) && temp_dies(t, pc) {
                    Some((
                        Instr::GlobalBin { k: swap_cmp(k), dst: d, g, b: a },
                        &mut stats.global_fused,
                    ))
                } else {
                    None
                }
            }
            // GlobalBin + GlobalSet of the same global → GlobalAccum
            // (`g = g ⊕ x`). Sound even when `b` aliases the dying temp:
            // the fused read of `b` sees the same pre-pair value.
            (&Instr::GlobalBin { k, dst: t, g, b }, &Instr::GlobalSet { g: g2, src })
                if src == t && g2 == g && temp_dies(t, pc) =>
            {
                Some((Instr::GlobalAccum { k, g, b }, &mut stats.global_fused))
            }
            // ConstNull + EqRR → IsNull.
            (&Instr::ConstNull(t), &Instr::EqRR(d, a, b))
                if (b == t && a != t || a == t && b != t) && temp_dies(t, pc) =>
            {
                let v = if b == t { a } else { b };
                Some((Instr::IsNull(d, v), &mut stats.bin_imm_fused))
            }
            // Not + branch → inverted branch on the original condition.
            (&Instr::Not(d, s), &Instr::BrFalse(c, off)) if c == d && temp_dies(d, pc) => {
                Some((Instr::BrTrue(s, refit(off)), &mut stats.not_br_folded))
            }
            (&Instr::Not(d, s), &Instr::BrTrue(c, off)) if c == d && temp_dies(d, pc) => {
                Some((Instr::BrFalse(s, refit(off)), &mut stats.not_br_folded))
            }
            // compare + branch → CmpBr.
            (&Instr::Bin(k, d, a, b), &Instr::BrFalse(c, off))
                if cmp_kind(k) && c == d && temp_dies(d, pc) =>
            {
                Some((
                    Instr::CmpBr { k, a, b, off: refit(off), expect: false },
                    &mut stats.cmp_br_fused,
                ))
            }
            (&Instr::Bin(k, d, a, b), &Instr::BrTrue(c, off))
                if cmp_kind(k) && c == d && temp_dies(d, pc) =>
            {
                Some((
                    Instr::CmpBr { k, a, b, off: refit(off), expect: true },
                    &mut stats.cmp_br_fused,
                ))
            }
            // compare-immediate + branch → CmpBrI.
            (&Instr::BinI { k, dst, a, imm }, &Instr::BrFalse(c, off))
                if cmp_kind(k) && c == dst && temp_dies(dst, pc) =>
            {
                Some((
                    Instr::CmpBrI { k, a, imm, off: refit(off), expect: false },
                    &mut stats.cmp_br_fused,
                ))
            }
            (&Instr::BinI { k, dst, a, imm }, &Instr::BrTrue(c, off))
                if cmp_kind(k) && c == dst && temp_dies(dst, pc) =>
            {
                Some((
                    Instr::CmpBrI { k, a, imm, off: refit(off), expect: true },
                    &mut stats.cmp_br_fused,
                ))
            }
            // word equality + branch → EqBr.
            (&Instr::EqRR(d, a, b), &Instr::BrFalse(c, off))
                if c == d && temp_dies(d, pc) =>
            {
                Some((
                    Instr::EqBr { a, b, off: refit(off), expect: false },
                    &mut stats.cmp_br_fused,
                ))
            }
            (&Instr::EqRR(d, a, b), &Instr::BrTrue(c, off)) if c == d && temp_dies(d, pc) => {
                Some((
                    Instr::EqBr { a, b, off: refit(off), expect: true },
                    &mut stats.cmp_br_fused,
                ))
            }
            // null test + branch → NullBr.
            (&Instr::IsNull(d, v), &Instr::BrFalse(c, off)) if c == d && temp_dies(d, pc) => {
                Some((
                    Instr::NullBr { v, off: refit(off), expect: false },
                    &mut stats.cmp_br_fused,
                ))
            }
            (&Instr::IsNull(d, v), &Instr::BrTrue(c, off)) if c == d && temp_dies(d, pc) => {
                Some((
                    Instr::NullBr { v, off: refit(off), expect: true },
                    &mut stats.cmp_br_fused,
                ))
            }
            // field load + return → FieldGetRet.
            (&Instr::FieldGet { dst, obj, slot }, Instr::Ret(rs))
                if rs.len() == 1 && rs[0] == dst && obj != dst && temp_dies(dst, pc) =>
            {
                Some((Instr::FieldGetRet { obj, slot }, &mut stats.field_ret_fused))
            }
            // def + Mov → def into the Mov's destination (coalescing).
            (a, &Instr::Mov(x, t)) => match coalescable_def(a) {
                Some(d) if d == t && x != t && temp_dies(t, pc) => {
                    let mut redirected = a.clone();
                    set_def(&mut redirected, x);
                    Some((redirected, &mut stats.movs_coalesced))
                }
                _ => None,
            },
            _ => None,
        };
        if let Some((instr, counter)) = fused {
            *counter += 1;
            plan[pc] = Action::Fuse(instr);
            changed = true;
            pc += 2;
        } else {
            pc += 1;
        }
    }
    if changed {
        rebuild(f, cx);
    }
    changed
}

// ---- tier-up speculation ---------------------------------------------------

/// Whether `callee`'s fused body is a one-instruction leaf reducible to an
/// [`InlOp`] at a call site with `argc` arguments. Tier-up asks this of each
/// `CallVirt` site it speculates on: a matching receiver then runs the op in
/// place of the call, with no frame. Parameters occupy registers
/// `0..param_count`, so operand registers below `param_count` name argument
/// positions directly. Trapping arithmetic (`Div`/`Mod`) is never inlined;
/// the field accessor keeps its null check at execution.
pub(crate) fn inline_op(funcs: &[VmFunc], callee: FuncId, argc: usize) -> Option<InlOp> {
    let f = funcs.get(callee as usize)?;
    if f.ret_count != 1 || f.param_count != argc || f.param_count > u8::MAX as usize {
        return None;
    }
    let param = |r: Reg| (r as usize) < f.param_count;
    // Lowered bodies end with an unreachable `Trap` backstop; it never
    // executes, so strip it before shape-matching.
    let code = match f.code.as_slice() {
        [rest @ .., Instr::Trap(_)] => rest,
        all => all,
    };
    match code {
        [Instr::Ret(rs)] if rs.len() == 1 && param(rs[0]) => Some(InlOp::Arg(rs[0] as u8)),
        [Instr::ConstI(d, v), Instr::Ret(rs)] if rs.len() == 1 && rs[0] == *d => {
            i32::try_from(*v).ok().map(InlOp::Const)
        }
        [Instr::Bin(k, d, a, b), Instr::Ret(rs)]
            if rs.len() == 1
                && rs[0] == *d
                && param(*a)
                && param(*b)
                && !matches!(k, BinKind::Div | BinKind::Mod) =>
        {
            Some(InlOp::Bin(*k, *a as u8, *b as u8))
        }
        [Instr::BinI { k, dst, a, imm }, Instr::Ret(rs)]
            if rs.len() == 1
                && rs[0] == *dst
                && param(*a)
                && !matches!(k, BinKind::Div | BinKind::Mod) =>
        {
            Some(InlOp::BinI(*k, *a as u8, *imm))
        }
        [Instr::FieldGet { dst, obj, slot }, Instr::Ret(rs)]
            if rs.len() == 1 && rs[0] == *dst && param(*obj) && *slot <= u16::MAX as u32 =>
        {
            Some(InlOp::Field(*slot as u16, *obj as u8))
        }
        [Instr::FieldGetRet { obj, slot }] if param(*obj) && *slot <= u16::MAX as u32 => {
            Some(InlOp::Field(*slot as u16, *obj as u8))
        }
        _ => None,
    }
}

// ---- validation ------------------------------------------------------------

/// Validates a (possibly fused) program in `vgl_ir`-validator form: register
/// operands within each function's frame, branch targets inside the
/// function, dense inline-cache site indices, a control-transfer instruction
/// at every function end, and superinstructions confined to the fusable
/// opcode set (none of which allocate).
pub fn check_fused(p: &VmProgram) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut sites_seen = vec![false; p.virt_sites];
    for (fi, f) in p.funcs.iter().enumerate() {
        let loc = |pc: usize| format!("func {} (f{fi}) pc {pc}", f.name);
        if f.code.is_empty() {
            out.push(Violation {
                location: format!("func {} (f{fi})", f.name),
                message: "empty function body".into(),
            });
            continue;
        }
        let last = f.code.len() - 1;
        // The final instruction must not fall through past the end:
        // Ret/Trap/FieldGetRet, or a strictly backward jump.
        let end_ok = matches!(
            f.code[last],
            Instr::Ret(..) | Instr::Trap(..) | Instr::FieldGetRet { .. }
        ) || matches!(f.code[last], Instr::Jump(o) if o < 0);
        if !end_ok {
            out.push(Violation {
                location: loc(last),
                message: "function may fall through past its last instruction".into(),
            });
        }
        for (pc, i) in f.code.iter().enumerate() {
            let mut check_reg = |r: Reg| {
                if (r as usize) >= f.reg_count {
                    out.push(Violation {
                        location: loc(pc),
                        message: format!(
                            "register r{r} out of frame (reg_count {})",
                            f.reg_count
                        ),
                    });
                }
            };
            for_each_use(i, &mut check_reg);
            for_each_def(i, &mut check_reg);
            if let Some(off) = branch_off(i) {
                let target = pc as i64 + off as i64;
                if target < 0 || target as usize >= f.code.len() {
                    out.push(Violation {
                        location: loc(pc),
                        message: format!("branch target {target} outside function"),
                    });
                }
            }
            if let Instr::CmpBr { k, .. } | Instr::CmpBrI { k, .. } = i {
                if !cmp_kind(*k) {
                    out.push(Violation {
                        location: loc(pc),
                        message: format!("{k:?} is not a comparison kind"),
                    });
                }
            }
            let global_ref = match i {
                Instr::GlobalGet { g, .. }
                | Instr::GlobalSet { g, .. }
                | Instr::GlobalBin { g, .. }
                | Instr::GlobalAccum { g, .. } => Some(*g),
                _ => None,
            };
            if let Some(g) = global_ref {
                if g as usize >= p.global_count {
                    out.push(Violation {
                        location: loc(pc),
                        message: format!(
                            "global {g} out of range (global_count {})",
                            p.global_count
                        ),
                    });
                }
            }
            if i.is_super() && i.allocates() {
                out.push(Violation {
                    location: loc(pc),
                    message: "superinstruction allocates (§4.2 invariant broken)".into(),
                });
            }
            if i.is_super() && i.is_ref_store() {
                out.push(Violation {
                    location: loc(pc),
                    message: "superinstruction carries a write barrier \
                              (barrier stores are not fusable)"
                        .into(),
                });
            }
            if let Instr::CallVirt { site, .. } = i {
                match sites_seen.get_mut(*site as usize) {
                    Some(seen) => *seen = true,
                    None => out.push(Violation {
                        location: loc(pc),
                        message: format!(
                            "IC site {site} out of range (virt_sites {})",
                            p.virt_sites
                        ),
                    }),
                }
            }
        }
    }
    for (site, seen) in sites_seen.iter().enumerate() {
        if !seen {
            out.push(Violation {
                location: "program".into(),
                message: format!("IC site {site} allocated but never referenced"),
            });
        }
    }
    out
}

/// Cross-checks a fused program against its unfused baseline: for every
/// function, the multiset of allocating instructions and of barrier-carrying
/// ref stores must be unchanged — fusion may reorder registers and collapse
/// pairs, but dropping (or inventing) an allocation breaks the §4.2
/// structural claim, and dropping a write barrier silently loses objects at
/// the next minor collection. This is the release-build counterpart of the
/// `debug_assert`s inside [`fuse`]; the fuzz oracle runs it on every case.
pub fn check_fused_against(baseline: &VmProgram, fused: &VmProgram) -> Vec<Violation> {
    let mut out = Vec::new();
    if baseline.funcs.len() != fused.funcs.len() {
        out.push(Violation {
            location: "program".into(),
            message: format!(
                "fusion changed the function count ({} -> {})",
                baseline.funcs.len(),
                fused.funcs.len()
            ),
        });
        return out;
    }
    for (fi, (b, f)) in baseline.funcs.iter().zip(&fused.funcs).enumerate() {
        if count_allocs(&b.code) != count_allocs(&f.code) {
            out.push(Violation {
                location: format!("func {} (f{fi})", f.name),
                message: format!(
                    "fusion changed the allocating-instruction count ({} -> {})",
                    count_allocs(&b.code),
                    count_allocs(&f.code)
                ),
            });
        }
        if count_ref_stores(&b.code) != count_ref_stores(&f.code) {
            out.push(Violation {
                location: format!("func {} (f{fi})", f.name),
                message: format!(
                    "fusion changed the barrier-carrying store count ({} -> {})",
                    count_ref_stores(&b.code),
                    count_ref_stores(&f.code)
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn func(reg_count: usize, code: Vec<Instr>) -> VmFunc {
        VmFunc { name: "t".into(), param_count: 0, reg_count, ret_count: 1, code }
    }

    #[test]
    fn rebuild_remaps_branches_over_dropped_instrs() {
        // 0: const r1 <- 7   (dead)
        // 1: const r0 <- 1
        // 2: br_true r0 +2   (→ 4)
        // 3: const r0 <- 2
        // 4: ret r0
        let mut f = func(2, vec![
            Instr::ConstI(1, 7),
            Instr::ConstI(0, 1),
            Instr::BrTrue(0, 2),
            Instr::ConstI(0, 2),
            Instr::Ret(vec![0]),
        ]);
        let mut stats = FuseStats::default();
        assert!(eliminate_dead(&mut f, &mut stats, &mut Scratch::default()));
        assert_eq!(f.code.len(), 4);
        let Instr::BrTrue(_, off) = f.code[1] else { panic!("branch kept") };
        assert_eq!(off, 2, "target remapped past the dropped instruction");
    }

    #[test]
    fn validator_rejects_bad_register_and_branch() {
        let p = VmProgram {
            funcs: vec![func(1, vec![Instr::Mov(0, 9), Instr::Jump(5)])],
            ..VmProgram::default()
        };
        let v = check_fused(&p);
        assert!(v.iter().any(|v| v.message.contains("out of frame")), "{v:?}");
        assert!(v.iter().any(|v| v.message.contains("outside function")), "{v:?}");
        assert!(v.iter().any(|v| v.message.contains("fall through")), "{v:?}");
    }

    /// Runs `fuse_pairs` once over `code` and returns the rewritten body.
    fn pairs(reg_count: usize, code: Vec<Instr>) -> (Vec<Instr>, FuseStats) {
        let mut f = func(reg_count, code);
        let mut stats = FuseStats::default();
        fuse_pairs(&mut f, &mut stats, &mut Scratch::default());
        (f.code, stats)
    }

    #[test]
    fn const_bin_fuses_to_bin_imm() {
        let (code, stats) = pairs(3, vec![
            Instr::ConstI(1, 5),
            Instr::Bin(BinKind::Sub, 2, 0, 1),
            Instr::Ret(vec![2]),
        ]);
        assert_eq!(stats.bin_imm_fused, 1);
        assert!(matches!(code[0], Instr::BinI { k: BinKind::Sub, dst: 2, a: 0, imm: 5 }));
    }

    #[test]
    fn const_bin_swaps_commutative_and_comparison_operands() {
        let (code, _) = pairs(3, vec![
            Instr::ConstI(1, 5),
            Instr::Bin(BinKind::Mul, 2, 1, 0),
            Instr::Ret(vec![2]),
        ]);
        assert!(matches!(code[0], Instr::BinI { k: BinKind::Mul, dst: 2, a: 0, imm: 5 }));
        let (code, _) = pairs(3, vec![
            Instr::ConstI(1, 5),
            Instr::Bin(BinKind::Lt, 2, 1, 0), // 5 < r0  ⇔  r0 > 5
            Instr::Ret(vec![2]),
        ]);
        assert!(matches!(code[0], Instr::BinI { k: BinKind::Gt, dst: 2, a: 0, imm: 5 }));
        // Sub does not commute: `5 - r0` must stay unfused.
        let (code, _) = pairs(3, vec![
            Instr::ConstI(1, 5),
            Instr::Bin(BinKind::Sub, 2, 1, 0),
            Instr::Ret(vec![2]),
        ]);
        assert!(matches!(code[0], Instr::ConstI(1, 5)));
    }

    #[test]
    fn const_live_after_pair_blocks_fusion() {
        // r1 is returned after the Bin, so its ConstI def must survive.
        let (code, stats) = pairs(3, vec![
            Instr::ConstI(1, 5),
            Instr::Bin(BinKind::Add, 2, 0, 1),
            Instr::Ret(vec![1]),
        ]);
        assert_eq!(stats.bin_imm_fused, 0);
        assert!(matches!(code[0], Instr::ConstI(1, 5)));
    }

    #[test]
    fn const_null_eq_fuses_to_is_null() {
        let (code, _) = pairs(3, vec![
            Instr::ConstNull(1),
            Instr::EqRR(2, 0, 1),
            Instr::Ret(vec![2]),
        ]);
        assert!(matches!(code[0], Instr::IsNull(2, 0)));
    }

    #[test]
    fn not_branch_folds_to_inverted_branch() {
        let (code, stats) = pairs(2, vec![
            Instr::Not(1, 0),
            Instr::BrFalse(1, 2),
            Instr::Ret(vec![0]),
            Instr::Ret(vec![0]),
        ]);
        assert_eq!(stats.not_br_folded, 1);
        // Offset re-expressed relative to the fused pc: 1 + 2 = 3 → pc 3,
        // which rebuild renumbers to 2 after the pair collapses.
        assert!(matches!(code[0], Instr::BrTrue(0, 2)), "{code:?}");
    }

    #[test]
    fn compare_branch_fuses_to_cmp_br() {
        let (code, stats) = pairs(3, vec![
            Instr::Bin(BinKind::Lt, 2, 0, 1),
            Instr::BrFalse(2, 2),
            Instr::Ret(vec![0]),
            Instr::Ret(vec![1]),
        ]);
        assert_eq!(stats.cmp_br_fused, 1);
        assert!(
            matches!(code[0], Instr::CmpBr { k: BinKind::Lt, a: 0, b: 1, off: 2, expect: false }),
            "{code:?}"
        );
    }

    #[test]
    fn compare_imm_branch_fuses_to_cmp_br_imm() {
        let (code, _) = pairs(2, vec![
            Instr::BinI { k: BinKind::Ge, dst: 1, a: 0, imm: 64 },
            Instr::BrTrue(1, 2),
            Instr::Ret(vec![0]),
            Instr::Ret(vec![0]),
        ]);
        assert!(
            matches!(code[0], Instr::CmpBrI { k: BinKind::Ge, a: 0, imm: 64, off: 2, expect: true }),
            "{code:?}"
        );
    }

    #[test]
    fn eq_and_null_tests_fuse_with_branches() {
        let (code, _) = pairs(3, vec![
            Instr::EqRR(2, 0, 1),
            Instr::BrFalse(2, 2),
            Instr::Ret(vec![0]),
            Instr::Ret(vec![1]),
        ]);
        assert!(matches!(code[0], Instr::EqBr { a: 0, b: 1, off: 2, expect: false }), "{code:?}");
        let (code, _) = pairs(2, vec![
            Instr::IsNull(1, 0),
            Instr::BrTrue(1, 2),
            Instr::Ret(vec![0]),
            Instr::Ret(vec![0]),
        ]);
        assert!(matches!(code[0], Instr::NullBr { v: 0, off: 2, expect: true }), "{code:?}");
    }

    #[test]
    fn field_get_ret_fuses() {
        let (code, stats) = pairs(2, vec![
            Instr::FieldGet { dst: 1, obj: 0, slot: 3 },
            Instr::Ret(vec![1]),
        ]);
        assert_eq!(stats.field_ret_fused, 1);
        assert!(matches!(code[0], Instr::FieldGetRet { obj: 0, slot: 3 }));
    }

    #[test]
    fn def_mov_coalesces_and_inc_local_rewrites() {
        let (code, stats) = pairs(3, vec![
            Instr::FieldGet { dst: 2, obj: 0, slot: 0 },
            Instr::Mov(1, 2),
            Instr::Ret(vec![1]),
        ]);
        assert_eq!(stats.movs_coalesced, 1);
        assert!(matches!(code[0], Instr::FieldGet { dst: 1, obj: 0, slot: 0 }));
        let (code, stats) = pairs(1, vec![
            Instr::BinI { k: BinKind::Add, dst: 0, a: 0, imm: 1 },
            Instr::Ret(vec![0]),
        ]);
        assert_eq!(stats.inc_local_fused, 1);
        assert!(matches!(code[0], Instr::IncLocal { r: 0, imm: 1 }));
    }

    #[test]
    fn global_get_bin_fuses_and_chains_into_global_accum() {
        // g0 = g0 + r0 lowers to get/bin/set; two rounds collapse it to one
        // GlobalAccum.
        let mut f = func(3, vec![
            Instr::GlobalGet { dst: 1, g: 0 },
            Instr::Bin(BinKind::Add, 2, 1, 0),
            Instr::GlobalSet { g: 0, src: 2 },
            Instr::Ret(vec![0]),
        ]);
        let mut stats = FuseStats::default();
        fuse_pairs(&mut f, &mut stats, &mut Scratch::default());
        assert_eq!(stats.global_fused, 1);
        assert!(matches!(f.code[0], Instr::GlobalBin { k: BinKind::Add, dst: 2, g: 0, b: 0 }));
        fuse_pairs(&mut f, &mut stats, &mut Scratch::default());
        assert_eq!(stats.global_fused, 2);
        assert!(
            matches!(f.code[0], Instr::GlobalAccum { k: BinKind::Add, g: 0, b: 0 }),
            "{:?}",
            f.code
        );
    }

    #[test]
    fn global_bin_swaps_commutative_operands_only() {
        // r0 + g0: the global loads into the right operand; Add commutes.
        let (code, _) = pairs(3, vec![
            Instr::GlobalGet { dst: 1, g: 0 },
            Instr::Bin(BinKind::Add, 2, 0, 1),
            Instr::Ret(vec![2]),
        ]);
        assert!(matches!(code[0], Instr::GlobalBin { k: BinKind::Add, dst: 2, g: 0, b: 0 }));
        // r0 - g0 does not commute: must stay unfused.
        let (code, stats) = pairs(3, vec![
            Instr::GlobalGet { dst: 1, g: 0 },
            Instr::Bin(BinKind::Sub, 2, 0, 1),
            Instr::Ret(vec![2]),
        ]);
        assert_eq!(stats.global_fused, 0);
        assert!(matches!(code[0], Instr::GlobalGet { .. }));
    }

    #[test]
    fn global_accum_requires_same_global_and_dead_temp() {
        // Different destination global: no accumulator fusion.
        let (code, _) = pairs(3, vec![
            Instr::GlobalBin { k: BinKind::Add, dst: 2, g: 0, b: 0 },
            Instr::GlobalSet { g: 1, src: 2 },
            Instr::Ret(vec![0]),
        ]);
        assert!(matches!(code[1], Instr::GlobalSet { g: 1, .. }), "{code:?}");
        // Temp still live after the set: no fusion.
        let (code, _) = pairs(3, vec![
            Instr::GlobalBin { k: BinKind::Add, dst: 2, g: 0, b: 0 },
            Instr::GlobalSet { g: 0, src: 2 },
            Instr::Ret(vec![2]),
        ]);
        assert!(matches!(code[0], Instr::GlobalBin { .. }), "{code:?}");
    }

    #[test]
    fn no_fusion_across_a_branch_target() {
        // pc 2 (the branch) is itself a jump target, so the pair (1, 2) must
        // not fuse — another path enters at the branch with r2 already set.
        let (code, stats) = pairs(3, vec![
            Instr::Jump(2),
            Instr::Bin(BinKind::Lt, 2, 0, 1),
            Instr::BrFalse(2, 2),
            Instr::Ret(vec![0]),
            Instr::Ret(vec![1]),
        ]);
        assert_eq!(stats.cmp_br_fused, 0);
        assert!(matches!(code[1], Instr::Bin(BinKind::Lt, 2, 0, 1)), "{code:?}");
    }

    /// Per-pc live-out sets by plain round-robin dataflow over the
    /// instruction-level CFG: the oracle for [`Liveness`].
    fn dense_live_out(code: &[Instr], regs: usize) -> Vec<Vec<bool>> {
        let n = code.len();
        let succs = |pc: usize| -> Vec<usize> {
            let target = branch_off(&code[pc]).map(|off| (pc as i64 + off as i64) as usize);
            match code[pc] {
                Instr::Ret(..) | Instr::Trap(..) | Instr::FieldGetRet { .. } => vec![],
                Instr::Jump(..) => target.into_iter().collect(),
                _ => (pc + 1 < n).then_some(pc + 1).into_iter().chain(target).collect(),
            }
        };
        let mut out = vec![vec![false; regs]; n];
        let mut inn = vec![vec![false; regs]; n];
        loop {
            let mut changed = false;
            for pc in (0..n).rev() {
                let mut o = vec![false; regs];
                for s in succs(pc) {
                    o.iter_mut().zip(&inn[s]).for_each(|(o, &i)| *o |= i);
                }
                let mut i = o.clone();
                for_each_def(&code[pc], &mut |d| i[d as usize] = false);
                for_each_use(&code[pc], &mut |u| i[u as usize] = true);
                if o != out[pc] || i != inn[pc] {
                    (out[pc], inn[pc]) = (o, i);
                    changed = true;
                }
            }
            if !changed {
                return out;
            }
        }
    }

    /// `sum = 0; for (i = 0; i < 10; i = i + 1) sum = sum + i; return sum`.
    fn loop_body() -> Vec<Instr> {
        vec![
            Instr::ConstI(0, 0),                     // sum
            Instr::ConstI(1, 0),                     // i
            Instr::ConstI(2, 10),                    // limit (live across loop)
            Instr::Bin(BinKind::Lt, 3, 1, 2),
            Instr::BrFalse(3, 5),
            Instr::Bin(BinKind::Add, 0, 0, 1),
            Instr::ConstI(4, 1),
            Instr::Bin(BinKind::Add, 1, 1, 4),
            Instr::Jump(-5),
            Instr::Ret(vec![0]),
        ]
    }

    #[test]
    fn block_liveness_matches_the_per_instruction_dataflow() {
        // More than 64 registers cross the block boundary, so the block
        // bitsets span two words; r70 is only ever block-local.
        let mut wide: Vec<Instr> = (0..70).map(|r| Instr::ConstI(r, r as i64)).collect();
        wide.push(Instr::BrTrue(0, 2));
        wide.extend((0..70).map(|r| Instr::Bin(BinKind::Add, 70, 70, r)));
        wide.push(Instr::Ret(vec![70]));
        let branchy = vec![
            Instr::ConstI(1, 1),
            Instr::BrFalse(0, 3),                    // → 4
            Instr::ConstI(2, 2),
            Instr::Jump(2),                          // → 5
            Instr::ConstI(2, 3),
            Instr::Bin(BinKind::Add, 3, 1, 2),       // join: reads r1 and r2
            Instr::Ret(vec![3]),
            Instr::ConstI(4, 4),                     // unreachable
            Instr::Trap(vgl_ir::ops::Exception::NullCheck),
        ];
        for (regs, code) in [(5, loop_body()), (71, wide), (5, branchy)] {
            let want = dense_live_out(&code, regs);
            let mut live = Liveness::default();
            live.compute(&code, regs);
            let mut got = vec![vec![false; regs]; code.len()];
            live.walk(&code, |pc, l| {
                got[pc] = (0..regs as Reg).map(|r| l.has(r)).collect();
                false
            });
            assert_eq!(got, want, "{code:?}");
        }
    }

    #[test]
    fn register_live_around_a_back_edge_is_kept() {
        // r1 is rewritten at the bottom of the loop body and read only at
        // the loop head, through the back edge.
        let code = vec![
            Instr::ConstI(0, 0),
            Instr::ConstI(1, 10),
            Instr::Bin(BinKind::Lt, 2, 0, 1),        // loop head
            Instr::BrFalse(2, 4),                    // → 7
            Instr::BinI { k: BinKind::Add, dst: 0, a: 0, imm: 1 },
            Instr::ConstI(1, 20),
            Instr::Jump(-4),                         // → 2
            Instr::Ret(vec![0]),
        ];
        let mut f = func(3, code.clone());
        let mut stats = FuseStats::default();
        assert!(!eliminate_dead(&mut f, &mut stats, &mut Scratch::default()));
        assert_eq!(f.code, code);
        assert_eq!(stats.dead_removed, 0);
    }

    #[test]
    fn dead_chain_across_a_block_boundary_is_fully_removed() {
        let mut f = func(4, vec![
            Instr::ConstI(1, 7),                     // feeds only pc 1
            Instr::Bin(BinKind::Add, 2, 1, 1),       // feeds only pc 3, past the branch
            Instr::BrTrue(0, 1),                     // ends the block
            Instr::Bin(BinKind::Add, 3, 2, 2),       // r3 is never read
            Instr::Ret(vec![0]),
        ]);
        let mut stats = FuseStats::default();
        assert!(eliminate_dead(&mut f, &mut stats, &mut Scratch::default()));
        assert_eq!(f.code, vec![Instr::BrTrue(0, 1), Instr::Ret(vec![0])]);
        assert_eq!(stats.dead_removed, 3);
    }

    #[test]
    fn redefining_a_source_invalidates_every_copy_of_it() {
        let mut f = func(7, vec![
            Instr::Mov(1, 0),
            Instr::Mov(2, 0),
            Instr::Mov(3, 0),
            Instr::Bin(BinKind::Add, 4, 1, 2),       // reads r0 twice
            Instr::Mov(1, 6),                        // r1 now copies r6 instead
            Instr::ConstI(0, 9),                     // r2 and r3 stop being copies
            Instr::Bin(BinKind::Add, 5, 1, 2),       // r1 still reads r6
            Instr::Bin(BinKind::Add, 5, 5, 3),
            Instr::Ret(vec![4, 5]),
        ]);
        let mut stats = FuseStats::default();
        copy_propagate(&mut f, &mut stats, &mut Scratch::default());
        assert_eq!(f.code[3], Instr::Bin(BinKind::Add, 4, 0, 0));
        assert_eq!(f.code[6], Instr::Bin(BinKind::Add, 5, 6, 2));
        assert_eq!(f.code[7], Instr::Bin(BinKind::Add, 5, 5, 3));
        assert_eq!(stats.copies_propagated, 3);
    }

    #[test]
    fn copies_reset_at_a_mid_block_branch_target() {
        // pc 2 follows straight-line code but is also reached by the branch
        // at pc 3, where r1 need not equal r0.
        let mut f = func(4, vec![
            Instr::Mov(1, 0),
            Instr::Bin(BinKind::Add, 2, 1, 1),
            Instr::Bin(BinKind::Add, 3, 1, 1),
            Instr::BrFalse(3, -1),                   // → 2
            Instr::Ret(vec![2]),
        ]);
        let mut stats = FuseStats::default();
        copy_propagate(&mut f, &mut stats, &mut Scratch::default());
        assert_eq!(f.code[1], Instr::Bin(BinKind::Add, 2, 0, 0));
        assert_eq!(f.code[2], Instr::Bin(BinKind::Add, 3, 1, 1));
        assert_eq!(stats.copies_propagated, 2);
    }

    /// End-to-end equivalence on a real loop: the full pass must produce the
    /// same result as the unfused program and land the hot-loop
    /// superinstructions.
    #[test]
    fn fused_loop_program_runs_identically() {
        let unfused = VmProgram {
            funcs: vec![func(5, loop_body())],
            main: Some(0),
            ..VmProgram::default()
        };
        let mut fused = unfused.clone();
        let stats = fuse(&mut fused);
        assert!(check_fused(&fused).is_empty(), "{:?}", check_fused(&fused));
        assert!(stats.instrs_after < stats.instrs_before);
        let code = &fused.funcs[0].code;
        assert!(code.iter().any(|i| matches!(i, Instr::IncLocal { .. })), "{code:?}");
        assert!(
            code.iter().any(|i| matches!(i, Instr::CmpBr { .. } | Instr::CmpBrI { .. })),
            "{code:?}"
        );
        let a = crate::Vm::new(&unfused).run().expect("unfused runs");
        let b = crate::Vm::new(&fused).run().expect("fused runs");
        assert_eq!(crate::ret_as_int(&a), Some(45));
        assert_eq!(crate::ret_as_int(&a), crate::ret_as_int(&b));
    }
}
