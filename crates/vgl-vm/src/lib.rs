//! # vgl-vm
//!
//! The bytecode target of virgil-rs — the stand-in for the paper's native
//! x86 backend. [`lower`] compiles a *normalized, monomorphic* module into a
//! register [`VmProgram`]; [`Vm`] executes it over tagged 64-bit words with
//! the semispace GC heap from `vgl-runtime`.
//!
//! The target exists to make §4's implementation claims *measurable*:
//!
//! * the calling convention is all-scalar with **multiple return registers**,
//!   so there are no tuple boxes and no §4.1 dynamic calling-convention
//!   checks (compare [`VmStats`] with the interpreter's `InterpStats`);
//! * type tests compile to **constant-time class-id range checks** (Cohen
//!   numbering, cited by the paper) or precomputed closure admissibility
//!   tables;
//! * the only allocations are explicit `new`/literals and closure cells —
//!   [`vgl_runtime::HeapStats::tuple_boxes`] is structurally always zero;
//! * an optional bytecode back-end optimizer ([`fuse`](mod@fuse)) performs
//!   copy propagation, dead-register elimination, and superinstruction fusion
//!   on the lowered code, and virtual call sites carry monomorphic inline
//!   caches — the classic kernel-level VM optimizations the paper's
//!   "optimize each version independently" claim licenses.

#![warn(missing_docs)]

mod bytecode;
mod disasm;
mod flight;
pub mod fuse;
mod lower;
mod profile;
mod tier;
mod vm;

pub use bytecode::{
    BinKind, ClosTest, FuncId, InlOp, Instr, Reg, VmClass, VmFunc, VmProgram,
    FIRST_SUPER_OPCODE, OPCODE_COUNT, OPCODE_NAMES,
};
pub use disasm::{disasm, disasm_instr, side_by_side, tiered_view};
pub use flight::{CallKind, FlightEvent, FlightKind, FlightRecorder};
pub use fuse::{
    check_fused, check_fused_against, fuse, fuse_cfg, fuse_cfg_masked, tier_fuse_func, FuseStats,
    TierFeedback, TieredBody,
};
pub use lower::{lower, lower_reusing, Demand, ReusePlan, SpliceFunc, SpliceRecord};
pub use profile::{FuncSpan, GcEvent, HotFunc, RuntimeProfile, TierInstant, TraceLog, VmProfile};
pub use tier::{
    site_speculation, Speculation, TierState, DEFAULT_TIER_THRESHOLD, SPEC_MISS_CAP,
};
pub use vm::{ret_as_int, ret_is_ref, Vm, VmError, VmStats, DEFAULT_NURSERY_SLOTS, RET_INLINE};
pub use vgl_runtime::heap::GcKind;
