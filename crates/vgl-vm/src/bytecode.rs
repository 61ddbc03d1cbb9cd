//! Bytecode definitions for the register VM — the "native target" substitute.
//!
//! The design mirrors what the paper's native x86 backend guarantees:
//!
//! * a **scalar calling convention**: calls pass zero or more scalar
//!   registers and return zero or more scalar registers ("utilizing multiple
//!   return registers on native targets" — §4.2);
//! * **vtable dispatch** for virtual calls;
//! * **constant-time type tests** on classes via preorder range numbering
//!   (the paper cites Cohen [4] for this);
//! * **no implicit allocation**: the only allocating instructions are the
//!   explicit `NewObject`/`NewArray`/`ArrayLit`/`ConstPool` (source-level
//!   `new` and literals) and `MakeClos*` (closure cells, reported
//!   separately).

use vgl_ir::ops::Exception;
use vgl_ir::Builtin;

/// A virtual register (frame slot index).
pub type Reg = u16;

/// A function index in [`VmProgram::funcs`].
pub type FuncId = u32;

/// Comparison/arithmetic kinds for [`Instr::Bin`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinKind {
    /// Wrapping add.
    Add,
    /// Wrapping subtract.
    Sub,
    /// Wrapping multiply.
    Mul,
    /// Trapping divide.
    Div,
    /// Trapping modulus.
    Mod,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left (Virgil semantics).
    Shl,
    /// Arithmetic shift right (Virgil semantics).
    Shr,
}

/// One bytecode instruction.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Instr {
    /// dst ← signed scalar constant.
    ConstI(Reg, i64),
    /// dst ← null.
    ConstNull(Reg),
    /// dst ← fresh byte array from the constant pool (allocates).
    ConstPool(Reg, u32),
    /// dst ← src.
    Mov(Reg, Reg),
    /// dst ← a ⊕ b on scalars.
    Bin(BinKind, Reg, Reg, Reg),
    /// dst ← -a.
    Neg(Reg, Reg),
    /// dst ← !a (bool).
    Not(Reg, Reg),
    /// dst ← a == b on tagged words (scalars by value, refs by identity).
    EqRR(Reg, Reg, Reg),
    /// dst ← closure equality: same function and same bound receiver.
    EqClos(Reg, Reg, Reg),
    /// Unconditional relative jump.
    Jump(i32),
    /// Branch when the register holds false.
    BrFalse(Reg, i32),
    /// Branch when the register holds true.
    BrTrue(Reg, i32),
    /// Direct call.
    Call {
        /// Callee.
        func: FuncId,
        /// Argument registers.
        args: Vec<Reg>,
        /// Destination registers for the returned values.
        rets: Vec<Reg>,
    },
    /// Virtual call through `args[0]`'s class vtable.
    CallVirt {
        /// Vtable slot.
        slot: u32,
        /// Call-site index into the VM's monomorphic inline-cache table
        /// (dense in `0..`[`VmProgram::virt_sites`]).
        site: u32,
        /// Argument registers; `args[0]` is the receiver (null-checked).
        args: Vec<Reg>,
        /// Destinations.
        rets: Vec<Reg>,
    },
    /// Closure invocation (null-checked).
    CallClos {
        /// Closure cell register.
        clos: Reg,
        /// Arguments (receiver prepended automatically when bound).
        args: Vec<Reg>,
        /// Destinations.
        rets: Vec<Reg>,
    },
    /// Host intrinsic call.
    CallBuiltin {
        /// Which intrinsic.
        b: Builtin,
        /// Arguments.
        args: Vec<Reg>,
        /// Destinations (zero or one).
        rets: Vec<Reg>,
    },
    /// dst ← closure cell over `func` (+ optional bound receiver).
    MakeClos {
        /// Destination.
        dst: Reg,
        /// Target function.
        func: FuncId,
        /// Receiver to bind.
        recv: Option<Reg>,
    },
    /// dst ← closure bound via bind-time vtable lookup (null-checked).
    MakeClosVirt {
        /// Destination.
        dst: Reg,
        /// Vtable slot.
        slot: u32,
        /// Receiver.
        recv: Reg,
    },
    /// dst ← new object of `class`, fields zeroed (explicit allocation).
    NewObject {
        /// Destination.
        dst: Reg,
        /// Class index.
        class: u32,
    },
    /// dst ← new array of `len` default slots; traps on negative length.
    NewArray {
        /// Destination.
        dst: Reg,
        /// Length register.
        len: Reg,
        /// Elements default to `null` when reference-typed.
        nullable: bool,
    },
    /// dst ← array literal from registers.
    ArrayLit {
        /// Destination.
        dst: Reg,
        /// Element registers.
        elems: Vec<Reg>,
    },
    /// dst ← array length (null-checked).
    ArrayLen {
        /// Destination.
        dst: Reg,
        /// Array.
        arr: Reg,
    },
    /// dst ← `arr[idx]` (null- and bounds-checked).
    ArrayGet {
        /// Destination.
        dst: Reg,
        /// Array.
        arr: Reg,
        /// Index.
        idx: Reg,
    },
    /// `arr[idx]` ← val (statically scalar-typed; no write barrier).
    ArraySet {
        /// Array.
        arr: Reg,
        /// Index.
        idx: Reg,
        /// Value.
        val: Reg,
    },
    /// `arr[idx]` ← val where `val` is statically **reference-typed**: the
    /// store goes through the generational write barrier so a nursery
    /// reference stored into a mature array lands in the remembered set.
    /// Lowering picks this (vs. [`Instr::ArraySet`]) from the element's
    /// static type; fusion must preserve the choice.
    ArraySetRef {
        /// Array.
        arr: Reg,
        /// Index.
        idx: Reg,
        /// Value (reference-typed).
        val: Reg,
    },
    /// dst ← obj.slot (null-checked).
    FieldGet {
        /// Destination.
        dst: Reg,
        /// Object.
        obj: Reg,
        /// Field slot.
        slot: u32,
    },
    /// obj.slot ← val (null-checked; statically scalar-typed, no barrier).
    FieldSet {
        /// Object.
        obj: Reg,
        /// Field slot.
        slot: u32,
        /// Value.
        val: Reg,
    },
    /// obj.slot ← val (null-checked) where `val` is statically
    /// **reference-typed**: the store goes through the generational write
    /// barrier (see [`Instr::ArraySetRef`]).
    FieldSetRef {
        /// Object.
        obj: Reg,
        /// Field slot.
        slot: u32,
        /// Value (reference-typed).
        val: Reg,
    },
    /// dst ← global.
    GlobalGet {
        /// Destination.
        dst: Reg,
        /// Global index.
        g: u32,
    },
    /// global ← src.
    GlobalSet {
        /// Global index.
        g: u32,
        /// Source.
        src: Reg,
    },
    /// dst ← `obj` is an instance of the class preorder range `[lo, hi]`
    /// (false for null) — Cohen-style constant-time type test.
    ClassQuery {
        /// Destination (bool).
        dst: Reg,
        /// Object.
        obj: Reg,
        /// Range start.
        lo: u32,
        /// Range end (inclusive).
        hi: u32,
    },
    /// Traps unless `obj` is null or within the range.
    ClassCast {
        /// Object.
        obj: Reg,
        /// Range start.
        lo: u32,
        /// Range end.
        hi: u32,
    },
    /// dst ← closure type test via precomputed per-function admissibility.
    ClosQuery {
        /// Destination (bool).
        dst: Reg,
        /// Closure.
        clos: Reg,
        /// Index into [`VmProgram::clos_tests`].
        test: u32,
    },
    /// Traps unless the closure passes the test (null passes).
    ClosCast {
        /// Closure.
        clos: Reg,
        /// Test index.
        test: u32,
    },
    /// dst ← src checked into byte range (traps when out of 0..=255).
    IntToByte {
        /// Destination.
        dst: Reg,
        /// Source.
        src: Reg,
    },
    /// Traps when the register is null; otherwise no effect.
    CheckNull(Reg),
    /// dst ← src is null.
    IsNull(Reg, Reg),
    /// Return the given registers to the caller.
    Ret(Vec<Reg>),
    /// Raise an exception.
    Trap(Exception),

    // ---- superinstructions (emitted only by the fusion pass) ------------
    /// dst ← a ⊕ imm — a [`Instr::Bin`] whose second operand was a constant
    /// (fused from `ConstI` + `Bin`).
    BinI {
        /// Operation.
        k: BinKind,
        /// Destination.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Immediate right operand.
        imm: i32,
    },
    /// r ← r + imm — the loop-counter increment (fused from `BinI(Add)` when
    /// destination and source coincide).
    IncLocal {
        /// Register incremented in place.
        r: Reg,
        /// Increment (wrapping).
        imm: i32,
    },
    /// Fused compare+branch: jump `off` when `(a k b) == expect`; `k` is one
    /// of the four ordering comparisons.
    CmpBr {
        /// Comparison (`Lt`/`Le`/`Gt`/`Ge` only).
        k: BinKind,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
        /// Relative jump when the comparison matches `expect`.
        off: i32,
        /// Branch polarity.
        expect: bool,
    },
    /// Fused compare+branch against an immediate — the canonical
    /// `for (i = 0; i < N; ...)` loop header in one instruction.
    CmpBrI {
        /// Comparison (`Lt`/`Le`/`Gt`/`Ge` only).
        k: BinKind,
        /// Left operand.
        a: Reg,
        /// Immediate right operand.
        imm: i32,
        /// Relative jump when the comparison matches `expect`.
        off: i32,
        /// Branch polarity.
        expect: bool,
    },
    /// Fused word-equality branch: jump `off` when `(a == b) == expect`.
    EqBr {
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
        /// Relative jump.
        off: i32,
        /// Branch polarity.
        expect: bool,
    },
    /// Fused null-test branch: jump `off` when `(v == null) == expect` —
    /// the `for (x = l; x != null; x = x.tail)` header in one instruction.
    NullBr {
        /// Tested register.
        v: Reg,
        /// Relative jump.
        off: i32,
        /// Branch polarity.
        expect: bool,
    },
    /// Fused field load + return (null-checked) — the accessor-method body.
    FieldGetRet {
        /// Object.
        obj: Reg,
        /// Field slot.
        slot: u32,
    },
    /// dst ← global ⊕ b (fused from `GlobalGet` + `Bin` when the loaded
    /// temp dies at the operation).
    GlobalBin {
        /// Operation.
        k: BinKind,
        /// Destination.
        dst: Reg,
        /// Global index (left operand).
        g: u32,
        /// Right operand.
        b: Reg,
    },
    /// global ← global ⊕ b — the global-accumulator idiom
    /// (`sink = sink + x`) in one instruction, fused from
    /// `GlobalBin` + `GlobalSet` over the same global.
    GlobalAccum {
        /// Operation.
        k: BinKind,
        /// Global index (read then written).
        g: u32,
        /// Right operand.
        b: Reg,
    },

    // ---- speculative superinstructions (emitted only by the tiered
    // ---- re-fuse pass, never by lowering or the static fuse pass) -------
    /// Guarded direct call: a `CallVirt` whose inline cache stayed
    /// monomorphic, devirtualized by the tier-up pass. When `args[0]`'s
    /// class equals `class` the call proceeds directly to `func`; otherwise
    /// the frame **deoptimizes** — transfers to the unfused baseline body at
    /// `deopt_pc` (the pc of the original `CallVirt`, which re-executes and
    /// carries the vtable slot) and marks `site` megamorphic.
    CallGuard {
        /// Expected receiver class (the IC snapshot at tier-up).
        class: u32,
        /// Devirtualized callee (what the vtable resolved to for `class`).
        func: FuncId,
        /// The baseline `CallVirt`'s inline-cache site index.
        site: u32,
        /// Baseline-body pc to resume at on guard failure.
        deopt_pc: u32,
        /// Argument registers; `args[0]` is the receiver (null-checked).
        args: Vec<Reg>,
        /// Destinations.
        rets: Vec<Reg>,
    },
    /// Guarded speculative inlining of a one-instruction callee body: the
    /// receiver-class guard of [`Instr::CallGuard`] plus the callee's entire
    /// effect as an [`InlOp`] micro-op, eliding the frame push/pop. Same
    /// deopt protocol as `CallGuard`.
    CallInline {
        /// Expected receiver class.
        class: u32,
        /// The baseline `CallVirt`'s inline-cache site index.
        site: u32,
        /// Baseline-body pc to resume at on guard failure.
        deopt_pc: u32,
        /// The inlined callee body.
        op: InlOp,
        /// Argument registers; `args[0]` is the receiver (null-checked).
        args: Vec<Reg>,
        /// Destinations (zero or one).
        rets: Vec<Reg>,
    },
}

/// The inlined body of a [`Instr::CallInline`]: a one-instruction callee
/// reduced to a micro-op over the call's argument registers. Operand bytes
/// index into `args` (parameter positions), not frame registers — the
/// callee frame is never materialized. Only non-allocating, non-trapping
/// shapes are eligible (`Div`/`Mod` by a register operand and `BinI` with a
/// zero immediate are excluded so the inlined op cannot raise an arithmetic
/// trap the guard did not anticipate; the field load keeps its null check).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum InlOp {
    /// Return the `i`-th argument unchanged (identity/getter-of-self).
    Arg(u8),
    /// Return a scalar constant.
    Const(i32),
    /// Return `args[a] ⊕ args[b]`.
    Bin(BinKind, u8, u8),
    /// Return `args[a] ⊕ imm`.
    BinI(BinKind, u8, i32),
    /// Return `args[o].slot` (null-checked field accessor).
    Field(u16, u8),
}

/// Number of distinct opcodes — the length of [`OPCODE_NAMES`] and of the
/// profiler's retired-instruction histogram.
pub const OPCODE_COUNT: usize = 50;

/// Index of the first superinstruction opcode: opcodes in
/// `FIRST_SUPER_OPCODE..OPCODE_COUNT` are only ever emitted by the fusion
/// pass (`vgl_vm::fuse`), never by lowering.
pub const FIRST_SUPER_OPCODE: usize = 39;

/// Opcode mnemonics, indexed by [`Instr::opcode`].
pub const OPCODE_NAMES: [&str; OPCODE_COUNT] = [
    "const_i",
    "const_null",
    "const_pool",
    "mov",
    "bin",
    "neg",
    "not",
    "eq_rr",
    "eq_clos",
    "jump",
    "br_false",
    "br_true",
    "call",
    "call_virt",
    "call_clos",
    "call_builtin",
    "make_clos",
    "make_clos_virt",
    "new_object",
    "new_array",
    "array_lit",
    "array_len",
    "array_get",
    "array_set",
    "array_set_ref",
    "field_get",
    "field_set",
    "field_set_ref",
    "global_get",
    "global_set",
    "class_query",
    "class_cast",
    "clos_query",
    "clos_cast",
    "int_to_byte",
    "check_null",
    "is_null",
    "ret",
    "trap",
    "bin_i",
    "inc_local",
    "cmp_br",
    "cmp_br_i",
    "eq_br",
    "null_br",
    "field_get_ret",
    "global_bin",
    "global_accum",
    "call_guard",
    "call_inline",
];

impl Instr {
    /// A dense opcode index in `0..OPCODE_COUNT`, used by the profiler's
    /// per-opcode histogram.
    pub fn opcode(&self) -> usize {
        match self {
            Instr::ConstI(..) => 0,
            Instr::ConstNull(..) => 1,
            Instr::ConstPool(..) => 2,
            Instr::Mov(..) => 3,
            Instr::Bin(..) => 4,
            Instr::Neg(..) => 5,
            Instr::Not(..) => 6,
            Instr::EqRR(..) => 7,
            Instr::EqClos(..) => 8,
            Instr::Jump(..) => 9,
            Instr::BrFalse(..) => 10,
            Instr::BrTrue(..) => 11,
            Instr::Call { .. } => 12,
            Instr::CallVirt { .. } => 13,
            Instr::CallClos { .. } => 14,
            Instr::CallBuiltin { .. } => 15,
            Instr::MakeClos { .. } => 16,
            Instr::MakeClosVirt { .. } => 17,
            Instr::NewObject { .. } => 18,
            Instr::NewArray { .. } => 19,
            Instr::ArrayLit { .. } => 20,
            Instr::ArrayLen { .. } => 21,
            Instr::ArrayGet { .. } => 22,
            Instr::ArraySet { .. } => 23,
            Instr::ArraySetRef { .. } => 24,
            Instr::FieldGet { .. } => 25,
            Instr::FieldSet { .. } => 26,
            Instr::FieldSetRef { .. } => 27,
            Instr::GlobalGet { .. } => 28,
            Instr::GlobalSet { .. } => 29,
            Instr::ClassQuery { .. } => 30,
            Instr::ClassCast { .. } => 31,
            Instr::ClosQuery { .. } => 32,
            Instr::ClosCast { .. } => 33,
            Instr::IntToByte { .. } => 34,
            Instr::CheckNull(..) => 35,
            Instr::IsNull(..) => 36,
            Instr::Ret(..) => 37,
            Instr::Trap(..) => 38,
            Instr::BinI { .. } => 39,
            Instr::IncLocal { .. } => 40,
            Instr::CmpBr { .. } => 41,
            Instr::CmpBrI { .. } => 42,
            Instr::EqBr { .. } => 43,
            Instr::NullBr { .. } => 44,
            Instr::FieldGetRet { .. } => 45,
            Instr::GlobalBin { .. } => 46,
            Instr::GlobalAccum { .. } => 47,
            Instr::CallGuard { .. } => 48,
            Instr::CallInline { .. } => 49,
        }
    }

    /// Whether this instruction is a fusion-emitted superinstruction.
    pub fn is_super(&self) -> bool {
        self.opcode() >= FIRST_SUPER_OPCODE
    }

    /// Whether executing this instruction can allocate on the VM heap. The
    /// fusion pass must keep the multiset of allocating instructions intact
    /// (the §4.2 structural claim: only explicit `new`/literals and closure
    /// cells allocate), and its validator checks exactly this set.
    pub fn allocates(&self) -> bool {
        matches!(
            self,
            Instr::ConstPool(..)
                | Instr::MakeClos { .. }
                | Instr::MakeClosVirt { .. }
                | Instr::NewObject { .. }
                | Instr::NewArray { .. }
                | Instr::ArrayLit { .. }
        )
    }

    /// Whether this instruction stores a statically reference-typed value
    /// into a heap cell and therefore carries the generational write
    /// barrier. Fusion must keep the multiset of barrier-carrying stores
    /// intact — dropping one can silently lose an object at the next minor
    /// collection — and its validator checks exactly this set.
    pub fn is_ref_store(&self) -> bool {
        matches!(self, Instr::ArraySetRef { .. } | Instr::FieldSetRef { .. })
    }
}

/// Per-function admissibility for closure type tests: whether each function,
/// in bound and unbound form, satisfies the target function type.
#[derive(Clone, Debug, Default)]
pub struct ClosTest {
    /// `allowed_bound[f]`: a closure cell (f, recv) passes.
    pub allowed_bound: Vec<bool>,
    /// `allowed_unbound[f]`: a closure cell (f, —) passes.
    pub allowed_unbound: Vec<bool>,
}

/// A compiled function.
#[derive(Clone, Debug)]
pub struct VmFunc {
    /// Name (diagnostics/disassembly).
    pub name: String,
    /// Number of parameter registers.
    pub param_count: usize,
    /// Total frame registers.
    pub reg_count: usize,
    /// Number of returned values.
    pub ret_count: usize,
    /// The code.
    pub code: Vec<Instr>,
}

/// A compiled class.
#[derive(Clone, Debug)]
pub struct VmClass {
    /// Name.
    pub name: String,
    /// Total (flattened) field slots.
    pub field_count: usize,
    /// Which field slots default to `null` (reference-typed).
    pub field_nullable: Vec<bool>,
    /// Virtual dispatch table.
    pub vtable: Vec<FuncId>,
    /// Preorder number.
    pub pre: u32,
    /// Largest preorder number among descendants.
    pub max_desc: u32,
}

/// A compiled program.
#[derive(Clone, Debug, Default)]
pub struct VmProgram {
    /// All functions.
    pub funcs: Vec<VmFunc>,
    /// All classes.
    pub classes: Vec<VmClass>,
    /// Number of global slots.
    pub global_count: usize,
    /// Whether each global defaults to `null` (reference-typed).
    pub global_nullable: Vec<bool>,
    /// Initialization: `(global slot, init function)` in order; each init
    /// function takes no arguments and returns one value.
    pub global_inits: Vec<(u32, FuncId)>,
    /// Constant pool for string/array literals.
    pub pool: Vec<Vec<u8>>,
    /// Closure type tests.
    pub clos_tests: Vec<ClosTest>,
    /// Entry function.
    pub main: Option<FuncId>,
    /// Number of `CallVirt` sites — the size of the VM's monomorphic
    /// inline-cache table (each site carries a dense `site` index).
    pub virt_sites: usize,
    /// Largest frame (register count) of any function — the static
    /// max-frame analysis used to pre-size the value stack.
    pub max_frame_regs: usize,
}

impl VmProgram {
    /// Total instruction count (static code size — the E4 metric at the
    /// bytecode level).
    pub fn code_size(&self) -> usize {
        self.funcs.iter().map(|f| f.code.len()).sum()
    }
}
