//! Typed method bodies: statements, expressions, and operators.
//!
//! The IR is a typed tree. It is rich enough to execute directly (the
//! reference interpreter walks it, passing type arguments at runtime — paper
//! §4.3) and regular enough to rewrite (monomorphization substitutes type
//! arguments; normalization eliminates every tuple — §4.2).

use crate::module::{GlobalId, LocalId, MethodId};
use vgl_types::{ClassId, Type};

/// A method body: a statement block. Local slots live in the owning
/// [`crate::module::Method`].
#[derive(Clone, Debug, Default, Hash)]
pub struct Body {
    /// The statements.
    pub stmts: Vec<Stmt>,
}

/// A typed statement.
#[derive(Clone, Debug, Hash)]
pub enum Stmt {
    /// Evaluate for effect.
    Expr(Expr),
    /// Declare (and optionally initialize) a local slot.
    Local(LocalId, Option<Expr>),
    /// Conditional.
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    /// Loop. `for` is lowered to `While` plus init/update statements.
    While(Expr, Vec<Stmt>),
    /// Return from the method; `None` returns the void value.
    Return(Option<Expr>),
    /// Exit the innermost loop.
    Break,
    /// Continue the innermost loop.
    Continue,
    /// A nested scope.
    Block(Vec<Stmt>),
}

/// A typed expression.
#[derive(Clone, Debug, Hash)]
pub struct Expr {
    /// The shape.
    pub kind: ExprKind,
    /// The static type.
    pub ty: Type,
}

impl Expr {
    /// Creates an expression.
    pub fn new(kind: ExprKind, ty: Type) -> Expr {
        Expr { kind, ty }
    }
}

/// Identifies a field as (class that declares it, absolute slot index).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct FieldRef {
    /// The class that declares the field.
    pub class: ClassId,
    /// Absolute slot in the object layout.
    pub slot: usize,
}

/// Primitive and universal operators, usable both applied ([`ExprKind::Apply`])
/// and as first-class values ([`ExprKind::OpClosure`]) — paper §2.2: "all of
/// the basic primitive operators can be used as first-class functions".
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Oper {
    /// `int.+` (wrapping 32-bit).
    IntAdd,
    /// `int.-`
    IntSub,
    /// `int.*`
    IntMul,
    /// `int./` — traps on division by zero.
    IntDiv,
    /// `int.%` — traps on division by zero.
    IntMod,
    /// `int.<`
    IntLt,
    /// `int.<=`
    IntLe,
    /// `int.>`
    IntGt,
    /// `int.>=`
    IntGe,
    /// `int.&`
    IntAnd,
    /// `int.|`
    IntOr,
    /// `int.^`
    IntXor,
    /// `int.<<` — shift amounts outside 0..31 produce 0.
    IntShl,
    /// `int.>>` — arithmetic shift; amounts outside 0..31 produce 0/-1.
    IntShr,
    /// Unary `-`.
    IntNeg,
    /// `byte.<`
    ByteLt,
    /// `byte.<=`
    ByteLe,
    /// `byte.>`
    ByteGt,
    /// `byte.>=`
    ByteGe,
    /// `!` on bool.
    BoolNot,
    /// Universal equality `T.==` at the given type (recursive on tuples,
    /// reference equality on objects/arrays, method+receiver equality on
    /// closures).
    Eq(Type),
    /// Universal inequality `T.!=`.
    Ne(Type),
    /// Type cast `to.!<from>`: `from -> to`; traps with `TypeCheckException`.
    Cast {
        /// Source type.
        from: Type,
        /// Target type.
        to: Type,
    },
    /// Type query `to.?<from>`: `from -> bool`.
    Query {
        /// Source type.
        from: Type,
        /// Target type.
        to: Type,
    },
}

/// Host intrinsics exposed through the built-in `System` component.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Builtin {
    /// `System.puts(s: string)`.
    Puts,
    /// `System.puti(i: int)`.
    Puti,
    /// `System.putb(b: bool)`.
    Putb,
    /// `System.putc(c: byte)`.
    Putc,
    /// `System.ln()`.
    Ln,
    /// `System.ticks() -> int` — a monotonic tick counter.
    Ticks,
    /// `System.error(msg: string)` — aborts with an exception.
    Error,
}

/// The shape of an [`Expr`].
#[derive(Clone, Debug, Hash)]
pub enum ExprKind {
    /// 32-bit integer literal.
    Int(i32),
    /// Byte literal.
    Byte(u8),
    /// Boolean literal.
    Bool(bool),
    /// The single void value `()`.
    Unit,
    /// `null`.
    Null,
    /// String literal (an `Array<byte>` value, freshly allocated).
    String(Vec<u8>),
    /// Read a local slot.
    Local(LocalId),
    /// Read a component variable.
    Global(GlobalId),
    /// Write a local slot; evaluates to the assigned value.
    LocalSet(LocalId, Box<Expr>),
    /// Write a component variable; evaluates to the assigned value.
    GlobalSet(GlobalId, Box<Expr>),
    /// Construct a tuple value.
    Tuple(Vec<Expr>),
    /// Project element `index` out of a tuple.
    TupleIndex(Box<Expr>, u32),
    /// `[a, b, c]` array literal.
    ArrayLit(Vec<Expr>),
    /// `Array<T>.new(len)` — zero/default-initialized.
    ArrayNew(Box<Expr>),
    /// `a.length`.
    ArrayLen(Box<Expr>),
    /// `a[i]` — bounds-checked.
    ArrayGet(Box<Expr>, Box<Expr>),
    /// `a[i] = v` — bounds-checked; evaluates to `v`.
    ArraySet(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Read a field (null-checked).
    FieldGet(Box<Expr>, FieldRef),
    /// Write a field (null-checked); evaluates to the value.
    FieldSet(Box<Expr>, FieldRef, Box<Expr>),
    /// Allocate an object of `class<type_args>` and run its constructor with
    /// the given arguments.
    New {
        /// The class to instantiate.
        class: ClassId,
        /// Type arguments for the class's parameters.
        type_args: Vec<Type>,
        /// Constructor arguments as written.
        args: Vec<Expr>,
    },
    /// Direct call: component methods, private methods, constructors (via
    /// `New`), and statically-bound instance calls. `type_args` instantiate
    /// owner-class parameters followed by method parameters.
    CallStatic {
        /// Callee.
        method: MethodId,
        /// Full type-argument list (owner's then method's own).
        type_args: Vec<Type>,
        /// Arguments (including receiver for instance methods).
        args: Vec<Expr>,
    },
    /// Virtual call through the receiver's dynamic class.
    CallVirtual {
        /// The declared method (vtable slot owner).
        method: MethodId,
        /// Full type-argument list (owner's then method's own).
        type_args: Vec<Type>,
        /// Receiver.
        recv: Box<Expr>,
        /// Remaining arguments.
        args: Vec<Expr>,
    },
    /// Invoke a first-class function value.
    CallClosure {
        /// The function value.
        func: Box<Expr>,
        /// Arguments as written (the §4.1 tuple/scalar calling-convention
        /// ambiguity lives exactly here until normalization removes it).
        args: Vec<Expr>,
    },
    /// `a.m` — a closure binding `recv` to method `m` (dispatch resolved at
    /// bind time from the receiver's dynamic class).
    BindMethod {
        /// The declared method.
        method: MethodId,
        /// Full type-argument list.
        type_args: Vec<Type>,
        /// The receiver to close over.
        recv: Box<Expr>,
    },
    /// `A.m` — the unbound form: a function taking the receiver first
    /// (paper listing (b3)); also component-method references.
    FuncRef {
        /// The method.
        method: MethodId,
        /// Full type-argument list.
        type_args: Vec<Type>,
    },
    /// `A.new` as a first-class function (paper listing (b7)).
    CtorRef {
        /// The class.
        class: ClassId,
        /// Class type arguments.
        type_args: Vec<Type>,
    },
    /// `Array<T>.new` as a function `int -> Array<T>`.
    ArrayNewRef {
        /// Element type.
        elem: Type,
    },
    /// Apply a primitive/universal operator directly.
    Apply(Oper, Vec<Expr>),
    /// A primitive/universal operator as a first-class function value
    /// (paper listings (b8-b15)).
    OpClosure(Oper),
    /// Call a host intrinsic.
    CallBuiltin(Builtin, Vec<Expr>),
    /// A host intrinsic as a first-class function value.
    BuiltinRef(Builtin),
    /// Unconditionally raises an exception (inserted by the optimizer and
    /// normalizer for statically-failing casts).
    Trap(crate::ops::Exception),
    /// Evaluates to its operand, trapping with `NullCheckException` when it
    /// is null (inserted by devirtualization to preserve the virtual call's
    /// receiver check).
    CheckNull(Box<Expr>),
    /// Short-circuit `&&`.
    And(Box<Expr>, Box<Expr>),
    /// Short-circuit `||`.
    Or(Box<Expr>, Box<Expr>),
    /// `c ? a : b`.
    Ternary {
        /// Condition.
        cond: Box<Expr>,
        /// Value if true.
        then: Box<Expr>,
        /// Value if false.
        els: Box<Expr>,
    },
    /// Evaluate `value`, bind it to `local`, then evaluate `body` (compiler
    /// temporary; used for argument adaptation and normalization).
    Let {
        /// The temporary slot.
        local: LocalId,
        /// Bound value.
        value: Box<Expr>,
        /// Expression evaluated with the binding in scope.
        body: Box<Expr>,
    },
}
