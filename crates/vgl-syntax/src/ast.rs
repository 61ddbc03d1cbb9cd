//! Abstract syntax tree for Virgil III core.
//!
//! The AST is produced by the parser ([`crate::parser::parse_program`]) and is
//! deliberately *unresolved*: names (of variables, classes, primitives, type
//! parameters) are plain identifiers whose meaning is decided by semantic
//! analysis. An identifier is a [`Symbol`] interned in its [`Program`]'s
//! [`Interner`]. Every expression and statement carries a [`NodeId`] that
//! later phases use to attach types without mutating the tree.

use crate::span::Span;
use crate::symbol::{Interner, Symbol};

/// A unique (per-program) id for an expression, statement, or binder.
pub type NodeId = u32;

/// An identifier with its source span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ident {
    /// The identifier, interned in its program's [`Interner`].
    pub sym: Symbol,
    /// Where it appears.
    pub span: Span,
}

/// A whole compilation unit: the list of top-level declarations.
///
/// Top-level `def`/`var` declarations form the implicit *component* of the
/// program; `def main(...)` is the entry point.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// Top-level declarations in source order.
    pub decls: Vec<Decl>,
    /// One past the largest [`NodeId`] used in this program.
    pub node_count: NodeId,
    /// The text of every [`Ident`] in `decls`.
    pub names: Interner,
}

/// A top-level declaration.
#[derive(Clone, Debug)]
pub enum Decl {
    /// A class declaration.
    Class(ClassDecl),
    /// A top-level (component) method.
    Method(MethodDecl),
    /// A top-level (component) variable.
    Var(FieldDecl),
}

/// A class declaration, e.g. `class List<T> { ... }`.
#[derive(Clone, Debug)]
pub struct ClassDecl {
    /// The class name.
    pub name: Ident,
    /// Declared type parameters, in order.
    pub type_params: Vec<Ident>,
    /// Header constructor parameters: `class C(x: int, f: int -> int) { }`
    /// declares immutable fields `x` and `f` initialized by an implicit
    /// constructor (the compact form used throughout Section 3 of the paper).
    pub header_params: Vec<Param>,
    /// The `extends` clause, if any. Virgil has single inheritance and **no
    /// universal supertype**: a class without a parent roots a new hierarchy.
    pub parent: Option<ParentRef>,
    /// Field, method, and constructor members.
    pub members: Vec<Member>,
    /// Span of the whole declaration.
    pub span: Span,
}

/// The `extends Parent<T>(args)` clause of a class.
#[derive(Clone, Debug)]
pub struct ParentRef {
    /// Name of the parent class.
    pub name: Ident,
    /// Explicit type arguments to the parent.
    pub type_args: Vec<TypeExpr>,
    /// Span of the clause.
    pub span: Span,
}

/// A class member.
#[derive(Clone, Debug)]
pub enum Member {
    /// A field.
    Field(FieldDecl),
    /// A method.
    Method(MethodDecl),
    /// A constructor `new(...) { ... }`.
    Ctor(CtorDecl),
}

/// A field (or top-level variable) declaration.
#[derive(Clone, Debug)]
pub struct FieldDecl {
    /// `true` for `var` (mutable), `false` for `def` (immutable).
    pub mutable: bool,
    /// Field name.
    pub name: Ident,
    /// Declared type; may be omitted when an initializer or constructor
    /// parameter determines it.
    pub ty: Option<TypeExpr>,
    /// Initializer expression, if present.
    pub init: Option<Expr>,
    /// Binder id for type recording.
    pub id: NodeId,
    /// Span of the declaration.
    pub span: Span,
}

/// A method declaration. A body of `None` means the method is *abstract*
/// (declared `def m(...);` as in listing (n2) of the paper) and must be
/// overridden in subclasses.
#[derive(Clone, Debug)]
pub struct MethodDecl {
    /// `private` methods are non-virtual and hidden.
    pub is_private: bool,
    /// Method name; unique within a class (Virgil forbids overloading).
    pub name: Ident,
    /// Declared type parameters, in order.
    pub type_params: Vec<Ident>,
    /// Value parameters.
    pub params: Vec<Param>,
    /// Declared return type; `None` means `void`.
    pub ret: Option<TypeExpr>,
    /// The body, or `None` for an abstract method.
    pub body: Option<Block>,
    /// Span of the declaration.
    pub span: Span,
}

/// An explicit constructor declaration `new(a, b: int) super(a) { ... }`.
#[derive(Clone, Debug)]
pub struct CtorDecl {
    /// Constructor parameters. A parameter *without* a type annotation (as in
    /// listing (a4) `new(f, g) { ... }`) is a *field-init parameter*: it takes
    /// the type of the same-named field and assigns it automatically.
    pub params: Vec<CtorParam>,
    /// Arguments to the superclass constructor, if `super(...)` is present.
    pub super_args: Option<Vec<Expr>>,
    /// Constructor body.
    pub body: Block,
    /// Span of the declaration.
    pub span: Span,
}

/// One constructor parameter.
#[derive(Clone, Debug)]
pub struct CtorParam {
    /// Parameter name.
    pub name: Ident,
    /// Declared type, or `None` for a field-init parameter.
    pub ty: Option<TypeExpr>,
    /// Binder id.
    pub id: NodeId,
}

/// A typed value parameter of a method.
#[derive(Clone, Debug)]
pub struct Param {
    /// Parameter name.
    pub name: Ident,
    /// Declared type.
    pub ty: TypeExpr,
    /// Binder id.
    pub id: NodeId,
}

/// A syntactic type expression (unresolved).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TypeExpr {
    /// The shape of the type.
    pub kind: TypeExprKind,
    /// Where it appears.
    pub span: Span,
}

/// The shape of a [`TypeExpr`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TypeExprKind {
    /// A named type: a primitive (`int`), `Array<T>`, `string`, a class, or a
    /// type parameter, possibly with type arguments.
    Named {
        /// The head name.
        name: Ident,
        /// Type arguments, possibly empty.
        args: Vec<TypeExpr>,
    },
    /// A tuple type `(T0, ..., Tn)`. By the degenerate rules, `()` denotes
    /// `void` and `(T)` denotes `T`; the parser already collapses the latter.
    Tuple(Vec<TypeExpr>),
    /// A function type `P -> R` (right-associative).
    Function(Box<TypeExpr>, Box<TypeExpr>),
}

/// A block of statements.
#[derive(Clone, Debug)]
pub struct Block {
    /// The statements, in order.
    pub stmts: Vec<Stmt>,
    /// Span including the braces.
    pub span: Span,
}

/// A statement.
#[derive(Clone, Debug)]
pub struct Stmt {
    /// The statement shape.
    pub kind: StmtKind,
    /// Where it appears.
    pub span: Span,
    /// Unique node id.
    pub id: NodeId,
}

/// One `name (: T)? (= init)?` binder within a local declaration.
#[derive(Clone, Debug)]
pub struct VarBinder {
    /// The variable name.
    pub name: Ident,
    /// Declared type, if any.
    pub ty: Option<TypeExpr>,
    /// Initializer, if any.
    pub init: Option<Expr>,
    /// Binder id.
    pub id: NodeId,
}

/// The shape of a [`Stmt`].
#[derive(Clone, Debug)]
pub enum StmtKind {
    /// A nested block `{ ... }`.
    Block(Block),
    /// `if (cond) then else?`.
    If(Expr, Box<Stmt>, Option<Box<Stmt>>),
    /// `while (cond) body`.
    While(Expr, Box<Stmt>),
    /// `for (init; cond; update) body`, boxed because it is by far the
    /// largest statement.
    For(Box<ForLoop>),
    /// `var`/`def` local declaration with one or more binders.
    Local {
        /// `true` for `var`, `false` for `def`.
        mutable: bool,
        /// The binders.
        binders: Vec<VarBinder>,
    },
    /// `return e?;`
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// An expression statement.
    Expr(Expr),
    /// An empty statement `;`.
    Empty,
}

/// The parts of a `for (init; cond; update) body` loop. The paper's idiom
/// `for (l = list; l != null; l = l.tail)` *declares* `l`.
#[derive(Clone, Debug)]
pub struct ForLoop {
    /// Loop-scoped declarations, if the init declares variables.
    pub decl: Option<Vec<VarBinder>>,
    /// A plain init expression (when no declaration).
    pub init: Option<Expr>,
    /// Loop condition; `None` means `true`.
    pub cond: Option<Expr>,
    /// Update expression run after each iteration.
    pub update: Option<Expr>,
    /// Loop body.
    pub body: Stmt,
}

/// An expression.
#[derive(Clone, Debug)]
pub struct Expr {
    /// The expression shape.
    pub kind: ExprKind,
    /// Where it appears.
    pub span: Span,
    /// Unique node id; semantic analysis attaches the type here.
    pub id: NodeId,
}

/// A member selected after `.`: an identifier, `new`, or one of the operator
/// members every type provides (`T.==`, `T.!=`, `T.!`, `T.?`) plus the
/// arithmetic operator members of primitives (`int.+`, ...).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MemberName {
    /// A named member: field or method.
    Ident(Ident),
    /// The constructor member `new`.
    New(Span),
    /// An operator member.
    Op(OpMember, Span),
}

impl MemberName {
    /// The span of the member name.
    pub fn span(&self) -> Span {
        match self {
            MemberName::Ident(i) => i.span,
            MemberName::New(s) | MemberName::Op(_, s) => *s,
        }
    }
}

impl MemberName {
    /// The member name as written, its identifier looked up in `names`.
    pub fn text<'a>(&self, names: &'a Interner) -> &'a str {
        match self {
            MemberName::Ident(i) => &names[i.sym],
            MemberName::New(_) => "new",
            MemberName::Op(op, _) => op.symbol(),
        }
    }
}

/// Operator members available via `Type.op` syntax.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpMember {
    /// `T.==` — equality as a function `(T, T) -> bool`.
    Eq,
    /// `T.!=` — inequality as a function `(T, T) -> bool`.
    Ne,
    /// `T.!` — type cast, `F -> T`.
    Cast,
    /// `T.?` — type query, `F -> bool`.
    Query,
    /// `int.+` etc.
    Add,
    /// `int.-`
    Sub,
    /// `int.*`
    Mul,
    /// `int./`
    Div,
    /// `int.%`
    Mod,
    /// `int.<`
    Lt,
    /// `int.<=`
    Le,
    /// `int.>`
    Gt,
    /// `int.>=`
    Ge,
    /// `int.&`
    BitAnd,
    /// `int.|`
    BitOr,
    /// `int.^`
    BitXor,
    /// `int.<<`
    Shl,
    /// `int.>>`
    Shr,
}

impl OpMember {
    /// The source symbol of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            OpMember::Eq => "==",
            OpMember::Ne => "!=",
            OpMember::Cast => "!",
            OpMember::Query => "?",
            OpMember::Add => "+",
            OpMember::Sub => "-",
            OpMember::Mul => "*",
            OpMember::Div => "/",
            OpMember::Mod => "%",
            OpMember::Lt => "<",
            OpMember::Le => "<=",
            OpMember::Gt => ">",
            OpMember::Ge => ">=",
            OpMember::BitAnd => "&",
            OpMember::BitOr => "|",
            OpMember::BitXor => "^",
            OpMember::Shl => "<<",
            OpMember::Shr => ">>",
        }
    }
}

/// Binary operators (the short-circuit forms `&&`/`||` are separate).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
}

impl BinOp {
    /// The source symbol of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
        }
    }
}

/// The shape of an [`Expr`].
#[derive(Clone, Debug)]
pub enum ExprKind {
    /// An integer literal.
    IntLit(i64),
    /// A byte literal `'a'`.
    ByteLit(u8),
    /// `true` / `false`.
    BoolLit(bool),
    /// A string literal (denotes `Array<byte>`).
    StringLit(Vec<u8>),
    /// `null`.
    NullLit,
    /// A tuple literal `(a, b)`. `()` is the single `void` value; `(e)` is
    /// collapsed to `e` by the parser.
    Tuple(Vec<Expr>),
    /// An array literal `[a, b, c]`.
    ArrayLit(Vec<Expr>),
    /// A (possibly type-applied) name: `x`, `List<int>`, `apply<int>`.
    Name {
        /// The head identifier.
        name: Ident,
        /// Explicit type arguments, possibly empty.
        type_args: Vec<TypeExpr>,
    },
    /// Member selection `recv.member` or `recv.member<T...>`.
    Member {
        /// The receiver expression (may denote a type).
        recv: Box<Expr>,
        /// The selected member.
        member: MemberName,
        /// Explicit type arguments on the member.
        type_args: Vec<TypeExpr>,
    },
    /// Tuple element access `e.0`.
    TupleIndex {
        /// The tuple expression.
        recv: Box<Expr>,
        /// The 0-based element index.
        index: u32,
    },
    /// Application `f(args...)`. An application of a method denotes a call; an
    /// application of any function-typed expression invokes it.
    Call {
        /// The callee.
        func: Box<Expr>,
        /// Arguments as written (the tuple/argument duality is resolved in
        /// semantic analysis).
        args: Vec<Expr>,
    },
    /// Array indexing `a[i]`.
    Index {
        /// The array expression.
        recv: Box<Expr>,
        /// The index expression.
        index: Box<Expr>,
    },
    /// Logical negation `!e` (on `bool`).
    Not(Box<Expr>),
    /// Arithmetic negation `-e`.
    Neg(Box<Expr>),
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Short-circuit `&&`.
    And(Box<Expr>, Box<Expr>),
    /// Short-circuit `||`.
    Or(Box<Expr>, Box<Expr>),
    /// Ternary conditional `c ? a : b` (used in listing (p3)).
    Ternary {
        /// The condition.
        cond: Box<Expr>,
        /// Value if true.
        then: Box<Expr>,
        /// Value if false.
        els: Box<Expr>,
    },
    /// Assignment `target = value`; target is a name, field, index, or tuple
    /// index expression.
    Assign {
        /// The place being assigned.
        target: Box<Expr>,
        /// The new value.
        value: Box<Expr>,
    },
    /// A placeholder produced by parser error recovery. A diagnostic has
    /// already been reported for it; semantic analysis gives it the poisoned
    /// error type and otherwise ignores it.
    Error,
}
