//! Typed, seeded, AST-level program generation over the full harmonized
//! surface of the paper (§2–§3): class hierarchies with inheritance,
//! virtual and abstract methods, first-class delegates (`obj.method` as a
//! value), generic functions and classes instantiated at several type
//! arguments (including tuple, class, and function type arguments), tuples
//! up to width 16 flowing through calls/returns/fields/arrays, type queries
//! and casts, recursion, and GC-pressure allocation loops.
//!
//! Programs are built as a small *typed model* ([`Prog`] of [`St`]/[`Ex`]),
//! not as text: every constructor is well-typed by construction, emission
//! ([`emit`]) renders deterministic Virgil source, and the shrinker mutates
//! the model rather than the text. Helper declarations (generic functions,
//! the class hierarchy, per-width tuple helpers, the GC churn loop) are
//! emitted **on demand** — a shrunk one-statement program only carries the
//! declarations that statement still needs.

use crate::rng::Rng;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// The value categories the generator tracks. All tuples are flat `int`
/// tuples; `Tup(w)` is `(int, ..., int)` of width `w` (2..=16).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Ty {
    /// `int`.
    Int,
    /// `bool`.
    Bool,
    /// A flat int tuple of the given width.
    Tup(u8),
    /// `Base` (the generated class hierarchy's root).
    Obj,
    /// `int -> int`.
    Fun,
}

/// The mutable variables pre-declared in `main` (emitted only when used).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Var {
    /// `var a = 3;` (int).
    A,
    /// `var b = 5;` (int).
    B,
    /// `var p = (1, 2);` (pair).
    P,
    /// `var t = (1, ..., W);` (the program's wide tuple).
    T,
    /// `var o: Base = DerA.new(1);`.
    O,
    /// `var f: int -> int = inc;`.
    F,
}

/// The concrete classes of the generated hierarchy:
/// `Base` (abstract) ← `DerA` ← `DerC`, and `Base` ← `DerB`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cls {
    /// `DerA`.
    A,
    /// `DerB` (a sibling of `DerA`; casting it to `DerA` traps).
    B,
    /// `DerC extends DerA`.
    C,
}

impl Cls {
    /// Source name.
    pub fn name(self) -> &'static str {
        match self {
            Cls::A => "DerA",
            Cls::B => "DerB",
            Cls::C => "DerC",
        }
    }
}

/// Integer binary operators (shifts are emitted with a masked shift count).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinK {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `<<` (count masked to 0..=15)
    Shl,
    /// `>>` (count masked to 0..=15)
    Shr,
}

/// Integer comparison operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpK {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `==`
    EqI,
    /// `!=`
    NeI,
    /// `>=`
    Ge,
    /// `>`
    Gt,
}

/// A typed expression. Constructors note their result type; operand types
/// are invariants maintained by the generator and shrinker.
#[derive(Clone, Debug, PartialEq)]
pub enum Ex {
    /// int literal.
    Lit(i32),
    /// bool literal.
    Bool(bool),
    /// `null` at type `Base`.
    Null,
    /// Variable reference.
    Var(Var),
    /// `l op r` over ints.
    Bin(BinK, Box<Ex>, Box<Ex>),
    /// Division/modulus; guarded masks the divisor into 1..=8.
    DivMod {
        /// `/` vs `%`.
        is_div: bool,
        /// Whether the divisor is masked nonzero.
        guarded: bool,
        /// Dividend.
        l: Box<Ex>,
        /// Divisor.
        r: Box<Ex>,
    },
    /// int comparison → bool.
    Cmp(CmpK, Box<Ex>, Box<Ex>),
    /// `!x`.
    Not(Box<Ex>),
    /// `&&` / `||`.
    Logic(bool, Box<Ex>, Box<Ex>),
    /// `c ? x : y` (x and y share a type).
    Cond(Box<Ex>, Box<Ex>, Box<Ex>),
    /// Generic `choose<T>(c, x, y)`; emitted with an explicit `<Base>` for
    /// object operands (inference does not join sibling classes).
    Choose(Box<Ex>, Box<Ex>, Box<Ex>),
    /// Generic `id<T>(x)`.
    Id(Box<Ex>),
    /// Tuple literal of int expressions (width = len).
    Tup(Vec<Ex>),
    /// `.i` projection of a tuple-typed expression.
    Proj(Box<Ex>, u8),
    /// `swapN(x)` — reverses components.
    Swap(Box<Ex>),
    /// `addN(x, y)` — component-wise sum.
    AddT(Box<Ex>, Box<Ex>),
    /// `sumN(x)` → int.
    SumT(Box<Ex>),
    /// Tuple equality → bool (operands share a width).
    EqT(Box<Ex>, Box<Ex>),
    /// `xs[i]`; `true` masks the index in bounds, `false` may trap.
    ArrI(Box<Ex>, bool),
    /// `ps[(i) & 3]` — a pair from the pair array.
    ArrP(Box<Ex>),
    /// `f2(l, r)` helper call.
    F2(Box<Ex>, Box<Ex>),
    /// Call of a function-typed expression with one int argument (through
    /// the `call1` helper unless the callee is the variable `f`).
    CallFun(Box<Ex>, Box<Ex>),
    /// `recv.v(x)` — virtual dispatch.
    Virt(Box<Ex>, Box<Ex>),
    /// `recv.m()` — declared abstract on `Base`, implemented in subclasses.
    AbsCall(Box<Ex>),
    /// `DerA.!(recv).w` — checked downcast then field read (may trap).
    CastW(Box<Ex>),
    /// `C.?(recv)` type query → bool.
    Query(Cls, Box<Ex>),
    /// `C.!(recv)` checked cast, used at type `Base` (may trap).
    CastO(Cls, Box<Ex>),
    /// `recv == null` / `recv != null`.
    NullCmp(bool, Box<Ex>),
    /// `int.!(byte.!((x) & 255))` round-trip through `byte`.
    ByteRound(Box<Ex>),
    /// `rec((x) & 15)` — bounded recursion.
    Rec(Box<Ex>),
    /// `Box<int>.new(x).get()` — generic class at `int`.
    BoxI(Box<Ex>),
    /// `Box<Base>.new(recv).get()` — generic class at a class type.
    BoxO(Box<Ex>),
    /// `C.new(x)` object construction.
    New(Cls, Box<Ex>),
    /// `recv.v` — a bound-method delegate value.
    BindV(Box<Ex>),
    /// The top-level function `inc` as a value.
    RefInc,
    /// The top-level function `rec` as a value.
    RefRec,
    /// `recv.pq.i` — projection of the tuple *field* (may null-trap).
    FieldP(Box<Ex>, u8),
}

/// A statement of the generated `main` body.
#[derive(Clone, Debug, PartialEq)]
pub enum St {
    /// `v = e;` (the expression's type matches the variable's).
    Set(Var, Ex),
    /// `xs[idx] = e;`; `true` masks the index in bounds.
    ArrSetI(Ex, Ex, bool),
    /// `ps[(idx) & 3] = pair;`
    ArrSetP(Ex, Ex),
    /// `(recv).w = e;` — field store through an expression receiver.
    FieldSet(Ex, Ex),
    /// `if (c) { .. } else { .. }`
    If(Ex, Vec<St>, Vec<St>),
    /// `for (iD = 0; iD < n; iD = iD + 1) { .. }`
    For(u8, Vec<St>),
    /// `{ var kD = n; while (kD > 0) { kD = kD - 1; .. } }`
    While(u8, Vec<St>),
    /// `System.puti(e); System.putc(' ');`
    PrintI(Ex),
    /// `System.putb(e); System.putc(' ');`
    PrintB(Ex),
    /// `sinkN(e);` — prints the xor of the tuple's components.
    SinkT(Ex),
    /// `{ var h = (recv).v; b = b + h(x); }` — delegate bound then called.
    Delegate(Ex, Ex),
    /// `a = (a + gcchurn(len, rounds)) & 65535;` — allocation churn.
    Gc(u8, u8),
    /// `if (c) break;` (generated only inside loops).
    BreakIf(Ex),
    /// `if (c) continue;` (generated only inside loops).
    ContinueIf(Ex),
}

/// A generated program: the per-program wide-tuple width plus the `main`
/// statement list. Everything else (helpers, classes, variable decls, the
/// printed checksum epilogue) is derived at emission time.
#[derive(Clone, Debug)]
pub struct Prog {
    /// The seed this program was generated from.
    pub seed: u64,
    /// Width of the wide tuple variable `t` (3..=16).
    pub width: u8,
    /// `main`'s statements.
    pub stmts: Vec<St>,
}

/// Generation limits.
#[derive(Clone, Copy, Debug)]
pub struct GenConfig {
    /// Maximum top-level statements in `main`.
    pub max_stmts: u32,
    /// Maximum expression depth.
    pub max_depth: u32,
    /// Maximum statement nesting (ifs/loops inside ifs/loops).
    pub max_nest: u32,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig { max_stmts: 10, max_depth: 3, max_nest: 2 }
    }
}

/// The type of an expression (`width` is the program's wide-tuple width).
pub fn ty_of(e: &Ex, width: u8) -> Ty {
    match e {
        Ex::Lit(_)
        | Ex::Bin(..)
        | Ex::DivMod { .. }
        | Ex::Proj(..)
        | Ex::SumT(_)
        | Ex::ArrI(..)
        | Ex::F2(..)
        | Ex::CallFun(..)
        | Ex::Virt(..)
        | Ex::AbsCall(_)
        | Ex::CastW(_)
        | Ex::ByteRound(_)
        | Ex::Rec(_)
        | Ex::BoxI(_)
        | Ex::FieldP(..) => Ty::Int,
        Ex::Bool(_)
        | Ex::Cmp(..)
        | Ex::Not(_)
        | Ex::Logic(..)
        | Ex::EqT(..)
        | Ex::Query(..)
        | Ex::NullCmp(..) => Ty::Bool,
        Ex::Null | Ex::CastO(..) | Ex::BoxO(_) | Ex::New(..) => Ty::Obj,
        Ex::RefInc | Ex::RefRec | Ex::BindV(_) => Ty::Fun,
        Ex::Tup(es) => Ty::Tup(es.len() as u8),
        Ex::ArrP(_) => Ty::Tup(2),
        Ex::Swap(x) | Ex::AddT(x, _) => ty_of(x, width),
        Ex::Cond(_, x, _) | Ex::Choose(_, x, _) | Ex::Id(x) => ty_of(x, width),
        Ex::Var(v) => match v {
            Var::A | Var::B => Ty::Int,
            Var::P => Ty::Tup(2),
            Var::T => Ty::Tup(width),
            Var::O => Ty::Obj,
            Var::F => Ty::Fun,
        },
    }
}

// ---------------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------------

struct G<'a> {
    rng: &'a mut Rng,
    width: u8,
}

impl G<'_> {
    fn int_leaf(&mut self) -> Ex {
        match self.rng.below(5) {
            0 => Ex::Lit(self.rng.range_i32(-20, 20)),
            1 => Ex::Var(Var::A),
            2 => Ex::Var(Var::B),
            3 => Ex::Proj(Box::new(Ex::Var(Var::P)), self.rng.below(2) as u8),
            _ => {
                let i = self.rng.below(self.width as u64) as u8;
                Ex::Proj(Box::new(Ex::Var(Var::T)), i)
            }
        }
    }

    fn int(&mut self, d: u32) -> Ex {
        if d == 0 {
            return self.int_leaf();
        }
        let d = d - 1;
        match self.rng.below(100) {
            0..=17 => self.int_leaf(),
            18..=29 => {
                let op = *self.rng.pick(&[
                    BinK::Add,
                    BinK::Sub,
                    BinK::Mul,
                    BinK::And,
                    BinK::Or,
                    BinK::Xor,
                    BinK::Shl,
                    BinK::Shr,
                ]);
                Ex::Bin(op, Box::new(self.int(d)), Box::new(self.int(d)))
            }
            30..=35 => Ex::DivMod {
                is_div: self.rng.chance(50),
                guarded: self.rng.chance(90),
                l: Box::new(self.int(d)),
                r: Box::new(self.int(d)),
            },
            36..=41 => Ex::Cond(
                Box::new(self.boolean(d)),
                Box::new(self.int(d)),
                Box::new(self.int(d)),
            ),
            42..=46 => Ex::Choose(
                Box::new(self.boolean(d)),
                Box::new(self.int(d)),
                Box::new(self.int(d)),
            ),
            47..=49 => Ex::Id(Box::new(self.int(d))),
            50..=54 => Ex::F2(Box::new(self.int(d)), Box::new(self.int(d))),
            55..=58 => {
                let w = self.pick_width();
                Ex::SumT(Box::new(self.tup(w, d)))
            }
            59..=62 => {
                let w = self.pick_width();
                let i = self.rng.below(w as u64) as u8;
                Ex::Proj(Box::new(self.tup(w, d)), i)
            }
            63..=68 => Ex::Virt(Box::new(self.recv(d)), Box::new(self.int(d))),
            69..=71 => Ex::AbsCall(Box::new(self.recv(d))),
            72..=75 => Ex::CallFun(Box::new(self.fun(d)), Box::new(self.int(d))),
            76..=77 => Ex::CastW(Box::new(self.recv(d))),
            78..=80 => Ex::ByteRound(Box::new(self.int(d))),
            81..=83 => Ex::Rec(Box::new(self.int(d))),
            84..=86 => Ex::BoxI(Box::new(self.int(d))),
            87..=92 => Ex::ArrI(Box::new(self.int(d)), self.rng.chance(95)),
            93..=95 => {
                let i = self.rng.below(2) as u8;
                Ex::FieldP(Box::new(self.recv(d)), i)
            }
            _ => Ex::Bin(BinK::Add, Box::new(self.int(d)), Box::new(self.int(d))),
        }
    }

    fn boolean(&mut self, d: u32) -> Ex {
        if d == 0 {
            return match self.rng.below(3) {
                0 => Ex::Bool(true),
                1 => Ex::Bool(false),
                _ => {
                    let c = *self.rng.pick(&[Cls::A, Cls::B, Cls::C]);
                    Ex::Query(c, Box::new(Ex::Var(Var::O)))
                }
            };
        }
        let d = d - 1;
        match self.rng.below(100) {
            0..=14 => Ex::Bool(self.rng.chance(50)),
            15..=39 => {
                let op = *self
                    .rng
                    .pick(&[CmpK::Lt, CmpK::Le, CmpK::EqI, CmpK::NeI, CmpK::Ge, CmpK::Gt]);
                Ex::Cmp(op, Box::new(self.int(d)), Box::new(self.int(d)))
            }
            40..=49 => Ex::Logic(
                self.rng.chance(50),
                Box::new(self.boolean(d)),
                Box::new(self.boolean(d)),
            ),
            50..=57 => Ex::Not(Box::new(self.boolean(d))),
            58..=64 => Ex::Cond(
                Box::new(self.boolean(d)),
                Box::new(self.boolean(d)),
                Box::new(self.boolean(d)),
            ),
            65..=70 => Ex::Choose(
                Box::new(self.boolean(d)),
                Box::new(self.boolean(d)),
                Box::new(self.boolean(d)),
            ),
            71..=78 => {
                let w = self.pick_width();
                Ex::EqT(Box::new(self.tup(w, d)), Box::new(self.tup(w, d)))
            }
            79..=88 => {
                let c = *self.rng.pick(&[Cls::A, Cls::B, Cls::C]);
                Ex::Query(c, Box::new(self.recv(d)))
            }
            89..=93 => Ex::NullCmp(self.rng.chance(50), Box::new(self.obj(d))),
            _ => Ex::Id(Box::new(self.boolean(d))),
        }
    }

    fn pick_width(&mut self) -> u8 {
        if self.rng.chance(55) {
            2
        } else {
            self.width
        }
    }

    fn tup_leaf(&mut self, w: u8) -> Ex {
        match self.rng.below(3) {
            0 if w == 2 => Ex::Var(Var::P),
            0 => Ex::Var(Var::T),
            _ => {
                let mut es = Vec::new();
                for _ in 0..w {
                    es.push(Ex::Lit(self.rng.range_i32(-9, 9)));
                }
                Ex::Tup(es)
            }
        }
    }

    fn tup(&mut self, w: u8, d: u32) -> Ex {
        if d == 0 {
            return self.tup_leaf(w);
        }
        let d = d - 1;
        match self.rng.below(100) {
            0..=19 => self.tup_leaf(w),
            20..=39 => {
                let mut es = Vec::new();
                for _ in 0..w {
                    es.push(self.int(d.min(1)));
                }
                Ex::Tup(es)
            }
            40..=54 => Ex::Swap(Box::new(self.tup(w, d))),
            55..=69 => Ex::AddT(Box::new(self.tup(w, d)), Box::new(self.tup(w, d))),
            70..=79 => Ex::Cond(
                Box::new(self.boolean(d)),
                Box::new(self.tup(w, d)),
                Box::new(self.tup(w, d)),
            ),
            80..=89 => Ex::Choose(
                Box::new(self.boolean(d)),
                Box::new(self.tup(w, d)),
                Box::new(self.tup(w, d)),
            ),
            90..=94 if w == 2 => Ex::ArrP(Box::new(self.int(d))),
            _ => Ex::Id(Box::new(self.tup(w, d))),
        }
    }

    fn obj_leaf(&mut self) -> Ex {
        match self.rng.below(10) {
            0..=4 => Ex::Var(Var::O),
            5..=8 => {
                let c = *self.rng.pick(&[Cls::A, Cls::B, Cls::C]);
                Ex::New(c, Box::new(Ex::Lit(self.rng.range_i32(0, 15))))
            }
            _ => Ex::Null,
        }
    }

    /// An object expression usable as a member-access receiver: never a bare
    /// `null` literal (whose static type has no members), though `null` may
    /// still flow in through conditionals and produce runtime null traps.
    fn recv(&mut self, d: u32) -> Ex {
        match self.obj(d) {
            Ex::Null => Ex::Var(Var::O),
            e => e,
        }
    }

    fn obj(&mut self, d: u32) -> Ex {
        if d == 0 {
            // Leaf `null` receivers trap too eagerly; keep them rarer here.
            return if self.rng.chance(96) {
                match self.obj_leaf() {
                    Ex::Null => Ex::Var(Var::O),
                    e => e,
                }
            } else {
                Ex::Null
            };
        }
        let d = d - 1;
        match self.rng.below(100) {
            0..=39 => self.obj_leaf(),
            40..=59 => {
                let c = *self.rng.pick(&[Cls::A, Cls::B, Cls::C]);
                Ex::New(c, Box::new(self.int(d)))
            }
            60..=71 => Ex::Cond(
                Box::new(self.boolean(d)),
                Box::new(self.obj(d)),
                Box::new(self.obj(d)),
            ),
            72..=83 => Ex::Choose(
                Box::new(self.boolean(d)),
                Box::new(self.obj(d)),
                Box::new(self.obj(d)),
            ),
            84..=89 => Ex::BoxO(Box::new(self.recv(d))),
            90..=94 => {
                let c = *self.rng.pick(&[Cls::A, Cls::C]);
                Ex::CastO(c, Box::new(self.recv(d)))
            }
            _ => Ex::Id(Box::new(self.recv(d))),
        }
    }

    fn fun(&mut self, d: u32) -> Ex {
        if d == 0 {
            return match self.rng.below(3) {
                0 => Ex::Var(Var::F),
                1 => Ex::RefInc,
                _ => Ex::RefRec,
            };
        }
        let d = d - 1;
        match self.rng.below(100) {
            0..=34 => self.fun(0),
            35..=59 => Ex::BindV(Box::new(self.recv(d))),
            60..=74 => Ex::Cond(
                Box::new(self.boolean(d)),
                Box::new(self.fun(d)),
                Box::new(self.fun(d)),
            ),
            75..=89 => Ex::Choose(
                Box::new(self.boolean(d)),
                Box::new(self.fun(d)),
                Box::new(self.fun(d)),
            ),
            _ => Ex::Id(Box::new(self.fun(d))),
        }
    }

    fn stmt(&mut self, cfg: &GenConfig, nest: u32, in_loop: bool) -> St {
        let d = cfg.max_depth;
        let roll = self.rng.below(100);
        match roll {
            0..=9 => St::Set(Var::A, self.int(d)),
            10..=17 => St::Set(Var::B, self.int(d)),
            18..=24 => St::Set(Var::P, self.tup(2, d)),
            25..=31 => St::Set(Var::T, self.tup(self.width, d)),
            32..=38 => St::Set(Var::O, self.obj(d)),
            39..=43 => St::Set(Var::F, self.fun(d)),
            44..=48 => St::ArrSetI(self.int(d), self.int(d), self.rng.chance(95)),
            49..=52 => St::ArrSetP(self.int(d), self.tup(2, d)),
            53..=55 => St::FieldSet(self.recv(1), self.int(d)),
            56..=61 => St::PrintI(self.int(d)),
            62..=64 => St::PrintB(self.boolean(d)),
            65..=68 => {
                let w = self.pick_width();
                St::SinkT(self.tup(w, d))
            }
            69..=73 => St::Delegate(self.recv(1), self.int(d)),
            74..=75 => St::Gc(
                (8 + self.rng.below(57)) as u8,
                (1 + self.rng.below(6)) as u8,
            ),
            76..=84 if nest < cfg.max_nest => {
                let c = self.boolean(d);
                let nt = 1 + self.rng.below(3);
                let then = self.stmts(cfg, nt, nest + 1, in_loop);
                let els = if self.rng.chance(60) {
                    let ne = 1 + self.rng.below(2);
                    self.stmts(cfg, ne, nest + 1, in_loop)
                } else {
                    Vec::new()
                };
                St::If(c, then, els)
            }
            85..=90 if nest < cfg.max_nest => {
                let n = (1 + self.rng.below(4)) as u8;
                let nb = 1 + self.rng.below(3);
                let body = self.stmts(cfg, nb, nest + 1, true);
                St::For(n, body)
            }
            91..=93 if nest < cfg.max_nest => {
                let n = (1 + self.rng.below(4)) as u8;
                let nb = 1 + self.rng.below(3);
                let body = self.stmts(cfg, nb, nest + 1, true);
                St::While(n, body)
            }
            94..=95 if in_loop => St::BreakIf(self.boolean(1)),
            96..=97 if in_loop => St::ContinueIf(self.boolean(1)),
            _ => St::Set(Var::A, self.int(d)),
        }
    }

    fn stmts(&mut self, cfg: &GenConfig, n: u64, nest: u32, in_loop: bool) -> Vec<St> {
        (0..n).map(|_| self.stmt(cfg, nest, in_loop)).collect()
    }
}

/// Generates a program from `seed` under the given limits. The same seed and
/// config always produce the same program.
pub fn gen_program(seed: u64, cfg: &GenConfig) -> Prog {
    let mut rng = Rng::new(seed);
    let width = *rng.pick(&[3u8, 4, 6, 8, 12, 16]);
    let mut g = G { rng: &mut rng, width };
    let n = 1 + g.rng.below(cfg.max_stmts.max(1) as u64);
    let stmts = g.stmts(cfg, n, 0, false);
    Prog { seed, width, stmts }
}

// ---------------------------------------------------------------------------
// Feature collection (which helper declarations the program needs)
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Features {
    a: bool,
    b: bool,
    p: bool,
    t: bool,
    o: bool,
    f: bool,
    xs: bool,
    ps: bool,
    choose: bool,
    id: bool,
    f2: bool,
    inc: bool,
    rec: bool,
    boxg: bool,
    call1: bool,
    classes: bool,
    cls_a: bool,
    cls_b: bool,
    cls_c: bool,
    use_v: bool,
    use_m: bool,
    use_pq: bool,
    asbase: bool,
    gc: bool,
    swap: BTreeSet<u8>,
    add: BTreeSet<u8>,
    sum: BTreeSet<u8>,
    sink: BTreeSet<u8>,
}

impl Features {
    fn mark_cls(&mut self, c: Cls) {
        match c {
            Cls::A => self.cls_a = true,
            Cls::B => self.cls_b = true,
            Cls::C => self.cls_c = true,
        }
    }
}

fn scan_ex(e: &Ex, w: u8, f: &mut Features) {
    match e {
        Ex::Lit(_) | Ex::Bool(_) => {}
        Ex::Null => f.classes = true,
        Ex::Var(v) => match v {
            Var::A => f.a = true,
            Var::B => f.b = true,
            Var::P => f.p = true,
            Var::T => f.t = true,
            Var::O => {
                f.o = true;
                f.classes = true;
                f.cls_a = true; // `var o: Base = DerA.new(1)`
            }
            Var::F => {
                f.f = true;
                f.inc = true;
            }
        },
        Ex::Bin(_, l, r)
        | Ex::Cmp(_, l, r)
        | Ex::Logic(_, l, r)
        | Ex::EqT(l, r)
        | Ex::AddT(l, r) => {
            if matches!(e, Ex::AddT(..)) {
                if let Ty::Tup(tw) = ty_of(e, w) {
                    f.add.insert(tw);
                }
            }
            scan_ex(l, w, f);
            scan_ex(r, w, f);
        }
        Ex::DivMod { l, r, .. } => {
            scan_ex(l, w, f);
            scan_ex(r, w, f);
        }
        Ex::Not(x) | Ex::Proj(x, _) | Ex::ByteRound(x) => scan_ex(x, w, f),
        Ex::Cond(c, x, y) => {
            scan_ex(c, w, f);
            scan_ex(x, w, f);
            scan_ex(y, w, f);
        }
        Ex::Choose(c, x, y) => {
            f.choose = true;
            scan_ex(c, w, f);
            scan_ex(x, w, f);
            scan_ex(y, w, f);
        }
        Ex::Id(x) => {
            f.id = true;
            scan_ex(x, w, f);
        }
        Ex::Tup(es) => es.iter().for_each(|x| scan_ex(x, w, f)),
        Ex::Swap(x) => {
            if let Ty::Tup(tw) = ty_of(x, w) {
                f.swap.insert(tw);
            }
            scan_ex(x, w, f);
        }
        Ex::SumT(x) => {
            if let Ty::Tup(tw) = ty_of(x, w) {
                f.sum.insert(tw);
            }
            scan_ex(x, w, f);
        }
        Ex::ArrI(x, _) => {
            f.xs = true;
            scan_ex(x, w, f);
        }
        Ex::ArrP(x) => {
            f.ps = true;
            scan_ex(x, w, f);
        }
        Ex::F2(l, r) => {
            f.f2 = true;
            scan_ex(l, w, f);
            scan_ex(r, w, f);
        }
        Ex::CallFun(g, x) => {
            if !matches!(**g, Ex::Var(Var::F)) {
                f.call1 = true;
            }
            scan_ex(g, w, f);
            scan_ex(x, w, f);
        }
        Ex::Virt(r, x) => {
            f.classes = true;
            f.use_v = true;
            f.asbase |= could_be_null(r);
            scan_ex(r, w, f);
            scan_ex(x, w, f);
        }
        Ex::AbsCall(r) => {
            f.classes = true;
            f.use_m = true;
            f.asbase |= could_be_null(r);
            scan_ex(r, w, f);
        }
        Ex::CastW(r) => {
            f.classes = true;
            f.cls_a = true; // casts to `DerA` and reads `.w`
            f.asbase = true;
            scan_ex(r, w, f);
        }
        Ex::Query(c, r) | Ex::CastO(c, r) => {
            f.classes = true;
            f.mark_cls(*c);
            f.asbase = true;
            scan_ex(r, w, f);
        }
        Ex::NullCmp(_, r) => {
            f.classes = true;
            scan_ex(r, w, f);
        }
        Ex::Rec(x) => {
            f.rec = true;
            scan_ex(x, w, f);
        }
        Ex::BoxI(x) => {
            f.boxg = true;
            scan_ex(x, w, f);
        }
        Ex::BoxO(x) => {
            f.boxg = true;
            f.classes = true;
            scan_ex(x, w, f);
        }
        Ex::New(c, x) => {
            f.classes = true;
            f.mark_cls(*c);
            scan_ex(x, w, f);
        }
        Ex::BindV(r) => {
            f.classes = true;
            f.use_v = true;
            f.asbase |= could_be_null(r);
            scan_ex(r, w, f);
        }
        Ex::RefInc => f.inc = true,
        Ex::RefRec => f.rec = true,
        Ex::FieldP(r, _) => {
            f.classes = true;
            f.use_pq = true;
            f.asbase |= could_be_null(r);
            scan_ex(r, w, f);
        }
    }
}

fn scan_st(s: &St, w: u8, f: &mut Features) {
    match s {
        St::Set(v, e) => {
            scan_ex(&Ex::Var(*v), w, f);
            scan_ex(e, w, f);
        }
        St::ArrSetI(i, e, _) => {
            f.xs = true;
            scan_ex(i, w, f);
            scan_ex(e, w, f);
        }
        St::ArrSetP(i, e) => {
            f.ps = true;
            scan_ex(i, w, f);
            scan_ex(e, w, f);
        }
        St::FieldSet(r, e) => {
            f.classes = true;
            f.asbase |= could_be_null(r);
            scan_ex(r, w, f);
            scan_ex(e, w, f);
        }
        St::If(c, t, e) => {
            scan_ex(c, w, f);
            t.iter().for_each(|s| scan_st(s, w, f));
            e.iter().for_each(|s| scan_st(s, w, f));
        }
        St::For(_, b) | St::While(_, b) => b.iter().for_each(|s| scan_st(s, w, f)),
        St::PrintI(e) | St::PrintB(e) => scan_ex(e, w, f),
        St::SinkT(e) => {
            if let Ty::Tup(tw) = ty_of(e, w) {
                f.sink.insert(tw);
            }
            scan_ex(e, w, f);
        }
        St::Delegate(r, x) => {
            f.classes = true;
            f.use_v = true;
            f.b = true;
            f.asbase |= could_be_null(r);
            scan_ex(r, w, f);
            scan_ex(x, w, f);
        }
        St::Gc(..) => {
            f.gc = true;
            f.a = true;
        }
        St::BreakIf(c) | St::ContinueIf(c) => scan_ex(c, w, f),
    }
}

// ---------------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------------

fn emit_tuple_ty(w: u8) -> String {
    let parts = vec!["int"; w as usize];
    format!("({})", parts.join(", "))
}

/// Whether the expression's *static* type in the emitted source is the null
/// type (rather than `Base`). Member access on such an expression is a type
/// error, so receivers like this are routed through `asbase`.
fn could_be_null(e: &Ex) -> bool {
    match e {
        Ex::Null => true,
        // The ternary joins class types with null, so only an all-null
        // conditional stays null-typed. `choose` is emitted with an explicit
        // `<Base>` for object operands and never stays null-typed.
        Ex::Cond(_, x, y) => could_be_null(x) && could_be_null(y),
        Ex::Id(x) => could_be_null(x),
        _ => false,
    }
}

/// Emits a member-access receiver, upcasting statically-null expressions to
/// `Base` via `asbase` (a null *value* still traps at runtime — that is the
/// point — but the program stays well-typed).
fn emit_recv(e: &Ex, w: u8, out: &mut String) {
    if could_be_null(e) {
        out.push_str("asbase(");
        emit_ex(e, w, out);
        out.push(')');
    } else {
        emit_ex(e, w, out);
    }
}

fn emit_ex(e: &Ex, w: u8, out: &mut String) {
    match e {
        Ex::Lit(v) => {
            if *v < 0 {
                let _ = write!(out, "(0 - {})", -(*v as i64));
            } else {
                let _ = write!(out, "{v}");
            }
        }
        Ex::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Ex::Null => out.push_str("null"),
        Ex::Var(v) => out.push_str(match v {
            Var::A => "a",
            Var::B => "b",
            Var::P => "p",
            Var::T => "t",
            Var::O => "o",
            Var::F => "f",
        }),
        Ex::Bin(op, l, r) => {
            let (sym, masked) = match op {
                BinK::Add => ("+", false),
                BinK::Sub => ("-", false),
                BinK::Mul => ("*", false),
                BinK::And => ("&", false),
                BinK::Or => ("|", false),
                BinK::Xor => ("^", false),
                BinK::Shl => ("<<", true),
                BinK::Shr => (">>", true),
            };
            out.push('(');
            emit_ex(l, w, out);
            let _ = write!(out, " {sym} ");
            if masked {
                out.push('(');
                out.push('(');
                emit_ex(r, w, out);
                out.push_str(") & 15)");
            } else {
                emit_ex(r, w, out);
            }
            out.push(')');
        }
        Ex::DivMod { is_div, guarded, l, r } => {
            let sym = if *is_div { "/" } else { "%" };
            out.push('(');
            emit_ex(l, w, out);
            let _ = write!(out, " {sym} ");
            if *guarded {
                out.push_str("(1 + ((");
                emit_ex(r, w, out);
                out.push_str(") & 7))");
            } else {
                out.push('(');
                emit_ex(r, w, out);
                out.push(')');
            }
            out.push(')');
        }
        Ex::Cmp(op, l, r) => {
            let sym = match op {
                CmpK::Lt => "<",
                CmpK::Le => "<=",
                CmpK::EqI => "==",
                CmpK::NeI => "!=",
                CmpK::Ge => ">=",
                CmpK::Gt => ">",
            };
            out.push('(');
            emit_ex(l, w, out);
            let _ = write!(out, " {sym} ");
            emit_ex(r, w, out);
            out.push(')');
        }
        Ex::Not(x) => {
            out.push_str("!(");
            emit_ex(x, w, out);
            out.push(')');
        }
        Ex::Logic(and, l, r) => {
            out.push('(');
            emit_ex(l, w, out);
            out.push_str(if *and { " && " } else { " || " });
            emit_ex(r, w, out);
            out.push(')');
        }
        Ex::Cond(c, x, y) => {
            out.push('(');
            emit_ex(c, w, out);
            out.push_str(" ? ");
            emit_ex(x, w, out);
            out.push_str(" : ");
            emit_ex(y, w, out);
            out.push(')');
        }
        Ex::Choose(c, x, y) => {
            // Explicit type argument for objects: inference does not join
            // sibling class types to their common superclass.
            if ty_of(x, w) == Ty::Obj {
                out.push_str("choose<Base>(");
            } else {
                out.push_str("choose(");
            }
            emit_ex(c, w, out);
            out.push_str(", ");
            emit_ex(x, w, out);
            out.push_str(", ");
            emit_ex(y, w, out);
            out.push(')');
        }
        Ex::Id(x) => {
            // `id(null)` would instantiate T at the null type; pin it.
            if could_be_null(x) {
                out.push_str("id<Base>(");
            } else {
                out.push_str("id(");
            }
            emit_ex(x, w, out);
            out.push(')');
        }
        Ex::Tup(es) => {
            out.push('(');
            for (i, x) in es.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                emit_ex(x, w, out);
            }
            out.push(')');
        }
        Ex::Proj(x, i) => {
            out.push('(');
            emit_ex(x, w, out);
            let _ = write!(out, ").{i}");
        }
        Ex::Swap(x) => {
            let Ty::Tup(tw) = ty_of(x, w) else { unreachable!() };
            let _ = write!(out, "swap{tw}(");
            emit_ex(x, w, out);
            out.push(')');
        }
        Ex::AddT(l, r) => {
            let Ty::Tup(tw) = ty_of(l, w) else { unreachable!() };
            let _ = write!(out, "add{tw}(");
            emit_ex(l, w, out);
            out.push_str(", ");
            emit_ex(r, w, out);
            out.push(')');
        }
        Ex::SumT(x) => {
            let Ty::Tup(tw) = ty_of(x, w) else { unreachable!() };
            let _ = write!(out, "sum{tw}(");
            emit_ex(x, w, out);
            out.push(')');
        }
        Ex::EqT(l, r) => {
            out.push('(');
            emit_ex(l, w, out);
            out.push_str(" == ");
            emit_ex(r, w, out);
            out.push(')');
        }
        Ex::ArrI(i, masked) => {
            out.push_str("xs[");
            if *masked {
                out.push('(');
                emit_ex(i, w, out);
                out.push_str(") & 3");
            } else {
                emit_ex(i, w, out);
            }
            out.push(']');
        }
        Ex::ArrP(i) => {
            out.push_str("ps[(");
            emit_ex(i, w, out);
            out.push_str(") & 3]");
        }
        Ex::F2(l, r) => {
            out.push_str("f2(");
            emit_ex(l, w, out);
            out.push_str(", ");
            emit_ex(r, w, out);
            out.push(')');
        }
        // Indirect-call arguments are clamped: the callee may be `rec`, and
        // an unbounded argument would recurse thousands of frames deep in
        // the tree-walking interpreter (host stack overflow, not a trap).
        // 63 keeps recursion within a 2 MiB debug-build test-thread stack.
        Ex::CallFun(g, x) => {
            if matches!(**g, Ex::Var(Var::F)) {
                out.push_str("f((");
                emit_ex(x, w, out);
                out.push_str(") & 63)");
            } else {
                out.push_str("call1(");
                emit_ex(g, w, out);
                out.push_str(", (");
                emit_ex(x, w, out);
                out.push_str(") & 63)");
            }
        }
        Ex::Virt(r, x) => {
            out.push('(');
            emit_recv(r, w, out);
            out.push_str(").v(");
            emit_ex(x, w, out);
            out.push(')');
        }
        Ex::AbsCall(r) => {
            out.push('(');
            emit_recv(r, w, out);
            out.push_str(").m()");
        }
        // Queries and casts go through `asbase` so the operand's static type
        // is `Base`: the language rejects casts between unrelated (sibling)
        // classes, and a bare `DerA.new(1)` operand has static type `DerA`.
        Ex::CastW(r) => {
            out.push_str("DerA.!(asbase(");
            emit_ex(r, w, out);
            out.push_str(")).w");
        }
        Ex::Query(c, r) => {
            let _ = write!(out, "{}.?(asbase(", c.name());
            emit_ex(r, w, out);
            out.push_str("))");
        }
        Ex::CastO(c, r) => {
            let _ = write!(out, "{}.!(asbase(", c.name());
            emit_ex(r, w, out);
            out.push_str("))");
        }
        Ex::NullCmp(eq, r) => {
            out.push('(');
            emit_ex(r, w, out);
            out.push_str(if *eq { " == null)" } else { " != null)" });
        }
        Ex::ByteRound(x) => {
            out.push_str("int.!(byte.!((");
            emit_ex(x, w, out);
            out.push_str(") & 255))");
        }
        Ex::Rec(x) => {
            out.push_str("rec((");
            emit_ex(x, w, out);
            out.push_str(") & 15)");
        }
        Ex::BoxI(x) => {
            out.push_str("Box<int>.new(");
            emit_ex(x, w, out);
            out.push_str(").get()");
        }
        Ex::BoxO(x) => {
            out.push_str("Box<Base>.new(");
            emit_ex(x, w, out);
            out.push_str(").get()");
        }
        Ex::New(c, x) => {
            let _ = write!(out, "{}.new(", c.name());
            emit_ex(x, w, out);
            out.push(')');
        }
        Ex::BindV(r) => {
            out.push('(');
            emit_recv(r, w, out);
            out.push_str(").v");
        }
        Ex::RefInc => out.push_str("inc"),
        Ex::RefRec => out.push_str("rec"),
        Ex::FieldP(r, i) => {
            out.push('(');
            emit_recv(r, w, out);
            let _ = write!(out, ").pq.{i}");
        }
    }
}

fn recv_str(e: &Ex, w: u8) -> String {
    let mut s = String::new();
    emit_recv(e, w, &mut s);
    s
}

fn ex_str(e: &Ex, w: u8) -> String {
    let mut s = String::new();
    emit_ex(e, w, &mut s);
    s
}

fn emit_st(s: &St, w: u8, indent: usize, loops: u32, out: &mut String) {
    let pad = "    ".repeat(indent);
    match s {
        St::Set(v, e) => {
            let name = ex_str(&Ex::Var(*v), w);
            let _ = writeln!(out, "{pad}{name} = {};", ex_str(e, w));
        }
        St::ArrSetI(i, e, masked) => {
            if *masked {
                let _ = writeln!(out, "{pad}xs[({}) & 3] = {};", ex_str(i, w), ex_str(e, w));
            } else {
                let _ = writeln!(out, "{pad}xs[{}] = {};", ex_str(i, w), ex_str(e, w));
            }
        }
        St::ArrSetP(i, e) => {
            let _ = writeln!(out, "{pad}ps[({}) & 3] = {};", ex_str(i, w), ex_str(e, w));
        }
        St::FieldSet(r, e) => {
            let _ = writeln!(out, "{pad}({}).w = {};", recv_str(r, w), ex_str(e, w));
        }
        St::If(c, t, e) => {
            let _ = writeln!(out, "{pad}if ({}) {{", ex_str(c, w));
            for s in t {
                emit_st(s, w, indent + 1, loops, out);
            }
            if e.is_empty() {
                let _ = writeln!(out, "{pad}}}");
            } else {
                let _ = writeln!(out, "{pad}}} else {{");
                for s in e {
                    emit_st(s, w, indent + 1, loops, out);
                }
                let _ = writeln!(out, "{pad}}}");
            }
        }
        St::For(n, body) => {
            let i = format!("i{loops}");
            let _ = writeln!(out, "{pad}for ({i} = 0; {i} < {n}; {i} = {i} + 1) {{");
            for s in body {
                emit_st(s, w, indent + 1, loops + 1, out);
            }
            let _ = writeln!(out, "{pad}}}");
        }
        St::While(n, body) => {
            let k = format!("k{loops}");
            let _ = writeln!(out, "{pad}{{");
            let _ = writeln!(out, "{pad}    var {k} = {n};");
            let _ = writeln!(out, "{pad}    while ({k} > 0) {{");
            let _ = writeln!(out, "{pad}        {k} = {k} - 1;");
            for s in body {
                emit_st(s, w, indent + 2, loops + 1, out);
            }
            let _ = writeln!(out, "{pad}    }}");
            let _ = writeln!(out, "{pad}}}");
        }
        St::PrintI(e) => {
            let _ = writeln!(out, "{pad}System.puti({}); System.putc(' ');", ex_str(e, w));
        }
        St::PrintB(e) => {
            let _ = writeln!(out, "{pad}System.putb({}); System.putc(' ');", ex_str(e, w));
        }
        St::SinkT(e) => {
            let Ty::Tup(tw) = ty_of(e, w) else { unreachable!() };
            let _ = writeln!(out, "{pad}sink{tw}({});", ex_str(e, w));
        }
        St::Delegate(r, x) => {
            let _ = writeln!(
                out,
                "{pad}{{ var h = ({}).v; b = b + h({}); }}",
                recv_str(r, w),
                ex_str(x, w)
            );
        }
        St::Gc(len, rounds) => {
            let _ = writeln!(out, "{pad}a = (a + gcchurn({len}, {rounds})) & 65535;");
        }
        St::BreakIf(c) => {
            let _ = writeln!(out, "{pad}if ({}) break;", ex_str(c, w));
        }
        St::ContinueIf(c) => {
            let _ = writeln!(out, "{pad}if ({}) continue;", ex_str(c, w));
        }
    }
}

fn emit_width_helpers(f: &Features, out: &mut String) {
    for &w in &f.swap {
        let ty = emit_tuple_ty(w);
        let comps: Vec<String> = (0..w).rev().map(|i| format!("q.{i}")).collect();
        let _ = writeln!(
            out,
            "def swap{w}(q: {ty}) -> {ty} {{ return ({}); }}",
            comps.join(", ")
        );
    }
    for &w in &f.add {
        let ty = emit_tuple_ty(w);
        let comps: Vec<String> = (0..w).map(|i| format!("x.{i} + y.{i}")).collect();
        let _ = writeln!(
            out,
            "def add{w}(x: {ty}, y: {ty}) -> {ty} {{ return ({}); }}",
            comps.join(", ")
        );
    }
    for &w in &f.sum {
        let ty = emit_tuple_ty(w);
        let comps: Vec<String> = (0..w).map(|i| format!("q.{i}")).collect();
        let _ = writeln!(
            out,
            "def sum{w}(q: {ty}) -> int {{ return {}; }}",
            comps.join(" + ")
        );
    }
    for &w in &f.sink {
        let ty = emit_tuple_ty(w);
        let comps: Vec<String> = (0..w).map(|i| format!("q.{i}")).collect();
        let _ = writeln!(
            out,
            "def sink{w}(q: {ty}) {{ System.puti({}); System.putc(' '); }}",
            comps.join(" ^ ")
        );
    }
}

/// Emits only the classes and members the program references, so shrunk
/// repros are not padded with an unused hierarchy. `Base` always carries `w`
/// (casts and field stores use it); `pq`, `v`, and `m` appear on demand, and
/// when the abstract `m` is declared every emitted subclass implements it.
fn emit_classes(f: &Features, out: &mut String) {
    let cls_a = f.cls_a || f.cls_c; // DerC extends DerA
    out.push_str("class Base {\n    var w: int;\n");
    if f.use_pq {
        out.push_str("    var pq: (int, int);\n    new(w) { pq = (w, w + 1); }\n");
    } else {
        out.push_str("    new(w) { }\n");
    }
    if f.use_v {
        out.push_str("    def v(x: int) -> int { return x + w; }\n");
    }
    if f.use_m {
        out.push_str("    def m() -> int;\n");
    }
    out.push_str("}\n");
    if cls_a {
        out.push_str("class DerA extends Base {\n    new(w: int) super(w) { }\n");
        if f.use_v {
            out.push_str("    def v(x: int) -> int { return x * 2 - w; }\n");
        }
        if f.use_m {
            out.push_str("    def m() -> int { return w + 10; }\n");
        }
        out.push_str("}\n");
    }
    if f.cls_b {
        out.push_str("class DerB extends Base {\n    new(w: int) super(w) { }\n");
        if f.use_m {
            out.push_str("    def m() -> int { return 5 - w; }\n");
        }
        out.push_str("}\n");
    }
    if f.cls_c {
        out.push_str("class DerC extends DerA {\n    new(w: int) super(w) { }\n");
        if f.use_v {
            out.push_str("    def v(x: int) -> int { return x - w * 3; }\n");
        }
        if f.use_m {
            out.push_str("    def m() -> int { return w ^ 21; }\n");
        }
        out.push_str("}\n");
    }
}

const GC_HELPERS: &str = "\
class Node {
    def val: int;
    def next: Node;
    new(val, next) { }
}
def gcchurn(len: int, rounds: int) -> int {
    var acc = 0;
    for (r = 0; r < rounds; r = r + 1) {
        var head: Node = null;
        for (i = 0; i < len; i = i + 1) head = Node.new(i + r, head);
        var cur = head;
        while (cur != null) { acc = acc + cur.val; cur = cur.next; }
    }
    return acc;
}
";

/// Renders a [`Prog`] to Virgil source. Only the declarations the program
/// actually uses are emitted, so shrunk programs stay small.
pub fn emit(prog: &Prog) -> String {
    let w = prog.width;
    let mut f = Features::default();
    for s in &prog.stmts {
        scan_st(s, w, &mut f);
    }
    // The checksum epilogue reads every used checksum variable.
    if f.t {
        f.sum.insert(w);
    }

    let mut out = String::new();
    if f.choose {
        out.push_str("def choose<T>(c: bool, x: T, y: T) -> T { return c ? x : y; }\n");
    }
    if f.id {
        out.push_str("def id<T>(x: T) -> T { return x; }\n");
    }
    if f.f2 {
        out.push_str("def f2(x: int, y: int) -> int { return x * 2 - y; }\n");
    }
    if f.inc {
        out.push_str("def inc(x: int) -> int { return x + 1; }\n");
    }
    if f.rec {
        out.push_str(
            "def rec(n: int) -> int {\n    if (n <= 0) return 1;\n    \
             return (n + rec(n - 1) * 3) % 1000003;\n}\n",
        );
    }
    if f.call1 {
        out.push_str("def call1(g: int -> int, x: int) -> int { return g(x); }\n");
    }
    if f.boxg {
        out.push_str(
            "class Box<T> {\n    def val: T;\n    new(val) { }\n    \
             def get() -> T { return val; }\n}\n",
        );
    }
    if f.classes {
        emit_classes(&f, &mut out);
    }
    if f.asbase {
        out.push_str("def asbase(x: Base) -> Base { return x; }\n");
    }
    if f.gc {
        out.push_str(GC_HELPERS);
    }
    emit_width_helpers(&f, &mut out);

    out.push_str("def main() -> int {\n");
    if f.a {
        out.push_str("    var a = 3;\n");
    }
    if f.b {
        out.push_str("    var b = 5;\n");
    }
    if f.p {
        out.push_str("    var p = (1, 2);\n");
    }
    if f.t {
        let comps: Vec<String> = (1..=w).map(|i| i.to_string()).collect();
        let _ = writeln!(out, "    var t = ({});", comps.join(", "));
    }
    if f.o {
        out.push_str("    var o: Base = DerA.new(1);\n");
    }
    if f.f {
        out.push_str("    var f: int -> int = inc;\n");
    }
    if f.xs {
        out.push_str("    var xs = Array<int>.new(4);\n");
    }
    if f.ps {
        out.push_str("    var ps = Array<(int, int)>.new(4);\n");
    }
    for s in &prog.stmts {
        emit_st(s, w, 1, 0, &mut out);
    }
    // Epilogue: print the live scalars and return a checksum over them so
    // every mutation is observable on every engine.
    let mut checks: Vec<String> = Vec::new();
    if f.a {
        out.push_str("    System.puti(a); System.putc(' ');\n");
        checks.push("a".into());
    }
    if f.b {
        out.push_str("    System.puti(b); System.putc(' ');\n");
        checks.push("(b << 1)".into());
    }
    if f.p {
        out.push_str("    System.puti(p.0); System.puti(p.1); System.putc(' ');\n");
        checks.push("p.0".into());
        checks.push("(p.1 << 2)".into());
    }
    if f.t {
        let _ = writeln!(out, "    System.puti(sum{w}(t)); System.putc(' ');");
        checks.push(format!("sum{w}(t)"));
    }
    if checks.is_empty() {
        out.push_str("    return 0;\n");
    } else {
        let _ = writeln!(out, "    return {};", checks.join(" ^ "));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        let a = emit(&gen_program(12345, &cfg));
        let b = emit(&gen_program(12345, &cfg));
        assert_eq!(a, b);
        let c = emit(&gen_program(54321, &cfg));
        assert_ne!(a, c, "different seeds should differ (overwhelmingly)");
    }

    #[test]
    fn consecutive_seeds_give_distinct_programs() {
        let cfg = GenConfig::default();
        let mut programs: Vec<String> = (0..500).map(|s| emit(&gen_program(s, &cfg))).collect();
        programs.sort_unstable();
        programs.dedup();
        assert_eq!(programs.len(), 500);
    }

    #[test]
    fn emitted_programs_only_carry_used_helpers() {
        let p = Prog { seed: 0, width: 8, stmts: vec![St::Set(Var::A, Ex::Lit(7))] };
        let src = emit(&p);
        assert!(src.contains("var a = 3;"));
        assert!(!src.contains("class Base"), "no classes needed:\n{src}");
        assert!(!src.contains("choose"), "no generics needed:\n{src}");
        assert!(!src.contains("var t"), "wide tuple unused:\n{src}");
    }

    #[test]
    fn class_emission_prunes_unreferenced_classes_and_members() {
        // A virtual call on a freshly allocated DerA touches nothing else:
        // no DerB/DerC, no abstract `m`, no tuple field `pq`.
        let p = Prog {
            seed: 0,
            width: 8,
            stmts: vec![St::Set(
                Var::A,
                Ex::Virt(Box::new(Ex::New(Cls::A, Box::new(Ex::Lit(2)))), Box::new(Ex::Lit(3))),
            )],
        };
        let src = emit(&p);
        assert!(src.contains("class Base"), "Base needed:\n{src}");
        assert!(src.contains("class DerA"), "DerA needed:\n{src}");
        assert!(!src.contains("DerB"), "DerB unused:\n{src}");
        assert!(!src.contains("DerC"), "DerC unused:\n{src}");
        assert!(!src.contains("def m()"), "abstract m unused:\n{src}");
        assert!(!src.contains("pq"), "tuple field unused:\n{src}");
        // DerC pulls in its parent DerA even when DerA is never named.
        let p = Prog {
            seed: 0,
            width: 8,
            stmts: vec![St::Set(
                Var::A,
                Ex::AbsCall(Box::new(Ex::New(Cls::C, Box::new(Ex::Lit(2))))),
            )],
        };
        let src = emit(&p);
        assert!(src.contains("class DerA"), "DerC's parent:\n{src}");
        assert!(src.contains("class DerC"), "DerC needed:\n{src}");
        assert!(src.contains("def m()"), "abstract m used:\n{src}");
        assert!(!src.contains("def v("), "virtual v unused:\n{src}");
    }

    #[test]
    fn wide_tuple_width_feeds_helpers() {
        let p = Prog {
            seed: 0,
            width: 16,
            stmts: vec![St::Set(Var::T, Ex::Swap(Box::new(Ex::Var(Var::T))))],
        };
        let src = emit(&p);
        assert!(src.contains("def swap16"), "swap16 helper:\n{src}");
        assert!(src.contains("def sum16"), "checksum helper:\n{src}");
    }

    #[test]
    fn ty_of_tracks_widths_and_vars() {
        assert_eq!(ty_of(&Ex::Var(Var::T), 12), Ty::Tup(12));
        assert_eq!(ty_of(&Ex::Swap(Box::new(Ex::Var(Var::P))), 12), Ty::Tup(2));
        assert_eq!(ty_of(&Ex::BindV(Box::new(Ex::Var(Var::O))), 12), Ty::Fun);
        assert_eq!(
            ty_of(&Ex::Cond(Box::new(Ex::Bool(true)), Box::new(Ex::Null), Box::new(Ex::Null)), 4),
            Ty::Obj
        );
    }
}
