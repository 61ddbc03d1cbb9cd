//! The optimizer: constant folding, type-query/cast folding, branch folding,
//! dead-statement elimination, and leaf inlining.
//!
//! This realizes the §3.3 claim: "the compiler will specialize the
//! parameterized method for each unique type argument, then optimize each
//! version independently. The type queries and casts in each version can be
//! decided statically, the chain of if statements will be folded away, and
//! only a call to the corresponding version remains" — after
//! monomorphization, `int.?(a: int)` folds to `true`, `bool.?(a: int)` to
//! `false`, and the `if` chain collapses to a direct call.
//!
//! Virtual calls stay `CallVirtual`: the VM's inline caches and the tier's
//! IC-feedback devirtualization are the one place that devirtualizes.
//!
//! The optimizer is designed to run on normalized modules, where argument
//! pieces are effect-free, making identity-cast removal and branch folding
//! sound without effect analysis.

use crate::cache::{self, DupMap};
use crate::{BackendConfig, BackendReport};
use vgl_ir::ops::{self, Exception};
use vgl_ir::visit::rewrite_exprs;
use vgl_ir::{Body, Expr, ExprKind, Method, MethodId, Module, Oper, Stmt};
use vgl_obs::{since_epoch, WorkerSample};
use vgl_types::{CastRelation, Hierarchy, TypeKind, TypeStore};

/// Optimizer statistics (experiment E3 narrates these).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Constant operations folded.
    pub consts_folded: usize,
    /// Type queries decided statically.
    pub queries_folded: usize,
    /// Casts removed (subsumption) or turned into traps (impossible).
    pub casts_folded: usize,
    /// `if`/ternary/short-circuit branches decided statically.
    pub branches_folded: usize,
    /// Statements removed as dead.
    pub dead_stmts_removed: usize,
    /// Small leaf methods inlined at direct call sites.
    pub inlined: usize,
}

/// Runs the optimizer in place until a fixpoint (bounded), with the
/// instance cache on: [`optimize_cfg`] with the default [`BackendConfig`].
pub fn optimize(module: &mut Module) -> OptStats {
    optimize_cfg(module, &BackendConfig::default(), &mut BackendReport::default())
}

/// [`optimize`] with the instance cache configurable (`cfg.cache`).
///
/// A worklist fixpoint over *representative* method bodies; a duplicate
/// copies its representative whenever that changes. Round 1 rewrites every
/// representative. A later round rewrites one only if its body changed in
/// the previous round or it calls a method whose inline entry changed: a
/// rewrite reads nothing else that changes (the hierarchy and the types it
/// folds against are fixed), so any other body would come back as it went
/// in, with no counter moved. The rounds stop after one that adds nothing
/// to [`OptStats`], or after 8, so the output is that of rewriting every
/// body in every round.
///
/// Each round rewrites the scheduled bodies on the calling thread (a pool
/// was slower on every program measured), in method-index order, against
/// one clone of the type store: interning is the only store mutation
/// folding performs, and fold decisions never depend on ids interned
/// mid-round. Statistics count work actually performed, so a cache hit
/// reduces the counters; cache effectiveness is reported separately in
/// `report.opt_cache`. Debug builds assert that the module leaves in tuple
/// normal form ([`vgl_ir::check_normalized`]).
pub fn optimize_cfg(
    module: &mut Module,
    cfg: &BackendConfig,
    report: &mut BackendReport,
) -> OptStats {
    let dup = if cfg.cache {
        match report.dup_map.take() {
            // Normalize already grouped this module; extend the map over
            // any methods appended since (synthesized wrappers, each
            // unique) instead of re-fingerprinting everything.
            Some(mut dup) if dup.rep.len() <= module.methods.len() => {
                for i in dup.rep.len()..module.methods.len() {
                    dup.rep.push(i);
                    if module.methods[i].body.is_some() {
                        dup.stats.lookups += 1;
                        dup.stats.unique += 1;
                    }
                }
                dup
            }
            _ => {
                let (dup, sample) = cache::dup_groups(module);
                report.workers.push(sample);
                dup
            }
        }
    } else {
        DupMap::identity(module.methods.len())
    };
    report.opt_cache.merge(&dup.stats);
    let n = module.methods.len();
    // Inline candidates: single-`Return(expr)` leaf bodies referencing only
    // their parameters ("only a call to the corresponding version remains,
    // which the compiler may then inline" — §3.3).
    let mut inline: Vec<Option<InlineBody>> = (0..n).map(|i| inline_entry(module, i)).collect();
    let mut todo: Vec<usize> =
        (0..n).filter(|&i| module.methods[i].body.is_some() && !dup.is_dup(i)).collect();
    let mut stats = OptStats::default();
    for _ in 0..8 {
        let (round, changed) = one_round(module, &dup, &inline, &todo, &mut report.workers);
        if round == OptStats::default() {
            break;
        }
        add_stats(&mut stats, &round);
        let mut entry_changed = vec![false; n];
        for i in (0..n).filter(|&i| changed[i]) {
            let entry = inline_entry(module, i);
            if entry != inline[i] {
                inline[i] = entry;
                entry_changed[i] = true;
            }
        }
        let any_entry_changed = entry_changed.contains(&true);
        todo = (0..n)
            .filter(|&i| !dup.is_dup(i))
            .filter(|&i| {
                changed[i] || any_entry_changed && calls_any(&module.methods[i], &entry_changed)
            })
            .collect();
    }
    if cfg!(debug_assertions) {
        vgl_ir::assert_valid(
            "optimization broke tuple normal form",
            &vgl_ir::check_normalized(module),
        );
    }
    stats
}

fn add_stats(dst: &mut OptStats, s: &OptStats) {
    dst.consts_folded += s.consts_folded;
    dst.queries_folded += s.queries_folded;
    dst.casts_folded += s.casts_folded;
    dst.branches_folded += s.branches_folded;
    dst.dead_stmts_removed += s.dead_stmts_removed;
    dst.inlined += s.inlined;
}

/// One fixpoint round: rewrites the representatives in `todo` (ascending)
/// and logs that as one `optimize` sample, copies each one that changed
/// into its duplicates, and folds the globals' initializers. Returns the
/// round's statistics and, per method, whether its body changed.
fn one_round(
    module: &mut Module,
    dup: &DupMap,
    inline: &[Option<InlineBody>],
    todo: &[usize],
    worker_log: &mut Vec<WorkerSample>,
) -> (OptStats, Vec<bool>) {
    let start = since_epoch();
    let mut stats = OptStats::default();
    let mut changed = vec![false; module.methods.len()];
    {
        let mut store = module.store.clone();
        let Module { methods, hier, .. } = &mut *module;
        for &i in todo {
            let Method { body, locals, .. } = &mut methods[i];
            let body = body.as_mut().expect("scheduled method has a body");
            let mut st = OptStats::default();
            let caller = MethodId(i as u32);
            rewrite_exprs(body, &mut |e| {
                let e = fold_expr(&mut store, hier, e, &mut st);
                inline_expr(e, caller, inline, locals, &mut st)
            });
            fold_stmts(&mut body.stmts, &mut st);
            // Normalize's temporaries and inlining grew the locals one by one.
            locals.shrink_to_fit();
            changed[i] = st != OptStats::default();
            add_stats(&mut stats, &st);
        }
    }
    worker_log.push(WorkerSample {
        phase: "optimize",
        worker: 0,
        items: todo.len(),
        start,
        duration: since_epoch().saturating_sub(start),
    });
    // A duplicate takes its representative's body when that changed (reps
    // always precede their dups, so the source is this round's output).
    for i in 0..module.methods.len() {
        let r = dup.rep[i];
        if r != i && changed[r] {
            let (body, locals) =
                (module.methods[r].body.clone(), module.methods[r].locals.clone());
            module.methods[i].body = body;
            module.methods[i].locals = locals;
            changed[i] = true;
        }
    }
    // Globals' initializers too, against the module's own store.
    let Module { store, hier, globals, .. } = &mut *module;
    for g in globals.iter_mut() {
        let Some(init) = g.init.take() else { continue };
        let mut body = Body { stmts: vec![Stmt::Expr(init)] };
        rewrite_exprs(&mut body, &mut |e| fold_expr(store, hier, e, &mut stats));
        let Some(Stmt::Expr(e)) = body.stmts.pop() else { unreachable!() };
        g.init = Some(e);
    }
    (stats, changed)
}

/// Whether `m`'s body calls a method flagged in `set` directly.
fn calls_any(m: &Method, set: &[bool]) -> bool {
    let Some(body) = &m.body else { return false };
    let mut hit = false;
    vgl_ir::visit::for_each_expr(body, &mut |e| {
        if let ExprKind::CallStatic { method, .. } = e.kind {
            hit |= set[method.index()];
        }
    });
    hit
}

/// Maximum expression nodes in an inlinable leaf body.
const INLINE_LIMIT: usize = 16;

/// An inline candidate: parameter count and the returned expression.
#[derive(Clone, PartialEq)]
struct InlineBody {
    param_count: usize,
    expr: Expr,
}

/// Method `i`'s inline entry: present when its body is a single return of
/// a leaf expression that references only parameters.
fn inline_entry(module: &Module, i: usize) -> Option<InlineBody> {
    if module.main == Some(MethodId(i as u32)) {
        return None;
    }
    let m = &module.methods[i];
    let body = m.body.as_ref()?;
    let [Stmt::Return(Some(e))] = body.stmts.as_slice() else {
        return None;
    };
    // Multi-value returns are a boundary form (Return(Tuple)); they
    // cannot be spliced into expression position.
    if matches!(e.kind, ExprKind::Tuple(_)) || matches!(module.store.kind(e.ty), TypeKind::Tuple(_))
    {
        return None;
    }
    let mut nodes = 0;
    let mut ok = true;
    vgl_ir::visit::for_each_expr_in(e, &mut |x: &Expr| {
        nodes += 1;
        match &x.kind {
            // No nested calls (keeps inlining one level and cheap),
            // no local writes, no Lets.
            ExprKind::CallStatic { .. }
            | ExprKind::CallVirtual { .. }
            | ExprKind::CallClosure { .. }
            | ExprKind::CallBuiltin(..)
            | ExprKind::New { .. }
            | ExprKind::LocalSet(..)
            | ExprKind::GlobalSet(..)
            | ExprKind::Let { .. } => ok = false,
            ExprKind::Local(l) if l.index() >= m.param_count => ok = false,
            _ => {}
        }
    });
    if !ok || nodes > INLINE_LIMIT {
        return None;
    }
    Some(InlineBody { param_count: m.param_count, expr: e.clone() })
}

/// Rewrites a direct call to an inline candidate into a Let-chain.
fn inline_expr(
    e: Expr,
    caller: MethodId,
    table: &[Option<InlineBody>],
    caller_locals: &mut Vec<vgl_ir::Local>,
    stats: &mut OptStats,
) -> Expr {
    let ExprKind::CallStatic { method, .. } = e.kind else {
        return e;
    };
    let candidate = if method == caller { None } else { table[method.index()].as_ref() };
    let Some(ib) = candidate else {
        return e;
    };
    let ExprKind::CallStatic { args, .. } = e.kind else { unreachable!("matched above") };
    debug_assert_eq!(args.len(), ib.param_count);
    // Fresh caller locals for the parameters.
    let base = caller_locals.len();
    for (j, a) in args.iter().enumerate() {
        caller_locals.push(vgl_ir::Local {
            name: format!("$in{}", base + j),
            ty: a.ty,
            mutable: true,
        });
    }
    // Body with parameter reads remapped.
    let mut body = ib.expr.clone();
    remap_locals(&mut body, base);
    // Wrap in Lets, innermost-first so evaluation order is left-to-right.
    let mut result = body;
    for (j, a) in args.into_iter().enumerate().rev() {
        let rty = result.ty;
        result = Expr::new(
            ExprKind::Let {
                local: vgl_ir::LocalId((base + j) as u32),
                value: Box::new(a),
                body: Box::new(result),
            },
            rty,
        );
    }
    stats.inlined += 1;
    result
}

/// Replaces every read of `local` in `e` with `value` (a constant).
fn subst_local(e: &mut Expr, local: vgl_ir::LocalId, value: &Expr) {
    if matches!(e.kind, ExprKind::Local(l) if l == local) {
        *e = value.clone();
        return;
    }
    vgl_ir::visit::for_each_child_mut(e, &mut |c| subst_local(c, local, value));
}

fn remap_locals(e: &mut Expr, base: usize) {
    if let ExprKind::Local(l) = &mut e.kind {
        *l = vgl_ir::LocalId((l.index() + base) as u32);
    }
    vgl_ir::visit::for_each_child_mut(e, &mut |c| remap_locals(c, base));
}

fn as_const_int(e: &Expr) -> Option<i32> {
    match e.kind {
        ExprKind::Int(v) => Some(v),
        _ => None,
    }
}

fn as_const_bool(e: &Expr) -> Option<bool> {
    match e.kind {
        ExprKind::Bool(v) => Some(v),
        _ => None,
    }
}

fn is_pure(e: &Expr) -> bool {
    use ExprKind::*;
    match &e.kind {
        Int(_) | Byte(_) | Bool(_) | Unit | Null | Local(_) | Global(_) | OpClosure(_)
        | FuncRef { .. } | CtorRef { .. } | ArrayNewRef { .. } | BuiltinRef(_) => true,
        Apply(op, args) => {
            !matches!(op, Oper::IntDiv | Oper::IntMod | Oper::Cast { .. })
                && args.iter().all(is_pure)
        }
        And(a, b) | Or(a, b) => is_pure(a) && is_pure(b),
        Ternary { cond, then, els } => is_pure(cond) && is_pure(then) && is_pure(els),
        TupleIndex(b, _) => is_pure(b),
        Tuple(es) => es.iter().all(is_pure),
        _ => false,
    }
}

/// Folds one node whose children are already folded. `store` is the only
/// state folding mutates (`cast_relation` interns types).
fn fold_expr(store: &mut TypeStore, hier: &Hierarchy, e: Expr, stats: &mut OptStats) -> Expr {
    let ty = e.ty;
    match e.kind {
        ExprKind::Apply(op, args) => fold_apply(store, hier, op, args, ty, stats),
        ExprKind::And(a, b) => match as_const_bool(&a) {
            Some(true) => {
                stats.branches_folded += 1;
                *b
            }
            Some(false) => {
                stats.branches_folded += 1;
                Expr::new(ExprKind::Bool(false), ty)
            }
            None => match as_const_bool(&b) {
                // `x && true` == x (b is pure by constancy).
                Some(true) => {
                    stats.branches_folded += 1;
                    *a
                }
                _ => Expr::new(ExprKind::And(a, b), ty),
            },
        },
        ExprKind::Or(a, b) => match as_const_bool(&a) {
            Some(false) => {
                stats.branches_folded += 1;
                *b
            }
            Some(true) => {
                stats.branches_folded += 1;
                Expr::new(ExprKind::Bool(true), ty)
            }
            None => match as_const_bool(&b) {
                Some(false) => {
                    stats.branches_folded += 1;
                    *a
                }
                _ => Expr::new(ExprKind::Or(a, b), ty),
            },
        },
        ExprKind::Ternary { cond, then, els } => match as_const_bool(&cond) {
            Some(true) => {
                stats.branches_folded += 1;
                *then
            }
            Some(false) => {
                stats.branches_folded += 1;
                *els
            }
            None => Expr::new(ExprKind::Ternary { cond, then, els }, ty),
        },
        ExprKind::Let { local, value, body } => {
            // Constant propagation through compiler temps: Let locals are
            // single-assignment, so a constant binding substitutes directly.
            let is_const = matches!(
                value.kind,
                ExprKind::Int(_) | ExprKind::Byte(_) | ExprKind::Bool(_) | ExprKind::Null
            );
            if is_const {
                stats.consts_folded += 1;
                let mut b = *body;
                subst_local(&mut b, local, &value);
                b
            } else {
                Expr::new(ExprKind::Let { local, value, body }, ty)
            }
        }
        other => Expr::new(other, ty),
    }
}

fn fold_apply(
    store: &mut TypeStore,
    hier: &Hierarchy,
    op: Oper,
    args: Vec<Expr>,
    ty: vgl_types::Type,
    stats: &mut OptStats,
) -> Expr {
    use Oper::*;
    let int2 = |args: &[Expr]| Some((as_const_int(&args[0])?, as_const_int(&args[1])?));
    let fold_int = |v: i32, stats: &mut OptStats| {
        stats.consts_folded += 1;
        Expr::new(ExprKind::Int(v), ty)
    };
    let fold_bool = |v: bool, stats: &mut OptStats| {
        stats.consts_folded += 1;
        Expr::new(ExprKind::Bool(v), ty)
    };
    match op {
        IntAdd | IntSub | IntMul | IntAnd | IntOr | IntXor | IntShl | IntShr => {
            if let Some((a, b)) = int2(&args) {
                let v = match op {
                    IntAdd => ops::int_add(a, b),
                    IntSub => ops::int_sub(a, b),
                    IntMul => ops::int_mul(a, b),
                    IntAnd => a & b,
                    IntOr => a | b,
                    IntXor => a ^ b,
                    IntShl => ops::int_shl(a, b),
                    IntShr => ops::int_shr(a, b),
                    _ => unreachable!(),
                };
                return fold_int(v, stats);
            }
        }
        IntDiv | IntMod => {
            if let Some((a, b)) = int2(&args) {
                let r = if op == IntDiv { ops::int_div(a, b) } else { ops::int_mod(a, b) };
                return match r {
                    Ok(v) => fold_int(v, stats),
                    Err(x) => {
                        stats.consts_folded += 1;
                        Expr::new(ExprKind::Trap(x), ty)
                    }
                };
            }
        }
        IntLt | IntLe | IntGt | IntGe => {
            if let Some((a, b)) = int2(&args) {
                let v = match op {
                    IntLt => a < b,
                    IntLe => a <= b,
                    IntGt => a > b,
                    IntGe => a >= b,
                    _ => unreachable!(),
                };
                return fold_bool(v, stats);
            }
        }
        IntNeg => {
            if let Some(a) = as_const_int(&args[0]) {
                return fold_int(ops::int_sub(0, a), stats);
            }
        }
        BoolNot => {
            if let Some(b) = as_const_bool(&args[0]) {
                return fold_bool(!b, stats);
            }
        }
        Eq(_) | Ne(_) => {
            let negate = matches!(op, Ne(_));
            let cmp = match (&args[0].kind, &args[1].kind) {
                (ExprKind::Int(a), ExprKind::Int(b)) => Some(a == b),
                (ExprKind::Bool(a), ExprKind::Bool(b)) => Some(a == b),
                (ExprKind::Byte(a), ExprKind::Byte(b)) => Some(a == b),
                (ExprKind::Null, ExprKind::Null) => Some(true),
                (ExprKind::Unit, ExprKind::Unit) => Some(true),
                _ => None,
            };
            if let Some(eq) = cmp {
                return fold_bool(eq != negate, stats);
            }
        }
        Query { from, to } => {
            // The §3.3 folding: decide statically where possible. `null`
            // makes nullable sources undecidable-to-true, but `Unrelated`
            // is always false.
            let rel = vgl_types::cast_relation(store, hier, from, to);
            match rel {
                CastRelation::Unrelated => {
                    stats.queries_folded += 1;
                    return Expr::new(ExprKind::Bool(false), ty);
                }
                CastRelation::Subsumption => {
                    if !store.is_nullable(from) {
                        stats.queries_folded += 1;
                        return Expr::new(ExprKind::Bool(true), ty);
                    }
                    // Nullable: query is `arg != null`.
                    if is_pure(&args[0]) {
                        stats.queries_folded += 1;
                        let arg = args.into_iter().next().expect("one arg");
                        let fty = arg.ty;
                        let null = Expr::new(ExprKind::Null, fty);
                        return Expr::new(
                            ExprKind::Apply(Oper::Ne(fty), vec![arg, null]),
                            ty,
                        );
                    }
                }
                CastRelation::Checked => {
                    // Same-class-constructor queries with different args can
                    // still be decided when types are exactly equal.
                    if from == to && !store.is_nullable(from) {
                        stats.queries_folded += 1;
                        return Expr::new(ExprKind::Bool(true), ty);
                    }
                    // Queries are type-based: `int.?(x: byte)` is always
                    // false even though the *cast* would convert.
                    let prim = |k: &TypeKind| {
                        matches!(k, TypeKind::Int | TypeKind::Byte | TypeKind::Bool | TypeKind::Void)
                    };
                    let fk0 = store.kind(from).clone();
                    let tk0 = store.kind(to).clone();
                    if prim(&fk0) && prim(&tk0) && from != to {
                        stats.queries_folded += 1;
                        return Expr::new(ExprKind::Bool(false), ty);
                    }
                    // Distinct instantiations of the same class never
                    // overlap (invariance): List<int> vs List<bool>.
                    let fk = store.kind(from).clone();
                    let tk = store.kind(to).clone();
                    if let (TypeKind::Class(c1, a1), TypeKind::Class(c2, a2)) = (fk, tk) {
                        if c1 == c2 && a1 != a2 {
                            stats.queries_folded += 1;
                            return Expr::new(ExprKind::Bool(false), ty);
                        }
                    }
                }
            }
        }
        Cast { from, to } => {
            let rel = vgl_types::cast_relation(store, hier, from, to);
            match rel {
                CastRelation::Subsumption => {
                    stats.casts_folded += 1;
                    let v = args.into_iter().next().expect("one arg");
                    return v;
                }
                CastRelation::Unrelated => {
                    stats.casts_folded += 1;
                    return Expr::new(ExprKind::Trap(Exception::TypeCheck), ty);
                }
                CastRelation::Checked => {
                    // Constant byte/int conversions.
                    match (&args[0].kind, store.kind(to).clone()) {
                        (ExprKind::Int(i), TypeKind::Byte) => {
                            stats.casts_folded += 1;
                            return match ops::int_to_byte(*i) {
                                Ok(b) => Expr::new(ExprKind::Byte(b), ty),
                                Err(x) => Expr::new(ExprKind::Trap(x), ty),
                            };
                        }
                        (ExprKind::Byte(b), TypeKind::Int) => {
                            stats.casts_folded += 1;
                            return Expr::new(ExprKind::Int(ops::byte_to_int(*b)), ty);
                        }
                        _ => {}
                    }
                }
            }
        }
        _ => {}
    }
    Expr::new(ExprKind::Apply(op, args), ty)
}

/// Statement-level folding: constant branches, dead pure statements, and
/// `while (false)` loops. Each list is edited in place and left at its
/// exact size.
fn fold_stmts(stmts: &mut Vec<Stmt>, stats: &mut OptStats) {
    stmts.retain_mut(|s| {
        let taken = match s {
            Stmt::If(c, t, e) => {
                fold_stmts(t, stats);
                fold_stmts(e, stats);
                match as_const_bool(c) {
                    Some(true) => std::mem::take(t),
                    Some(false) => std::mem::take(e),
                    None => return true,
                }
            }
            Stmt::While(c, b) => {
                fold_stmts(b, stats);
                if as_const_bool(c) == Some(false) {
                    stats.dead_stmts_removed += 1;
                    return false;
                }
                return true;
            }
            Stmt::Block(b) => {
                fold_stmts(b, stats);
                if b.is_empty() {
                    stats.dead_stmts_removed += 1;
                    return false;
                }
                return true;
            }
            Stmt::Expr(e) if is_pure(e) => {
                stats.dead_stmts_removed += 1;
                return false;
            }
            _ => return true,
        };
        stats.branches_folded += 1;
        *s = Stmt::Block(taken);
        true
    });
    stmts.shrink_to_fit();
}
