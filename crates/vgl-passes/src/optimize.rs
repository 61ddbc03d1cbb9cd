//! The optimizer: constant folding, type-query/cast folding, branch folding,
//! dead-statement elimination, and devirtualization.
//!
//! This realizes the §3.3 claim: "the compiler will specialize the
//! parameterized method for each unique type argument, then optimize each
//! version independently. The type queries and casts in each version can be
//! decided statically, the chain of if statements will be folded away, and
//! only a call to the corresponding version remains" — after
//! monomorphization, `int.?(a: int)` folds to `true`, `bool.?(a: int)` to
//! `false`, and the `if` chain collapses to a direct call.
//!
//! The optimizer is designed to run on normalized modules, where argument
//! pieces are effect-free, making identity-cast removal and branch folding
//! sound without effect analysis.

use crate::cache::{self, DupMap};
use crate::{sched, BackendConfig, BackendReport};
use vgl_ir::ops::{self, Exception};
use vgl_ir::visit::rewrite_exprs;
use vgl_ir::{Expr, ExprKind, Method, MethodId, MethodKind, Module, Oper, Stmt};
use vgl_obs::WorkerSample;
use vgl_types::{CastRelation, ClassId, Hierarchy, TypeKind, TypeStore};

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
    /// Virtual calls rewritten to direct calls.
    pub devirtualized: usize,
    /// Small leaf methods inlined at direct call sites.
    pub inlined: usize,
}

/// Runs the optimizer in place until a fixpoint (bounded), serially with
/// the instance cache on. Equivalent to [`optimize_cfg`] with the default
/// [`BackendConfig`] — the output is identical at any jobs count.
pub fn optimize(module: &mut Module) -> OptStats {
    optimize_cfg(module, &BackendConfig::default(), &mut BackendReport::default())
}

/// [`optimize`] with explicit parallelism and caching.
///
/// Each fixpoint round snapshots the devirt/inline tables, rewrites every
/// *representative* method body on `cfg.jobs` workers (each with a private
/// clone of the type store — interning is the only store mutation folding
/// performs, and fold decisions never depend on ids interned mid-round),
/// then commits results in method-index order and copies duplicates from
/// their representatives. Statistics count work actually performed, so a
/// cache hit reduces the counters; cache effectiveness is reported
/// separately in `report.opt_cache`.
pub fn optimize_cfg(
    module: &mut Module,
    cfg: &BackendConfig,
    report: &mut BackendReport,
) -> OptStats {
    optimize_cfg_masked(module, cfg, report, None)
}

/// [`optimize_cfg`] with an external skip mask: methods with `skip[i]`
/// true are neither rewritten nor copied into. The daemon's warm path uses
/// this for methods whose **post-optimize** bodies were already spliced in
/// from the persistent store (same context digest + fingerprint), so
/// re-optimizing them would be wasted work; their spliced bodies still
/// participate in the devirtualization/inline tables other methods fold
/// against, which is what keeps warm output byte-identical to cold.
///
/// The mask must be duplicate-consistent: a method and its representative
/// share a fingerprint, so they must share a mask bit (debug-asserted).
/// Debug builds also assert that the module leaves in tuple normal form
/// ([`vgl_ir::check_normalized`]).
pub fn optimize_cfg_masked(
    module: &mut Module,
    cfg: &BackendConfig,
    report: &mut BackendReport,
    skip: Option<&[bool]>,
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
                let (dup, hash_workers) = cache::dup_groups(module, cfg.jobs);
                report.workers.extend(hash_workers);
                dup
            }
        }
    } else {
        DupMap::identity(module.methods.len())
    };
    report.opt_cache.merge(&dup.stats);
    if let Some(mask) = skip {
        debug_assert_eq!(mask.len(), module.methods.len(), "mask covers every method");
        debug_assert!(
            (0..module.methods.len()).all(|i| mask[dup.rep[i]] == mask[i]),
            "skip mask must be duplicate-consistent"
        );
    }
    let mut stats = OptStats::default();
    for _ in 0..8 {
        let before = stats;
        one_round(module, cfg, &dup, skip, &mut stats, &mut report.workers);
        if stats == before {
            break;
        }
    }
    if cfg!(debug_assertions) {
        vgl_ir::assert_valid(
            "optimization broke tuple normal form",
            &vgl_ir::check_normalized(module),
        );
    }
    stats
}

/// Everything `fold_expr` needs from the module, split so parallel workers
/// can fold against a shared read-only method/hierarchy view with a
/// worker-private type store (the only part folding mutates, via
/// `cast_relation` interning).
struct FoldCx<'a> {
    store: &'a mut TypeStore,
    hier: &'a Hierarchy,
    methods: &'a [Method],
}

fn add_stats(dst: &mut OptStats, s: &OptStats) {
    dst.consts_folded += s.consts_folded;
    dst.queries_folded += s.queries_folded;
    dst.casts_folded += s.casts_folded;
    dst.branches_folded += s.branches_folded;
    dst.dead_stmts_removed += s.dead_stmts_removed;
    dst.devirtualized += s.devirtualized;
    dst.inlined += s.inlined;
}

fn one_round(
    module: &mut Module,
    cfg: &BackendConfig,
    dup: &DupMap,
    skip: Option<&[bool]>,
    stats: &mut OptStats,
    worker_log: &mut Vec<WorkerSample>,
) {
    let skipped = |i: usize| skip.is_some_and(|m| m[i]);
    // Devirtualization table: (declared method slot) → unique target if any.
    let devirt = build_devirt_table(module);
    // Inline candidates: single-`Return(expr)` leaf bodies referencing only
    // their parameters ("only a call to the corresponding version remains,
    // which the compiler may then inline" — §3.3).
    let inline = build_inline_table(module);
    // Rewrite representative bodies only; duplicates are copied afterwards.
    let items: Vec<usize> = (0..module.methods.len())
        .filter(|&i| module.methods[i].body.is_some() && !dup.is_dup(i) && !skipped(i))
        .collect();
    let m_ref: &Module = module;
    let run_item = |store: &mut TypeStore, _: usize, &i: &usize| {
        let m = &m_ref.methods[i];
        let mut body = m.body.clone().expect("scheduled method has a body");
        let mut locals = m.locals.clone();
        let mut st = OptStats::default();
        let mut cx = FoldCx { store, hier: &m_ref.hier, methods: &m_ref.methods };
        rewrite_exprs(&mut body, &mut |e| {
            let e = fold_expr(&mut cx, e, &devirt, &mut st);
            inline_expr(e, MethodId(i as u32), &inline, &mut locals, &mut st)
        });
        fold_stmts(&mut body.stmts, &mut st);
        (body, locals, st)
    };
    let mk_ctx = || m_ref.store.clone();
    let (results, samples) = if cfg.chunking {
        let costs: Vec<u64> = items
            .iter()
            .map(|&i| {
                vgl_ir::method_cost(&m_ref.methods[i])
                    * vgl_ir::metrics::pass_weight::OPTIMIZE
            })
            .collect();
        let plan = sched::plan_chunks(&costs, cfg.jobs);
        sched::par_map_chunks(cfg.jobs, "optimize", &items, &plan, mk_ctx, run_item)
    } else {
        sched::par_map_ctx(cfg.jobs, "optimize", &items, mk_ctx, run_item)
    };
    worker_log.extend(samples);
    // Commit in stable method-index order (items is ascending).
    for (&i, (body, locals, st)) in items.iter().zip(results) {
        module.methods[i].body = Some(body);
        module.methods[i].locals = locals;
        add_stats(stats, &st);
    }
    // Duplicates take their representative's result (reps always precede
    // their dups, so the source is already this round's output). Skipped
    // methods keep their spliced bodies (their reps are skipped too).
    for i in 0..module.methods.len() {
        if skipped(i) {
            continue;
        }
        let r = dup.rep[i];
        if r != i {
            let (body, locals) =
                (module.methods[r].body.clone(), module.methods[r].locals.clone());
            module.methods[i].body = body;
            module.methods[i].locals = locals;
        }
    }
    // Globals' initializers too (serial: there are few, and they may read
    // each other in declaration order anyway).
    let Module { store, hier, methods, globals, .. } = &mut *module;
    let mut cx = FoldCx { store, hier, methods };
    for g in globals.iter_mut() {
        let Some(init) = g.init.take() else { continue };
        let mut body = vgl_ir::Body { stmts: vec![Stmt::Expr(init)] };
        rewrite_exprs(&mut body, &mut |e| fold_expr(&mut cx, e, &devirt, stats));
        let Some(Stmt::Expr(e)) = body.stmts.pop() else { unreachable!() };
        g.init = Some(e);
    }
}

/// Maximum expression nodes in an inlinable leaf body.
const INLINE_LIMIT: usize = 16;

/// An inline candidate: parameter count and the returned expression.
#[derive(Clone)]
struct InlineBody {
    param_count: usize,
    expr: Expr,
}

/// Finds single-return leaf methods whose body references only parameters.
fn build_inline_table(module: &Module) -> Vec<Option<InlineBody>> {
    module
        .methods
        .iter()
        .enumerate()
        .map(|(i, m)| {
            if module.main == Some(MethodId(i as u32)) {
                return None;
            }
            let body = m.body.as_ref()?;
            let [Stmt::Return(Some(e))] = body.stmts.as_slice() else {
                return None;
            };
            // Multi-value returns are a boundary form (Return(Tuple)); they
            // cannot be spliced into expression position.
            if matches!(e.kind, ExprKind::Tuple(_))
                || matches!(module.store.kind(e.ty), TypeKind::Tuple(_))
            {
                return None;
            }
            let mut nodes = 0;
            let mut ok = true;
            count_expr(e, &mut |x: &Expr| {
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
        })
        .collect()
}

fn count_expr(e: &Expr, f: &mut impl FnMut(&Expr)) {
    f(e);
    for c in vgl_ir::visit::children(e) {
        count_expr(c, f);
    }
}

/// Rewrites a direct call to an inline candidate into a Let-chain.
fn inline_expr(
    e: Expr,
    caller: MethodId,
    table: &[Option<InlineBody>],
    caller_locals: &mut Vec<vgl_ir::Local>,
    stats: &mut OptStats,
) -> Expr {
    let ty = e.ty;
    let ExprKind::CallStatic { method, args, .. } = e.kind else {
        return e;
    };
    let candidate = if method == caller { None } else { table[method.index()].as_ref() };
    let Some(ib) = candidate else {
        return Expr::new(
            ExprKind::CallStatic { method, type_args: vec![], args },
            ty,
        );
    };
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

/// For each virtual slot, the unique implementing method across instantiable
/// classes, or `None` when several exist.
fn build_devirt_table(module: &Module) -> Vec<Option<MethodId>> {
    // Indexed by (declared method id): unique target considering every
    // non-abstract class whose vtable covers the slot of that method and
    // which is a subclass of the declaring owner.
    let n = module.methods.len();
    let mut unique: Vec<Option<Option<MethodId>>> = vec![None; n];
    for (mi, m) in module.methods.iter().enumerate() {
        let (Some(owner), Some(slot)) = (m.owner, m.vtable_index) else { continue };
        if m.is_private {
            continue;
        }
        let mut target: Option<Option<MethodId>> = None;
        for (ci, c) in module.classes.iter().enumerate() {
            if c.is_abstract || slot >= c.vtable.len() {
                continue;
            }
            if !module.hier.is_subclass(ClassId(ci as u32), owner) {
                continue;
            }
            let t = c.vtable[slot];
            if module.method(t).kind == MethodKind::Abstract {
                continue;
            }
            target = match target {
                None => Some(Some(t)),
                Some(Some(prev)) if prev == t => Some(Some(t)),
                _ => Some(None),
            };
        }
        unique[mi] = target;
    }
    unique.into_iter().map(|t| t.flatten()).collect()
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

fn fold_expr(
    cx: &mut FoldCx<'_>,
    e: Expr,
    devirt: &[Option<MethodId>],
    stats: &mut OptStats,
) -> Expr {
    let ty = e.ty;
    match e.kind {
        ExprKind::Apply(op, args) => fold_apply(cx, op, args, ty, stats),
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
        ExprKind::CallVirtual { method, type_args, recv, args } => {
            if let Some(target) = devirt[method.index()] {
                stats.devirtualized += 1;
                let checked = Expr::new(ExprKind::CheckNull(recv), ty_of(cx, target));
                let mut all = vec![checked];
                all.extend(args);
                Expr::new(
                    ExprKind::CallStatic { method: target, type_args, args: all },
                    ty,
                )
            } else {
                Expr::new(ExprKind::CallVirtual { method, type_args, recv, args }, ty)
            }
        }
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
        ExprKind::CheckNull(v) => {
            // A CheckNull over a definitely-non-null value folds away.
            match v.kind {
                ExprKind::New { .. } | ExprKind::String(_) | ExprKind::ArrayLit(_) => *v,
                _ => Expr::new(ExprKind::CheckNull(v), ty),
            }
        }
        other => Expr::new(other, ty),
    }
}

fn ty_of(cx: &FoldCx<'_>, m: MethodId) -> vgl_types::Type {
    cx.methods[m.index()].locals[0].ty
}

fn fold_apply(
    cx: &mut FoldCx<'_>,
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
            let rel = vgl_types::cast_relation(cx.store, cx.hier, from, to);
            match rel {
                CastRelation::Unrelated => {
                    stats.queries_folded += 1;
                    return Expr::new(ExprKind::Bool(false), ty);
                }
                CastRelation::Subsumption => {
                    if !cx.store.is_nullable(from) {
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
                    if from == to && !cx.store.is_nullable(from) {
                        stats.queries_folded += 1;
                        return Expr::new(ExprKind::Bool(true), ty);
                    }
                    // Queries are type-based: `int.?(x: byte)` is always
                    // false even though the *cast* would convert.
                    let prim = |k: &TypeKind| {
                        matches!(k, TypeKind::Int | TypeKind::Byte | TypeKind::Bool | TypeKind::Void)
                    };
                    let fk0 = cx.store.kind(from).clone();
                    let tk0 = cx.store.kind(to).clone();
                    if prim(&fk0) && prim(&tk0) && from != to {
                        stats.queries_folded += 1;
                        return Expr::new(ExprKind::Bool(false), ty);
                    }
                    // Distinct instantiations of the same class never
                    // overlap (invariance): List<int> vs List<bool>.
                    let fk = cx.store.kind(from).clone();
                    let tk = cx.store.kind(to).clone();
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
            let rel = vgl_types::cast_relation(cx.store, cx.hier, from, to);
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
                    match (&args[0].kind, cx.store.kind(to).clone()) {
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
/// `while (false)` loops.
fn fold_stmts(stmts: &mut Vec<Stmt>, stats: &mut OptStats) {
    let old = std::mem::take(stmts);
    for mut s in old {
        match &mut s {
            Stmt::If(c, t, e) => {
                fold_stmts(t, stats);
                fold_stmts(e, stats);
                match as_const_bool(c) {
                    Some(true) => {
                        stats.branches_folded += 1;
                        stmts.push(Stmt::Block(std::mem::take(t)));
                        continue;
                    }
                    Some(false) => {
                        stats.branches_folded += 1;
                        stmts.push(Stmt::Block(std::mem::take(e)));
                        continue;
                    }
                    None => {}
                }
            }
            Stmt::While(c, b) => {
                fold_stmts(b, stats);
                if as_const_bool(c) == Some(false) {
                    stats.dead_stmts_removed += 1;
                    continue;
                }
            }
            Stmt::Block(b) => {
                fold_stmts(b, stats);
                if b.is_empty() {
                    stats.dead_stmts_removed += 1;
                    continue;
                }
            }
            Stmt::Expr(e) if is_pure(e) => {
                stats.dead_stmts_removed += 1;
                continue;
            }
            _ => {}
        }
        stmts.push(s);
    }
}
