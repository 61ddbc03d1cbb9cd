//! Traversal helpers over IR bodies: read-only walks, in-place expression
//! rewrites, and whole-body type substitution (the core of monomorphization).

use crate::body::{Body, Expr, ExprKind, Oper, Stmt};
use std::collections::HashMap;
use vgl_types::{Type, TypeStore, TypeVarId};

/// Calls `f` on every expression in the body, pre-order.
pub fn for_each_expr<'a>(body: &'a Body, f: &mut impl FnMut(&'a Expr)) {
    for s in &body.stmts {
        for_each_expr_stmt(s, f);
    }
}

fn for_each_expr_stmt<'a>(s: &'a Stmt, f: &mut impl FnMut(&'a Expr)) {
    match s {
        Stmt::Expr(e) => for_each_expr_in(e, f),
        Stmt::Local(_, init) => {
            if let Some(e) = init {
                for_each_expr_in(e, f);
            }
        }
        Stmt::If(c, t, e) => {
            for_each_expr_in(c, f);
            for st in t {
                for_each_expr_stmt(st, f);
            }
            for st in e {
                for_each_expr_stmt(st, f);
            }
        }
        Stmt::While(c, b) => {
            for_each_expr_in(c, f);
            for st in b {
                for_each_expr_stmt(st, f);
            }
        }
        Stmt::Return(Some(e)) => for_each_expr_in(e, f),
        Stmt::Return(None) | Stmt::Break | Stmt::Continue => {}
        Stmt::Block(b) => {
            for st in b {
                for_each_expr_stmt(st, f);
            }
        }
    }
}

/// Calls `f` on `e` and then on every expression below it, pre-order.
pub fn for_each_expr_in<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    f(e);
    for_each_child(e, &mut |c| for_each_expr_in(c, f));
}

/// Calls `f` on each direct child of `e`, in evaluation order.
pub fn for_each_child<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    use ExprKind::*;
    match &e.kind {
        Int(_) | Byte(_) | Bool(_) | Unit | Null | String(_) | Local(_) | Global(_)
        | OpClosure(_) | FuncRef { .. } | CtorRef { .. } | ArrayNewRef { .. }
        | BuiltinRef(_) | Trap(_) => {}
        LocalSet(_, v) | GlobalSet(_, v) => f(v),
        Tuple(es) | ArrayLit(es) => es.iter().for_each(f),
        TupleIndex(b, _) | ArrayNew(b) | ArrayLen(b) => f(b),
        ArrayGet(a, i) => {
            f(a);
            f(i);
        }
        ArraySet(a, i, v) => {
            f(a);
            f(i);
            f(v);
        }
        FieldGet(o, _) => f(o),
        FieldSet(o, _, v) => {
            f(o);
            f(v);
        }
        New { args, .. } | CallStatic { args, .. } | CallBuiltin(_, args) | Apply(_, args) => {
            args.iter().for_each(f)
        }
        CallVirtual { recv, args, .. } => {
            f(recv);
            args.iter().for_each(f);
        }
        CallClosure { func, args } => {
            f(func);
            args.iter().for_each(f);
        }
        BindMethod { recv, .. } => f(recv),
        And(a, b) | Or(a, b) => {
            f(a);
            f(b);
        }
        Ternary { cond, then, els } => {
            f(cond);
            f(then);
            f(els);
        }
        Let { value, body, .. } => {
            f(value);
            f(body);
        }
    }
}

/// Applies `f` to every expression in the body, bottom-up, replacing each
/// expression with `f`'s result. `f` receives the expression with its
/// children already rewritten.
pub fn rewrite_exprs(body: &mut Body, f: &mut impl FnMut(Expr) -> Expr) {
    for s in &mut body.stmts {
        rewrite_stmt(s, f);
    }
}

fn rewrite_stmt(s: &mut Stmt, f: &mut impl FnMut(Expr) -> Expr) {
    match s {
        Stmt::Expr(e) => rewrite_expr(e, f),
        Stmt::Local(_, Some(e)) => rewrite_expr(e, f),
        Stmt::Local(_, None) => {}
        Stmt::If(c, t, e) => {
            rewrite_expr(c, f);
            for st in t {
                rewrite_stmt(st, f);
            }
            for st in e {
                rewrite_stmt(st, f);
            }
        }
        Stmt::While(c, b) => {
            rewrite_expr(c, f);
            for st in b {
                rewrite_stmt(st, f);
            }
        }
        Stmt::Return(Some(e)) => rewrite_expr(e, f),
        Stmt::Return(None) | Stmt::Break | Stmt::Continue => {}
        Stmt::Block(b) => {
            for st in b {
                rewrite_stmt(st, f);
            }
        }
    }
}

fn rewrite_expr(e: &mut Expr, f: &mut impl FnMut(Expr) -> Expr) {
    // Rewrite children first (bottom-up).
    for_each_child_mut(e, &mut |c| rewrite_expr(c, f));
    let old = std::mem::replace(
        e,
        Expr::new(ExprKind::Unit, e.ty),
    );
    *e = f(old);
}

/// Calls `f` on each direct child of `e`, mutably.
pub fn for_each_child_mut(e: &mut Expr, f: &mut impl FnMut(&mut Expr)) {
    use ExprKind::*;
    match &mut e.kind {
        Int(_) | Byte(_) | Bool(_) | Unit | Null | String(_) | Local(_) | Global(_)
        | OpClosure(_) | FuncRef { .. } | CtorRef { .. } | ArrayNewRef { .. }
        | BuiltinRef(_) | Trap(_) => {}
        LocalSet(_, v) | GlobalSet(_, v) => f(v),
        Tuple(es) | ArrayLit(es) => {
            for x in es {
                f(x);
            }
        }
        TupleIndex(b, _) | ArrayNew(b) | ArrayLen(b) => f(b),
        ArrayGet(a, i) => {
            f(a);
            f(i);
        }
        ArraySet(a, i, v) => {
            f(a);
            f(i);
            f(v);
        }
        FieldGet(o, _) => f(o),
        FieldSet(o, _, v) => {
            f(o);
            f(v);
        }
        New { args, .. } | CallStatic { args, .. } | CallBuiltin(_, args) | Apply(_, args) => {
            for x in args {
                f(x);
            }
        }
        CallVirtual { recv, args, .. } => {
            f(recv);
            for x in args {
                f(x);
            }
        }
        CallClosure { func, args } => {
            f(func);
            for x in args {
                f(x);
            }
        }
        BindMethod { recv, .. } => f(recv),
        And(a, b) | Or(a, b) => {
            f(a);
            f(b);
        }
        Ternary { cond, then, els } => {
            f(cond);
            f(then);
            f(els);
        }
        Let { value, body, .. } => {
            f(value);
            f(body);
        }
    }
}

/// Substitutes type variables throughout a body: every expression type,
/// every embedded type argument list, and every operator type. This is the
/// heart of monomorphization (paper §4.3).
pub fn substitute_body(
    store: &mut TypeStore,
    body: &mut Body,
    subst: &HashMap<TypeVarId, Type>,
) {
    rewrite_exprs(body, &mut |mut e| {
        e.ty = store.substitute(e.ty, subst);
        substitute_kind(store, &mut e.kind, subst);
        e
    });
}

fn substitute_kind(
    store: &mut TypeStore,
    kind: &mut ExprKind,
    subst: &HashMap<TypeVarId, Type>,
) {
    use ExprKind::*;
    let sub_list = |store: &mut TypeStore, ts: &mut Vec<Type>| {
        for t in ts {
            *t = store.substitute(*t, subst);
        }
    };
    match kind {
        New { type_args, .. }
        | CallStatic { type_args, .. }
        | CallVirtual { type_args, .. }
        | BindMethod { type_args, .. }
        | FuncRef { type_args, .. }
        | CtorRef { type_args, .. } => sub_list(store, type_args),
        ArrayNewRef { elem } => *elem = store.substitute(*elem, subst),
        Apply(op, _) | OpClosure(op) => substitute_oper(store, op, subst),
        _ => {}
    }
}

/// Substitutes the types embedded in an operator.
pub fn substitute_oper(
    store: &mut TypeStore,
    op: &mut Oper,
    subst: &HashMap<TypeVarId, Type>,
) {
    match op {
        Oper::Eq(t) | Oper::Ne(t) => *t = store.substitute(*t, subst),
        Oper::Cast { from, to } | Oper::Query { from, to } => {
            *from = store.substitute(*from, subst);
            *to = store.substitute(*to, subst);
        }
        _ => {}
    }
}

/// Counts every expression node in a body (code-size metric for the
/// monomorphization expansion experiment, E4).
pub fn count_exprs(body: &Body) -> usize {
    let mut n = 0;
    for_each_expr(body, &mut |_| n += 1);
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::Builtin;
    use crate::module::LocalId;

    fn int_expr(store: &TypeStore, v: i32) -> Expr {
        Expr::new(ExprKind::Int(v), store.int)
    }

    #[test]
    fn count_and_walk() {
        let store = TypeStore::new();
        let body = Body {
            stmts: vec![Stmt::Expr(Expr::new(
                ExprKind::Apply(
                    Oper::IntAdd,
                    vec![int_expr(&store, 1), int_expr(&store, 2)],
                ),
                store.int,
            ))],
        };
        assert_eq!(count_exprs(&body), 3);
    }

    #[test]
    fn rewrite_bottom_up() {
        let store = TypeStore::new();
        let mut body = Body {
            stmts: vec![Stmt::Expr(Expr::new(
                ExprKind::Apply(
                    Oper::IntAdd,
                    vec![int_expr(&store, 1), int_expr(&store, 2)],
                ),
                store.int,
            ))],
        };
        // Constant-fold adds of two Int literals.
        rewrite_exprs(&mut body, &mut |e| match &e.kind {
            ExprKind::Apply(Oper::IntAdd, args) => {
                if let (ExprKind::Int(a), ExprKind::Int(b)) = (&args[0].kind, &args[1].kind) {
                    Expr::new(ExprKind::Int(a + b), e.ty)
                } else {
                    e
                }
            }
            _ => e,
        });
        match &body.stmts[0] {
            Stmt::Expr(e) => assert!(matches!(e.kind, ExprKind::Int(3))),
            _ => panic!("expected expr stmt"),
        }
    }

    #[test]
    fn substitute_types_in_body() {
        let mut store = TypeStore::new();
        let v = TypeVarId(0);
        let tv = store.var(v);
        let mut body = Body {
            stmts: vec![Stmt::Local(
                LocalId(0),
                Some(Expr::new(
                    ExprKind::Apply(Oper::Eq(tv), vec![]),
                    store.bool_,
                )),
            )],
        };
        let mut subst = HashMap::new();
        subst.insert(v, store.int);
        substitute_body(&mut store, &mut body, &subst);
        match &body.stmts[0] {
            Stmt::Local(_, Some(e)) => match e.kind {
                ExprKind::Apply(Oper::Eq(t), _) => assert_eq!(t, store.int),
                _ => panic!("expected eq"),
            },
            _ => panic!("expected local"),
        }
    }

    #[test]
    fn walk_covers_control_flow() {
        let store = TypeStore::new();
        let cond = Expr::new(ExprKind::Bool(true), store.bool_);
        let body = Body {
            stmts: vec![
                Stmt::If(
                    cond.clone(),
                    vec![Stmt::Expr(int_expr(&store, 1))],
                    vec![Stmt::Expr(int_expr(&store, 2))],
                ),
                Stmt::While(cond, vec![Stmt::Expr(int_expr(&store, 3))]),
                Stmt::Return(Some(int_expr(&store, 4))),
                Stmt::Block(vec![Stmt::Expr(Expr::new(
                    ExprKind::CallBuiltin(Builtin::Ln, vec![]),
                    store.void,
                ))]),
            ],
        };
        assert_eq!(count_exprs(&body), 7);
    }
}
