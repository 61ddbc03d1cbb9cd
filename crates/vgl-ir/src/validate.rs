//! IR invariant validation.
//!
//! Two invariants matter to the paper's compilation pipeline:
//!
//! * after **monomorphization** no type variable occurs anywhere (§4.3:
//!   "no type parameters appear in the program"), and
//! * after **normalization** no tuple type occurs anywhere (§4.2: "a normal
//!   form where tuples no longer appear").
//!
//! Each pass checks the invariant it establishes as a debug assertion
//! ([`assert_valid`]); the fuzz oracle and the test suite run the checkers
//! directly as properties.

use crate::body::{Expr, ExprKind, Oper};
use crate::module::Module;
use crate::visit::for_each_expr;

/// A violated invariant, with a human-readable location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which method (by name) the violation is in.
    pub location: String,
    /// What is wrong.
    pub message: String,
}

/// Panics with an internal-compiler-error report naming `what` when a
/// checker found violations.
pub fn assert_valid(what: &str, violations: &[Violation]) {
    assert!(
        violations.is_empty(),
        "internal compiler error: {what}:\n{}",
        violations
            .iter()
            .map(|v| format!("  {}: {}", v.location, v.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Checks that no type variables remain anywhere in the module.
pub fn check_monomorphic(module: &Module) -> Vec<Violation> {
    let mut out = Vec::new();
    let store = &module.store;
    let poly = |t| store.is_polymorphic(t);
    for (i, m) in module.methods.iter().enumerate() {
        let loc = format!("method {} (#{})", m.name, i);
        if !m.type_params.is_empty() {
            out.push(Violation {
                location: loc.clone(),
                message: "method still declares type parameters".into(),
            });
        }
        for l in &m.locals {
            if poly(l.ty) {
                out.push(Violation {
                    location: loc.clone(),
                    message: format!("local {} has polymorphic type", l.name),
                });
            }
        }
        if poly(m.ret) {
            out.push(Violation { location: loc.clone(), message: "polymorphic return type".into() });
        }
        if let Some(body) = &m.body {
            for_each_expr(body, &mut |e: &Expr| {
                if poly(e.ty) {
                    out.push(Violation {
                        location: loc.clone(),
                        message: "expression has polymorphic type".into(),
                    });
                }
                if let Some(ts) = embedded_type_args(e) {
                    if ts.iter().any(|&t| poly(t)) {
                        out.push(Violation {
                            location: loc.clone(),
                            message: "call site has polymorphic type arguments".into(),
                        });
                    }
                }
            });
        }
    }
    for c in &module.classes {
        if !c.type_params.is_empty() {
            out.push(Violation {
                location: format!("class {}", c.name),
                message: "class still declares type parameters".into(),
            });
        }
        for f in &c.fields {
            if poly(f.ty) {
                out.push(Violation {
                    location: format!("class {}", c.name),
                    message: format!("field {} has polymorphic type", f.name),
                });
            }
        }
    }
    for g in &module.globals {
        if poly(g.ty) {
            out.push(Violation {
                location: format!("global {}", g.name),
                message: "polymorphic global".into(),
            });
        }
    }
    out
}

/// Checks that no tuple types remain anywhere in the module (the §4.2
/// post-normalization invariant).
pub fn check_tuple_free(module: &Module) -> Vec<Violation> {
    let mut out = Vec::new();
    let store = &module.store;
    let has_tuple = |t| store.contains_tuple(t);
    for (i, m) in module.methods.iter().enumerate() {
        let loc = format!("method {} (#{})", m.name, i);
        for l in &m.locals {
            if has_tuple(l.ty) {
                out.push(Violation {
                    location: loc.clone(),
                    message: format!("local {} has tuple type", l.name),
                });
            }
        }
        if has_tuple(m.ret) {
            out.push(Violation { location: loc.clone(), message: "tuple return type".into() });
        }
        if let Some(body) = &m.body {
            for_each_expr(body, &mut |e: &Expr| {
                if has_tuple(e.ty) {
                    out.push(Violation {
                        location: loc.clone(),
                        message: "expression has tuple type".into(),
                    });
                }
                if matches!(e.kind, ExprKind::Tuple(_) | ExprKind::TupleIndex(..)) {
                    out.push(Violation {
                        location: loc.clone(),
                        message: "tuple construction/projection survives normalization".into(),
                    });
                }
            });
        }
    }
    for c in &module.classes {
        for f in &c.fields {
            if has_tuple(f.ty) {
                out.push(Violation {
                    location: format!("class {}", c.name),
                    message: format!("field {} has tuple type", f.name),
                });
            }
        }
    }
    for g in &module.globals {
        if has_tuple(g.ty) {
            out.push(Violation {
                location: format!("global {}", g.name),
                message: "tuple-typed global".into(),
            });
        }
    }
    out
}

/// Checks the post-normalization invariants (paper §4.2): no tuple types or
/// tuple operations anywhere, except the two *boundary* forms the native
/// calling convention lowers for free — `Return (v0, ..., vn)` (multi-value
/// return) and a tuple-typed local bound once to a call result and read only
/// through direct projections. Function types may still *describe* tuple
/// parameter lists (they are arity descriptors, not values).
pub fn check_normalized(module: &Module) -> Vec<Violation> {
    use crate::body::Stmt;
    let mut out = check_monomorphic(module);
    let store = &module.store;
    let shallow = |t| contains_tuple_shallow(store, t);
    for c in &module.classes {
        for f in &c.fields {
            if shallow(f.ty) {
                out.push(Violation {
                    location: format!("class {}", c.name),
                    message: format!("field {} keeps a tuple type after normalization", f.name),
                });
            }
        }
    }
    for g in &module.globals {
        if shallow(g.ty) {
            out.push(Violation {
                location: format!("global {}", g.name),
                message: "tuple-typed global after normalization".into(),
            });
        }
    }
    for (i, m) in module.methods.iter().enumerate() {
        let loc = format!("method {} (#{})", m.name, i);
        for l in &m.locals[..m.param_count] {
            if shallow(l.ty) {
                out.push(Violation {
                    location: loc.clone(),
                    message: format!("parameter {} keeps a tuple type", l.name),
                });
            }
        }
        // Non-parameter locals may be boundary call temps: tuple of scalars.
        for l in &m.locals[m.param_count..] {
            if let vgl_types::TypeKind::Tuple(es) = store.kind(l.ty) {
                if es.iter().any(|&e| shallow(e)) {
                    out.push(Violation {
                        location: loc.clone(),
                        message: format!("local {} has a nested tuple type", l.name),
                    });
                }
            } else if shallow(l.ty) {
                out.push(Violation {
                    location: loc.clone(),
                    message: format!("local {} keeps a tuple type", l.name),
                });
            }
        }
        let Some(body) = &m.body else { continue };
        fn walk_stmts(
            stmts: &[Stmt],
            store: &vgl_types::TypeStore,
            loc: &str,
            out: &mut Vec<Violation>,
        ) {
            for s in stmts {
                match s {
                    Stmt::Return(Some(e)) => {
                        // Boundary: Return(Tuple(scalars)) allowed.
                        if let ExprKind::Tuple(es) = &e.kind {
                            for x in es {
                                walk_expr(x, store, loc, out);
                            }
                        } else {
                            walk_expr(e, store, loc, out);
                        }
                    }
                    Stmt::Local(_, Some(e)) => {
                        // Boundary: a tuple-typed call init is allowed.
                        let is_call = matches!(
                            e.kind,
                            ExprKind::CallStatic { .. }
                                | ExprKind::CallVirtual { .. }
                                | ExprKind::CallClosure { .. }
                                | ExprKind::CallBuiltin(..)
                        );
                        if is_call {
                            crate::visit::for_each_child(e, &mut |c| {
                                walk_expr(c, store, loc, out)
                            });
                        } else {
                            walk_expr(e, store, loc, out);
                        }
                    }
                    Stmt::Local(_, None) | Stmt::Return(None) | Stmt::Break | Stmt::Continue => {}
                    Stmt::Expr(e) => walk_expr(e, store, loc, out),
                    Stmt::If(c, t, f2) => {
                        walk_expr(c, store, loc, out);
                        walk_stmts(t, store, loc, out);
                        walk_stmts(f2, store, loc, out);
                    }
                    Stmt::While(c, b) => {
                        walk_expr(c, store, loc, out);
                        walk_stmts(b, store, loc, out);
                    }
                    Stmt::Block(b) => walk_stmts(b, store, loc, out),
                }
            }
        }
        fn walk_expr(
            e: &Expr,
            store: &vgl_types::TypeStore,
            loc: &str,
            out: &mut Vec<Violation>,
        ) {
            match &e.kind {
                ExprKind::TupleIndex(b, _) => {
                    // Boundary: projecting a tuple-typed local is allowed.
                    if matches!(b.kind, ExprKind::Local(_)) {
                        return;
                    }
                    out.push(Violation {
                        location: loc.to_string(),
                        message: "non-boundary tuple projection after normalization".into(),
                    });
                }
                ExprKind::Tuple(_) => {
                    out.push(Violation {
                        location: loc.to_string(),
                        message: "tuple construction survives normalization".into(),
                    });
                }
                _ => {
                    if contains_tuple_shallow(store, e.ty) {
                        out.push(Violation {
                            location: loc.to_string(),
                            message: "expression keeps a tuple type after normalization".into(),
                        });
                    }
                    crate::visit::for_each_child(e, &mut |c| walk_expr(c, store, loc, out));
                }
            }
        }
        walk_stmts(&body.stmts, store, &loc, &mut out);
    }
    out
}

/// Like [`vgl_types::TypeStore::contains_tuple`] but treats function types as
/// opaque descriptors.
fn contains_tuple_shallow(store: &vgl_types::TypeStore, t: vgl_types::Type) -> bool {
    use vgl_types::TypeKind;
    match store.kind(t) {
        TypeKind::Tuple(_) => true,
        TypeKind::Array(e) => contains_tuple_shallow(store, *e),
        TypeKind::Function(..) => false,
        _ => false,
    }
}

/// The type-argument lists embedded in an expression, if any.
fn embedded_type_args(e: &Expr) -> Option<Vec<vgl_types::Type>> {
    use ExprKind::*;
    match &e.kind {
        New { type_args, .. }
        | CallStatic { type_args, .. }
        | CallVirtual { type_args, .. }
        | BindMethod { type_args, .. }
        | FuncRef { type_args, .. }
        | CtorRef { type_args, .. } => Some(type_args.clone()),
        ArrayNewRef { elem } => Some(vec![*elem]),
        Apply(op, _) | OpClosure(op) => match op {
            Oper::Eq(t) | Oper::Ne(t) => Some(vec![*t]),
            Oper::Cast { from, to } | Oper::Query { from, to } => Some(vec![*from, *to]),
            _ => None,
        },
        _ => None,
    }
}
