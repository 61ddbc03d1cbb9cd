//! The main expression checker: literals, operators, calls with
//! type-argument inference, and the tuple/argument duality.

use crate::analyzer::Analyzer;
use crate::expr::{BodyCx, Head, MemberKind};
use std::collections::HashMap;
use vgl_ir::{Expr as IrExpr, ExprKind as Ir, LocalId, MethodId, MethodKind, Oper};
use vgl_syntax::ast::{self, BinOp};
use vgl_syntax::span::Span;
use vgl_types::{ClassId, InferCtx, Type, TypeKind, TypeVarId};

impl Analyzer<'_> {
    /// Checks an expression against an optional expected type (a *hint*: the
    /// caller still verifies subtyping where it matters).
    pub(crate) fn check_expr(
        &mut self,
        cx: &mut BodyCx,
        e: &ast::Expr,
        expect: Option<Type>,
    ) -> Option<IrExpr> {
        match &e.kind {
            ast::ExprKind::IntLit(v) => {
                let Ok(v32) = i32::try_from(*v) else {
                    // Allow literals like 0xFFFFFFFF to mean their bit pattern.
                    if *v >= 0 && *v <= u32::MAX as i64 {
                        let int = self.module.store.int;
                        return Some(IrExpr::new(Ir::Int(*v as u32 as i32), int));
                    }
                    self.error(e.span, "integer literal out of range for int");
                    return None;
                };
                let int = self.module.store.int;
                Some(IrExpr::new(Ir::Int(v32), int))
            }
            ast::ExprKind::ByteLit(b) => {
                let byte = self.module.store.byte;
                Some(IrExpr::new(Ir::Byte(*b), byte))
            }
            ast::ExprKind::BoolLit(b) => {
                let bool_ = self.module.store.bool_;
                Some(IrExpr::new(Ir::Bool(*b), bool_))
            }
            ast::ExprKind::NullLit => {
                // Prefer the expected type when it is nullable.
                if let Some(t) = expect {
                    if self.module.store.is_nullable(t) {
                        return Some(IrExpr::new(Ir::Null, t));
                    }
                }
                let null = self.module.store.null;
                Some(IrExpr::new(Ir::Null, null))
            }
            ast::ExprKind::StringLit(bytes) => {
                let string = self.module.store.string;
                Some(IrExpr::new(Ir::String(bytes.clone()), string))
            }
            ast::ExprKind::Tuple(elems) => {
                if elems.is_empty() {
                    let void = self.module.store.void;
                    return Some(IrExpr::new(Ir::Unit, void));
                }
                let hints: Vec<Option<Type>> = match expect
                    .map(|t| self.module.store.kind(t).clone())
                {
                    Some(TypeKind::Tuple(ts)) if ts.len() == elems.len() => {
                        ts.into_iter().map(Some).collect()
                    }
                    _ => vec![None; elems.len()],
                };
                let mut parts = Vec::with_capacity(elems.len());
                let mut tys = Vec::with_capacity(elems.len());
                for (el, hint) in elems.iter().zip(hints) {
                    let p = self.check_expr(cx, el, hint)?;
                    tys.push(p.ty);
                    parts.push(p);
                }
                let ty = self.module.store.tuple(tys);
                Some(IrExpr::new(Ir::Tuple(parts), ty))
            }
            ast::ExprKind::ArrayLit(elems) => {
                let elem_hint = match expect.map(|t| self.module.store.kind(t).clone()) {
                    Some(TypeKind::Array(t)) => Some(t),
                    _ => None,
                };
                if elems.is_empty() && elem_hint.is_none() {
                    self.error(e.span, "cannot infer the element type of an empty array literal");
                    return None;
                }
                let mut parts = Vec::with_capacity(elems.len());
                let mut elem_ty = elem_hint;
                for el in elems {
                    let p = self.check_expr(cx, el, elem_ty)?;
                    elem_ty = Some(match elem_ty {
                        None => p.ty,
                        Some(t) => {
                            let Some(j) = self.join_types(t, p.ty) else {
                                let a = self.show(t);
                                let b = self.show(p.ty);
                                self.error(
                                    el.span,
                                    format!("array elements have incompatible types {a} and {b}"),
                                );
                                return None;
                            };
                            j
                        }
                    });
                    parts.push(p);
                }
                let ty = self.module.store.array(elem_ty.expect("nonempty or hinted"));
                Some(IrExpr::new(Ir::ArrayLit(parts), ty))
            }
            ast::ExprKind::Name { name, type_args } => {
                match self.resolve_head(cx, name, type_args, expect)? {
                    Head::Value(v) => Some(v),
                    Head::Type(_) | Head::ClassPartial(_) => {
                        let text = self.name(name.sym);
                        self.error(name.span, format!("type '{text}' used as a value"));
                        None
                    }
                    Head::System => {
                        self.error(name.span, "'System' used as a value");
                        None
                    }
                }
            }
            ast::ExprKind::Member { recv, member, type_args } => {
                let mk = self.resolve_member(cx, recv, member, type_args, e.span)?;
                self.member_value(cx, mk, expect, e.span)
            }
            ast::ExprKind::TupleIndex { recv, index } => {
                let r = self.check_expr(cx, recv, None)?;
                match self.module.store.kind(r.ty).clone() {
                    TypeKind::Tuple(ts) => {
                        let Some(&ty) = ts.get(*index as usize) else {
                            self.error(
                                e.span,
                                format!("tuple index {index} out of range for {}", self.show(r.ty)),
                            );
                            return None;
                        };
                        Some(IrExpr::new(Ir::TupleIndex(Box::new(r), *index), ty))
                    }
                    TypeKind::Error => Some(IrExpr::new(Ir::Unit, r.ty)),
                    _ if *index == 0 => {
                        // Degenerate rule: (T) == T, so `.0` of a non-tuple is
                        // the value itself (paper listing (c4)).
                        Some(r)
                    }
                    _ => {
                        let ts = self.show(r.ty);
                        self.error(e.span, format!("cannot index non-tuple type {ts}"));
                        None
                    }
                }
            }
            ast::ExprKind::Call { func, args } => self.check_call(cx, func, args, expect, e.span),
            ast::ExprKind::Index { recv, index } => {
                let r = self.check_expr(cx, recv, None)?;
                let int = self.module.store.int;
                let i = self.check_expr(cx, index, Some(int))?;
                if !self.require_subtype(i.ty, int, index.span) {
                    return None;
                }
                match self.module.store.kind(r.ty).clone() {
                    TypeKind::Array(elem) => {
                        Some(IrExpr::new(Ir::ArrayGet(Box::new(r), Box::new(i)), elem))
                    }
                    TypeKind::Error => Some(IrExpr::new(Ir::Unit, r.ty)),
                    _ => {
                        let ts = self.show(r.ty);
                        self.error(e.span, format!("cannot index non-array type {ts}"));
                        None
                    }
                }
            }
            ast::ExprKind::Not(x) => {
                let bool_ = self.module.store.bool_;
                let v = self.check_expr(cx, x, Some(bool_))?;
                if !self.require_subtype(v.ty, bool_, x.span) {
                    return None;
                }
                Some(IrExpr::new(Ir::Apply(Oper::BoolNot, vec![v]), bool_))
            }
            ast::ExprKind::Neg(x) => {
                let int = self.module.store.int;
                let v = self.check_expr(cx, x, Some(int))?;
                if !self.require_subtype(v.ty, int, x.span) {
                    return None;
                }
                Some(IrExpr::new(Ir::Apply(Oper::IntNeg, vec![v]), int))
            }
            ast::ExprKind::Binary { op, lhs, rhs } => self.check_binary(cx, *op, lhs, rhs, e.span),
            ast::ExprKind::And(a, b) => {
                let bool_ = self.module.store.bool_;
                let l = self.check_expr(cx, a, Some(bool_))?;
                let r = self.check_expr(cx, b, Some(bool_))?;
                if !self.require_subtype(l.ty, bool_, a.span)
                    || !self.require_subtype(r.ty, bool_, b.span)
                {
                    return None;
                }
                Some(IrExpr::new(Ir::And(Box::new(l), Box::new(r)), bool_))
            }
            ast::ExprKind::Or(a, b) => {
                let bool_ = self.module.store.bool_;
                let l = self.check_expr(cx, a, Some(bool_))?;
                let r = self.check_expr(cx, b, Some(bool_))?;
                if !self.require_subtype(l.ty, bool_, a.span)
                    || !self.require_subtype(r.ty, bool_, b.span)
                {
                    return None;
                }
                Some(IrExpr::new(Ir::Or(Box::new(l), Box::new(r)), bool_))
            }
            ast::ExprKind::Ternary { cond, then, els } => {
                let bool_ = self.module.store.bool_;
                let c = self.check_expr(cx, cond, Some(bool_))?;
                if !self.require_subtype(c.ty, bool_, cond.span) {
                    return None;
                }
                let t = self.check_expr(cx, then, expect)?;
                let f = self.check_expr(cx, els, expect.or(Some(t.ty)))?;
                let Some(ty) = self.join_types(t.ty, f.ty) else {
                    let a = self.show(t.ty);
                    let b = self.show(f.ty);
                    self.error(e.span, format!("branches have incompatible types {a} and {b}"));
                    return None;
                };
                Some(IrExpr::new(
                    Ir::Ternary { cond: Box::new(c), then: Box::new(t), els: Box::new(f) },
                    ty,
                ))
            }
            ast::ExprKind::Assign { target, value } => self.check_assign(cx, target, value, e.span),
            ast::ExprKind::Error => {
                // The parser already reported this node; give it the poisoned
                // error type so surrounding checks proceed without cascading.
                // It never reaches later pipeline stages: analysis with any
                // error diagnostic yields no module.
                let err = self.module.store.error;
                Some(IrExpr::new(Ir::Unit, err))
            }
        }
    }

    fn check_binary(
        &mut self,
        cx: &mut BodyCx,
        op: BinOp,
        lhs: &ast::Expr,
        rhs: &ast::Expr,
        span: Span,
    ) -> Option<IrExpr> {
        let int = self.module.store.int;
        let byte = self.module.store.byte;
        let bool_ = self.module.store.bool_;
        match op {
            BinOp::Add
            | BinOp::Sub
            | BinOp::Mul
            | BinOp::Div
            | BinOp::Mod
            | BinOp::BitAnd
            | BinOp::BitOr
            | BinOp::BitXor
            | BinOp::Shl
            | BinOp::Shr => {
                let l = self.check_expr(cx, lhs, Some(int))?;
                let r = self.check_expr(cx, rhs, Some(int))?;
                if !self.require_subtype(l.ty, int, lhs.span)
                    || !self.require_subtype(r.ty, int, rhs.span)
                {
                    return None;
                }
                let oper = match op {
                    BinOp::Add => Oper::IntAdd,
                    BinOp::Sub => Oper::IntSub,
                    BinOp::Mul => Oper::IntMul,
                    BinOp::Div => Oper::IntDiv,
                    BinOp::Mod => Oper::IntMod,
                    BinOp::BitAnd => Oper::IntAnd,
                    BinOp::BitOr => Oper::IntOr,
                    BinOp::BitXor => Oper::IntXor,
                    BinOp::Shl => Oper::IntShl,
                    BinOp::Shr => Oper::IntShr,
                    _ => unreachable!(),
                };
                Some(IrExpr::new(Ir::Apply(oper, vec![l, r]), int))
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let l = self.check_expr(cx, lhs, None)?;
                let r = self.check_expr(cx, rhs, Some(l.ty))?;
                let oper = if l.ty == byte && r.ty == byte {
                    match op {
                        BinOp::Lt => Oper::ByteLt,
                        BinOp::Le => Oper::ByteLe,
                        BinOp::Gt => Oper::ByteGt,
                        BinOp::Ge => Oper::ByteGe,
                        _ => unreachable!(),
                    }
                } else {
                    if !self.require_subtype(l.ty, int, lhs.span)
                        || !self.require_subtype(r.ty, int, rhs.span)
                    {
                        return None;
                    }
                    match op {
                        BinOp::Lt => Oper::IntLt,
                        BinOp::Le => Oper::IntLe,
                        BinOp::Gt => Oper::IntGt,
                        BinOp::Ge => Oper::IntGe,
                        _ => unreachable!(),
                    }
                };
                Some(IrExpr::new(Ir::Apply(oper, vec![l, r]), bool_))
            }
            BinOp::Eq | BinOp::Ne => {
                let l = self.check_expr(cx, lhs, None)?;
                let r = self.check_expr(cx, rhs, Some(l.ty))?;
                let Some(ty) = self.join_types(l.ty, r.ty) else {
                    let a = self.show(l.ty);
                    let b = self.show(r.ty);
                    self.error(span, format!("cannot compare unrelated types {a} and {b}"));
                    return None;
                };
                let oper = if op == BinOp::Eq { Oper::Eq(ty) } else { Oper::Ne(ty) };
                Some(IrExpr::new(Ir::Apply(oper, vec![l, r]), bool_))
            }
        }
    }

    fn check_assign(
        &mut self,
        cx: &mut BodyCx,
        target: &ast::Expr,
        value: &ast::Expr,
        span: Span,
    ) -> Option<IrExpr> {
        match &target.kind {
            ast::ExprKind::Name { name, type_args } if type_args.is_empty() => {
                let text = self.name(name.sym);
                if let Some(l) = cx.lookup(name.sym) {
                    let (ty, mutable) = {
                        let local = &cx.locals[l.index()];
                        (local.ty, local.mutable)
                    };
                    if !mutable {
                        self.error(name.span, format!("cannot assign to immutable '{text}'"));
                    }
                    let v = self.check_expr(cx, value, Some(ty))?;
                    if !self.require_subtype(v.ty, ty, value.span) {
                        return None;
                    }
                    return Some(IrExpr::new(Ir::LocalSet(l, Box::new(v)), ty));
                }
                // Implicit this-field?
                if let Some(c) = cx.class {
                    if cx.has_this && self.find_field(c, text).is_some() {
                        return self.assign_field_named(cx, None, text, name.span, value);
                    }
                }
                if let Some(&g) = self.component_globals.get(&name.sym) {
                    let (ty, mutable) = {
                        let global = self.module.global(g);
                        (global.ty, global.mutable)
                    };
                    if !mutable {
                        self.error(name.span, format!("cannot assign to immutable '{text}'"));
                    }
                    let v = self.check_expr(cx, value, Some(ty))?;
                    if !self.require_subtype(v.ty, ty, value.span) {
                        return None;
                    }
                    return Some(IrExpr::new(Ir::GlobalSet(g, Box::new(v)), ty));
                }
                self.error(name.span, format!("unknown variable '{text}'"));
                None
            }
            ast::ExprKind::Member { recv, member, type_args } if type_args.is_empty() => {
                let ast::MemberName::Ident(id) = member else {
                    self.error(span, "invalid assignment target");
                    return None;
                };
                self.assign_field_named(cx, Some(recv), self.name(id.sym), id.span, value)
            }
            ast::ExprKind::Index { recv, index } => {
                let r = self.check_expr(cx, recv, None)?;
                let int = self.module.store.int;
                let i = self.check_expr(cx, index, Some(int))?;
                if !self.require_subtype(i.ty, int, index.span) {
                    return None;
                }
                let TypeKind::Array(elem) = self.module.store.kind(r.ty).clone() else {
                    let ts = self.show(r.ty);
                    self.error(span, format!("cannot index non-array type {ts}"));
                    return None;
                };
                let v = self.check_expr(cx, value, Some(elem))?;
                if !self.require_subtype(v.ty, elem, value.span) {
                    return None;
                }
                Some(IrExpr::new(
                    Ir::ArraySet(Box::new(r), Box::new(i), Box::new(v)),
                    elem,
                ))
            }
            ast::ExprKind::Error => {
                // Already reported by the parser; still check the value side
                // so its own errors surface.
                let _ = self.check_expr(cx, value, None);
                let err = self.module.store.error;
                Some(IrExpr::new(Ir::Unit, err))
            }
            _ => {
                self.error(span, "invalid assignment target");
                None
            }
        }
    }

    fn assign_field_named(
        &mut self,
        cx: &mut BodyCx,
        recv: Option<&ast::Expr>,
        field_name: &str,
        name_span: Span,
        value: &ast::Expr,
    ) -> Option<IrExpr> {
        let obj = match recv {
            Some(r) => self.check_expr(cx, r, None)?,
            None => {
                let ty = cx.locals[0].ty;
                IrExpr::new(Ir::Local(LocalId(0)), ty)
            }
        };
        let TypeKind::Class(cid, _) = self.module.store.kind(obj.ty).clone() else {
            let ts = self.show(obj.ty);
            self.error(name_span, format!("type {ts} has no fields"));
            return None;
        };
        let Some((decl_class, ix)) = self.find_field(cid, field_name) else {
            self.error(name_span, format!("class has no field '{field_name}'"));
            return None;
        };
        let field = &self.module.class(decl_class).fields[ix];
        let (slot, fty, mutable) = (field.slot, field.ty, field.mutable);
        if !mutable {
            self.error(
                name_span,
                format!("cannot assign to immutable field '{field_name}' (declared with 'def')"),
            );
        }
        let ty = self.field_type_via(obj.ty, decl_class, fty);
        let v = self.check_expr(cx, value, Some(ty))?;
        if !self.require_subtype(v.ty, ty, value.span) {
            return None;
        }
        Some(IrExpr::new(
            Ir::FieldSet(
                Box::new(obj),
                vgl_ir::FieldRef { class: decl_class, slot },
                Box::new(v),
            ),
            ty,
        ))
    }

    pub(crate) fn field_type_via(&mut self, recv_ty: Type, decl_class: ClassId, field_ty: Type) -> Type {
        let sups = self.module.hier.supertypes(&mut self.module.store, recv_ty);
        for s in sups {
            if let TypeKind::Class(c, args) = self.module.store.kind(s).clone() {
                if c == decl_class {
                    let params = self.module.class(c).type_params.clone();
                    let subst: HashMap<_, _> = params.into_iter().zip(args).collect();
                    return self.module.store.substitute(field_ty, &subst);
                }
            }
        }
        field_ty
    }

    // ---- calls ------------------------------------------------------------------

    pub(crate) fn check_call(
        &mut self,
        cx: &mut BodyCx,
        func: &ast::Expr,
        args: &[ast::Expr],
        expect: Option<Type>,
        span: Span,
    ) -> Option<IrExpr> {
        // Resolve the callee without committing to a value form, so that
        // method calls can infer type arguments from the actual arguments.
        match &func.kind {
            ast::ExprKind::Name { name, type_args } => {
                match self.resolve_head_for_call(cx, name, type_args)? {
                    CallHead::Member(mk) => self.call_member(cx, mk, args, expect, span),
                    CallHead::Value(v) => self.call_value(cx, v, args, span),
                }
            }
            ast::ExprKind::Member { recv, member, type_args } => {
                let mk = self.resolve_member(cx, recv, member, type_args, span)?;
                self.call_member(cx, mk, args, expect, span)
            }
            _ => {
                let v = self.check_expr(cx, func, None)?;
                self.call_value(cx, v, args, span)
            }
        }
    }

    fn resolve_head_for_call(
        &mut self,
        cx: &mut BodyCx,
        name: &ast::Ident,
        type_args: &[ast::TypeExpr],
    ) -> Option<CallHead> {
        // Component/class methods keep their "method" nature so the call can
        // infer type arguments; everything else becomes a value.
        let text = self.name(name.sym);
        if cx.lookup(name.sym).is_none() {
            // Implicit this-method?
            if let Some(c) = cx.class {
                if cx.has_this
                    && self.find_field(c, text).is_none()
                    && !cx.tscope.vars.contains_key(&name.sym)
                {
                    if let Some(m) = self.module.class_method_by_name(c, text) {
                        let explicit = if type_args.is_empty() {
                            None
                        } else {
                            Some(self.resolve_type_args_pub(type_args, &cx.tscope)?)
                        };
                        let recv = {
                            let ty = cx.locals[0].ty;
                            IrExpr::new(Ir::Local(LocalId(0)), ty)
                        };
                        let class_args = self
                            .module
                            .class(c)
                            .type_params
                            .clone()
                            .into_iter()
                            .map(|v| self.module.store.var(v))
                            .collect();
                        return Some(CallHead::Member(MemberKind::ObjMethod {
                            recv,
                            method: m,
                            class_args,
                            explicit,
                        }));
                    }
                }
            }
            if !self.component_globals.contains_key(&name.sym)
                && !cx.tscope.vars.contains_key(&name.sym)
            {
                if let Some(&m) = self.component_methods.get(&name.sym) {
                    let explicit = if type_args.is_empty() {
                        None
                    } else {
                        Some(self.resolve_type_args_pub(type_args, &cx.tscope)?)
                    };
                    return Some(CallHead::Member(MemberKind::StaticMethod {
                        method: m,
                        class_args: Some(vec![]),
                        explicit,
                    }));
                }
            }
        }
        match self.resolve_head(cx, name, type_args, None)? {
            Head::Value(v) => Some(CallHead::Value(v)),
            Head::Type(_) | Head::ClassPartial(_) => {
                self.error(name.span, format!("type '{text}' cannot be called"));
                None
            }
            Head::System => {
                self.error(name.span, "'System' cannot be called");
                None
            }
        }
    }

    pub(crate) fn resolve_type_args_pub(
        &mut self,
        args: &[ast::TypeExpr],
        scope: &crate::resolve::TypeScope,
    ) -> Option<Vec<Type>> {
        let mut out = Vec::with_capacity(args.len());
        for a in args {
            out.push(self.resolve_type(a, scope)?);
        }
        Some(out)
    }

    fn call_member(
        &mut self,
        cx: &mut BodyCx,
        mk: MemberKind,
        args: &[ast::Expr],
        expect: Option<Type>,
        span: Span,
    ) -> Option<IrExpr> {
        match mk {
            MemberKind::ObjMethod { recv, method, class_args, explicit } => self.call_method(
                cx,
                method,
                CallForm::Instance { recv },
                Some(class_args),
                explicit,
                args,
                expect,
                span,
            ),
            MemberKind::StaticMethod { method, class_args, explicit } => self.call_method(
                cx,
                method,
                CallForm::Unbound,
                class_args,
                explicit,
                args,
                expect,
                span,
            ),
            MemberKind::Ctor { class, class_args } => {
                self.call_ctor(cx, class, class_args, args, expect, span)
            }
            MemberKind::ArrayNew { elem } => {
                if args.len() != 1 {
                    self.error(span, "Array.new takes exactly one length argument");
                    return None;
                }
                let int = self.module.store.int;
                let n = self.check_expr(cx, &args[0], Some(int))?;
                if !self.require_subtype(n.ty, int, args[0].span) {
                    return None;
                }
                let ty = self.module.store.array(elem);
                Some(IrExpr::new(Ir::ArrayNew(Box::new(n)), ty))
            }
            MemberKind::Op(op) => self.call_oper(cx, op, args, span),
            MemberKind::CastOrQuery { to, from, query } => {
                // Called form: the source type comes from the argument.
                if args.len() != 1 {
                    self.error(span, "casts and queries take exactly one argument");
                    return None;
                }
                let v = self.check_expr(cx, &args[0], None)?;
                let from = from.unwrap_or(v.ty);
                self.check_cast_legal_pub(from, to, span)?;
                let op = if query {
                    Oper::Query { from, to }
                } else {
                    Oper::Cast { from, to }
                };
                let ty = if query { self.module.store.bool_ } else { to };
                Some(IrExpr::new(Ir::Apply(op, vec![v]), ty))
            }
            MemberKind::Builtin(b) => {
                let (params, ret) = self.builtin_sig_pub(b);
                if args.len() != params.len() {
                    self.error(
                        span,
                        format!("intrinsic expects {} argument(s), found {}", params.len(), args.len()),
                    );
                    return None;
                }
                let mut irs = Vec::with_capacity(args.len());
                for (a, &p) in args.iter().zip(params.iter()) {
                    let v = self.check_expr(cx, a, Some(p))?;
                    if !self.require_subtype(v.ty, p, a.span) {
                        return None;
                    }
                    irs.push(v);
                }
                Some(IrExpr::new(Ir::CallBuiltin(b, irs), ret))
            }
            // Calling a field or array length that holds a function value.
            MemberKind::FieldAcc { .. } | MemberKind::ArrayLen { .. } => {
                let v = self.member_value(cx, mk, None, span)?;
                self.call_value(cx, v, args, span)
            }
        }
    }

    fn call_oper(
        &mut self,
        cx: &mut BodyCx,
        op: Oper,
        args: &[ast::Expr],
        span: Span,
    ) -> Option<IrExpr> {
        let fty = self.oper_type(op);
        let TypeKind::Function(p, r) = self.module.store.kind(fty).clone() else {
            unreachable!("operators have function type");
        };
        let (irs, pre) = self.check_args_against(cx, args, p, span)?;
        let call = IrExpr::new(Ir::Apply(op, irs), r);
        Some(self.wrap_pre(cx, pre, call))
    }

    pub(crate) fn check_cast_legal_pub(&mut self, from: Type, to: Type, span: Span) -> Option<()> {
        match vgl_types::cast_relation(&mut self.module.store, &self.module.hier, from, to) {
            vgl_types::CastRelation::Unrelated => {
                let f = self.show(from);
                let t = self.show(to);
                self.error(span, format!("cast/query between unrelated types {f} and {t}"));
                None
            }
            _ => Some(()),
        }
    }

    pub(crate) fn builtin_sig_pub(&mut self, b: vgl_ir::Builtin) -> (Vec<Type>, Type) {
        let s = &mut self.module.store;
        match b {
            vgl_ir::Builtin::Puts | vgl_ir::Builtin::Error => (vec![s.string], s.void),
            vgl_ir::Builtin::Puti => (vec![s.int], s.void),
            vgl_ir::Builtin::Putb => (vec![s.bool_], s.void),
            vgl_ir::Builtin::Putc => (vec![s.byte], s.void),
            vgl_ir::Builtin::Ln => (vec![], s.void),
            vgl_ir::Builtin::Ticks => (vec![], s.int),
        }
    }

    /// Checks written arguments against a single parameter type, applying the
    /// tuple/argument duality: n written args match a width-n tuple parameter.
    /// Returns the argument expressions in *parameter-list* form (one per
    /// tuple element when the width matches, etc.).
    fn check_args_against(
        &mut self,
        cx: &mut BodyCx,
        args: &[ast::Expr],
        param: Type,
        span: Span,
    ) -> Option<(Vec<IrExpr>, Option<IrExpr>)> {
        let ptys: Vec<Type> = match self.module.store.kind(param).clone() {
            TypeKind::Tuple(ts) => ts,
            TypeKind::Void => vec![],
            _ => vec![param],
        };
        if args.len() == ptys.len() {
            let mut out = Vec::with_capacity(args.len());
            for (a, &p) in args.iter().zip(ptys.iter()) {
                let v = self.check_expr(cx, a, Some(p))?;
                if !self.require_subtype(v.ty, p, a.span) {
                    return None;
                }
                out.push(v);
            }
            return Some((out, None));
        }
        if args.len() == 1 && ptys.len() != 1 {
            // One written argument that must *be* the whole tuple (p5).
            let v = self.check_expr(cx, &args[0], Some(param))?;
            if !self.require_subtype(v.ty, param, args[0].span) {
                return None;
            }
            return Some(self.spread_tuple(cx, v, &ptys));
        }
        self.error(
            span,
            format!("expected {} argument(s), found {}", ptys.len(), args.len()),
        );
        None
    }

    /// Splits a tuple-typed value into per-element expressions via a `Let`
    /// temp (evaluating the tuple exactly once). When the parameter list is
    /// empty (a `void` argument, listing (q8)) the value still must be
    /// evaluated for effect; it is returned as the `pre` expression and the
    /// caller wraps the call in a `Let` that discards it.
    pub(crate) fn spread_tuple(
        &mut self,
        cx: &mut BodyCx,
        v: IrExpr,
        ptys: &[Type],
    ) -> (Vec<IrExpr>, Option<IrExpr>) {
        if ptys.is_empty() {
            return (vec![], Some(v));
        }
        let tmp = cx.temp(v.ty);
        let mut out = Vec::with_capacity(ptys.len());
        for (i, &p) in ptys.iter().enumerate() {
            let read = IrExpr::new(
                Ir::TupleIndex(Box::new(IrExpr::new(Ir::Local(tmp), v.ty)), i as u32),
                p,
            );
            if i == 0 {
                // First element wraps the Let so the tuple is evaluated once.
                out.push(IrExpr::new(
                    Ir::Let { local: tmp, value: Box::new(v.clone()), body: Box::new(read) },
                    p,
                ));
            } else {
                out.push(read);
            }
        }
        (out, None)
    }

    /// Wraps `call` so that `pre` (a discarded argument value) is evaluated
    /// first.
    fn wrap_pre(&mut self, cx: &mut BodyCx, pre: Option<IrExpr>, call: IrExpr) -> IrExpr {
        match pre {
            None => call,
            Some(v) => {
                let tmp = cx.temp(v.ty);
                let ty = call.ty;
                IrExpr::new(
                    Ir::Let { local: tmp, value: Box::new(v), body: Box::new(call) },
                    ty,
                )
            }
        }
    }

    fn call_ctor(
        &mut self,
        cx: &mut BodyCx,
        class: ClassId,
        class_args: Option<Vec<Type>>,
        args: &[ast::Expr],
        _expect: Option<Type>,
        span: Span,
    ) -> Option<IrExpr> {
        if self.module.class(class).is_abstract {
            let name = self.module.class(class).name.clone();
            self.error(span, format!("class '{name}' has abstract methods and cannot be instantiated"));
            return None;
        }
        let ctor = self.module.class(class).ctor.expect("every class has a ctor");
        let class_params = self.module.class(class).type_params.clone();
        let m = self.module.method(ctor);
        let ptys: Vec<Type> = m.locals[1..m.param_count].iter().map(|l| l.ty).collect();

        let (final_args, pre, final_class_args) = match class_args {
            Some(ca) => {
                let subst: HashMap<_, _> =
                    class_params.iter().copied().zip(ca.iter().copied()).collect();
                let sub_ptys: Vec<Type> = ptys
                    .iter()
                    .map(|&t| self.module.store.substitute(t, &subst))
                    .collect();
                let (irs, pre) = self.check_args_list(cx, args, &sub_ptys, span)?;
                (irs, pre, ca)
            }
            None => {
                // Infer class args from the constructor arguments (d10').
                let (irs, pre, solved) =
                    self.infer_call(cx, &class_params, &ptys, args, None, None, span)?;
                (irs, pre, solved)
            }
        };
        let ty = self.module.store.class(class, final_class_args.clone());
        let call = IrExpr::new(
            Ir::New { class, type_args: final_class_args, args: final_args },
            ty,
        );
        Some(self.wrap_pre(cx, pre, call))
    }

    /// Checks written arguments against a method's *parameter list* (which,
    /// unlike a bare function type, distinguishes `(a: int, b: int)` from
    /// `(a: (int, int))`). Adapts between the written arity and the list:
    /// gathers n args into one tuple parameter, or spreads one tuple argument
    /// across k parameters.
    fn check_args_list(
        &mut self,
        cx: &mut BodyCx,
        args: &[ast::Expr],
        ptys: &[Type],
        span: Span,
    ) -> Option<(Vec<IrExpr>, Option<IrExpr>)> {
        let k = ptys.len();
        if args.len() == k {
            let mut out = Vec::with_capacity(k);
            for (a, &p) in args.iter().zip(ptys.iter()) {
                let v = self.check_expr(cx, a, Some(p))?;
                if !self.require_subtype(v.ty, p, a.span) {
                    return None;
                }
                out.push(v);
            }
            return Some((out, None));
        }
        if k == 1 {
            // Gather: the written arguments form the single (tuple or void)
            // parameter.
            let p = ptys[0];
            let elem_hints: Vec<Option<Type>> =
                match self.module.store.kind(p).clone() {
                    TypeKind::Tuple(ts) if ts.len() == args.len() => {
                        ts.into_iter().map(Some).collect()
                    }
                    TypeKind::Void if args.is_empty() => vec![],
                    _ => vec![None; args.len()],
                };
            let mut parts = Vec::with_capacity(args.len());
            let mut tys = Vec::with_capacity(args.len());
            for (a, hint) in args.iter().zip(elem_hints) {
                let v = self.check_expr(cx, a, hint)?;
                tys.push(v.ty);
                parts.push(v);
            }
            let whole_ty = self.module.store.tuple(tys);
            if !self.require_subtype(whole_ty, p, span) {
                return None;
            }
            let whole = if parts.is_empty() {
                IrExpr::new(Ir::Unit, whole_ty)
            } else if parts.len() == 1 {
                parts.pop().expect("one part")
            } else {
                IrExpr::new(Ir::Tuple(parts), whole_ty)
            };
            return Some((vec![whole], None));
        }
        if args.len() == 1 {
            // Spread: the single written argument provides all k parameters.
            let whole_ty = self.module.store.tuple(ptys.to_vec());
            let v = self.check_expr(cx, &args[0], Some(whole_ty))?;
            if !self.require_subtype(v.ty, whole_ty, args[0].span) {
                return None;
            }
            return Some(self.spread_tuple(cx, v, ptys));
        }
        self.error(
            span,
            format!("expected {} argument(s), found {}", k, args.len()),
        );
        None
    }

    /// Infers unknown type variables from call arguments, then checks them.
    /// Returns (args in parameter form, solutions in `unknown` order).
    #[allow(clippy::too_many_arguments)]
    fn infer_call(
        &mut self,
        cx: &mut BodyCx,
        unknown: &[TypeVarId],
        ptys: &[Type],
        args: &[ast::Expr],
        ret: Option<Type>,
        expect: Option<Type>,
        span: Span,
    ) -> Option<(Vec<IrExpr>, Option<IrExpr>, Vec<Type>)> {
        let mut ctx = InferCtx::new(unknown);
        // Shape-match the written arguments to the parameter list.
        enum Shape {
            Direct,
            Spread, // single written arg provides the whole parameter tuple
            Gather, // written args form the single tuple parameter
        }
        let shape = if args.len() == ptys.len() {
            Shape::Direct
        } else if ptys.len() == 1 {
            Shape::Gather
        } else if args.len() == 1 {
            Shape::Spread
        } else {
            self.error(
                span,
                format!("expected {} argument(s), found {}", ptys.len(), args.len()),
            );
            return None;
        };
        let mut irs: Vec<IrExpr> = Vec::new();
        match shape {
            Shape::Direct => {
                for (a, &p) in args.iter().zip(ptys.iter()) {
                    // Hint only when the parameter type is already concrete
                    // under the current partial solution.
                    let hinted = self.module.store.substitute(p, &ctx.bindings);
                    let hint = if self.module.store.is_polymorphic(hinted) {
                        None
                    } else {
                        Some(hinted)
                    };
                    let v = self.check_expr(cx, a, hint)?;
                    if !vgl_types::match_types(
                        &mut self.module.store,
                        &self.module.hier,
                        p,
                        v.ty,
                        &mut ctx,
                    ) {
                        let ps = self.show(p);
                        let vs = self.show(v.ty);
                        self.error(
                            a.span,
                            format!("argument type {vs} does not match parameter type {ps}"),
                        );
                        return None;
                    }
                    irs.push(v);
                }
            }
            Shape::Spread => {
                let whole = self.module.store.tuple(ptys.to_vec());
                let v = self.check_expr(cx, &args[0], None)?;
                if !vgl_types::match_types(
                    &mut self.module.store,
                    &self.module.hier,
                    whole,
                    v.ty,
                    &mut ctx,
                ) {
                    let ps = self.show(whole);
                    let vs = self.show(v.ty);
                    self.error(
                        args[0].span,
                        format!("argument type {vs} does not match parameter type {ps}"),
                    );
                    return None;
                }
                // Spreading happens below once types are final.
                irs.push(v);
            }
            Shape::Gather => {
                // Check each written argument (with elementwise hints when
                // the parameter is a known tuple), tuple them up, and match
                // the whole against the single parameter.
                let p = ptys[0];
                let hinted = self.module.store.substitute(p, &ctx.bindings);
                let elem_hints: Vec<Option<Type>> =
                    match self.module.store.kind(hinted).clone() {
                        TypeKind::Tuple(ts) if ts.len() == args.len() => ts
                            .into_iter()
                            .map(|t| {
                                if self.module.store.is_polymorphic(t) {
                                    None
                                } else {
                                    Some(t)
                                }
                            })
                            .collect(),
                        _ => vec![None; args.len()],
                    };
                let mut parts = Vec::with_capacity(args.len());
                let mut tys = Vec::with_capacity(args.len());
                for (a, hint) in args.iter().zip(elem_hints) {
                    let v = self.check_expr(cx, a, hint)?;
                    tys.push(v.ty);
                    parts.push(v);
                }
                let whole_ty = self.module.store.tuple(tys);
                if !vgl_types::match_types(
                    &mut self.module.store,
                    &self.module.hier,
                    p,
                    whole_ty,
                    &mut ctx,
                ) {
                    let ps = self.show(p);
                    let vs = self.show(whole_ty);
                    self.error(
                        span,
                        format!("argument type {vs} does not match parameter type {ps}"),
                    );
                    return None;
                }
                let whole = if parts.is_empty() {
                    IrExpr::new(Ir::Unit, whole_ty)
                } else if parts.len() == 1 {
                    parts.pop().expect("one part")
                } else {
                    IrExpr::new(Ir::Tuple(parts), whole_ty)
                };
                irs.push(whole);
            }
        }
        // Use the expected return type for anything still unknown.
        if let (Some(r), Some(e)) = (ret, expect) {
            if !ctx.is_complete() {
                let _ = vgl_types::match_types(
                    &mut self.module.store,
                    &self.module.hier,
                    r,
                    e,
                    &mut ctx,
                );
            }
        }
        if !ctx.is_complete() {
            self.error(
                span,
                "cannot infer type arguments for this call; supply them explicitly with <...>",
            );
            return None;
        }
        let solved: Vec<Type> = unknown
            .iter()
            .map(|v| ctx.get(*v).expect("complete"))
            .collect();
        // Final subtype checks under the full substitution.
        let subst: HashMap<_, _> = unknown.iter().copied().zip(solved.iter().copied()).collect();
        match shape {
            Shape::Direct => {
                for (i, &p) in ptys.iter().enumerate() {
                    let want = self.module.store.substitute(p, &subst);
                    let got = irs[i].ty;
                    if !self.require_subtype(got, want, args[i].span) {
                        return None;
                    }
                }
                Some((irs, None, solved))
            }
            Shape::Gather => {
                let want = self.module.store.substitute(ptys[0], &subst);
                let got = irs[0].ty;
                if !self.require_subtype(got, want, span) {
                    return None;
                }
                Some((irs, None, solved))
            }
            Shape::Spread => {
                let sub_ptys: Vec<Type> = ptys
                    .iter()
                    .map(|&p| self.module.store.substitute(p, &subst))
                    .collect();
                let whole = self.module.store.tuple(sub_ptys.clone());
                let v = irs.pop().expect("one arg");
                if !self.require_subtype(v.ty, whole, args[0].span) {
                    return None;
                }
                let (spread, pre) = self.spread_tuple(cx, v, &sub_ptys);
                Some((spread, pre, solved))
            }
        }
    }

    /// The central method-call checker.
    #[allow(clippy::too_many_arguments)]
    fn call_method(
        &mut self,
        cx: &mut BodyCx,
        method: MethodId,
        form: CallForm,
        class_args: Option<Vec<Type>>,
        explicit: Option<Vec<Type>>,
        args: &[ast::Expr],
        expect: Option<Type>,
        span: Span,
    ) -> Option<IrExpr> {
        let m = self.module.method(method);
        if m.kind == MethodKind::Ctor {
            self.error(span, "constructors are called through 'new'");
            return None;
        }
        let class_params: Vec<TypeVarId> = match m.owner {
            Some(c) => self.module.class(c).type_params.clone(),
            None => vec![],
        };
        let own_params = m.type_params.clone();
        if let Some(e) = &explicit {
            if e.len() != own_params.len() {
                self.error(
                    span,
                    format!(
                        "method '{}' expects {} type argument(s), found {}",
                        self.module.method(method).name,
                        own_params.len(),
                        e.len()
                    ),
                );
                return None;
            }
        }
        // Parameter types seen by the written arguments.
        let m = self.module.method(method);
        let skip_recv = matches!(form, CallForm::Instance { .. });
        let start = if m.owner.is_some() && skip_recv { 1 } else { 0 };
        let ptys: Vec<Type> = m.locals[start..m.param_count].iter().map(|l| l.ty).collect();
        let ret = m.ret;
        let is_private = m.is_private;
        let is_virtual = m.owner.is_some() && !is_private && m.vtable_index.is_some();

        // Known substitution.
        let mut known: HashMap<TypeVarId, Type> = HashMap::new();
        let mut unknown: Vec<TypeVarId> = Vec::new();
        match &class_args {
            Some(ca) => known.extend(class_params.iter().copied().zip(ca.iter().copied())),
            None => unknown.extend(class_params.iter().copied()),
        }
        match &explicit {
            Some(e) => known.extend(own_params.iter().copied().zip(e.iter().copied())),
            None => unknown.extend(own_params.iter().copied()),
        }
        let pre_ptys: Vec<Type> = ptys
            .iter()
            .map(|&t| self.module.store.substitute(t, &known))
            .collect();
        let pre_ret = self.module.store.substitute(ret, &known);

        let (final_args, pre, solved) = if unknown.is_empty() {
            let (irs, pre) = self.check_args_list(cx, args, &pre_ptys, span)?;
            (irs, pre, vec![])
        } else {
            self.infer_call(cx, &unknown, &pre_ptys, args, Some(pre_ret), expect, span)?
        };

        // Assemble the full type-argument vector in declaration order.
        let solved_map: HashMap<TypeVarId, Type> =
            unknown.iter().copied().zip(solved.iter().copied()).collect();
        let mut targs: Vec<Type> = Vec::new();
        for v in class_params.iter().chain(own_params.iter()) {
            let t = known
                .get(v)
                .copied()
                .or_else(|| solved_map.get(v).copied())
                .expect("all vars are known or solved");
            targs.push(t);
        }
        let full_subst: HashMap<TypeVarId, Type> = self
            .module
            .all_type_params(method)
            .into_iter()
            .zip(targs.iter().copied())
            .collect();
        let result_ty = self.module.store.substitute(ret, &full_subst);

        let call = match form {
            CallForm::Instance { recv } => {
                if is_virtual {
                    IrExpr::new(
                        Ir::CallVirtual {
                            method,
                            type_args: targs,
                            recv: Box::new(recv),
                            args: final_args,
                        },
                        result_ty,
                    )
                } else {
                    let mut all = vec![recv];
                    all.extend(final_args);
                    IrExpr::new(
                        Ir::CallStatic { method, type_args: targs, args: all },
                        result_ty,
                    )
                }
            }
            CallForm::Unbound => {
                // `A.m(a, ...)`: receiver is the first written argument; the
                // call still dispatches virtually on it.
                if self.module.method(method).owner.is_some() {
                    let mut it = final_args.into_iter();
                    let recv = it.next().expect("receiver argument present");
                    let rest: Vec<IrExpr> = it.collect();
                    if is_virtual {
                        IrExpr::new(
                            Ir::CallVirtual {
                                method,
                                type_args: targs,
                                recv: Box::new(recv),
                                args: rest,
                            },
                            result_ty,
                        )
                    } else {
                        let mut all = vec![recv];
                        all.extend(rest);
                        IrExpr::new(
                            Ir::CallStatic { method, type_args: targs, args: all },
                            result_ty,
                        )
                    }
                } else {
                    IrExpr::new(
                        Ir::CallStatic { method, type_args: targs, args: final_args },
                        result_ty,
                    )
                }
            }
        };
        Some(self.wrap_pre(cx, pre, call))
    }

    /// Calls a function-typed value.
    fn call_value(
        &mut self,
        cx: &mut BodyCx,
        f: IrExpr,
        args: &[ast::Expr],
        span: Span,
    ) -> Option<IrExpr> {
        if self.module.store.is_error(f.ty) {
            // The callee already failed; check the arguments for their own
            // errors but report nothing new.
            for a in args {
                let _ = self.check_expr(cx, a, None);
            }
            return Some(IrExpr::new(Ir::Unit, f.ty));
        }
        let TypeKind::Function(p, r) = self.module.store.kind(f.ty).clone() else {
            let ts = self.show(f.ty);
            self.error(span, format!("cannot call a value of non-function type {ts}"));
            return None;
        };
        let (irs, pre) = self.check_args_against(cx, args, p, span)?;
        let call = IrExpr::new(Ir::CallClosure { func: Box::new(f), args: irs }, r);
        Some(self.wrap_pre(cx, pre, call))
    }
}

enum CallForm {
    /// `a.m(...)` — receiver known separately.
    Instance { recv: IrExpr },
    /// `A.m(...)` or component `f(...)` — receiver (if any) among the args.
    Unbound,
}

enum CallHead {
    Member(MemberKind),
    Value(IrExpr),
}
