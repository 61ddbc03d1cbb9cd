//! Expression checking: AST expressions → typed IR, with bidirectional
//! best-effort type-argument inference.

use crate::analyzer::Analyzer;
use crate::resolve::TypeScope;
use std::collections::HashMap;
use vgl_ir::{
    Builtin, Expr as IrExpr, ExprKind as Ir, FieldRef, Local, LocalId, MethodId, Oper,
};
use vgl_syntax::ast::{self, MemberName, OpMember};
use vgl_syntax::span::Span;
use vgl_syntax::symbol::{sym, Symbol};
use vgl_types::{CastRelation, ClassId, InferCtx, Type, TypeKind};

/// Context for checking one body (a method, constructor, or initializer).
pub(crate) struct BodyCx {
    /// Owning class, if inside one.
    pub class: Option<ClassId>,
    /// Type parameters in scope.
    pub tscope: TypeScope,
    /// Local slots (written back to the method/global afterwards).
    pub locals: Vec<Local>,
    /// Name scopes, innermost last.
    pub scopes: Vec<HashMap<Symbol, LocalId>>,
    /// Nesting depth of loops (for break/continue).
    pub loop_depth: usize,
    /// Declared return type of the body.
    pub ret: Type,
    /// True if `this` (LocalId 0) exists.
    pub has_this: bool,
}

impl BodyCx {
    pub(crate) fn lookup(&self, name: Symbol) -> Option<LocalId> {
        self.scopes.iter().rev().find_map(|s| s.get(&name).copied())
    }

    /// Declares a local in the innermost scope; `text` is the name the IR
    /// keeps for it.
    pub(crate) fn declare(&mut self, name: Symbol, text: &str, ty: Type, mutable: bool) -> LocalId {
        let id = LocalId(self.locals.len() as u32);
        self.locals.push(Local { name: text.to_string(), ty, mutable });
        self.scopes.last_mut().expect("scope stack is never empty").insert(name, id);
        id
    }

    pub(crate) fn temp(&mut self, ty: Type) -> LocalId {
        let id = LocalId(self.locals.len() as u32);
        self.locals.push(Local { name: format!("$t{}", id.0), ty, mutable: true });
        id
    }
}

/// What a syntactic head (name or member chain prefix) denotes.
pub(crate) enum Head {
    /// An ordinary value.
    Value(IrExpr),
    /// A fully-applied type: primitive, `Array<T>`, class with args, or a
    /// type parameter.
    Type(Type),
    /// A generic class named without type arguments (to be inferred).
    ClassPartial(ClassId),
    /// The built-in `System` component.
    System,
}

/// What a member expression denotes, before choosing value/call form.
pub(crate) enum MemberKind {
    /// Object field access.
    FieldAcc {
        obj: IrExpr,
        fref: FieldRef,
        ty: Type,
        #[allow(dead_code)] // assignments re-resolve and check mutability
        mutable: bool,
    },
    /// Method of an object (`a.m`).
    ObjMethod {
        recv: IrExpr,
        method: MethodId,
        class_args: Vec<Type>,
        explicit: Option<Vec<Type>>,
    },
    /// Unbound method (`A.m`) or component method; receiver (if any) becomes
    /// the first parameter.
    StaticMethod {
        method: MethodId,
        class_args: Option<Vec<Type>>,
        explicit: Option<Vec<Type>>,
    },
    /// Constructor member (`A.new` / `A<int>.new`).
    Ctor {
        class: ClassId,
        class_args: Option<Vec<Type>>,
    },
    /// `Array<T>.new`.
    ArrayNew { elem: Type },
    /// `a.length`.
    ArrayLen { arr: IrExpr },
    /// An operator member with fully-known types.
    Op(Oper),
    /// A cast/query member whose *source* type is not yet known
    /// (`A.!` applied to an argument infers `from` from the argument).
    CastOrQuery {
        to: Type,
        from: Option<Type>,
        query: bool,
    },
    /// A `System` intrinsic.
    Builtin(Builtin),
}

impl Analyzer<'_> {
    // ---- small helpers -----------------------------------------------------

    pub(crate) fn join_types(&mut self, a: Type, b: Type) -> Option<Type> {
        if vgl_types::is_subtype(&mut self.module.store, &self.module.hier, a, b) {
            return Some(b);
        }
        if vgl_types::is_subtype(&mut self.module.store, &self.module.hier, b, a) {
            return Some(a);
        }
        // Walk a's supertype chain looking for a common class supertype.
        let sups = self
            .module
            .hier
            .supertypes(&mut self.module.store, a);
        sups.into_iter()
            .find(|&s| vgl_types::is_subtype(&mut self.module.store, &self.module.hier, b, s))
    }

    pub(crate) fn require_subtype(&mut self, got: Type, want: Type, span: Span) -> bool {
        if vgl_types::is_subtype(&mut self.module.store, &self.module.hier, got, want) {
            true
        } else {
            let g = self.show(got);
            let w = self.show(want);
            self.error(span, format!("type mismatch: expected {w}, found {g}"));
            false
        }
    }

    /// The external function type of a method under a substitution.
    fn method_func_type(
        &mut self,
        m: MethodId,
        subst: &HashMap<vgl_types::TypeVarId, Type>,
        include_receiver: bool,
    ) -> Type {
        let method = self.module.method(m);
        let start = if method.owner.is_some() && !include_receiver { 1 } else { 0 };
        let ptys: Vec<Type> = method.locals[start..method.param_count]
            .iter()
            .map(|l| l.ty)
            .collect();
        let ret = method.ret;
        let ptys: Vec<Type> = ptys
            .into_iter()
            .map(|t| self.module.store.substitute(t, subst))
            .collect();
        let p = self.module.store.tuple(ptys);
        let r = self.module.store.substitute(ret, subst);
        self.module.store.function(p, r)
    }

    /// The function type of an operator value.
    pub(crate) fn oper_type(&mut self, op: Oper) -> Type {
        let s = &mut self.module.store;
        let (int, byte, bool_) = (s.int, s.byte, s.bool_);
        match op {
            Oper::IntAdd
            | Oper::IntSub
            | Oper::IntMul
            | Oper::IntDiv
            | Oper::IntMod
            | Oper::IntAnd
            | Oper::IntOr
            | Oper::IntXor
            | Oper::IntShl
            | Oper::IntShr => {
                let p = s.tuple(vec![int, int]);
                s.function(p, int)
            }
            Oper::IntLt | Oper::IntLe | Oper::IntGt | Oper::IntGe => {
                let p = s.tuple(vec![int, int]);
                s.function(p, bool_)
            }
            Oper::IntNeg => s.function(int, int),
            Oper::ByteLt | Oper::ByteLe | Oper::ByteGt | Oper::ByteGe => {
                let p = s.tuple(vec![byte, byte]);
                s.function(p, bool_)
            }
            Oper::BoolNot => s.function(bool_, bool_),
            Oper::Eq(t) | Oper::Ne(t) => {
                let p = s.tuple(vec![t, t]);
                s.function(p, bool_)
            }
            Oper::Cast { from, to } => s.function(from, to),
            Oper::Query { from, .. } => s.function(from, bool_),
        }
    }

    fn builtin_sig(&mut self, b: Builtin) -> (Vec<Type>, Type) {
        let s = &mut self.module.store;
        match b {
            Builtin::Puts | Builtin::Error => (vec![s.string], s.void),
            Builtin::Puti => (vec![s.int], s.void),
            Builtin::Putb => (vec![s.bool_], s.void),
            Builtin::Putc => (vec![s.byte], s.void),
            Builtin::Ln => (vec![], s.void),
            Builtin::Ticks => (vec![], s.int),
        }
    }

    fn resolve_type_args(
        &mut self,
        args: &[ast::TypeExpr],
        scope: &TypeScope,
    ) -> Option<Vec<Type>> {
        let mut out = Vec::with_capacity(args.len());
        for a in args {
            out.push(self.resolve_type(a, scope)?);
        }
        Some(out)
    }

    // ---- head resolution ----------------------------------------------------

    pub(crate) fn resolve_head(
        &mut self,
        cx: &mut BodyCx,
        name: &ast::Ident,
        type_args: &[ast::TypeExpr],
        expect: Option<Type>,
    ) -> Option<Head> {
        let text = self.name(name.sym);
        // 1. Locals.
        if let Some(l) = cx.lookup(name.sym) {
            if !type_args.is_empty() {
                self.error(name.span, "type arguments are not valid on a local variable");
                return None;
            }
            let ty = cx.locals[l.index()].ty;
            return Some(Head::Value(IrExpr::new(Ir::Local(l), ty)));
        }
        // 2. Class members via implicit `this`.
        if let Some(c) = cx.class {
            if cx.has_this {
                if let Some((decl_class, ix)) = self.find_field(c, text) {
                    if !type_args.is_empty() {
                        self.error(name.span, "type arguments are not valid on a field");
                        return None;
                    }
                    let this = self.this_expr(cx);
                    return Some(Head::Value(self.field_get(this, decl_class, ix)));
                }
                if let Some(m) = self.module.class_method_by_name(c, text) {
                    let explicit = if type_args.is_empty() {
                        None
                    } else {
                        Some(self.resolve_type_args(type_args, &cx.tscope)?)
                    };
                    let recv = self.this_expr(cx);
                    let class_args = self.own_class_args(c);
                    let mk = MemberKind::ObjMethod { recv, method: m, class_args, explicit };
                    return Some(Head::Value(self.member_value(cx, mk, expect, name.span)?));
                }
            }
        }
        // 3. Type parameters.
        if let Some(&v) = cx.tscope.vars.get(&name.sym) {
            if !type_args.is_empty() {
                self.error(name.span, "type parameters take no type arguments");
                return None;
            }
            let t = self.module.store.var(v);
            return Some(Head::Type(t));
        }
        // 4. Classes.
        if let Some(&cid) = self.class_names.get(&name.sym) {
            let want = self.module.class(cid).type_params.len();
            if type_args.is_empty() && want > 0 {
                return Some(Head::ClassPartial(cid));
            }
            if type_args.len() != want {
                self.error(
                    name.span,
                    format!("class '{text}' expects {want} type argument(s)"),
                );
                return None;
            }
            let args = self.resolve_type_args(type_args, &cx.tscope)?;
            let t = self.module.store.class(cid, args);
            return Some(Head::Type(t));
        }
        // 5. Primitives & Array.
        match name.sym {
            sym::VOID | sym::BOOL | sym::BYTE | sym::INT | sym::STRING => {
                if !type_args.is_empty() {
                    self.error(name.span, "primitive types take no type arguments");
                    return None;
                }
                let t = match name.sym {
                    sym::VOID => self.module.store.void,
                    sym::BOOL => self.module.store.bool_,
                    sym::BYTE => self.module.store.byte,
                    sym::INT => self.module.store.int,
                    _ => self.module.store.string,
                };
                return Some(Head::Type(t));
            }
            sym::ARRAY => {
                if type_args.len() != 1 {
                    self.error(name.span, "Array takes exactly one type argument");
                    return None;
                }
                let elem = self.resolve_type(&type_args[0], &cx.tscope)?;
                let t = self.module.store.array(elem);
                return Some(Head::Type(t));
            }
            sym::SYSTEM => return Some(Head::System),
            _ => {}
        }
        // 6. Component globals.
        if let Some(&g) = self.component_globals.get(&name.sym) {
            if !type_args.is_empty() {
                self.error(name.span, "type arguments are not valid on a variable");
                return None;
            }
            if !self.global_ready[g.index()] {
                self.error(
                    name.span,
                    format!("variable '{text}' is used before its type is known"),
                );
                return None;
            }
            let ty = self.module.global(g).ty;
            return Some(Head::Value(IrExpr::new(Ir::Global(g), ty)));
        }
        // 7. Component methods.
        if let Some(&m) = self.component_methods.get(&name.sym) {
            let explicit = if type_args.is_empty() {
                None
            } else {
                Some(self.resolve_type_args(type_args, &cx.tscope)?)
            };
            let mk = MemberKind::StaticMethod { method: m, class_args: Some(vec![]), explicit };
            return Some(Head::Value(self.member_value(cx, mk, expect, name.span)?));
        }
        self.error(name.span, format!("unknown identifier '{text}'"));
        None
    }

    fn this_expr(&mut self, cx: &BodyCx) -> IrExpr {
        debug_assert!(cx.has_this);
        let ty = cx.locals[0].ty;
        IrExpr::new(Ir::Local(LocalId(0)), ty)
    }

    /// The identity type arguments of class `c` (its own vars).
    fn own_class_args(&mut self, c: ClassId) -> Vec<Type> {
        self.module
            .class(c)
            .type_params
            .clone()
            .into_iter()
            .map(|v| self.module.store.var(v))
            .collect()
    }

    fn field_get(&mut self, obj: IrExpr, decl_class: ClassId, own_ix: usize) -> IrExpr {
        let field = &self.module.class(decl_class).fields[own_ix];
        let (slot, fty) = (field.slot, field.ty);
        // Substitute the declaring class's vars with the receiver's args.
        let ty = self.field_type_at(obj.ty, decl_class, fty);
        IrExpr::new(
            Ir::FieldGet(Box::new(obj), FieldRef { class: decl_class, slot }),
            ty,
        )
    }

    /// The type of a field declared in `decl_class` when accessed through a
    /// receiver of static type `recv_ty`.
    fn field_type_at(&mut self, recv_ty: Type, decl_class: ClassId, field_ty: Type) -> Type {
        // Find decl_class in the receiver's supertype chain to get its args.
        let sups = self.module.hier.supertypes(&mut self.module.store, recv_ty);
        for s in sups {
            if let TypeKind::Class(c, args) = self.module.store.kind(s).clone() {
                if c == decl_class {
                    let params = self.module.class(c).type_params.clone();
                    let subst: HashMap<_, _> =
                        params.into_iter().zip(args).collect();
                    return self.module.store.substitute(field_ty, &subst);
                }
            }
        }
        field_ty
    }

    // ---- member resolution ---------------------------------------------------

    /// Resolves `recv.member<targs>` to a [`MemberKind`].
    pub(crate) fn resolve_member(
        &mut self,
        cx: &mut BodyCx,
        recv: &ast::Expr,
        member: &MemberName,
        type_args: &[ast::TypeExpr],
        span: Span,
    ) -> Option<MemberKind> {
        let head = match &recv.kind {
            ast::ExprKind::Name { name, type_args } => {
                self.resolve_head(cx, name, type_args, None)?
            }
            _ => Head::Value(self.check_expr(cx, recv, None)?),
        };
        let explicit = if type_args.is_empty() {
            None
        } else {
            Some(self.resolve_type_args(type_args, &cx.tscope)?)
        };
        match head {
            Head::System => {
                let MemberName::Ident(id) = member else {
                    self.error(span, "System has no such member");
                    return None;
                };
                let b = match self.name(id.sym) {
                    "puts" => Builtin::Puts,
                    "puti" => Builtin::Puti,
                    "putb" => Builtin::Putb,
                    "putc" => Builtin::Putc,
                    "ln" => Builtin::Ln,
                    "ticks" => Builtin::Ticks,
                    "error" => Builtin::Error,
                    other => {
                        self.error(id.span, format!("System has no member '{other}'"));
                        return None;
                    }
                };
                Some(MemberKind::Builtin(b))
            }
            Head::ClassPartial(cid) => match member {
                MemberName::New(_) => Some(MemberKind::Ctor { class: cid, class_args: None }),
                MemberName::Ident(id) => {
                    let text = self.name(id.sym);
                    let Some(m) = self.module.class_method_by_name(cid, text) else {
                        let class = &self.module.class(cid).name;
                        self.error(id.span, format!("class '{class}' has no method '{text}'"));
                        return None;
                    };
                    Some(MemberKind::StaticMethod { method: m, class_args: None, explicit })
                }
                MemberName::Op(op, sp) => {
                    self.error(*sp, format!(
                        "operator '{}' on generic class requires explicit type arguments",
                        op.symbol()
                    ));
                    None
                }
            },
            Head::Type(t) => self.type_member(cx, t, member, explicit, span),
            Head::Value(v) => self.value_member(cx, v, member, explicit, span),
        }
    }

    fn type_member(
        &mut self,
        _cx: &mut BodyCx,
        t: Type,
        member: &MemberName,
        explicit: Option<Vec<Type>>,
        span: Span,
    ) -> Option<MemberKind> {
        // Operator members available on every type.
        if let MemberName::Op(op, sp) = member {
            match op {
                OpMember::Eq => return Some(MemberKind::Op(Oper::Eq(t))),
                OpMember::Ne => return Some(MemberKind::Op(Oper::Ne(t))),
                OpMember::Cast => {
                    let from = explicit.as_ref().and_then(|e| e.first().copied());
                    if let Some(f) = from {
                        self.check_cast_legal(f, t, span)?;
                        return Some(MemberKind::Op(Oper::Cast { from: f, to: t }));
                    }
                    return Some(MemberKind::CastOrQuery { to: t, from: None, query: false });
                }
                OpMember::Query => {
                    let from = explicit.as_ref().and_then(|e| e.first().copied());
                    if let Some(f) = from {
                        self.check_cast_legal(f, t, span)?;
                        return Some(MemberKind::Op(Oper::Query { from: f, to: t }));
                    }
                    return Some(MemberKind::CastOrQuery { to: t, from: None, query: true });
                }
                _ => {
                    // Arithmetic operator members are specific to primitives.
                    let kind = self.module.store.kind(t).clone();
                    let oper = match (kind, op) {
                        (TypeKind::Int, OpMember::Add) => Some(Oper::IntAdd),
                        (TypeKind::Int, OpMember::Sub) => Some(Oper::IntSub),
                        (TypeKind::Int, OpMember::Mul) => Some(Oper::IntMul),
                        (TypeKind::Int, OpMember::Div) => Some(Oper::IntDiv),
                        (TypeKind::Int, OpMember::Mod) => Some(Oper::IntMod),
                        (TypeKind::Int, OpMember::Lt) => Some(Oper::IntLt),
                        (TypeKind::Int, OpMember::Le) => Some(Oper::IntLe),
                        (TypeKind::Int, OpMember::Gt) => Some(Oper::IntGt),
                        (TypeKind::Int, OpMember::Ge) => Some(Oper::IntGe),
                        (TypeKind::Int, OpMember::BitAnd) => Some(Oper::IntAnd),
                        (TypeKind::Int, OpMember::BitOr) => Some(Oper::IntOr),
                        (TypeKind::Int, OpMember::BitXor) => Some(Oper::IntXor),
                        (TypeKind::Int, OpMember::Shl) => Some(Oper::IntShl),
                        (TypeKind::Int, OpMember::Shr) => Some(Oper::IntShr),
                        (TypeKind::Byte, OpMember::Lt) => Some(Oper::ByteLt),
                        (TypeKind::Byte, OpMember::Le) => Some(Oper::ByteLe),
                        (TypeKind::Byte, OpMember::Gt) => Some(Oper::ByteGt),
                        (TypeKind::Byte, OpMember::Ge) => Some(Oper::ByteGe),
                        _ => None,
                    };
                    return match oper {
                        Some(o) => Some(MemberKind::Op(o)),
                        None => {
                            let ts = self.show(t);
                            self.error(
                                *sp,
                                format!("type {ts} has no operator member '{}'", op.symbol()),
                            );
                            None
                        }
                    };
                }
            }
        }
        match (self.module.store.kind(t).clone(), member) {
            (TypeKind::Class(cid, args), MemberName::New(_)) => {
                Some(MemberKind::Ctor { class: cid, class_args: Some(args) })
            }
            (TypeKind::Class(cid, args), MemberName::Ident(id)) => {
                let text = self.name(id.sym);
                let Some(m) = self.module.class_method_by_name(cid, text) else {
                    let class = &self.module.class(cid).name;
                    self.error(id.span, format!("class '{class}' has no method '{text}'"));
                    return None;
                };
                // Map args onto the *declaring* class.
                let class_args = self.class_args_for_decl(cid, &args, self.module.method(m).owner.expect("class method is owned"));
                Some(MemberKind::StaticMethod { method: m, class_args: Some(class_args), explicit })
            }
            (TypeKind::Array(elem), MemberName::New(_)) => Some(MemberKind::ArrayNew { elem }),
            (TypeKind::Error, _) => None,
            (_, m) => {
                let ts = self.show(t);
                self.error(span, format!("type {ts} has no member '{}'", m.text(self.names)));
                None
            }
        }
    }

    /// Given class type `C<args>` and a method declared in ancestor `decl`,
    /// computes the type arguments of `decl` implied by `args`.
    fn class_args_for_decl(&mut self, c: ClassId, args: &[Type], decl: ClassId) -> Vec<Type> {
        let start = self.module.store.class(c, args.to_vec());
        let sups = self.module.hier.supertypes(&mut self.module.store, start);
        for s in sups {
            if let TypeKind::Class(sc, sargs) = self.module.store.kind(s).clone() {
                if sc == decl {
                    return sargs;
                }
            }
        }
        args.to_vec()
    }

    fn value_member(
        &mut self,
        cx: &mut BodyCx,
        v: IrExpr,
        member: &MemberName,
        explicit: Option<Vec<Type>>,
        span: Span,
    ) -> Option<MemberKind> {
        if self.module.store.is_error(v.ty) {
            // The receiver already failed; don't pile a member error on top.
            return None;
        }
        match self.module.store.kind(v.ty).clone() {
            TypeKind::Array(_) => match member {
                MemberName::Ident(id) if id.sym == sym::LENGTH => {
                    Some(MemberKind::ArrayLen { arr: v })
                }
                m => {
                    self.error(span, format!("arrays have no member '{}'", m.text(self.names)));
                    None
                }
            },
            TypeKind::Class(cid, args) => match member {
                MemberName::Ident(id) => {
                    let text = self.name(id.sym);
                    if let Some((decl_class, ix)) = self.find_field(cid, text) {
                        let field = &self.module.class(decl_class).fields[ix];
                        let (slot, fty, mutable) = (field.slot, field.ty, field.mutable);
                        let ty = self.field_type_at(v.ty, decl_class, fty);
                        return Some(MemberKind::FieldAcc {
                            obj: v,
                            fref: FieldRef { class: decl_class, slot },
                            ty,
                            mutable,
                        });
                    }
                    if let Some(m) = self.module.class_method_by_name(cid, text) {
                        if self.module.method(m).is_private
                            && cx.class != self.module.method(m).owner
                        {
                            self.error(id.span, format!("method '{text}' is private"));
                            return None;
                        }
                        let decl = self.module.method(m).owner.expect("class method is owned");
                        let class_args = self.class_args_for_decl(cid, &args, decl);
                        return Some(MemberKind::ObjMethod {
                            recv: v,
                            method: m,
                            class_args,
                            explicit,
                        });
                    }
                    let class = &self.module.class(cid).name;
                    self.error(id.span, format!("class '{class}' has no member '{text}'"));
                    None
                }
                m => {
                    self.error(span, format!("objects have no member '{}'", m.text(self.names)));
                    None
                }
            },
            _ => {
                let ts = self.show(v.ty);
                let member = member.text(self.names);
                self.error(span, format!("value of type {ts} has no member '{member}'"));
                None
            }
        }
    }

    fn check_cast_legal(&mut self, from: Type, to: Type, span: Span) -> Option<()> {
        match vgl_types::cast_relation(&mut self.module.store, &self.module.hier, from, to) {
            CastRelation::Unrelated => {
                let f = self.show(from);
                let t = self.show(to);
                self.error(span, format!("cast/query between unrelated types {f} and {t}"));
                None
            }
            _ => Some(()),
        }
    }

    // ---- member as value -------------------------------------------------------

    /// Builds the first-class value form of a member.
    pub(crate) fn member_value(
        &mut self,
        cx: &mut BodyCx,
        mk: MemberKind,
        expect: Option<Type>,
        span: Span,
    ) -> Option<IrExpr> {
        match mk {
            MemberKind::FieldAcc { obj, fref, ty, .. } => {
                Some(IrExpr::new(Ir::FieldGet(Box::new(obj), fref), ty))
            }
            MemberKind::ArrayLen { arr } => {
                let int = self.module.store.int;
                Some(IrExpr::new(Ir::ArrayLen(Box::new(arr)), int))
            }
            MemberKind::Op(op) => {
                let ty = self.oper_type(op);
                Some(IrExpr::new(Ir::OpClosure(op), ty))
            }
            MemberKind::CastOrQuery { to, from, query } => {
                // As a value the source type must be known: `A.!<B>`.
                let Some(from) = from else {
                    self.error(
                        span,
                        "cast/query used as a value needs an explicit source type, e.g. A.!<B>",
                    );
                    return None;
                };
                let op = if query {
                    Oper::Query { from, to }
                } else {
                    Oper::Cast { from, to }
                };
                let ty = self.oper_type(op);
                Some(IrExpr::new(Ir::OpClosure(op), ty))
            }
            MemberKind::Builtin(b) => {
                let (params, ret) = self.builtin_sig(b);
                let p = self.module.store.tuple(params);
                let ty = self.module.store.function(p, ret);
                Some(IrExpr::new(Ir::BuiltinRef(b), ty))
            }
            MemberKind::ArrayNew { elem } => {
                let arr = self.module.store.array(elem);
                let int = self.module.store.int;
                let ty = self.module.store.function(int, arr);
                Some(IrExpr::new(Ir::ArrayNewRef { elem }, ty))
            }
            MemberKind::ObjMethod { recv, method, class_args, explicit } => {
                let targs = self.finish_method_targs(
                    cx, method, Some(class_args), explicit, expect, false, span,
                )?;
                let subst = self.subst_for(method, &targs);
                if self.module.method(method).kind == vgl_ir::MethodKind::Ctor {
                    self.error(span, "constructors cannot be bound as object methods");
                    return None;
                }
                let ty = self.method_func_type(method, &subst, false);
                Some(IrExpr::new(
                    Ir::BindMethod { method, type_args: targs, recv: Box::new(recv) },
                    ty,
                ))
            }
            MemberKind::StaticMethod { method, class_args, explicit } => {
                let targs = self.finish_method_targs(
                    cx, method, class_args, explicit, expect, true, span,
                )?;
                let subst = self.subst_for(method, &targs);
                let ty = self.method_func_type(method, &subst, true);
                Some(IrExpr::new(Ir::FuncRef { method, type_args: targs }, ty))
            }
            MemberKind::Ctor { class, class_args } => {
                let class_args = match class_args {
                    Some(a) => a,
                    None => self.infer_ctor_args_from_expect(cx, class, expect, span)?,
                };
                self.check_instantiable(class, span)?;
                let ctor = self.module.class(class).ctor.expect("every class has a ctor");
                let params = self.module.class(class).type_params.clone();
                let subst: HashMap<_, _> =
                    params.into_iter().zip(class_args.iter().copied()).collect();
                let m = self.module.method(ctor);
                let ptys: Vec<Type> = m.locals[1..m.param_count].iter().map(|l| l.ty).collect();
                let ptys: Vec<Type> = ptys
                    .into_iter()
                    .map(|t| self.module.store.substitute(t, &subst))
                    .collect();
                let p = self.module.store.tuple(ptys);
                let obj = self.module.store.class(class, class_args.clone());
                let ty = self.module.store.function(p, obj);
                Some(IrExpr::new(Ir::CtorRef { class, type_args: class_args }, ty))
            }
        }
    }

    fn check_instantiable(&mut self, class: ClassId, span: Span) -> Option<()> {
        if self.module.class(class).is_abstract {
            let name = self.module.class(class).name.clone();
            self.error(
                span,
                format!("class '{name}' has abstract methods and cannot be instantiated"),
            );
            return None;
        }
        Some(())
    }

    /// Builds the substitution for a method given its full type args.
    pub(crate) fn subst_for(
        &self,
        method: MethodId,
        targs: &[Type],
    ) -> HashMap<vgl_types::TypeVarId, Type> {
        let vars = self.module.all_type_params(method);
        vars.into_iter().zip(targs.iter().copied()).collect()
    }

    /// Determines the full type-argument list for a method reference used as
    /// a value (no call arguments to infer from): combines known class args,
    /// explicit args, and expected-type matching.
    #[allow(clippy::too_many_arguments)]
    fn finish_method_targs(
        &mut self,
        _cx: &mut BodyCx,
        method: MethodId,
        class_args: Option<Vec<Type>>,
        explicit: Option<Vec<Type>>,
        expect: Option<Type>,
        include_receiver: bool,
        span: Span,
    ) -> Option<Vec<Type>> {
        let class_params: Vec<_> = match self.module.method(method).owner {
            Some(c) => self.module.class(c).type_params.clone(),
            None => vec![],
        };
        let own_params = self.module.method(method).type_params.clone();
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
        let mut unknown: Vec<vgl_types::TypeVarId> = Vec::new();
        if class_args.is_none() {
            unknown.extend(class_params.iter().copied());
        }
        if explicit.is_none() {
            unknown.extend(own_params.iter().copied());
        }
        if unknown.is_empty() {
            let mut out = class_args.unwrap_or_default();
            out.extend(explicit.unwrap_or_default());
            return Some(out);
        }
        // Build the known part of the substitution, then match the function
        // type against the expected type.
        let mut known: HashMap<vgl_types::TypeVarId, Type> = HashMap::new();
        if let Some(ca) = &class_args {
            known.extend(class_params.iter().copied().zip(ca.iter().copied()));
        }
        if let Some(e) = &explicit {
            known.extend(own_params.iter().copied().zip(e.iter().copied()));
        }
        let Some(expect) = expect else {
            self.error(
                span,
                format!(
                    "cannot infer type arguments for '{}' here; supply them explicitly",
                    self.module.method(method).name
                ),
            );
            return None;
        };
        let fty = self.method_func_type(method, &known, include_receiver);
        let mut ctx = InferCtx::new(&unknown);
        let matched = vgl_types::match_types(
            &mut self.module.store,
            &self.module.hier,
            fty,
            expect,
            &mut ctx,
        );
        if !matched || !ctx.is_complete() {
            let name = self.module.method(method).name.clone();
            let es = self.show(expect);
            self.error(
                span,
                format!("cannot infer type arguments for '{name}' from expected type {es}"),
            );
            return None;
        }
        let mut out = Vec::new();
        for v in class_params {
            out.push(match known.get(&v) {
                Some(&t) => t,
                None => ctx.get(v).expect("solved"),
            });
        }
        for v in own_params {
            out.push(match known.get(&v) {
                Some(&t) => t,
                None => ctx.get(v).expect("solved"),
            });
        }
        Some(out)
    }

    fn infer_ctor_args_from_expect(
        &mut self,
        _cx: &mut BodyCx,
        class: ClassId,
        expect: Option<Type>,
        span: Span,
    ) -> Option<Vec<Type>> {
        let params = self.module.class(class).type_params.clone();
        if params.is_empty() {
            return Some(vec![]);
        }
        if let Some(e) = expect {
            if let TypeKind::Function(_, r) = self.module.store.kind(e).clone() {
                if let TypeKind::Class(c2, args) = self.module.store.kind(r).clone() {
                    if c2 == class {
                        return Some(args);
                    }
                }
            }
            if let TypeKind::Class(c2, args) = self.module.store.kind(e).clone() {
                if c2 == class {
                    return Some(args);
                }
            }
        }
        let name = self.module.class(class).name.clone();
        self.error(
            span,
            format!("cannot infer type arguments for '{name}.new' here; write {name}<...>.new"),
        );
        None
    }
}
