//! Statement and body checking, plus orchestration of all body checks
//! (global initializers, inferred field types, constructors, methods).

use crate::analyzer::Analyzer;
use crate::decls::{BodySource, PendingBody};
use crate::expr::BodyCx;
use crate::resolve::TypeScope;
use std::collections::HashMap;
use vgl_ir::{
    Body, Expr as IrExpr, ExprKind as Ir, FieldRef, LocalId, MethodId, Stmt as IrStmt,
};
use vgl_syntax::ast::{self, Decl, Member, StmtKind};
use vgl_types::{ClassId, Type};

impl Analyzer<'_> {
    /// Phase 5: all bodies.
    pub(crate) fn check_bodies(&mut self, program: &ast::Program) {
        self.infer_deferred_field_types(program);
        self.check_global_inits(program);
        for pending in self.pending.clone() {
            self.check_pending(program, pending);
        }
    }

    /// Fields declared without a type get it from their initializer, checked
    /// in a context with only the class's type parameters in scope.
    fn infer_deferred_field_types(&mut self, program: &ast::Program) {
        for cix in 0..self.module.classes.len() {
            let cid = ClassId(cix as u32);
            let dix = self.class_decl_index[cix];
            let Decl::Class(c) = &program.decls[dix] else { continue };
            let header_count = self.header_param_count[cix];
            let mut own_ix = header_count;
            for m in &c.members {
                let Member::Field(f) = m else { continue };
                if f.ty.is_none() {
                    if let Some(init) = &f.init {
                        let tscope = self.class_scope(cid);
                        let mut cx = BodyCx {
                            class: Some(cid),
                            tscope,
                            locals: Vec::new(),
                            scopes: vec![HashMap::new()],
                            loop_depth: 0,
                            ret: self.module.store.void,
                            has_this: false,
                        };
                        if let Some(v) = self.check_expr(&mut cx, init, None) {
                            if v.ty == self.module.store.null {
                                self.error(
                                    f.name.span,
                                    "cannot infer a field type from 'null'; annotate the field",
                                );
                            } else {
                                self.module.classes[cix].fields[own_ix].ty = v.ty;
                            }
                        }
                    }
                }
                own_ix += 1;
            }
            // Re-sync any constructor field-init parameter types that
            // referenced a deferred field type.
            if let Some(ctor) = self.module.class(cid).ctor {
                if let Some(info) = self.ctor_infos.get(&ctor).cloned() {
                    for (pix, slot) in info.field_init_params.iter().enumerate() {
                        if let Some(own) = slot {
                            let fty = self.module.class(cid).fields[*own].ty;
                            self.module.methods[ctor.index()].locals[pix + 1].ty = fty;
                        }
                    }
                }
            }
        }
    }

    fn check_global_inits(&mut self, program: &ast::Program) {
        for (g, dix) in self.global_sources.clone() {
            let Decl::Var(v) = &program.decls[dix] else { continue };
            let Some(init) = &v.init else {
                if !self.module.global(g).mutable {
                    self.error(v.name.span, "immutable component variables need an initializer");
                }
                self.global_ready[g.index()] = true;
                continue;
            };
            let declared = if self.global_ready[g.index()] {
                Some(self.module.global(g).ty)
            } else {
                None
            };
            let mut cx = BodyCx {
                class: None,
                tscope: TypeScope::new(),
                locals: Vec::new(),
                scopes: vec![HashMap::new()],
                loop_depth: 0,
                ret: self.module.store.void,
                has_this: false,
            };
            let Some(val) = self.check_expr(&mut cx, init, declared) else {
                self.global_ready[g.index()] = true; // avoid cascades
                continue;
            };
            match declared {
                Some(want) => {
                    self.require_subtype(val.ty, want, init.span);
                }
                None => {
                    if val.ty == self.module.store.null {
                        self.error(
                            v.name.span,
                            "cannot infer a variable type from 'null'; annotate the variable",
                        );
                    } else {
                        self.module.globals[g.index()].ty = val.ty;
                    }
                }
            }
            self.module.globals[g.index()].init = Some(val);
            self.module.globals[g.index()].locals = cx.locals;
            self.global_ready[g.index()] = true;
        }
    }

    fn check_pending(&mut self, program: &ast::Program, pending: PendingBody) {
        match pending.source {
            BodySource::Method { decl, member } => {
                let md = match member {
                    None => match &program.decls[decl] {
                        Decl::Method(m) => m,
                        _ => return,
                    },
                    Some(mix) => match &program.decls[decl] {
                        Decl::Class(c) => match &c.members[mix] {
                            Member::Method(m) => m,
                            _ => return,
                        },
                        _ => return,
                    },
                };
                self.check_method_body(pending.method, md);
            }
            BodySource::Ctor { decl, member } => {
                let Decl::Class(c) = &program.decls[decl] else { return };
                let ct = member.and_then(|mix| match &c.members[mix] {
                    Member::Ctor(ct) => Some(ct),
                    _ => None,
                });
                self.check_ctor_body(pending.method, c, ct);
            }
        }
    }

    fn body_cx(&mut self, method: MethodId) -> BodyCx {
        let m = self.module.method(method);
        let class = m.owner;
        let locals = m.locals.clone();
        let ret = m.ret;
        let mut tscope = match class {
            Some(c) => self.class_scope(c),
            None => TypeScope::new(),
        };
        tscope.vars.extend(&self.method_tparams[method.index()]);
        // Every parameter name, `this` included, is in the program's
        // interner: the parser put it there.
        let mut scope = HashMap::new();
        for (i, l) in locals.iter().enumerate() {
            if let Some(name) = self.names.get(&l.name) {
                scope.insert(name, LocalId(i as u32));
            }
        }
        BodyCx {
            class,
            tscope,
            locals,
            scopes: vec![scope],
            loop_depth: 0,
            ret,
            has_this: class.is_some(),
        }
    }

    fn check_method_body(&mut self, method: MethodId, md: &ast::MethodDecl) {
        let Some(block) = &md.body else { return };
        let mut cx = self.body_cx(method);
        let stmts = self.check_block(&mut cx, block);
        // Fall-through check.
        let ret = cx.ret;
        if ret != self.module.store.void && !terminates(&stmts) {
            self.error(
                md.name.span,
                format!(
                    "method '{}' may fall off the end without returning a value",
                    self.name(md.name.sym)
                ),
            );
        }
        self.module.methods[method.index()].locals = cx.locals;
        self.module.methods[method.index()].body = Some(Body { stmts });
    }

    fn check_ctor_body(
        &mut self,
        method: MethodId,
        class_ast: &ast::ClassDecl,
        ct: Option<&ast::CtorDecl>,
    ) {
        let mut cx = self.body_cx(method);
        let cid = cx.class.expect("constructors are owned");
        let mut stmts: Vec<IrStmt> = Vec::new();

        // 1. Superclass constructor call.
        let parent = self.module.class(cid).parent;
        if let Some(p) = parent {
            let pctor = self.module.class(p).ctor.expect("every class has a ctor");
            let pm = self.module.method(pctor);
            let want: Vec<Type> = pm.locals[1..pm.param_count].iter().map(|l| l.ty).collect();
            // Substitute the parent's type params with parent_args.
            let pparams = self.module.class(p).type_params.clone();
            let pargs = self.module.class(cid).parent_args.clone();
            let subst: HashMap<_, _> = pparams.into_iter().zip(pargs.iter().copied()).collect();
            let want: Vec<Type> = want
                .into_iter()
                .map(|t| self.module.store.substitute(t, &subst))
                .collect();
            let supplied = ct.and_then(|c| c.super_args.as_ref());
            let mut args: Vec<IrExpr> = vec![self.this_ir(&cx)];
            match supplied {
                Some(sargs) => {
                    if sargs.len() != want.len() {
                        self.error(
                            ct.expect("explicit ctor").span,
                            format!(
                                "super constructor expects {} argument(s), found {}",
                                want.len(),
                                sargs.len()
                            ),
                        );
                        return;
                    }
                    for (a, &w) in sargs.iter().zip(want.iter()) {
                        let Some(v) = self.check_expr(&mut cx, a, Some(w)) else { return };
                        if !self.require_subtype(v.ty, w, a.span) {
                            return;
                        }
                        args.push(v);
                    }
                }
                None => {
                    if !want.is_empty() {
                        self.error(
                            class_ast.name.span,
                            format!(
                                "class '{}' must call the super constructor with {} argument(s)",
                                self.name(class_ast.name.sym),
                                want.len()
                            ),
                        );
                        return;
                    }
                }
            }
            let void = self.module.store.void;
            stmts.push(IrStmt::Expr(IrExpr::new(
                Ir::CallStatic { method: pctor, type_args: pargs, args },
                void,
            )));
        }

        // 2. Field initializers, in declaration order.
        let header_count = self.header_param_count[cid.index()];
        let mut own_ix = header_count;
        for m in &class_ast.members {
            let Member::Field(f) = m else { continue };
            if let Some(init) = &f.init {
                let field = self.module.class(cid).fields[own_ix].clone();
                let want = field.ty;
                let Some(v) = self.check_expr(&mut cx, init, Some(want)) else { return };
                if !self.require_subtype(v.ty, want, init.span) {
                    return;
                }
                let this = self.this_ir(&cx);
                stmts.push(IrStmt::Expr(IrExpr::new(
                    Ir::FieldSet(
                        Box::new(this),
                        FieldRef { class: cid, slot: field.slot },
                        Box::new(v),
                    ),
                    want,
                )));
            }
            own_ix += 1;
        }

        // 3. Field-init parameters.
        let info = self.ctor_infos.get(&method).cloned().unwrap_or_default();
        for (pix, slot) in info.field_init_params.iter().enumerate() {
            let Some(own) = slot else { continue };
            let field = self.module.class(cid).fields[*own].clone();
            let this = self.this_ir(&cx);
            let pty = cx.locals[pix + 1].ty;
            stmts.push(IrStmt::Expr(IrExpr::new(
                Ir::FieldSet(
                    Box::new(this),
                    FieldRef { class: cid, slot: field.slot },
                    Box::new(IrExpr::new(Ir::Local(LocalId(pix as u32 + 1)), pty)),
                ),
                pty,
            )));
        }

        // 4. Explicit body.
        if let Some(ct) = ct {
            let body = self.check_block(&mut cx, &ct.body);
            stmts.extend(body);
        }

        self.module.methods[method.index()].locals = cx.locals;
        self.module.methods[method.index()].body = Some(Body { stmts });
    }

    fn this_ir(&mut self, cx: &BodyCx) -> IrExpr {
        let ty = cx.locals[0].ty;
        IrExpr::new(Ir::Local(LocalId(0)), ty)
    }

    pub(crate) fn check_block(&mut self, cx: &mut BodyCx, block: &ast::Block) -> Vec<IrStmt> {
        cx.scopes.push(HashMap::new());
        let mut out = Vec::new();
        for s in &block.stmts {
            if let Some(ir) = self.check_stmt(cx, s) {
                out.push(ir);
            }
        }
        cx.scopes.pop();
        out
    }

    fn check_stmt_as_block(&mut self, cx: &mut BodyCx, s: &ast::Stmt) -> Vec<IrStmt> {
        match &s.kind {
            StmtKind::Block(b) => self.check_block(cx, b),
            _ => {
                cx.scopes.push(HashMap::new());
                let out = self.check_stmt(cx, s).into_iter().collect();
                cx.scopes.pop();
                out
            }
        }
    }

    fn check_stmt(&mut self, cx: &mut BodyCx, s: &ast::Stmt) -> Option<IrStmt> {
        match &s.kind {
            StmtKind::Block(b) => Some(IrStmt::Block(self.check_block(cx, b))),
            StmtKind::Empty => None,
            StmtKind::Expr(e) => {
                let v = self.check_expr(cx, e, None)?;
                Some(IrStmt::Expr(v))
            }
            StmtKind::Local { mutable, binders } => {
                let mut decls = Vec::new();
                for b in binders {
                    let declared = match &b.ty {
                        Some(te) => Some(self.resolve_type(te, &cx.tscope)?),
                        None => None,
                    };
                    // A failed initializer already produced a diagnostic;
                    // bind the variable anyway (with the poisoned error
                    // type when nothing better is known) so later uses of
                    // the name don't cascade into "unknown identifier".
                    let init = match &b.init {
                        Some(e) => Some(match self.check_expr(cx, e, declared) {
                            Some(v) => v,
                            None => IrExpr::new(Ir::Unit, self.module.store.error),
                        }),
                        None => None,
                    };
                    let ty = match (declared, &init) {
                        (Some(t), Some(v)) => {
                            self.require_subtype(v.ty, t, b.name.span);
                            t
                        }
                        (Some(t), None) => t,
                        (None, Some(v)) => {
                            if v.ty == self.module.store.null {
                                self.error(
                                    b.name.span,
                                    "cannot infer a variable type from 'null'; annotate it",
                                );
                                self.module.store.error
                            } else {
                                v.ty
                            }
                        }
                        (None, None) => {
                            self.error(
                                b.name.span,
                                format!(
                                    "variable '{}' needs a type or initializer",
                                    self.name(b.name.sym)
                                ),
                            );
                            self.module.store.error
                        }
                    };
                    if !*mutable && init.is_none() {
                        self.error(b.name.span, "immutable variables need an initializer");
                    }
                    let l = cx.declare(b.name.sym, self.name(b.name.sym), ty, *mutable);
                    decls.push(IrStmt::Local(l, init));
                }
                if decls.len() == 1 {
                    decls.pop()
                } else {
                    Some(IrStmt::Block(decls))
                }
            }
            StmtKind::If(c, t, e) => {
                let bool_ = self.module.store.bool_;
                let cond = self.check_expr(cx, c, Some(bool_))?;
                self.require_subtype(cond.ty, bool_, c.span);
                let then = self.check_stmt_as_block(cx, t);
                let els = match e {
                    Some(e) => self.check_stmt_as_block(cx, e),
                    None => Vec::new(),
                };
                Some(IrStmt::If(cond, then, els))
            }
            StmtKind::While(c, b) => {
                let bool_ = self.module.store.bool_;
                let cond = self.check_expr(cx, c, Some(bool_))?;
                self.require_subtype(cond.ty, bool_, c.span);
                cx.loop_depth += 1;
                let body = self.check_stmt_as_block(cx, b);
                cx.loop_depth -= 1;
                Some(IrStmt::While(cond, body))
            }
            StmtKind::For(f) => {
                let ast::ForLoop { decl, init, cond, update, body } = &**f;
                // Lower to: { decls/init; while (cond) { body; update; } }
                cx.scopes.push(HashMap::new());
                let mut out: Vec<IrStmt> = Vec::new();
                if let Some(binders) = decl {
                    for b in binders {
                        let declared = match &b.ty {
                            Some(te) => Some(self.resolve_type(te, &cx.tscope)?),
                            None => None,
                        };
                        let init = match &b.init {
                            Some(e) => Some(match self.check_expr(cx, e, declared) {
                                Some(v) => v,
                                None => IrExpr::new(Ir::Unit, self.module.store.error),
                            }),
                            None => None,
                        };
                        let ty = match (declared, &init) {
                            (Some(t), _) => t,
                            (None, Some(v)) => v.ty,
                            (None, None) => {
                                self.error(b.name.span, "for-loop variable needs an initializer");
                                self.module.store.error
                            }
                        };
                        let l = cx.declare(b.name.sym, self.name(b.name.sym), ty, true);
                        out.push(IrStmt::Local(l, init));
                    }
                } else if let Some(e) = init {
                    let v = self.check_expr(cx, e, None)?;
                    out.push(IrStmt::Expr(v));
                }
                let bool_ = self.module.store.bool_;
                let cond_ir = match cond {
                    Some(c) => {
                        let v = self.check_expr(cx, c, Some(bool_))?;
                        self.require_subtype(v.ty, bool_, c.span);
                        v
                    }
                    None => IrExpr::new(Ir::Bool(true), bool_),
                };
                cx.loop_depth += 1;
                let mut loop_body = self.check_stmt_as_block(cx, body);
                cx.loop_depth -= 1;
                if let Some(u) = update {
                    let v = self.check_expr(cx, u, None)?;
                    loop_body.push(IrStmt::Expr(v));
                }
                out.push(IrStmt::While(cond_ir, loop_body));
                cx.scopes.pop();
                Some(IrStmt::Block(out))
            }
            StmtKind::Return(e) => {
                let ret = cx.ret;
                match e {
                    Some(e) => {
                        let v = self.check_expr(cx, e, Some(ret))?;
                        self.require_subtype(v.ty, ret, e.span);
                        Some(IrStmt::Return(Some(v)))
                    }
                    None => {
                        if ret != self.module.store.void {
                            self.error(
                                s.span,
                                format!("this method must return a value of type {}", self.show(ret)),
                            );
                        }
                        Some(IrStmt::Return(None))
                    }
                }
            }
            StmtKind::Break => {
                if cx.loop_depth == 0 {
                    self.error(s.span, "'break' outside a loop");
                }
                Some(IrStmt::Break)
            }
            StmtKind::Continue => {
                if cx.loop_depth == 0 {
                    self.error(s.span, "'continue' outside a loop");
                }
                Some(IrStmt::Continue)
            }
        }
    }
}

/// Conservative termination analysis: true if the statement list cannot fall
/// through (every path returns, or loops forever).
pub(crate) fn terminates(stmts: &[IrStmt]) -> bool {
    stmts.iter().any(stmt_terminates)
}

fn stmt_terminates(s: &IrStmt) -> bool {
    match s {
        IrStmt::Return(_) => true,
        IrStmt::Block(b) => terminates(b),
        IrStmt::If(_, t, e) => terminates(t) && terminates(e),
        IrStmt::While(c, body) => {
            // `while (true)` with no break anywhere inside never falls through.
            matches!(c.kind, Ir::Bool(true)) && !contains_break(body)
        }
        _ => false,
    }
}

fn contains_break(stmts: &[IrStmt]) -> bool {
    stmts.iter().any(|s| match s {
        IrStmt::Break => true,
        IrStmt::Block(b) => contains_break(b),
        IrStmt::If(_, t, e) => contains_break(t) || contains_break(e),
        // A nested while consumes its own breaks.
        IrStmt::While(..) => false,
        _ => false,
    })
}
