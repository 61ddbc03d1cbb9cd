//! Declaration collection: classes, fields, method signatures, vtables.

use crate::analyzer::Analyzer;
use crate::resolve::TypeScope;
use std::collections::{HashMap, HashSet};
use vgl_ir::{Class, Field, Global, GlobalId, Local, Method, MethodId, MethodKind};
use vgl_syntax::ast::{self, Decl, Member};
use vgl_syntax::symbol::{sym, Symbol};
use vgl_types::{ClassId, ClassInfo, Type, TypeVarId};

/// Where the AST body of a pending method lives.
#[derive(Clone, Copy, Debug)]
pub(crate) enum BodySource {
    /// A method: `decl` indexes `program.decls`; `member` indexes the class's
    /// members (or `None` for a component method).
    Method {
        /// Index into `program.decls`.
        decl: usize,
        /// Index into the class's member list.
        member: Option<usize>,
    },
    /// A constructor; `member` is `None` for the implicit constructor.
    Ctor {
        /// Index into `program.decls`.
        decl: usize,
        /// Index into the class's member list.
        member: Option<usize>,
    },
}

/// A method whose body still needs checking.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PendingBody {
    pub(crate) method: MethodId,
    pub(crate) source: BodySource,
}

/// Constructor-specific info: which params are field-init params.
#[derive(Clone, Debug, Default)]
pub(crate) struct CtorInfo {
    /// For each declared parameter (excluding `this`): the *own-field index*
    /// it initializes, or `None` for an ordinary typed parameter.
    pub(crate) field_init_params: Vec<Option<usize>>,
}

impl Analyzer<'_> {
    /// Phase 1: register class names and type parameters.
    pub(crate) fn collect_classes(&mut self, program: &ast::Program) {
        for (i, d) in program.decls.iter().enumerate() {
            let Decl::Class(c) = d else { continue };
            let name = self.name(c.name.sym);
            if matches!(
                c.name.sym,
                sym::VOID
                    | sym::BOOL
                    | sym::BYTE
                    | sym::INT
                    | sym::STRING
                    | sym::ARRAY
                    | sym::SYSTEM
            ) {
                self.error(c.name.span, format!("cannot redefine built-in name '{name}'"));
                continue;
            }
            if let Some(&first) = self.class_names.get(&c.name.sym) {
                self.error(c.name.span, format!("duplicate class '{name}'"));
                if let Decl::Class(fc) = &program.decls[self.class_decl_index[first.index()]] {
                    self.diags.note_last(Some(fc.name.span), "first defined here");
                }
                continue;
            }
            let mut tparams = Vec::new();
            let mut tmap = HashMap::new();
            for tp in &c.type_params {
                let v = self.fresh_typevar();
                if tmap.insert(tp.sym, v).is_some() {
                    let tname = self.name(tp.sym);
                    self.error(tp.span, format!("duplicate type parameter '{tname}'"));
                }
                tparams.push(v);
            }
            let id = self.module.hier.add_class(ClassInfo {
                name: name.to_string(),
                type_params: tparams.clone(),
                parent: None,
            });
            debug_assert_eq!(id.index(), self.module.classes.len());
            self.module.classes.push(Class {
                name: name.to_string(),
                type_params: tparams,
                parent: None,
                parent_args: Vec::new(),
                fields: Vec::new(),
                first_field_slot: 0,
                methods: Vec::new(),
                ctor: None,
                vtable: Vec::new(),
                is_abstract: false,
            });
            self.class_names.insert(c.name.sym, id);
            self.class_tparams.push(tmap);
            self.class_decl_index.push(i);
            self.header_param_count.push(c.header_params.len());
        }
    }

    pub(crate) fn class_scope(&self, c: ClassId) -> TypeScope {
        TypeScope { vars: self.class_tparams[c.index()].clone() }
    }

    /// Phase 2: parents, inheritance cycles, fields, slots.
    pub(crate) fn resolve_class_structure(&mut self, program: &ast::Program) {
        // Parents first.
        for (cix, &dix) in self.class_decl_index.clone().iter().enumerate() {
            let Decl::Class(c) = &program.decls[dix] else { continue };
            let cid = ClassId(cix as u32);
            let Some(parent) = &c.parent else { continue };
            let pname = self.name(parent.name.sym);
            let Some(&pid) = self.class_names.get(&parent.name.sym) else {
                self.error(parent.name.span, format!("unknown parent class '{pname}'"));
                continue;
            };
            let scope = self.class_scope(cid);
            let want = self.module.class(pid).type_params.len();
            if parent.type_args.len() != want {
                self.error(
                    parent.name.span,
                    format!(
                        "parent class '{pname}' expects {want} type argument(s), found {}",
                        parent.type_args.len()
                    ),
                );
                continue;
            }
            let mut args = Vec::new();
            let mut ok = true;
            for a in &parent.type_args {
                match self.resolve_type(a, &scope) {
                    Some(t) => args.push(t),
                    None => ok = false,
                }
            }
            if !ok {
                continue;
            }
            self.module.classes[cix].parent = Some(pid);
            self.module.classes[cix].parent_args = args.clone();
            self.module.hier.info_mut(cid).parent = Some((pid, args));
        }
        // Cycle detection.
        for cix in 0..self.module.classes.len() {
            let mut seen = HashSet::new();
            let mut cur = ClassId(cix as u32);
            loop {
                if !seen.insert(cur) {
                    let name = self.module.class(ClassId(cix as u32)).name.clone();
                    self.error(
                        vgl_syntax::span::Span::point(0),
                        format!("inheritance cycle involving class '{name}'"),
                    );
                    // Break the cycle so later phases terminate.
                    self.module.classes[cur.index()].parent = None;
                    self.module.hier.info_mut(cur).parent = None;
                    break;
                }
                match self.module.class(cur).parent {
                    Some(p) => cur = p,
                    None => break,
                }
            }
        }
        // Fields, in topological (parent-first) order.
        let order = self.topo_order();
        for cid in order {
            let dix = self.class_decl_index[cid.index()];
            let Decl::Class(c) = &program.decls[dix] else { continue };
            let scope = self.class_scope(cid);
            let first_slot = match self.module.class(cid).parent {
                Some(p) => self.module.object_size(p),
                None => 0,
            };
            self.module.classes[cid.index()].first_field_slot = first_slot;
            let mut own_names = HashSet::new();
            let mut fields = Vec::new();
            // Header params become immutable fields (compact §3.1 form).
            for p in &c.header_params {
                let ty = self.resolve_type(&p.ty, &scope).unwrap_or(self.module.store.void);
                let name = self.name(p.name.sym);
                if !own_names.insert(p.name.sym) {
                    self.error(p.name.span, format!("duplicate field '{name}'"));
                }
                fields.push(Field {
                    name: name.to_string(),
                    mutable: false,
                    ty,
                    slot: first_slot + fields.len(),
                    init: None,
                });
            }
            for m in &c.members {
                let Member::Field(f) = m else { continue };
                let name = self.name(f.name.sym);
                if !own_names.insert(f.name.sym) {
                    self.error(f.name.span, format!("duplicate field '{name}'"));
                    continue;
                }
                if self.inherited_field(cid, name).is_some() {
                    self.error(f.name.span, format!("field '{name}' shadows an inherited field"));
                }
                let ty = match &f.ty {
                    Some(te) => self.resolve_type(te, &scope).unwrap_or(self.module.store.void),
                    None if f.init.is_some() => {
                        // Deferred: inferred from the initializer before body
                        // checking. Use void as a placeholder; `pending_field`
                        // records it.
                        self.module.store.void
                    }
                    None => {
                        self.error(
                            f.name.span,
                            format!("field '{name}' needs a type or an initializer"),
                        );
                        self.module.store.void
                    }
                };
                fields.push(Field {
                    name: name.to_string(),
                    mutable: f.mutable,
                    ty,
                    slot: first_slot + fields.len(),
                    init: None, // filled during body checking
                });
            }
            self.module.classes[cid.index()].fields = fields;
        }
    }

    /// Classes ordered parents-before-children.
    pub(crate) fn topo_order(&self) -> Vec<ClassId> {
        let n = self.module.classes.len();
        let mut order: Vec<ClassId> = (0..n).map(|i| ClassId(i as u32)).collect();
        order.sort_by_key(|&c| self.module.hier.depth(c));
        order
    }

    /// Looks up a field by name in `c`'s ancestors (not `c` itself).
    pub(crate) fn inherited_field(&self, c: ClassId, name: &str) -> Option<(ClassId, usize)> {
        let mut cur = self.module.class(c).parent;
        while let Some(p) = cur {
            if let Some(ix) = self.module.class(p).fields.iter().position(|f| f.name == name) {
                return Some((p, ix));
            }
            cur = self.module.class(p).parent;
        }
        None
    }

    /// Looks up a field by name in `c` or its ancestors.
    pub(crate) fn find_field(&self, c: ClassId, name: &str) -> Option<(ClassId, usize)> {
        if let Some(ix) = self.module.class(c).fields.iter().position(|f| f.name == name) {
            return Some((c, ix));
        }
        self.inherited_field(c, name)
    }

    /// Phase 3: method and constructor signatures, component globals.
    pub(crate) fn collect_signatures(&mut self, program: &ast::Program) {
        // Class members first (so component code can call them).
        for (cix, &dix) in self.class_decl_index.clone().iter().enumerate() {
            let Decl::Class(c) = &program.decls[dix] else { continue };
            let cid = ClassId(cix as u32);
            self.collect_class_members(cid, dix, c);
        }
        // Component declarations in source order.
        for (dix, d) in program.decls.iter().enumerate() {
            match d {
                Decl::Method(m) => self.collect_component_method(dix, m),
                Decl::Var(v) => self.collect_component_var(dix, v),
                Decl::Class(_) => {}
            }
        }
    }

    fn collect_class_members(&mut self, cid: ClassId, dix: usize, c: &ast::ClassDecl) {
        // The class's own fields: its header parameters and field members.
        let mut member_names: HashSet<Symbol> = c.header_params.iter().map(|p| p.name.sym).collect();
        member_names.extend(c.members.iter().filter_map(|m| match m {
            Member::Field(f) => Some(f.name.sym),
            _ => None,
        }));
        let mut saw_ctor = false;
        for (mix, m) in c.members.iter().enumerate() {
            match m {
                Member::Field(_) => {}
                Member::Method(md) => {
                    if !member_names.insert(md.name.sym) {
                        // Virgil "chooses to disallow overloading altogether,
                        // requiring every method in the same class to have a
                        // unique name" (§3.3).
                        self.error(
                            md.name.span,
                            format!(
                                "duplicate member '{}': Virgil does not allow overloading",
                                self.name(md.name.sym)
                            ),
                        );
                        continue;
                    }
                    self.declare_method(Some(cid), dix, Some(mix), md);
                }
                Member::Ctor(ct) => {
                    if saw_ctor {
                        self.error(ct.span, "a class may declare at most one constructor");
                        continue;
                    }
                    saw_ctor = true;
                    if !c.header_params.is_empty() {
                        self.error(
                            ct.span,
                            "a class with header parameters cannot also declare a constructor",
                        );
                        continue;
                    }
                    self.declare_ctor(cid, dix, Some(mix), Some(ct));
                }
            }
        }
        if !saw_ctor {
            // Implicit constructor: header params as field-init params, or a
            // zero-argument default.
            self.declare_ctor(cid, dix, None, None);
        }
    }

    fn method_scope(
        &mut self,
        owner: Option<ClassId>,
        tparams: &[ast::Ident],
    ) -> (TypeScope, Vec<TypeVarId>, HashMap<Symbol, TypeVarId>) {
        let mut scope = match owner {
            Some(c) => self.class_scope(c),
            None => TypeScope::new(),
        };
        let mut ids = Vec::new();
        let mut map = HashMap::new();
        for tp in tparams {
            let v = self.fresh_typevar();
            let name = self.name(tp.sym);
            if scope.vars.insert(tp.sym, v).is_some() {
                self.error(tp.span, format!("type parameter '{name}' shadows another"));
            }
            if map.insert(tp.sym, v).is_some() {
                self.error(tp.span, format!("duplicate type parameter '{name}'"));
            }
            ids.push(v);
        }
        (scope, ids, map)
    }

    /// The `this` type for methods of class `c`: `C<T0, ..., Tn>` over the
    /// class's own type parameters.
    pub(crate) fn this_type(&mut self, c: ClassId) -> Type {
        let vars: Vec<Type> = self
            .module
            .class(c)
            .type_params
            .clone()
            .into_iter()
            .map(|v| self.module.store.var(v))
            .collect();
        self.module.store.class(c, vars)
    }

    fn declare_method(
        &mut self,
        owner: Option<ClassId>,
        dix: usize,
        mix: Option<usize>,
        md: &ast::MethodDecl,
    ) {
        let (scope, tparam_ids, tparam_map) = self.method_scope(owner, &md.type_params);
        let mut locals = Vec::new();
        if let Some(c) = owner {
            let this_ty = self.this_type(c);
            locals.push(Local { name: "this".into(), ty: this_ty, mutable: false });
        }
        let mut seen = HashSet::new();
        for p in &md.params {
            let name = self.name(p.name.sym);
            if !seen.insert(p.name.sym) {
                self.error(p.name.span, format!("duplicate parameter '{name}'"));
            }
            let ty = self.resolve_type(&p.ty, &scope).unwrap_or(self.module.store.void);
            locals.push(Local { name: name.to_string(), ty, mutable: false });
        }
        let ret = match &md.ret {
            Some(te) => self.resolve_type(te, &scope).unwrap_or(self.module.store.void),
            None => self.module.store.void,
        };
        let kind = if md.body.is_some() { MethodKind::Normal } else { MethodKind::Abstract };
        if kind == MethodKind::Abstract && owner.is_none() {
            self.error(md.name.span, "component methods must have a body");
        }
        if kind == MethodKind::Abstract && md.is_private {
            self.error(md.name.span, "a private method cannot be abstract");
        }
        let id = MethodId(self.module.methods.len() as u32);
        self.module.methods.push(Method {
            name: self.name(md.name.sym).to_string(),
            owner,
            is_private: md.is_private,
            kind,
            type_params: tparam_ids,
            param_count: locals.len(),
            locals,
            ret,
            body: None,
            vtable_index: None,
        });
        self.method_tparams.push(tparam_map);
        debug_assert_eq!(self.method_tparams.len(), self.module.methods.len());
        match owner {
            Some(c) => self.module.classes[c.index()].methods.push(id),
            None => {
                if self.component_methods.insert(md.name.sym, id).is_some()
                    || self.component_globals.contains_key(&md.name.sym)
                {
                    let name = self.name(md.name.sym);
                    self.error(md.name.span, format!("duplicate component declaration '{name}'"));
                }
            }
        }
        if md.body.is_some() {
            self.pending.push(PendingBody {
                method: id,
                source: BodySource::Method { decl: dix, member: mix },
            });
        }
    }

    fn declare_ctor(
        &mut self,
        cid: ClassId,
        dix: usize,
        mix: Option<usize>,
        ct: Option<&ast::CtorDecl>,
    ) {
        let scope = self.class_scope(cid);
        let this_ty = self.this_type(cid);
        let mut locals = vec![Local { name: "this".into(), ty: this_ty, mutable: false }];
        let mut info = CtorInfo::default();
        match ct {
            Some(ct) => {
                let mut seen = HashSet::new();
                for p in &ct.params {
                    let pname = self.name(p.name.sym);
                    if !seen.insert(p.name.sym) {
                        self.error(p.name.span, format!("duplicate parameter '{pname}'"));
                    }
                    match &p.ty {
                        Some(te) => {
                            let ty = self.resolve_type(te, &scope).unwrap_or(self.module.store.void);
                            locals.push(Local { name: pname.to_string(), ty, mutable: false });
                            info.field_init_params.push(None);
                        }
                        None => {
                            // Field-init parameter: takes the type of the
                            // same-named own field (paper listing (a4)).
                            let class = self.module.class(cid);
                            match class.fields.iter().position(|f| f.name == pname) {
                                Some(ix) => {
                                    let ty = class.fields[ix].ty;
                                    locals.push(Local {
                                        name: pname.to_string(),
                                        ty,
                                        mutable: false,
                                    });
                                    info.field_init_params.push(Some(ix));
                                }
                                None => {
                                    self.error(
                                        p.name.span,
                                        format!(
                                            "constructor parameter '{pname}' has no type and \
                                             no matching field to initialize"
                                        ),
                                    );
                                    locals.push(Local {
                                        name: pname.to_string(),
                                        ty: self.module.store.void,
                                        mutable: false,
                                    });
                                    info.field_init_params.push(None);
                                }
                            }
                        }
                    }
                }
            }
            None => {
                // Implicit ctor: one field-init param per header param (the
                // first `k` own fields are exactly the header params).
                let k = self.header_param_count[cid.index()];
                for ix in 0..k {
                    let f = &self.module.class(cid).fields[ix];
                    let (name, ty) = (f.name.clone(), f.ty);
                    locals.push(Local { name, ty, mutable: false });
                    info.field_init_params.push(Some(ix));
                }
            }
        }
        let id = MethodId(self.module.methods.len() as u32);
        self.module.methods.push(Method {
            name: "new".into(),
            owner: Some(cid),
            is_private: false,
            kind: MethodKind::Ctor,
            type_params: Vec::new(),
            param_count: locals.len(),
            locals,
            ret: self.module.store.void,
            body: None,
            vtable_index: None,
        });
        self.method_tparams.push(HashMap::new());
        self.module.classes[cid.index()].ctor = Some(id);
        self.ctor_infos.insert(id, info);
        self.pending.push(PendingBody {
            method: id,
            source: BodySource::Ctor { decl: dix, member: mix },
        });
    }

    fn collect_component_method(&mut self, dix: usize, md: &ast::MethodDecl) {
        if self.class_names.contains_key(&md.name.sym) {
            let name = self.name(md.name.sym);
            self.error(md.name.span, format!("'{name}' is already a class name"));
            return;
        }
        self.declare_method(None, dix, None, md);
    }

    fn collect_component_var(&mut self, dix: usize, v: &ast::FieldDecl) {
        let name = self.name(v.name.sym);
        if self.component_globals.contains_key(&v.name.sym)
            || self.component_methods.contains_key(&v.name.sym)
            || self.class_names.contains_key(&v.name.sym)
        {
            self.error(v.name.span, format!("duplicate component declaration '{name}'"));
            return;
        }
        let scope = TypeScope::new();
        let ty = match &v.ty {
            Some(te) => self.resolve_type(te, &scope).unwrap_or(self.module.store.void),
            None if v.init.is_some() => self.module.store.void, // inferred later
            None => {
                self.error(v.name.span, format!("variable '{name}' needs a type or an initializer"));
                self.module.store.void
            }
        };
        let id = GlobalId(self.module.globals.len() as u32);
        self.module.globals.push(Global {
            name: name.to_string(),
            mutable: v.mutable,
            ty,
            init: None,
            locals: Vec::new(),
        });
        self.global_ready.push(v.ty.is_some());
        self.component_globals.insert(v.name.sym, id);
        self.global_sources.push((id, dix));
    }

    /// Phase 4: virtual dispatch tables and override checks.
    pub(crate) fn build_vtables(&mut self) {
        for cid in self.topo_order() {
            let parent_vt = match self.module.class(cid).parent {
                Some(p) => self.module.class(p).vtable.clone(),
                None => Vec::new(),
            };
            let mut vt = parent_vt;
            for mid in self.module.class(cid).methods.clone() {
                if self.module.method(mid).is_private {
                    continue;
                }
                let name = self.module.method(mid).name.clone();
                // Find an overridden method in an ancestor.
                let overridden = self.find_virtual_in_ancestors(cid, &name);
                match overridden {
                    Some(parent_mid) => {
                        self.check_override(cid, mid, parent_mid);
                        let slot = self
                            .module
                            .method(parent_mid)
                            .vtable_index
                            .expect("virtual parent method has a slot");
                        self.module.methods[mid.index()].vtable_index = Some(slot);
                        vt[slot] = mid;
                    }
                    None => {
                        let slot = vt.len();
                        self.module.methods[mid.index()].vtable_index = Some(slot);
                        vt.push(mid);
                    }
                }
            }
            let is_abstract = vt
                .iter()
                .any(|&m| self.module.method(m).kind == MethodKind::Abstract);
            let class = &mut self.module.classes[cid.index()];
            class.vtable = vt;
            class.is_abstract = is_abstract;
        }
    }

    fn find_virtual_in_ancestors(&self, c: ClassId, name: &str) -> Option<MethodId> {
        let mut cur = self.module.class(c).parent;
        while let Some(p) = cur {
            for &m in &self.module.class(p).methods {
                let method = self.module.method(m);
                if method.name == name && !method.is_private {
                    return Some(m);
                }
            }
            cur = self.module.class(p).parent;
        }
        None
    }

    /// Overriding requires the same method *type* once the parent's type
    /// arguments are substituted — note that `(int, int)` parameters and a
    /// single `(a: (int, int))` tuple parameter are the *same type* (§4.1,
    /// listings p10–p17), so that override is legal.
    fn check_override(&mut self, cid: ClassId, child: MethodId, parent: MethodId) {
        // Build substitution: parent class's type params -> the args this
        // class (transitively) supplies.
        let parent_owner = self.module.method(parent).owner.expect("parent method is owned");
        let mut subst: HashMap<TypeVarId, Type> = HashMap::new();
        {
            // Walk from cid up to parent_owner accumulating substitutions.
            let mut cur = cid;
            while cur != parent_owner {
                let class = self.module.class(cur).clone();
                let Some(p) = class.parent else { break };
                let pparams = self.module.class(p).type_params.clone();
                let mut next: HashMap<TypeVarId, Type> = HashMap::new();
                for (v, &a) in pparams.iter().zip(class.parent_args.iter()) {
                    let substituted = self.module.store.substitute(a, &subst);
                    next.insert(*v, substituted);
                }
                // Note: `subst` maps ancestors' vars; merge.
                subst.extend(next);
                cur = p;
            }
        }
        // Alpha-rename the child's own type params to the parent's.
        let child_tp = self.module.method(child).type_params.clone();
        let parent_tp = self.module.method(parent).type_params.clone();
        if child_tp.len() != parent_tp.len() {
            let name = self.module.method(child).name.clone();
            self.error(
                vgl_syntax::span::Span::point(0),
                format!("override of '{name}' changes the number of type parameters"),
            );
            return;
        }
        let mut alpha: HashMap<TypeVarId, Type> = HashMap::new();
        for (c, p) in child_tp.iter().zip(parent_tp.iter()) {
            let pv = self.module.store.var(*p);
            alpha.insert(*c, pv);
        }
        let child_sig = {
            let m = self.module.method(child).clone();
            let params: Vec<Type> = m.locals[1..m.param_count]
                .iter()
                .map(|l| {
                    self.module.store.substitute(l.ty, &alpha)
                })
                .collect();
            let p = self.module.store.tuple(params);
            let r = self.module.store.substitute(m.ret, &alpha);
            self.module.store.function(p, r)
        };
        let parent_sig = {
            let m = self.module.method(parent).clone();
            let params: Vec<Type> = m.locals[1..m.param_count]
                .iter()
                .map(|l| self.module.store.substitute(l.ty, &subst))
                .collect();
            let p = self.module.store.tuple(params);
            let r = self.module.store.substitute(m.ret, &subst);
            self.module.store.function(p, r)
        };
        if child_sig != parent_sig {
            let name = self.module.method(child).name.clone();
            let cs = self.show(child_sig);
            let ps = self.show(parent_sig);
            self.error(
                vgl_syntax::span::Span::point(0),
                format!("override of '{name}' changes its type: {cs} vs inherited {ps}"),
            );
        }
    }
}
