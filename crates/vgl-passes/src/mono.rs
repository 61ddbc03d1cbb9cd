//! Monomorphization (paper §4.3).
//!
//! "The Virgil compiler instead employs monomorphization, where a specialized
//! version of each polymorphic class or method is generated for each distinct
//! assignment of type arguments to type parameters. ... Once the
//! representation of all classes and methods is obtained through
//! specialization, no type parameters appear in the program."
//!
//! The pass walks the reachable instantiation graph from `main` and the
//! component initializers, producing a fresh, fully monomorphic [`Module`]:
//!
//! * each live `(class, type args)` pair becomes a new class,
//! * each live `(method, type args)` pair becomes a new method,
//! * generic *virtual* methods get one vtable slot per live own-type-argument
//!   instantiation, kept consistent along each hierarchy chain,
//! * every type is translated so class types refer to specialized ids.
//!
//! The pass also doubles as reachability: unreferenced classes and methods
//! simply never get instantiated ("sophisticated dead code and dead data
//! elimination" is a natural corollary of instantiation-driven copying).

use std::collections::{BTreeMap, HashMap};

use vgl_ir::visit::rewrite_exprs;
use vgl_ir::{
    Body, Class, Expr, ExprKind, Field, FieldRef, Global, Method, MethodId, MethodKind, Module,
    Oper, Stmt,
};
use vgl_types::{ClassId, ClassInfo, Hierarchy, Type, TypeKind, TypeStore, TypeVarId};

/// Hard bound on instantiation nesting to catch divergent specialization
/// (e.g. a class whose field type grows: `class C<T> { var x: C<(T, T)>; }`).
const MAX_INSTANTIATION_DEPTH: usize = 64;

/// Statistics reported by monomorphization (experiment E4 reads these).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MonoStats {
    /// Method instantiations created.
    pub method_instances: usize,
    /// Class instantiations created.
    pub class_instances: usize,
    /// Distinct source methods that were live.
    pub live_source_methods: usize,
    /// Distinct source classes that were live.
    pub live_source_classes: usize,
}

/// Runs monomorphization, returning the specialized module and statistics.
/// Debug builds assert the §4.3 postcondition: no type parameters remain
/// ([`vgl_ir::check_monomorphic`]).
///
/// # Panics
/// Panics if instantiation depth exceeds the divergence bound (which the
/// polymorphic-recursion check in sema makes unreachable for accepted
/// programs).
pub fn monomorphize(module: &Module) -> (Module, MonoStats) {
    let mut m = Mono::new(module);
    m.run();
    let (out, stats) = m.finish();
    if cfg!(debug_assertions) {
        vgl_ir::assert_valid(
            "monomorphization left polymorphism behind",
            &vgl_ir::check_monomorphic(&out),
        );
    }
    (out, stats)
}

type TypeArgs = Vec<Type>;

struct Mono<'m> {
    src: &'m Module,
    /// Old store, extended as substitution creates new types.
    old_store: TypeStore,
    /// The new module's store.
    new_store: TypeStore,
    new_hier: Hierarchy,
    new_classes: Vec<Class>,
    new_methods: Vec<Method>,
    new_globals: Vec<Global>,
    /// (old class, old-store concrete args) → new class id.
    class_map: HashMap<(ClassId, TypeArgs), ClassId>,
    /// (old method, old-store concrete args) → new method id.
    method_map: HashMap<(MethodId, TypeArgs), MethodId>,
    /// Old-store type → new-store type.
    type_map: HashMap<Type, Type>,
    /// Worklist of method instances whose bodies still need rewriting.
    work: Vec<(MethodId, TypeArgs, MethodId)>,
    /// Virtual demands: root slot method → set of own-type-arg lists.
    /// `BTreeMap` for deterministic slot ordering.
    vdemands: HashMap<MethodId, BTreeMap<TypeArgs, ()>>,
    /// Class instances in creation order: (old class, args, new id).
    class_instances: Vec<(ClassId, TypeArgs, ClassId)>,
    /// Current instantiation depth (divergence guard).
    depth: usize,
    /// For each (old class, slot): the *root* method that introduced the slot.
    slot_roots: HashMap<(ClassId, usize), MethodId>,
}

impl<'m> Mono<'m> {
    fn new(src: &'m Module) -> Mono<'m> {
        // Precompute slot roots.
        let mut slot_roots = HashMap::new();
        for (cix, c) in src.classes.iter().enumerate() {
            let cid = ClassId(cix as u32);
            for (slot, _) in c.vtable.iter().enumerate() {
                // The root is vtable[slot] of the topmost ancestor that has
                // this slot.
                let mut root_owner = cid;
                let mut cur = c.parent;
                while let Some(p) = cur {
                    if src.class(p).vtable.len() > slot {
                        root_owner = p;
                    }
                    cur = src.class(p).parent;
                }
                slot_roots.insert((cid, slot), src.class(root_owner).vtable[slot]);
            }
        }
        Mono {
            src,
            old_store: src.store.clone(),
            new_store: TypeStore::new(),
            new_hier: Hierarchy::new(),
            new_classes: Vec::new(),
            new_methods: Vec::new(),
            new_globals: Vec::new(),
            class_map: HashMap::new(),
            method_map: HashMap::new(),
            type_map: HashMap::new(),
            work: Vec::new(),
            vdemands: HashMap::new(),
            class_instances: Vec::new(),
            depth: 0,
            slot_roots,
        }
    }

    fn run(&mut self) {
        // Seed: globals and main.
        for g in &self.src.globals {
            let ty = self.translate(g.ty);
            self.new_globals.push(Global {
                name: g.name.clone(),
                mutable: g.mutable,
                ty,
                init: None, // rewritten below
                locals: Vec::new(),
            });
        }
        if let Some(main) = self.src.main {
            self.instance_method(main, vec![]);
        }
        // Drain the worklist to a fixpoint; virtual demands can revive it.
        loop {
            while let Some((old_m, targs, new_m)) = self.work.pop() {
                self.rewrite_method_body(old_m, &targs, new_m);
            }
            if !self.expand_virtual_demands() {
                break;
            }
        }
        // Globals' initializers (monomorphic by construction).
        for (i, g) in self.src.globals.iter().enumerate() {
            if let Some(init) = &g.init {
                let mut body = Body { stmts: vec![Stmt::Expr(init.clone())] };
                self.rewrite_body(&mut body, &HashMap::new());
                let Stmt::Expr(e) = body.stmts.pop().expect("one stmt") else {
                    unreachable!("rewrite preserves statement shape");
                };
                self.new_globals[i].init = Some(e);
                self.new_globals[i].locals = g
                    .locals
                    .iter()
                    .map(|l| vgl_ir::Local {
                        name: l.name.clone(),
                        ty: self.translate(l.ty),
                        mutable: l.mutable,
                    })
                    .collect();
            }
        }
        // Drain any work the global initializers added.
        loop {
            while let Some((old_m, targs, new_m)) = self.work.pop() {
                self.rewrite_method_body(old_m, &targs, new_m);
            }
            if !self.expand_virtual_demands() {
                break;
            }
        }
        self.build_vtables();
    }

    fn finish(self) -> (Module, MonoStats) {
        let mut live_methods: Vec<MethodId> =
            self.method_map.keys().map(|(m, _)| *m).collect();
        live_methods.sort();
        live_methods.dedup();
        let mut live_classes: Vec<ClassId> = self.class_map.keys().map(|(c, _)| *c).collect();
        live_classes.sort();
        live_classes.dedup();
        let stats = MonoStats {
            method_instances: self.new_methods.len(),
            class_instances: self.new_classes.len(),
            live_source_methods: live_methods.len(),
            live_source_classes: live_classes.len(),
        };
        let main = self
            .src
            .main
            .and_then(|m| self.method_map.get(&(m, vec![])).copied());
        let module = Module {
            store: self.new_store,
            hier: self.new_hier,
            classes: self.new_classes,
            methods: self.new_methods,
            globals: self.new_globals,
            main,
        };
        (module, stats)
    }

    // ---- type translation -----------------------------------------------------

    /// Translates a *concrete* old-store type into the new store, specializing
    /// class references.
    fn translate(&mut self, t: Type) -> Type {
        if let Some(&n) = self.type_map.get(&t) {
            return n;
        }
        let n = match self.old_store.kind(t).clone() {
            // Unreachable in practice: a module with error diagnostics is
            // never monomorphized. Translate anyway rather than panic.
            TypeKind::Error => self.new_store.error,
            TypeKind::Void => self.new_store.void,
            TypeKind::Bool => self.new_store.bool_,
            TypeKind::Byte => self.new_store.byte,
            TypeKind::Int => self.new_store.int,
            TypeKind::Null => self.new_store.null,
            TypeKind::Array(e) => {
                let e = self.translate(e);
                self.new_store.array(e)
            }
            TypeKind::Tuple(es) => {
                let es = es.into_iter().map(|e| self.translate(e)).collect();
                self.new_store.tuple(es)
            }
            TypeKind::Function(p, r) => {
                let p = self.translate(p);
                let r = self.translate(r);
                self.new_store.function(p, r)
            }
            TypeKind::Class(c, args) => {
                let nc = self.instance_class(c, args);
                self.new_store.class(nc, vec![])
            }
            TypeKind::Var(_) => {
                unreachable!("type variable reached monomorphization translation")
            }
        };
        self.type_map.insert(t, n);
        n
    }

    // ---- class instances ---------------------------------------------------------

    fn instance_class(&mut self, c: ClassId, args: TypeArgs) -> ClassId {
        if let Some(&n) = self.class_map.get(&(c, args.clone())) {
            return n;
        }
        assert!(
            self.depth < MAX_INSTANTIATION_DEPTH,
            "monomorphization diverged instantiating class {}",
            self.src.class(c).name
        );
        self.depth += 1;
        let src_class = self.src.class(c);
        let name = if args.is_empty() {
            src_class.name.clone()
        } else {
            let parts: Vec<String> = args
                .iter()
                .map(|&a| vgl_types::display_type(&self.old_store, &self.src.hier, a))
                .collect();
            format!("{}<{}>", src_class.name, parts.join(", "))
        };
        let new_id = ClassId(self.new_classes.len() as u32);
        self.class_map.insert((c, args.clone()), new_id);
        let hid = self.new_hier.add_class(ClassInfo {
            name: name.clone(),
            type_params: vec![],
            parent: None, // fixed below
        });
        debug_assert_eq!(hid, new_id);
        // Push a placeholder so recursive field types terminate.
        self.new_classes.push(Class {
            name,
            type_params: vec![],
            parent: None,
            parent_args: vec![],
            fields: vec![],
            first_field_slot: src_class.first_field_slot,
            methods: vec![],
            ctor: None,
            vtable: vec![],
            is_abstract: src_class.is_abstract,
        });
        self.class_instances.push((c, args.clone(), new_id));

        let subst: HashMap<TypeVarId, Type> = src_class
            .type_params
            .iter()
            .copied()
            .zip(args.iter().copied())
            .collect();
        // Parent.
        let parent = if let Some(p) = src_class.parent {
            let pargs: TypeArgs = src_class
                .parent_args
                .iter()
                .map(|&a| self.old_store.substitute(a, &subst))
                .collect();
            Some(self.instance_class(p, pargs))
        } else {
            None
        };
        // Fields.
        let fields: Vec<Field> = self
            .src
            .class(c)
            .fields
            .iter()
            .map(|f| {
                let sub = self.old_store.substitute(f.ty, &subst);
                Field {
                    name: f.name.clone(),
                    mutable: f.mutable,
                    ty: self.translate(sub),
                    slot: f.slot,
                    init: None,
                }
            })
            .collect();
        // Constructor.
        let ctor = self
            .src
            .class(c)
            .ctor
            .map(|ct| self.instance_method(ct, args.clone()));

        let cl = &mut self.new_classes[new_id.index()];
        cl.parent = parent;
        cl.fields = fields;
        cl.ctor = ctor;
        self.new_hier.info_mut(new_id).parent = parent.map(|p| (p, vec![]));
        self.depth -= 1;
        new_id
    }

    // ---- method instances -----------------------------------------------------------

    fn instance_method(&mut self, m: MethodId, targs: TypeArgs) -> MethodId {
        if let Some(&n) = self.method_map.get(&(m, targs.clone())) {
            return n;
        }
        assert!(
            self.depth < MAX_INSTANTIATION_DEPTH,
            "monomorphization diverged instantiating method {}",
            self.src.method(m).name
        );
        self.depth += 1;
        let src = self.src.method(m);
        let vars = self.src.all_type_params(m);
        debug_assert_eq!(vars.len(), targs.len(), "type arity for {}", src.name);
        let subst: HashMap<TypeVarId, Type> =
            vars.into_iter().zip(targs.iter().copied()).collect();

        let new_id = MethodId(self.new_methods.len() as u32);
        self.method_map.insert((m, targs.clone()), new_id);
        // Reserve the slot NOW: instantiating the owner class below may
        // recursively create more methods.
        self.new_methods.push(Method {
            name: src.name.clone(),
            owner: None,
            is_private: src.is_private,
            kind: src.kind,
            type_params: vec![],
            param_count: 0,
            locals: vec![],
            ret: self.new_store.void,
            body: None,
            vtable_index: None,
        });

        let owner = src.owner.map(|c| {
            let class_param_count = self.src.class(c).type_params.len();
            let cargs: TypeArgs = targs[..class_param_count].to_vec();
            self.instance_class(c, cargs)
        });
        let locals: Vec<vgl_ir::Local> = src
            .locals
            .iter()
            .map(|l| {
                let sub = self.old_store.substitute(l.ty, &subst);
                vgl_ir::Local {
                    name: l.name.clone(),
                    ty: self.translate(sub),
                    mutable: l.mutable,
                }
            })
            .collect();
        let ret_sub = self.old_store.substitute(src.ret, &subst);
        let ret = self.translate(ret_sub);
        {
            let slot = &mut self.new_methods[new_id.index()];
            slot.owner = owner;
            slot.param_count = src.param_count;
            slot.locals = locals;
            slot.ret = ret;
        }
        if let Some(o) = owner {
            if src.kind != MethodKind::Ctor {
                self.new_classes[o.index()].methods.push(new_id);
            }
        }
        if src.body.is_some() {
            self.work.push((m, targs, new_id));
        }
        self.depth -= 1;
        new_id
    }

    fn rewrite_method_body(&mut self, old_m: MethodId, targs: &[Type], new_m: MethodId) {
        let src = self.src.method(old_m);
        let vars = self.src.all_type_params(old_m);
        let subst: HashMap<TypeVarId, Type> =
            vars.into_iter().zip(targs.iter().copied()).collect();
        let mut body = src.body.clone().expect("worklist only holds bodied methods");
        self.rewrite_body(&mut body, &subst);
        self.new_methods[new_m.index()].body = Some(body);
    }

    /// Substitutes, translates, and re-links one body in place.
    fn rewrite_body(&mut self, body: &mut Body, subst: &HashMap<TypeVarId, Type>) {
        rewrite_exprs(body, &mut |mut e: Expr| {
            // 1. Substitute type variables (old store).
            let sub_ty = self.old_store.substitute(e.ty, subst);
            // 2. Rewrite the node.
            e.kind = self.rewrite_kind(e.kind, subst);
            // 3. Translate the node type.
            e.ty = self.translate(sub_ty);
            e
        });
    }

    fn sub_targs(&mut self, ts: &[Type], subst: &HashMap<TypeVarId, Type>) -> TypeArgs {
        ts.iter().map(|&t| self.old_store.substitute(t, subst)).collect()
    }

    fn rewrite_kind(&mut self, kind: ExprKind, subst: &HashMap<TypeVarId, Type>) -> ExprKind {
        match kind {
            ExprKind::New { class, type_args, args } => {
                let cargs = self.sub_targs(&type_args, subst);
                let nc = self.instance_class(class, cargs);
                ExprKind::New { class: nc, type_args: vec![], args }
            }
            ExprKind::CallStatic { method, type_args, args } => {
                let targs = self.sub_targs(&type_args, subst);
                let nm = self.instance_method(method, targs);
                ExprKind::CallStatic { method: nm, type_args: vec![], args }
            }
            ExprKind::CallVirtual { method, type_args, recv, args } => {
                let targs = self.sub_targs(&type_args, subst);
                let nm = self.virtual_instance(method, &targs);
                ExprKind::CallVirtual { method: nm, type_args: vec![], recv, args }
            }
            ExprKind::BindMethod { method, type_args, recv } => {
                let targs = self.sub_targs(&type_args, subst);
                let m = self.src.method(method);
                if m.owner.is_some() && !m.is_private && m.vtable_index.is_some() {
                    let nm = self.virtual_instance(method, &targs);
                    ExprKind::BindMethod { method: nm, type_args: vec![], recv }
                } else {
                    let nm = self.instance_method(method, targs);
                    ExprKind::BindMethod { method: nm, type_args: vec![], recv }
                }
            }
            ExprKind::FuncRef { method, type_args } => {
                let targs = self.sub_targs(&type_args, subst);
                let m = self.src.method(method);
                if m.owner.is_some() && !m.is_private && m.vtable_index.is_some() {
                    let nm = self.virtual_instance(method, &targs);
                    ExprKind::FuncRef { method: nm, type_args: vec![] }
                } else {
                    let nm = self.instance_method(method, targs);
                    ExprKind::FuncRef { method: nm, type_args: vec![] }
                }
            }
            ExprKind::CtorRef { class, type_args } => {
                let cargs = self.sub_targs(&type_args, subst);
                let nc = self.instance_class(class, cargs);
                ExprKind::CtorRef { class: nc, type_args: vec![] }
            }
            ExprKind::ArrayNewRef { elem } => {
                let sub = self.old_store.substitute(elem, subst);
                ExprKind::ArrayNewRef { elem: self.translate(sub) }
            }
            ExprKind::FieldGet(o, fref) => {
                let nf = self.translate_fieldref(fref, subst, &o);
                ExprKind::FieldGet(o, nf)
            }
            ExprKind::FieldSet(o, fref, v) => {
                let nf = self.translate_fieldref(fref, subst, &o);
                ExprKind::FieldSet(o, nf, v)
            }
            ExprKind::Apply(op, args) => ExprKind::Apply(self.rewrite_oper(op, subst), args),
            ExprKind::OpClosure(op) => ExprKind::OpClosure(self.rewrite_oper(op, subst)),
            other => other,
        }
    }

    fn translate_fieldref(
        &mut self,
        fref: FieldRef,
        subst: &HashMap<TypeVarId, Type>,
        obj: &Expr,
    ) -> FieldRef {
        // The receiver's type (already substituted via child-first rewrite,
        // and translated) names the specialized class; map the declaring
        // class through its chain.
        let _ = subst;
        let recv_ty = obj.ty;
        let new_class = match self.new_store.kind(recv_ty) {
            TypeKind::Class(c, _) => *c,
            _ => unreachable!("field access on non-class receiver after mono"),
        };
        // Find the specialized ancestor corresponding to fref.class.
        let mut cur = Some(new_class);
        while let Some(nc) = cur {
            // Which old class did nc come from?
            let (old_c, _, _) = self.class_instances[nc.index()];
            if old_c == fref.class {
                return FieldRef { class: nc, slot: fref.slot };
            }
            cur = self.new_classes[nc.index()].parent;
        }
        // Fallback: keep slot, point at the receiver's class.
        FieldRef { class: new_class, slot: fref.slot }
    }

    fn rewrite_oper(&mut self, op: Oper, subst: &HashMap<TypeVarId, Type>) -> Oper {
        match op {
            Oper::Eq(t) => {
                let s = self.old_store.substitute(t, subst);
                Oper::Eq(self.translate(s))
            }
            Oper::Ne(t) => {
                let s = self.old_store.substitute(t, subst);
                Oper::Ne(self.translate(s))
            }
            Oper::Cast { from, to } => {
                let f = self.old_store.substitute(from, subst);
                let t = self.old_store.substitute(to, subst);
                Oper::Cast { from: self.translate(f), to: self.translate(t) }
            }
            Oper::Query { from, to } => {
                let f = self.old_store.substitute(from, subst);
                let t = self.old_store.substitute(to, subst);
                Oper::Query { from: self.translate(f), to: self.translate(t) }
            }
            other => other,
        }
    }

    // ---- virtual dispatch -----------------------------------------------------------

    /// Instantiates the *declared* method of a virtual call and records the
    /// demand so every live override gets specialized too.
    fn virtual_instance(&mut self, declared: MethodId, targs: &[Type]) -> MethodId {
        let m = self.src.method(declared);
        let own_count = m.type_params.len();
        let own = targs[targs.len() - own_count..].to_vec();
        // Record the demand under the slot's root method.
        let owner = m.owner.expect("virtual methods are owned");
        let slot = m.vtable_index.expect("virtual methods have slots");
        let root = *self
            .slot_roots
            .get(&(owner, slot))
            .expect("slot root precomputed");
        self.vdemands.entry(root).or_default().insert(own, ());
        self.instance_method(declared, targs.to_vec())
    }

    /// Ensures every live class instance has specialized overrides for every
    /// demanded virtual slot. Returns true if new work was generated.
    fn expand_virtual_demands(&mut self) -> bool {
        let mut added = false;
        let demands: Vec<(MethodId, Vec<TypeArgs>)> = self
            .vdemands
            .iter()
            .map(|(&root, owns)| (root, owns.keys().cloned().collect()))
            .collect();
        let instances = self.class_instances.clone();
        for (old_c, cargs, _new_c) in instances {
            let vt = self.src.class(old_c).vtable.clone();
            for (slot, &impl_m) in vt.iter().enumerate() {
                let Some(&root) = self.slot_roots.get(&(old_c, slot)) else { continue };
                let Some((_, owns)) = demands.iter().find(|(r, _)| *r == root) else {
                    continue;
                };
                // Class args of the implementor's owner as seen from old_c.
                let impl_owner = self.src.method(impl_m).owner.expect("owned");
                let owner_args = self.class_args_for_old(old_c, &cargs, impl_owner);
                for own in owns {
                    let mut full = owner_args.clone();
                    full.extend(own.iter().copied());
                    if !self.method_map.contains_key(&(impl_m, full.clone())) {
                        self.instance_method(impl_m, full);
                        added = true;
                    }
                }
            }
        }
        added
    }

    fn class_args_for_old(&mut self, c: ClassId, args: &[Type], decl: ClassId) -> TypeArgs {
        let start = self.old_store.class(c, args.to_vec());
        let sups = self.src.hier.supertypes(&mut self.old_store, start);
        for s in sups {
            if let TypeKind::Class(sc, sargs) = self.old_store.kind(s).clone() {
                if sc == decl {
                    return sargs;
                }
            }
        }
        args.to_vec()
    }

    /// Computes the new vtable slot of a virtual method instance: original
    /// slots expand to one new slot per demanded own-type-argument list, in
    /// deterministic (BTreeMap) order; layout is identical along each chain
    /// because slot roots and demand sets are chain-invariant.
    fn new_slot_for(&self, old_m: MethodId, own: &[Type]) -> Option<usize> {
        let m = self.src.method(old_m);
        let owner = m.owner?;
        let slot = m.vtable_index?;
        let mut base = 0;
        for s in 0..slot {
            let root = self.slot_roots.get(&(owner, s))?;
            base += self.vdemands.get(root).map(|d| d.len()).unwrap_or(0);
        }
        let root = self.slot_roots.get(&(owner, slot))?;
        let within = self
            .vdemands
            .get(root)?
            .keys()
            .position(|k| k.as_slice() == own)?;
        Some(base + within)
    }

    /// Assigns vtable slots to every specialized virtual-method instance.
    fn assign_slots(&mut self) {
        let entries: Vec<((MethodId, TypeArgs), MethodId)> = self
            .method_map
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        for ((old_m, targs), new_m) in entries {
            let m = self.src.method(old_m);
            if m.owner.is_none() || m.is_private || m.vtable_index.is_none() {
                continue;
            }
            let own_count = m.type_params.len();
            let own = &targs[targs.len() - own_count..];
            self.new_methods[new_m.index()].vtable_index = self.new_slot_for(old_m, own);
        }
    }

    /// Builds specialized vtables: slot layout is (original slot, demanded
    /// own-type-args) in deterministic order, identical along each chain.
    fn build_vtables(&mut self) {
        self.assign_slots();
        // Topological order: parents first.
        let mut order: Vec<usize> = (0..self.new_classes.len()).collect();
        order.sort_by_key(|&i| {
            let mut d = 0;
            let mut cur = self.new_classes[i].parent;
            while let Some(p) = cur {
                d += 1;
                cur = self.new_classes[p.index()].parent;
            }
            d
        });
        for i in order {
            let (old_c, cargs, _) = self.class_instances[i].clone();
            let old_vt = self.src.class(old_c).vtable.clone();
            let mut vt: Vec<MethodId> = Vec::new();
            for (slot, &impl_m) in old_vt.iter().enumerate() {
                let Some(&root) = self.slot_roots.get(&(old_c, slot)) else {
                    continue;
                };
                let owns: Vec<TypeArgs> = self
                    .vdemands
                    .get(&root)
                    .map(|m| m.keys().cloned().collect())
                    .unwrap_or_default();
                for own in owns {
                    let impl_owner = self.src.method(impl_m).owner.expect("owned");
                    let owner_args = self.class_args_for_old(old_c, &cargs, impl_owner);
                    let mut full = owner_args;
                    full.extend(own.iter().copied());
                    let entry = *self
                        .method_map
                        .get(&(impl_m, full.clone()))
                        .unwrap_or_else(|| {
                            panic!(
                                "override instance missing for {} (demand expansion bug)",
                                self.src.method(impl_m).name
                            )
                        });
                    vt.push(entry);
                }
            }
            self.new_classes[i].vtable = vt;
        }
        // Any body instantiated lazily during vtable construction must still
        // be rewritten.
        while let Some((old_m, targs, new_m)) = self.work.pop() {
            self.rewrite_method_body(old_m, &targs, new_m);
        }
    }
}
