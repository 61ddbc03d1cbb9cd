//! The analyzer driver: orchestrates declaration collection, signature
//! resolution, body checking, and whole-program checks.

use std::collections::HashMap;

use vgl_ir::{MethodId, Module};
use vgl_syntax::ast;
use vgl_syntax::diag::Diagnostics;
use vgl_syntax::span::Span;
use vgl_syntax::symbol::{sym, Interner, Symbol};
use vgl_types::{ClassId, Hierarchy, Type, TypeStore, TypeVarId};

/// Runs semantic analysis over a parsed program.
///
/// Returns the typed module on success; on failure, diagnostics explain why
/// and `None` is returned.
pub fn analyze(program: &ast::Program, diags: &mut Diagnostics) -> Option<Module> {
    let mut a = Analyzer::new(diags, &program.names);
    a.run(program);
    if a.diags.has_errors() {
        None
    } else {
        Some(a.module)
    }
}

/// Semantic analyzer state. Most users only need [`analyze`].
pub struct Analyzer<'d> {
    /// Diagnostics sink.
    pub(crate) diags: &'d mut Diagnostics,
    /// The program's identifier text.
    pub(crate) names: &'d Interner,
    /// The module being built.
    pub(crate) module: Module,
    /// Class name → id.
    pub(crate) class_names: HashMap<Symbol, ClassId>,
    /// Component method name → id.
    pub(crate) component_methods: HashMap<Symbol, MethodId>,
    /// Component variable name → id.
    pub(crate) component_globals: HashMap<Symbol, vgl_ir::GlobalId>,
    /// Number of type variables allocated so far.
    pub(crate) typevar_count: u32,
    /// Per-class map from type-parameter name to id.
    pub(crate) class_tparams: Vec<HashMap<Symbol, TypeVarId>>,
    /// Per-method map from type-parameter name to id (parallel to methods).
    pub(crate) method_tparams: Vec<HashMap<Symbol, TypeVarId>>,
    /// AST indices: class id → index into `program.decls`.
    pub(crate) class_decl_index: Vec<usize>,
    /// Whether each global's type is known yet (during initializer checking).
    pub(crate) global_ready: Vec<bool>,
    /// Methods whose bodies still need checking.
    pub(crate) pending: Vec<crate::decls::PendingBody>,
    /// Constructor parameter info, by ctor method id.
    pub(crate) ctor_infos: HashMap<MethodId, crate::decls::CtorInfo>,
    /// Global initializer AST locations (global, decl index).
    pub(crate) global_sources: Vec<(vgl_ir::GlobalId, usize)>,
    /// Number of header params per class (the first own fields).
    pub(crate) header_param_count: Vec<usize>,
}

impl<'d> Analyzer<'d> {
    pub(crate) fn new(diags: &'d mut Diagnostics, names: &'d Interner) -> Analyzer<'d> {
        Analyzer {
            diags,
            names,
            module: Module {
                store: TypeStore::new(),
                hier: Hierarchy::new(),
                classes: Vec::new(),
                methods: Vec::new(),
                globals: Vec::new(),
                main: None,
            },
            class_names: HashMap::new(),
            component_methods: HashMap::new(),
            component_globals: HashMap::new(),
            typevar_count: 0,
            class_tparams: Vec::new(),
            method_tparams: Vec::new(),
            class_decl_index: Vec::new(),
            global_ready: Vec::new(),
            pending: Vec::new(),
            ctor_infos: HashMap::new(),
            global_sources: Vec::new(),
            header_param_count: Vec::new(),
        }
    }

    pub(crate) fn run(&mut self, program: &ast::Program) {
        // The first two phases gate hard: a broken class graph (duplicate or
        // cyclic inheritance) would poison the topological order every later
        // phase iterates in. Past that point, analysis continues through
        // errors — bad types resolve to the poisoned `store.error`, so
        // signature collection, vtable layout, and body checking still run
        // and report everything they can find.
        // Gate on errors introduced *here*: the shared sink may already hold
        // parse errors, and those must not stop analysis of the partial AST.
        let baseline = self.diags.error_count();
        self.collect_classes(program);
        if self.diags.error_count() > baseline {
            return;
        }
        self.resolve_class_structure(program);
        if self.diags.error_count() > baseline {
            return;
        }
        self.collect_signatures(program);
        self.build_vtables();
        self.check_bodies(program);
        if self.diags.error_count() > baseline {
            return;
        }
        self.find_main();
        self.check_polymorphic_recursion();
    }

    /// Allocates a fresh, globally-unique type variable.
    pub(crate) fn fresh_typevar(&mut self) -> TypeVarId {
        let id = TypeVarId(self.typevar_count);
        self.typevar_count += 1;
        id
    }

    /// The text of an identifier.
    pub(crate) fn name(&self, s: Symbol) -> &'d str {
        &self.names[s]
    }

    pub(crate) fn error(&mut self, span: Span, msg: impl Into<String>) {
        self.diags.error(span, msg);
    }

    /// Renders a type for diagnostics.
    pub(crate) fn show(&self, t: Type) -> String {
        vgl_types::display_type(&self.module.store, &self.module.hier, t)
    }

    fn find_main(&mut self) {
        if let Some(&m) = self.component_methods.get(&sym::MAIN) {
            let method = self.module.method(m);
            if !method.type_params.is_empty() {
                self.diags.error(
                    Span::point(0),
                    "main must not have type parameters",
                );
                return;
            }
            if method.param_count != 0 {
                self.diags.error(
                    Span::point(0),
                    "main must take no parameters",
                );
                return;
            }
            self.module.main = Some(m);
        }
    }

    /// Rejects polymorphic recursion (paper §4.3, footnote 9: "Virgil
    /// disallows polymorphic recursion but it is not currently enforced" —
    /// we enforce it, conservatively, so monomorphization terminates).
    ///
    /// An edge `caller → callee` is *expanding* when a type argument at the
    /// call site mentions one of the caller's type parameters nested inside a
    /// type constructor (e.g. `f<List<T>>` inside `f<T>`). A cycle containing
    /// an expanding edge would make monomorphization diverge.
    fn check_polymorphic_recursion(&mut self) {
        use vgl_ir::visit::for_each_expr;
        use vgl_ir::ExprKind;
        let n = self.module.methods.len();
        // edges[m] = (callee, expanding)
        let mut edges: Vec<Vec<(usize, bool)>> = vec![Vec::new(); n];
        for (i, m) in self.module.methods.iter().enumerate() {
            let Some(body) = &m.body else { continue };
            let own_vars: Vec<TypeVarId> = self.module.all_type_params(MethodId(i as u32));
            if own_vars.is_empty() {
                continue;
            }
            let store = &self.module.store;
            let mut local_edges = Vec::new();
            for_each_expr(body, &mut |e| {
                let (callee, targs): (Option<usize>, &[Type]) = match &e.kind {
                    ExprKind::CallStatic { method, type_args, .. }
                    | ExprKind::CallVirtual { method, type_args, .. }
                    | ExprKind::BindMethod { method, type_args, .. }
                    | ExprKind::FuncRef { method, type_args } => {
                        (Some(method.index()), type_args)
                    }
                    _ => (None, &[]),
                };
                let Some(callee) = callee else { return };
                let mut expanding = false;
                let mut mentions = false;
                for &t in targs {
                    let mut vars = Vec::new();
                    store.collect_vars(t, &mut vars);
                    let uses_own = vars.iter().any(|v| own_vars.contains(v));
                    if uses_own {
                        mentions = true;
                        // Bare `Var` arguments are non-expanding; anything
                        // nesting an own var inside a constructor expands.
                        if !matches!(store.kind(t), vgl_types::TypeKind::Var(_)) {
                            expanding = true;
                        }
                    }
                }
                if mentions {
                    local_edges.push((callee, expanding));
                }
            });
            edges[i] = local_edges;
        }
        // A cycle through an expanding edge u→v exists iff u is reachable
        // from v. Check each expanding edge with a DFS.
        for u in 0..n {
            for &(v, expanding) in &edges[u] {
                if !expanding {
                    continue;
                }
                let mut visited = vec![false; n];
                let mut stack = vec![v];
                visited[v] = true;
                let mut reachable = v == u;
                while let Some(cur) = stack.pop() {
                    if cur == u {
                        reachable = true;
                        break;
                    }
                    for &(next, _) in &edges[cur] {
                        if !visited[next] {
                            visited[next] = true;
                            stack.push(next);
                        }
                    }
                }
                if reachable {
                    let name = self.module.methods[u].name.clone();
                    self.diags.error(
                        Span::point(0),
                        format!(
                            "polymorphic recursion is not allowed: method '{name}' \
                             recursively instantiates itself at a larger type"
                        ),
                    );
                    return;
                }
            }
        }
    }
}
