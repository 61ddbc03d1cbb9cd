//! Code-size metrics over modules, used by the monomorphization expansion
//! experiment (E4) and by `CompileStats` in the facade crate.

use crate::module::Module;
use crate::visit::{count_exprs, for_each_expr_in};

/// Size metrics for one module snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ModuleSize {
    /// Number of method definitions with bodies.
    pub methods: usize,
    /// Number of class definitions.
    pub classes: usize,
    /// Total IR expression nodes across all bodies and initializers.
    pub expr_nodes: usize,
    /// Total local slots across all methods.
    pub locals: usize,
}

impl ModuleSize {
    /// Expansion ratio of `self` relative to `base` in expression nodes.
    pub fn expansion_over(&self, base: &ModuleSize) -> f64 {
        if base.expr_nodes == 0 {
            return 1.0;
        }
        self.expr_nodes as f64 / base.expr_nodes as f64
    }
}

impl std::fmt::Display for ModuleSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} classes, {} methods, {} IR nodes, {} locals",
            self.classes, self.methods, self.expr_nodes, self.locals
        )
    }
}

/// Measures a module.
pub fn measure(module: &Module) -> ModuleSize {
    let mut size = ModuleSize {
        classes: module.classes.len(),
        ..ModuleSize::default()
    };
    for m in &module.methods {
        if let Some(body) = &m.body {
            size.methods += 1;
            size.expr_nodes += count_exprs(body);
            size.locals += m.locals.len();
        }
    }
    let inits = module.globals.iter().map(|g| &g.init);
    let field_inits = module.classes.iter().flat_map(|c| c.fields.iter().map(|fd| &fd.init));
    for init in inits.chain(field_inits).flatten() {
        for_each_expr_in(init, &mut |_| size.expr_nodes += 1);
    }
    size
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_module() -> Module {
        Module {
            store: vgl_types::TypeStore::new(),
            hier: vgl_types::Hierarchy::new(),
            classes: vec![],
            methods: vec![],
            globals: vec![],
            main: None,
        }
    }

    #[test]
    fn empty_module_measures_zero() {
        let size = measure(&empty_module());
        assert_eq!(size, ModuleSize::default());
        assert_eq!(size.expr_nodes, 0);
    }

    #[test]
    fn expansion_over_zero_node_base_is_one() {
        let base = ModuleSize::default();
        let after = ModuleSize { expr_nodes: 100, ..ModuleSize::default() };
        // A zero-node base would divide by zero; the ratio is defined as 1.0.
        assert_eq!(after.expansion_over(&base), 1.0);
        assert_eq!(base.expansion_over(&base), 1.0);
    }

    #[test]
    fn expansion_over_reports_node_ratio() {
        let base = ModuleSize { expr_nodes: 50, ..ModuleSize::default() };
        let after = ModuleSize { expr_nodes: 125, methods: 7, ..ModuleSize::default() };
        assert_eq!(after.expansion_over(&base), 2.5);
        // Shrinkage is reported below 1.0, not clamped.
        assert_eq!(base.expansion_over(&after), 0.4);
    }

    #[test]
    fn empty_module_expansion_is_stable() {
        let e = measure(&empty_module());
        assert_eq!(e.expansion_over(&e), 1.0);
    }
}
