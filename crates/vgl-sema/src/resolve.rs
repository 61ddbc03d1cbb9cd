//! Resolution of syntactic type expressions to interned types.

use crate::analyzer::Analyzer;
use std::collections::HashMap;
use vgl_syntax::ast::{TypeExpr, TypeExprKind};
use vgl_syntax::symbol::{sym, Symbol};
use vgl_types::{Type, TypeVarId};

/// The set of type parameters in scope while resolving a type expression.
#[derive(Clone, Debug, Default)]
pub struct TypeScope {
    /// Name → variable id, innermost scope last (method params shadow class
    /// params, which is itself an error Virgil reports — we report too).
    pub vars: HashMap<Symbol, TypeVarId>,
}

impl TypeScope {
    /// An empty scope.
    pub fn new() -> TypeScope {
        TypeScope::default()
    }

}

impl Analyzer<'_> {
    /// Resolves a syntactic type to an interned [`Type`].
    ///
    /// Unknown names and arity errors are reported and yield the poisoned
    /// error type (`store.error`), which unifies with everything, so one bad
    /// type annotation does not stop the rest of the module from being
    /// checked. The `Option` return is kept for call-site ergonomics; every
    /// path returns `Some`.
    pub(crate) fn resolve_type(&mut self, te: &TypeExpr, scope: &TypeScope) -> Option<Type> {
        match &te.kind {
            TypeExprKind::Tuple(elems) => {
                let mut tys = Vec::with_capacity(elems.len());
                for e in elems {
                    tys.push(self.resolve_type(e, scope)?);
                }
                Some(self.module.store.tuple(tys))
            }
            TypeExprKind::Function(p, r) => {
                let pt = self.resolve_type(p, scope)?;
                let rt = self.resolve_type(r, scope)?;
                Some(self.module.store.function(pt, rt))
            }
            TypeExprKind::Named { name, args } => {
                let text = self.name(name.sym);
                // Type parameters shadow nothing and accept no arguments.
                if let Some(&v) = scope.vars.get(&name.sym) {
                    if !args.is_empty() {
                        self.error(name.span, format!("type parameter '{text}' takes no type arguments"));
                        return Some(self.module.store.error);
                    }
                    return Some(self.module.store.var(v));
                }
                match name.sym {
                    sym::VOID | sym::BOOL | sym::BYTE | sym::INT | sym::STRING => {
                        if !args.is_empty() {
                            self.error(
                                name.span,
                                format!("primitive type '{text}' takes no type arguments"),
                            );
                            return Some(self.module.store.error);
                        }
                        Some(match name.sym {
                            sym::VOID => self.module.store.void,
                            sym::BOOL => self.module.store.bool_,
                            sym::BYTE => self.module.store.byte,
                            sym::INT => self.module.store.int,
                            _ => self.module.store.string,
                        })
                    }
                    sym::ARRAY => {
                        if args.len() != 1 {
                            self.error(name.span, "Array takes exactly one type argument");
                            return Some(self.module.store.error);
                        }
                        let elem = self.resolve_type(&args[0], scope)?;
                        Some(self.module.store.array(elem))
                    }
                    other => {
                        let Some(&cid) = self.class_names.get(&other) else {
                            self.error(name.span, format!("unknown type '{text}'"));
                            return Some(self.module.store.error);
                        };
                        let want = self.module.class(cid).type_params.len();
                        if args.len() != want {
                            self.error(
                                name.span,
                                format!(
                                    "class '{text}' expects {want} type argument(s), found {}",
                                    args.len()
                                ),
                            );
                            return Some(self.module.store.error);
                        }
                        let mut tys = Vec::with_capacity(args.len());
                        for a in args {
                            tys.push(self.resolve_type(a, scope)?);
                        }
                        Some(self.module.store.class(cid, tys))
                    }
                }
            }
        }
    }
}
