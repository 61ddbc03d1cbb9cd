//! The class hierarchy: single inheritance, no universal supertype.
//!
//! Semantic analysis registers every class here; subtyping and cast/query
//! decisions consult the hierarchy. A class declared without a parent "begins
//! a new hierarchy which is unrelated to other class hierarchies" (paper
//! §2.1) — there is no `Object`.

use crate::store::{ClassId, Type, TypeStore, TypeVarId};
use std::collections::HashMap;

/// Metadata for one class, as needed by the type system.
#[derive(Clone, Debug, Hash)]
pub struct ClassInfo {
    /// Class name (for display).
    pub name: String,
    /// The class's type parameters, in declaration order.
    pub type_params: Vec<TypeVarId>,
    /// Parent class and the type arguments supplied to it, expressed in terms
    /// of this class's own type parameters. `None` for a hierarchy root.
    pub parent: Option<(ClassId, Vec<Type>)>,
}

/// All classes in a program.
#[derive(Clone, Debug, Default, Hash)]
pub struct Hierarchy {
    classes: Vec<ClassInfo>,
}

impl Hierarchy {
    /// Creates an empty hierarchy.
    pub fn new() -> Hierarchy {
        Hierarchy::default()
    }

    /// Registers a class and returns its id.
    pub fn add_class(&mut self, info: ClassInfo) -> ClassId {
        let id = ClassId(self.classes.len() as u32);
        self.classes.push(info);
        id
    }

    /// Metadata for `c`.
    ///
    /// # Panics
    /// Panics if `c` was not produced by this hierarchy.
    pub fn info(&self, c: ClassId) -> &ClassInfo {
        &self.classes[c.index()]
    }

    /// Mutable metadata for `c` (used while declaring classes).
    pub fn info_mut(&mut self, c: ClassId) -> &mut ClassInfo {
        &mut self.classes[c.index()]
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True if no classes are registered.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Iterates over `(id, info)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ClassId, &ClassInfo)> {
        self.classes
            .iter()
            .enumerate()
            .map(|(i, info)| (ClassId(i as u32), info))
    }

    /// True if `c` is `d` or transitively extends `d`.
    pub fn is_subclass(&self, c: ClassId, d: ClassId) -> bool {
        let mut cur = c;
        loop {
            if cur == d {
                return true;
            }
            match self.info(cur).parent {
                Some((p, _)) => cur = p,
                None => return false,
            }
        }
    }

    /// The depth of `c` in its hierarchy (roots have depth 0).
    pub fn depth(&self, c: ClassId) -> usize {
        let mut n = 0;
        let mut cur = c;
        while let Some((p, _)) = self.info(cur).parent {
            n += 1;
            cur = p;
        }
        n
    }

    /// Given the class type `C<args>`, returns the *substituted* parent class
    /// type, or `None` for a root.
    pub fn parent_type(
        &self,
        store: &mut TypeStore,
        class: ClassId,
        args: &[Type],
    ) -> Option<Type> {
        let info = self.info(class);
        let (p, pargs) = info.parent.clone()?;
        let subst: HashMap<TypeVarId, Type> = info
            .type_params
            .iter()
            .copied()
            .zip(args.iter().copied())
            .collect();
        let sub_args: Vec<Type> = pargs.iter().map(|&a| store.substitute(a, &subst)).collect();
        Some(store.class(p, sub_args))
    }

    /// Walks the supertype chain of `C<args>` (inclusive), yielding each class
    /// type with type arguments substituted.
    pub fn supertypes(&self, store: &mut TypeStore, mut ty: Type) -> Vec<Type> {
        let mut out = Vec::new();
        loop {
            out.push(ty);
            let (c, args) = match store.kind(ty) {
                crate::store::TypeKind::Class(c, args) => (*c, args.clone()),
                _ => return out,
            };
            match self.parent_type(store, c, &args) {
                Some(p) => ty = p,
                None => return out,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_hierarchy() -> (TypeStore, Hierarchy, ClassId, ClassId) {
        // class Animal { }  class Bat extends Animal { }
        let store = TypeStore::new();
        let mut h = Hierarchy::new();
        let animal = h.add_class(ClassInfo {
            name: "Animal".into(),
            type_params: vec![],
            parent: None,
        });
        let bat = h.add_class(ClassInfo {
            name: "Bat".into(),
            type_params: vec![],
            parent: Some((animal, vec![])),
        });
        (store, h, animal, bat)
    }

    #[test]
    fn subclass_relation() {
        let (_s, h, animal, bat) = simple_hierarchy();
        assert!(h.is_subclass(bat, animal));
        assert!(h.is_subclass(bat, bat));
        assert!(!h.is_subclass(animal, bat));
    }

    #[test]
    fn depth_counts_ancestors() {
        let (_s, h, animal, bat) = simple_hierarchy();
        assert_eq!(h.depth(animal), 0);
        assert_eq!(h.depth(bat), 1);
    }

    #[test]
    fn generic_parent_substitution() {
        // class Box<T> extends Any { }  (paper §3.4)
        let mut store = TypeStore::new();
        let mut h = Hierarchy::new();
        let any = h.add_class(ClassInfo {
            name: "Any".into(),
            type_params: vec![],
            parent: None,
        });
        let tv = TypeVarId(0);
        let boxc = h.add_class(ClassInfo {
            name: "Box".into(),
            type_params: vec![tv],
            parent: Some((any, vec![])),
        });
        let b_int = store.class(boxc, vec![store.int]);
        let sups = h.supertypes(&mut store, b_int);
        let any_t = store.class(any, vec![]);
        assert_eq!(sups, vec![b_int, any_t]);
    }

    #[test]
    fn generic_parent_passes_args_through() {
        // class Sub<T> extends Super<(T, int)> { }
        let mut store = TypeStore::new();
        let mut h = Hierarchy::new();
        let sup_tv = TypeVarId(0);
        let sup = h.add_class(ClassInfo {
            name: "Super".into(),
            type_params: vec![sup_tv],
            parent: None,
        });
        let sub_tv = TypeVarId(1);
        let sub_tv_ty = store.var(sub_tv);
        let parent_arg = store.tuple(vec![sub_tv_ty, store.int]);
        let sub = h.add_class(ClassInfo {
            name: "Sub".into(),
            type_params: vec![sub_tv],
            parent: Some((sup, vec![parent_arg])),
        });
        let sub_bool = store.class(sub, vec![store.bool_]);
        let sups = h.supertypes(&mut store, sub_bool);
        let expect_arg = store.tuple(vec![store.bool_, store.int]);
        let expect = store.class(sup, vec![expect_arg]);
        assert_eq!(sups[1], expect);
    }
}
