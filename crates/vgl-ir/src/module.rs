//! The typed program representation: classes, methods, globals.
//!
//! A [`Module`] is the output of semantic analysis and the unit every later
//! stage operates on: the interpreter executes it directly (with runtime type
//! arguments), and the compiler passes (reachability, monomorphization,
//! normalization, optimization) rewrite it.

use crate::body::{Body, Expr};
use vgl_types::{ClassId, Hierarchy, Type, TypeStore, TypeVarId};

/// Identifies a method in [`Module::methods`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct MethodId(pub u32);

impl MethodId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies a top-level (component) variable in [`Module::globals`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

impl GlobalId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies a local slot within a method body (parameters first).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct LocalId(pub u32);

impl LocalId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A whole typed program.
#[derive(Debug)]
pub struct Module {
    /// The type interner.
    pub store: TypeStore,
    /// The class hierarchy (parallel to `classes`).
    pub hier: Hierarchy,
    /// All classes, indexed by [`ClassId`].
    pub classes: Vec<Class>,
    /// All methods (class methods, constructors, and component methods).
    pub methods: Vec<Method>,
    /// Component variables, initialized in declaration order before `main`.
    pub globals: Vec<Global>,
    /// The entry point, if the program declares `def main`.
    pub main: Option<MethodId>,
}

impl Module {
    /// The class with id `c`.
    pub fn class(&self, c: ClassId) -> &Class {
        &self.classes[c.index()]
    }

    /// The method with id `m`.
    pub fn method(&self, m: MethodId) -> &Method {
        &self.methods[m.index()]
    }

    /// The global with id `g`.
    pub fn global(&self, g: GlobalId) -> &Global {
        &self.globals[g.index()]
    }

    /// Total number of fields in objects of class `c`, including inherited
    /// fields. Field slot layout is: all parent slots first, then own fields.
    pub fn object_size(&self, c: ClassId) -> usize {
        let cl = self.class(c);
        cl.first_field_slot + cl.fields.len()
    }

    /// Resolves a virtual dispatch: the implementation of `decl` (a virtual
    /// method declared in some superclass of `dynamic_class`) for objects
    /// whose dynamic class is `dynamic_class`.
    pub fn resolve_virtual(&self, dynamic_class: ClassId, decl: MethodId) -> MethodId {
        match self.method(decl).vtable_index {
            Some(i) => self.class(dynamic_class).vtable[i],
            None => decl, // private or non-virtual: static binding
        }
    }

    /// Finds a class by name (for tests and tools).
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.classes
            .iter()
            .position(|c| c.name == name)
            .map(|i| ClassId(i as u32))
    }

    /// Finds a component (top-level) method by name.
    pub fn method_by_name(&self, name: &str) -> Option<MethodId> {
        self.methods
            .iter()
            .position(|m| m.owner.is_none() && m.name == name)
            .map(|i| MethodId(i as u32))
    }

    /// Finds a method of a class by name.
    pub fn class_method_by_name(&self, c: ClassId, name: &str) -> Option<MethodId> {
        let mut cur = Some(c);
        while let Some(cl) = cur {
            for &m in &self.class(cl).methods {
                if self.method(m).name == name {
                    return Some(m);
                }
            }
            cur = self.class(cl).parent;
        }
        None
    }

    /// The concatenated type parameters a call site must instantiate for
    /// `m`: the owner class's parameters followed by the method's own.
    pub fn all_type_params(&self, m: MethodId) -> Vec<TypeVarId> {
        let method = self.method(m);
        let mut out = Vec::new();
        if let Some(c) = method.owner {
            out.extend(self.class(c).type_params.iter().copied());
        }
        out.extend(method.type_params.iter().copied());
        out
    }
}

/// A class definition.
#[derive(Clone, Debug, Hash)]
pub struct Class {
    /// Class name.
    pub name: String,
    /// Declared type parameters.
    pub type_params: Vec<TypeVarId>,
    /// Parent class, if any.
    pub parent: Option<ClassId>,
    /// Type arguments supplied to the parent (in terms of own parameters).
    pub parent_args: Vec<Type>,
    /// Own (non-inherited) fields.
    pub fields: Vec<Field>,
    /// Slot index of the first own field (== number of inherited fields).
    pub first_field_slot: usize,
    /// Own methods (excluding the constructor).
    pub methods: Vec<MethodId>,
    /// The constructor, if the class declares or inherits the need for one.
    pub ctor: Option<MethodId>,
    /// Virtual dispatch table: implementation for each virtual slot.
    pub vtable: Vec<MethodId>,
    /// True if the class has (or inherits) unimplemented abstract methods.
    pub is_abstract: bool,
}

/// A field of a class.
#[derive(Clone, Debug, Hash)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// `true` for `var`, `false` for `def`.
    pub mutable: bool,
    /// Declared type (may mention the class's type parameters).
    pub ty: Type,
    /// Absolute slot index in the object layout.
    pub slot: usize,
    /// Initializer expression evaluated during construction, if any.
    pub init: Option<Expr>,
}

/// How a method may be invoked.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum MethodKind {
    /// An ordinary method (virtual when owned by a class and not private).
    Normal,
    /// A constructor.
    Ctor,
    /// An abstract method (no body; must be overridden).
    Abstract,
}

/// A method definition.
#[derive(Clone, Debug, Hash)]
pub struct Method {
    /// Method name (`new` for constructors).
    pub name: String,
    /// Owning class; `None` for component (top-level) methods.
    pub owner: Option<ClassId>,
    /// `private` methods are statically bound and externally invisible.
    pub is_private: bool,
    /// What kind of method this is.
    pub kind: MethodKind,
    /// The method's own type parameters (not including the owner's).
    pub type_params: Vec<TypeVarId>,
    /// Number of parameters (including the receiver for instance methods,
    /// which is local slot 0 named `this`).
    pub param_count: usize,
    /// All local slots; the first `param_count` are parameters.
    pub locals: Vec<Local>,
    /// Return type.
    pub ret: Type,
    /// The body; `None` for abstract methods.
    pub body: Option<Body>,
    /// Virtual slot index, if dispatched through the vtable.
    pub vtable_index: Option<usize>,
}

/// A local variable or parameter slot.
#[derive(Clone, Debug, Hash)]
pub struct Local {
    /// Name (for diagnostics and disassembly).
    pub name: String,
    /// Static type.
    pub ty: Type,
    /// `true` for `var`, `false` for `def` and parameters.
    pub mutable: bool,
}

/// A component (top-level) variable.
#[derive(Clone, Debug, Hash)]
pub struct Global {
    /// Name.
    pub name: String,
    /// `true` for `var`.
    pub mutable: bool,
    /// Static type.
    pub ty: Type,
    /// Initializer, run before `main` in declaration order.
    pub init: Option<Expr>,
    /// Temporary slots used while evaluating the initializer.
    pub locals: Vec<Local>,
}
