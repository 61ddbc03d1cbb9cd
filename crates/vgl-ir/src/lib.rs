//! # vgl-ir
//!
//! The typed intermediate representation of virgil-rs: a fully-resolved,
//! type-annotated program ([`Module`]) with tree-structured method bodies.
//!
//! The IR is designed to support both of the paper's execution strategies:
//!
//! * the **interpreter** executes it directly, passing type arguments as
//!   invisible runtime values and boxing tuples (paper §4.3's description of
//!   the Virgil interpreter), and
//! * the **compiler** rewrites it — monomorphization substitutes type
//!   arguments away, normalization flattens every tuple to scalars — and then
//!   lowers to bytecode.
//!
//! [`ops`] holds the scalar operator semantics shared by every execution
//! engine; [`validate`] checks the two pipeline invariants (monomorphic,
//! tuple-free); [`metrics`] measures code size for the expansion experiment.

#![warn(missing_docs)]

pub mod body;
pub mod metrics;
pub mod module;
pub mod ops;
pub mod validate;
pub mod visit;

pub use body::{Body, Builtin, Expr, ExprKind, FieldRef, Oper, Stmt};
pub use metrics::{measure, ModuleSize};
pub use module::{Class, Field, Global, GlobalId, Local, LocalId, Method, MethodId, MethodKind, Module};
pub use ops::Exception;
pub use validate::{assert_valid, check_monomorphic, check_normalized, check_tuple_free, Violation};
