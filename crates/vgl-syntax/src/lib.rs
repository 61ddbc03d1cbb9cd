//! # vgl-syntax
//!
//! Front end of **virgil-rs**, a Rust reproduction of the language described in
//! *Harmonizing Classes, Functions, Tuples, and Type Parameters in Virgil III*
//! (Titzer, PLDI 2013): source model, lexer, parser, AST, and pretty-printer.
//!
//! ```
//! use vgl_syntax::{parse_program, Diagnostics};
//!
//! let mut diags = Diagnostics::new();
//! let program = parse_program("def main() -> int { return 42; }", &mut diags);
//! assert!(!diags.has_errors());
//! assert_eq!(program.decls.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod diag;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod span;
pub mod symbol;
pub mod token;

pub use ast::Program;
pub use diag::{Diagnostic, Diagnostics, Severity};
pub use parser::{parse_expr, parse_program, parse_tokens, parse_type};
pub use printer::{print_expr, print_program, print_type};
pub use span::{LineCol, LineMap, Span};
pub use symbol::{Interner, Symbol};
