//! Pretty-printer: AST → canonical source text.
//!
//! The printer produces parseable Virgil source. The round-trip property
//! `parse(print(parse(s)))` structurally equals `parse(s)` is enforced by the
//! integration test suite.

use crate::ast::*;
use crate::symbol::Interner;
use std::fmt::Write as _;

/// Pretty-prints a whole program.
pub fn print_program(p: &Program) -> String {
    let mut pr = Printer::new(&p.names);
    for d in &p.decls {
        pr.decl(d);
        pr.out.push('\n');
    }
    pr.out
}

/// Pretty-prints a type expression whose identifiers are in `names`.
pub fn print_type(t: &TypeExpr, names: &Interner) -> String {
    let mut pr = Printer::new(names);
    pr.type_expr(t);
    pr.out
}

/// Pretty-prints an expression whose identifiers are in `names`.
pub fn print_expr(e: &Expr, names: &Interner) -> String {
    let mut pr = Printer::new(names);
    pr.expr(e);
    pr.out
}

struct Printer<'n> {
    out: String,
    indent: usize,
    names: &'n Interner,
}

impl<'n> Printer<'n> {
    fn new(names: &'n Interner) -> Printer<'n> {
        Printer { out: String::new(), indent: 0, names }
    }

    fn name(&mut self, id: &Ident) {
        self.out.push_str(&self.names[id.sym]);
    }

    fn nl(&mut self) {
        self.out.push('\n');
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
    }

    fn decl(&mut self, d: &Decl) {
        match d {
            Decl::Class(c) => self.class(c),
            Decl::Method(m) => self.method(m),
            Decl::Var(f) => self.field(f),
        }
    }

    fn class(&mut self, c: &ClassDecl) {
        self.out.push_str("class ");
        self.name(&c.name);
        self.type_params(&c.type_params);
        if !c.header_params.is_empty() {
            self.out.push('(');
            for (i, p) in c.header_params.iter().enumerate() {
                if i > 0 {
                    self.out.push_str(", ");
                }
                self.name(&p.name);
                self.out.push_str(": ");
                self.type_expr(&p.ty);
            }
            self.out.push(')');
        }
        if let Some(parent) = &c.parent {
            self.out.push_str(" extends ");
            self.name(&parent.name);
            if !parent.type_args.is_empty() {
                self.type_args(&parent.type_args);
            }
        }
        self.out.push_str(" {");
        self.indent += 1;
        for m in &c.members {
            self.nl();
            match m {
                Member::Field(f) => self.field(f),
                Member::Method(m) => self.method(m),
                Member::Ctor(ct) => self.ctor(ct),
            }
        }
        self.indent -= 1;
        self.nl();
        self.out.push('}');
    }

    fn field(&mut self, f: &FieldDecl) {
        self.out.push_str(if f.mutable { "var " } else { "def " });
        self.name(&f.name);
        if let Some(t) = &f.ty {
            self.out.push_str(": ");
            self.type_expr(t);
        }
        if let Some(e) = &f.init {
            self.out.push_str(" = ");
            self.expr(e);
        }
        self.out.push(';');
    }

    fn method(&mut self, m: &MethodDecl) {
        if m.is_private {
            self.out.push_str("private ");
        }
        self.out.push_str("def ");
        self.name(&m.name);
        self.type_params(&m.type_params);
        self.out.push('(');
        for (i, p) in m.params.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.name(&p.name);
            self.out.push_str(": ");
            self.type_expr(&p.ty);
        }
        self.out.push(')');
        if let Some(r) = &m.ret {
            self.out.push_str(" -> ");
            self.type_expr(r);
        }
        match &m.body {
            Some(b) => {
                self.out.push(' ');
                self.block(b);
            }
            None => self.out.push(';'),
        }
    }

    fn ctor(&mut self, c: &CtorDecl) {
        self.out.push_str("new(");
        for (i, p) in c.params.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.name(&p.name);
            if let Some(t) = &p.ty {
                self.out.push_str(": ");
                self.type_expr(t);
            }
        }
        self.out.push(')');
        if let Some(args) = &c.super_args {
            self.out.push_str(" super(");
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    self.out.push_str(", ");
                }
                self.expr(a);
            }
            self.out.push(')');
        }
        self.out.push(' ');
        self.block(&c.body);
    }

    fn type_params(&mut self, tps: &[Ident]) {
        if tps.is_empty() {
            return;
        }
        self.out.push('<');
        for (i, t) in tps.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.name(t);
        }
        self.out.push('>');
    }

    fn type_args(&mut self, args: &[TypeExpr]) {
        if args.is_empty() {
            return;
        }
        self.out.push('<');
        for (i, a) in args.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.type_expr(a);
        }
        self.out.push('>');
    }

    fn type_expr(&mut self, t: &TypeExpr) {
        match &t.kind {
            TypeExprKind::Named { name, args } => {
                self.name(name);
                self.type_args(args);
            }
            TypeExprKind::Tuple(elems) => {
                self.out.push('(');
                for (i, e) in elems.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.type_expr(e);
                }
                self.out.push(')');
            }
            TypeExprKind::Function(p, r) => {
                // Parenthesize a function-typed parameter: (A -> B) -> C.
                if matches!(p.kind, TypeExprKind::Function(..)) {
                    self.out.push('(');
                    self.type_expr(p);
                    self.out.push(')');
                } else {
                    self.type_expr(p);
                }
                self.out.push_str(" -> ");
                self.type_expr(r);
            }
        }
    }

    fn block(&mut self, b: &Block) {
        self.out.push('{');
        self.indent += 1;
        for s in &b.stmts {
            self.nl();
            self.stmt(s);
        }
        self.indent -= 1;
        self.nl();
        self.out.push('}');
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Block(b) => self.block(b),
            StmtKind::If(c, t, e) => {
                self.out.push_str("if (");
                self.expr(c);
                self.out.push_str(") ");
                self.stmt(t);
                if let Some(e) = e {
                    self.out.push_str(" else ");
                    self.stmt(e);
                }
            }
            StmtKind::While(c, b) => {
                self.out.push_str("while (");
                self.expr(c);
                self.out.push_str(") ");
                self.stmt(b);
            }
            StmtKind::For(f) => {
                let ForLoop { decl, init, cond, update, body } = &**f;
                self.out.push_str("for (");
                if let Some(binders) = decl {
                    self.out.push_str("var ");
                    self.binders(binders);
                } else if let Some(e) = init {
                    self.expr(e);
                }
                self.out.push_str("; ");
                if let Some(c) = cond {
                    self.expr(c);
                }
                self.out.push_str("; ");
                if let Some(u) = update {
                    self.expr(u);
                }
                self.out.push_str(") ");
                self.stmt(body);
            }
            StmtKind::Local { mutable, binders } => {
                self.out.push_str(if *mutable { "var " } else { "def " });
                self.binders(binders);
                self.out.push(';');
            }
            StmtKind::Return(e) => {
                self.out.push_str("return");
                if let Some(e) = e {
                    self.out.push(' ');
                    self.expr(e);
                }
                self.out.push(';');
            }
            StmtKind::Break => self.out.push_str("break;"),
            StmtKind::Continue => self.out.push_str("continue;"),
            StmtKind::Expr(e) => {
                self.expr(e);
                self.out.push(';');
            }
            StmtKind::Empty => self.out.push(';'),
        }
    }

    fn binders(&mut self, binders: &[VarBinder]) {
        for (i, b) in binders.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.name(&b.name);
            if let Some(t) = &b.ty {
                self.out.push_str(": ");
                self.type_expr(t);
            }
            if let Some(e) = &b.init {
                self.out.push_str(" = ");
                self.expr(e);
            }
        }
    }

    /// Prints `e` with parentheses if its precedence is lower than `min`.
    fn expr_prec(&mut self, e: &Expr, min: u8) {
        let p = prec(e);
        if p < min {
            self.out.push('(');
            self.expr(e);
            self.out.push(')');
        } else {
            self.expr(e);
        }
    }

    fn expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::IntLit(v) => {
                let _ = write!(self.out, "{v}");
            }
            ExprKind::ByteLit(b) => {
                let c = *b as char;
                if c.is_ascii_graphic() && c != '\'' && c != '\\' {
                    let _ = write!(self.out, "'{c}'");
                } else {
                    let _ = write!(
                        self.out,
                        "{}",
                        match b {
                            b'\n' => "'\\n'".to_string(),
                            b'\r' => "'\\r'".to_string(),
                            b'\t' => "'\\t'".to_string(),
                            b'\\' => "'\\\\'".to_string(),
                            b'\'' => "'\\''".to_string(),
                            0 => "'\\0'".to_string(),
                            _ => format!("byte.!({b})"),
                        }
                    );
                }
            }
            ExprKind::BoolLit(b) => {
                let _ = write!(self.out, "{b}");
            }
            ExprKind::StringLit(bytes) => {
                self.out.push('"');
                for &b in bytes {
                    match b {
                        b'\n' => self.out.push_str("\\n"),
                        b'\r' => self.out.push_str("\\r"),
                        b'\t' => self.out.push_str("\\t"),
                        b'\\' => self.out.push_str("\\\\"),
                        b'"' => self.out.push_str("\\\""),
                        0 => self.out.push_str("\\0"),
                        _ => self.out.push(b as char),
                    }
                }
                self.out.push('"');
            }
            ExprKind::NullLit => self.out.push_str("null"),
            ExprKind::Tuple(elems) => {
                self.out.push('(');
                for (i, x) in elems.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.expr(x);
                }
                self.out.push(')');
            }
            ExprKind::ArrayLit(elems) => {
                self.out.push('[');
                for (i, x) in elems.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.expr(x);
                }
                self.out.push(']');
            }
            ExprKind::Name { name, type_args } => {
                self.name(name);
                self.type_args(type_args);
            }
            ExprKind::Member { recv, member, type_args } => {
                self.expr_prec(recv, PREC_POSTFIX);
                self.out.push('.');
                self.out.push_str(member.text(self.names));
                self.type_args(type_args);
            }
            ExprKind::TupleIndex { recv, index } => {
                self.expr_prec(recv, PREC_POSTFIX);
                let _ = write!(self.out, ".{index}");
            }
            ExprKind::Call { func, args } => {
                self.expr_prec(func, PREC_POSTFIX);
                self.out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.expr(a);
                }
                self.out.push(')');
            }
            ExprKind::Index { recv, index } => {
                self.expr_prec(recv, PREC_POSTFIX);
                self.out.push('[');
                self.expr(index);
                self.out.push(']');
            }
            ExprKind::Not(x) => {
                self.out.push('!');
                self.expr_prec(x, PREC_UNARY);
            }
            ExprKind::Neg(x) => {
                self.out.push('-');
                self.expr_prec(x, PREC_UNARY);
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let p = bin_prec(*op);
                self.expr_prec(lhs, p);
                let _ = write!(self.out, " {} ", op.symbol());
                self.expr_prec(rhs, p + 1);
            }
            ExprKind::And(l, r) => {
                self.expr_prec(l, PREC_AND);
                self.out.push_str(" && ");
                self.expr_prec(r, PREC_AND + 1);
            }
            ExprKind::Or(l, r) => {
                self.expr_prec(l, PREC_OR);
                self.out.push_str(" || ");
                self.expr_prec(r, PREC_OR + 1);
            }
            ExprKind::Ternary { cond, then, els } => {
                self.expr_prec(cond, PREC_TERNARY + 1);
                self.out.push_str(" ? ");
                self.expr(then);
                self.out.push_str(" : ");
                self.expr_prec(els, PREC_TERNARY);
            }
            ExprKind::Assign { target, value } => {
                self.expr_prec(target, PREC_TERNARY + 1);
                self.out.push_str(" = ");
                self.expr_prec(value, PREC_ASSIGN);
            }
            // Error placeholders only exist for source that already failed to
            // parse, so the printed form does not need to re-lex.
            ExprKind::Error => self.out.push_str("<error>"),
        }
    }
}

const PREC_ASSIGN: u8 = 1;
const PREC_TERNARY: u8 = 2;
const PREC_OR: u8 = 3;
const PREC_AND: u8 = 4;
const PREC_UNARY: u8 = 13;
const PREC_POSTFIX: u8 = 14;

fn bin_prec(op: BinOp) -> u8 {
    match op {
        BinOp::BitOr => 5,
        BinOp::BitXor => 6,
        BinOp::BitAnd => 7,
        BinOp::Eq | BinOp::Ne => 8,
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 9,
        BinOp::Shl | BinOp::Shr => 10,
        BinOp::Add | BinOp::Sub => 11,
        BinOp::Mul | BinOp::Div | BinOp::Mod => 12,
    }
}

fn prec(e: &Expr) -> u8 {
    match &e.kind {
        ExprKind::Assign { .. } => PREC_ASSIGN,
        ExprKind::Ternary { .. } => PREC_TERNARY,
        ExprKind::Or(..) => PREC_OR,
        ExprKind::And(..) => PREC_AND,
        ExprKind::Binary { op, .. } => bin_prec(*op),
        ExprKind::Not(..) | ExprKind::Neg(..) => PREC_UNARY,
        _ => PREC_POSTFIX + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Diagnostics;
    use crate::parser::{parse_expr, parse_program};

    fn roundtrip_expr(src: &str) {
        let mut d = Diagnostics::new();
        let mut names = Interner::new();
        let e1 = parse_expr(src, &mut names, &mut d).expect("parse 1");
        assert!(!d.has_errors(), "{d:?}");
        let printed = print_expr(&e1, &names);
        let mut d2 = Diagnostics::new();
        let mut names2 = Interner::new();
        let e2 = parse_expr(&printed, &mut names2, &mut d2).expect("parse 2");
        assert!(!d2.has_errors(), "reparse failed for {printed:?}: {d2:?}");
        assert_eq!(print_expr(&e2, &names2), printed, "fixpoint for {src:?}");
    }

    #[test]
    fn roundtrip_core_exprs() {
        for src in [
            "1 + 2 * 3",
            "(1 + 2) * 3",
            "a.m(5)",
            "A.new(0, 1)",
            "int.+",
            "A.!<B>",
            "List<bool>.?(a)",
            "z ? f : g",
            "a && b || !c",
            "x = y = 5",
            "(0, 1)",
            "z.1.0",
            "[1, 2, 3]",
            "a[i] = b[j]",
            "-x - -y",
            "\"hi\\n\"",
        ] {
            roundtrip_expr(src);
        }
    }

    #[test]
    fn roundtrip_program() {
        let src = "class List<T> {\n\
                     var head: T;\n\
                     var tail: List<T>;\n\
                     new(head, tail) { }\n\
                   }\n\
                   def apply<A>(list: List<A>, f: A -> void) {\n\
                     for (l = list; l != null; l = l.tail) f(l.head);\n\
                   }";
        let mut d = Diagnostics::new();
        let p1 = parse_program(src, &mut d);
        assert!(!d.has_errors());
        let printed = print_program(&p1);
        let mut d2 = Diagnostics::new();
        let p2 = parse_program(&printed, &mut d2);
        assert!(!d2.has_errors(), "reparse failed:\n{printed}\n{d2:?}");
        assert_eq!(print_program(&p2), printed);
    }

    #[test]
    fn function_type_param_parenthesized() {
        let mut d = Diagnostics::new();
        let mut names = Interner::new();
        let t = crate::parser::parse_type("(A -> B) -> C", &mut names, &mut d).expect("type");
        assert_eq!(print_type(&t, &names), "(A -> B) -> C");
        let t = crate::parser::parse_type("A -> B -> C", &mut names, &mut d).expect("type");
        assert_eq!(print_type(&t, &names), "A -> B -> C");
    }
}
