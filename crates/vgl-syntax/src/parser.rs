//! Recursive-descent parser for Virgil III core.
//!
//! The parser is mostly LL(1) with two non-LL features:
//!
//! * **Speculative type-argument parsing.** In expression context, `a<b` is
//!   ambiguous between a comparison and an explicit type application
//!   `a<b>(...)`. Like C#, on `<` after a name or member the parser attempts a
//!   type-argument list and commits only when the closing `>` is followed by a
//!   token that cannot continue a comparison (`( ) ] } . , ; : ? == !=` or
//!   end of input); otherwise it backtracks.
//! * **`>>` splitting.** Nested generics such as `List<List<int>>` end in a
//!   `>>` token, which the parser splits into two `>`s on demand. Splits are
//!   journaled so backtracking undoes them.

use crate::ast::*;
use crate::diag::Diagnostics;
use crate::lexer::{
    self, decode_byte_lit, decode_int_lit, decode_neg_int_lit, decode_string_lit,
};
use crate::span::Span;
use crate::symbol::Interner;
use crate::token::{Token, TokenKind};

/// Maximum nesting depth of expressions, types, and statements. This is a
/// semantic bound, not a stack-safety bound: the parser hops to a fresh
/// segment thread every `STACK_SEGMENT_DEPTH` levels (see
/// `Parser::in_fresh_segment`), so no host thread overflows no matter how
/// deep the input nests. The limit exists so every later recursive consumer
/// of the AST (semantic analysis, printing, dropping the `Box` chains) sees
/// bounded nesting, and it bounds the number of live segment threads to
/// `MAX_NESTING_DEPTH / STACK_SEGMENT_DEPTH`. One source-level nesting level
/// may charge the counter up to twice (assignment and ternary layers both
/// guard), so the practical paren depth is at least half this.
pub const MAX_NESTING_DEPTH: u32 = 512;

/// Depth interval at which the parser moves the remaining recursion onto a
/// fresh thread with a known-large stack. Sized so one segment's worth of
/// parser frames (~25 KiB per nesting level in a debug build) fits easily in
/// even a small (1 MiB) host thread stack.
const STACK_SEGMENT_DEPTH: u32 = 24;

/// Stack size for each parser segment thread. Reserved lazily by the OS, so
/// untouched pages cost nothing.
const STACK_SEGMENT_BYTES: usize = 16 << 20;

fn new_parser<'a, 'd>(
    source: &'a str,
    names: &'d mut Interner,
    diags: &'d mut Diagnostics,
) -> Parser<'a, 'd> {
    let tokens = lexer::lex(source, diags);
    token_parser(source, tokens, names, diags)
}

fn token_parser<'a, 'd>(
    source: &'a str,
    tokens: Vec<Token>,
    names: &'d mut Interner,
    diags: &'d mut Diagnostics,
) -> Parser<'a, 'd> {
    Parser {
        src: source,
        tokens,
        pos: 0,
        diags,
        names,
        next_id: 0,
        splits: Vec::new(),
        depth: 0,
    }
}

/// Parses a whole program. Errors are reported into `diags`; the returned
/// program contains the declarations that parsed successfully, with
/// [`ExprKind::Error`] placeholders where expressions failed to parse.
pub fn parse_program(source: &str, diags: &mut Diagnostics) -> Program {
    let tokens = lexer::lex(source, diags);
    parse_tokens(source, tokens, diags)
}

/// [`parse_program`] over `tokens` already lexed from `source` by
/// [`lexer::lex`] (whose diagnostics are already in `diags`), for callers
/// that time or count the lexer separately.
pub fn parse_tokens(source: &str, tokens: Vec<Token>, diags: &mut Diagnostics) -> Program {
    let mut names = Interner::new();
    let (decls, node_count) = token_parser(source, tokens, &mut names, diags).program();
    Program { decls, node_count, names }
}

/// Parses a single expression (used by tests and tools), interning its
/// identifiers into `names`.
pub fn parse_expr(
    source: &str,
    names: &mut Interner,
    diags: &mut Diagnostics,
) -> Option<Expr> {
    let mut p = new_parser(source, names, diags);
    let e = p.expr()?;
    if p.peek() != TokenKind::Eof {
        p.error_here("expected end of input after expression");
        return None;
    }
    Some(e)
}

/// Parses a single type expression (used by tests and tools), interning its
/// identifiers into `names`.
pub fn parse_type(
    source: &str,
    names: &mut Interner,
    diags: &mut Diagnostics,
) -> Option<TypeExpr> {
    let mut p = new_parser(source, names, diags);
    let t = p.type_expr()?;
    if p.peek() != TokenKind::Eof {
        p.error_here("expected end of input after type");
        return None;
    }
    Some(t)
}

struct Parser<'a, 'd> {
    src: &'a str,
    tokens: Vec<Token>,
    pos: usize,
    diags: &'d mut Diagnostics,
    /// Where identifiers are interned. Speculative parses that backtrack
    /// may leave names behind; a symbol is an identity, so that is harmless.
    names: &'d mut Interner,
    next_id: NodeId,
    /// Journal of `>>`→`>` splits: (token index, original token).
    splits: Vec<(usize, Token)>,
    /// Current nesting depth, bounded by [`MAX_NESTING_DEPTH`].
    depth: u32,
}

#[derive(Clone, Copy)]
struct Snapshot {
    pos: usize,
    splits_len: usize,
    next_id: NodeId,
    diags_len: usize,
}

impl<'a> Parser<'a, '_> {
    // ---- cursor ------------------------------------------------------------

    fn cur(&self) -> Token {
        self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek(&self) -> TokenKind {
        self.cur().kind
    }

    fn peek_ahead(&self, n: usize) -> TokenKind {
        self.tokens
            .get(self.pos + n)
            .map(|t| t.kind)
            .unwrap_or(TokenKind::Eof)
    }

    fn bump(&mut self) -> Token {
        let t = self.cur();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at(&self, k: TokenKind) -> bool {
        self.peek() == k
    }

    fn eat(&mut self, k: TokenKind) -> bool {
        if self.at(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, k: TokenKind) -> Option<Token> {
        if self.at(k) {
            Some(self.bump())
        } else {
            let cur = self.cur();
            self.diags.error(
                cur.span,
                format!("expected {k}, found {}", cur.kind),
            );
            None
        }
    }

    /// Consumes a `>`; splits a `>>` into two `>`s if necessary.
    fn expect_gt(&mut self) -> Option<()> {
        match self.peek() {
            TokenKind::Gt => {
                self.bump();
                Some(())
            }
            TokenKind::Ge => {
                // `>=` can end a type-arg list followed by `=`: split.
                let t = self.cur();
                self.splits.push((self.pos, t));
                self.tokens[self.pos] = Token {
                    kind: TokenKind::Assign,
                    span: Span::new(t.span.start + 1, t.span.end),
                };
                Some(())
            }
            TokenKind::Shr => {
                let t = self.cur();
                self.splits.push((self.pos, t));
                self.tokens[self.pos] = Token {
                    kind: TokenKind::Gt,
                    span: Span::new(t.span.start + 1, t.span.end),
                };
                Some(())
            }
            _ => {
                let cur = self.cur();
                self.diags
                    .error(cur.span, format!("expected '>', found {}", cur.kind));
                None
            }
        }
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            pos: self.pos,
            splits_len: self.splits.len(),
            next_id: self.next_id,
            diags_len: self.diags.len(),
        }
    }

    fn restore(&mut self, s: Snapshot) {
        // Unwind the `>>` split journal defensively: a pop can only come up
        // empty if a snapshot from a stale parse leaked in, and a malformed
        // `>>` in type position must degrade to a diagnostic, not a panic.
        while self.splits.len() > s.splits_len {
            match self.splits.pop() {
                Some((i, t)) if i < self.tokens.len() => self.tokens[i] = t,
                Some(_) | None => {
                    self.error_here("malformed '>>' in type position");
                    break;
                }
            }
        }
        self.pos = s.pos;
        self.next_id = s.next_id;
        // Diagnostics are append-only; speculative failures must not leak
        // errors.
        self.diags.truncate(s.diags_len);
    }

    /// Bumps the nesting depth; reports "too deeply nested" and returns
    /// `None` at the limit, which unwinds (via `?`) to the nearest recovery
    /// point.
    fn enter(&mut self) -> Option<()> {
        if self.depth >= MAX_NESTING_DEPTH {
            let span = self.cur().span;
            self.diags.error(span, "expression too deeply nested");
            self.diags.note_last(
                None,
                format!("the parser limits nesting to {MAX_NESTING_DEPTH} levels"),
            );
            return None;
        }
        self.depth += 1;
        Some(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    /// Runs `f` under the nesting-depth guard. Every [`STACK_SEGMENT_DEPTH`]
    /// levels the remaining recursion is moved onto a fresh thread with a
    /// 16 MiB stack, so deeply nested input can never overflow the host
    /// thread's stack — the depth limit is enforced for semantic reasons
    /// only (see [`MAX_NESTING_DEPTH`]).
    fn guarded<T: Send>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Option<T> + Send,
    ) -> Option<T> {
        self.enter()?;
        let r = if self.depth.is_multiple_of(STACK_SEGMENT_DEPTH) {
            self.in_fresh_segment(f)
        } else {
            f(self)
        };
        self.leave();
        r
    }

    /// Continues parsing on a new thread with a known-large stack. Scoped, so
    /// the borrow of `self` flows through; panics propagate unchanged. If the
    /// OS refuses a thread, the input is treated as too deeply nested rather
    /// than risking an overflow inline.
    fn in_fresh_segment<T: Send>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Option<T> + Send,
    ) -> Option<T> {
        let this = &mut *self;
        let outcome = std::thread::scope(|scope| {
            std::thread::Builder::new()
                .name("vgl-parse-segment".into())
                .stack_size(STACK_SEGMENT_BYTES)
                .spawn_scoped(scope, move || f(this))
                .map(|handle| match handle.join() {
                    Ok(v) => v,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .ok()
        });
        outcome.unwrap_or_else(|| {
            let span = self.cur().span;
            self.diags.error(span, "expression too deeply nested");
            self.diags
                .note_last(None, "could not reserve stack space for the nested expression");
            None
        })
    }

    fn fresh_id(&mut self) -> NodeId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn error_here(&mut self, msg: impl Into<String>) {
        let span = self.cur().span;
        self.diags.error(span, msg);
    }

    fn ident(&mut self) -> Option<Ident> {
        let t = self.expect(TokenKind::Ident)?;
        Some(Ident { sym: self.names.intern(t.text(self.src)), span: t.span })
    }

    // ---- program & declarations -------------------------------------------

    /// The top-level declarations and the node count.
    fn program(&mut self) -> (Vec<Decl>, NodeId) {
        let mut decls = Vec::new();
        while !self.at(TokenKind::Eof) {
            let before = self.pos;
            match self.decl() {
                Some(d) => decls.push(d),
                None => {
                    // Recover: skip to a likely declaration boundary.
                    if self.pos == before {
                        self.bump();
                    }
                    while !matches!(
                        self.peek(),
                        TokenKind::KwClass
                            | TokenKind::KwDef
                            | TokenKind::KwVar
                            | TokenKind::KwPrivate
                            | TokenKind::Eof
                    ) {
                        self.bump();
                    }
                }
            }
        }
        (decls, self.next_id)
    }

    fn decl(&mut self) -> Option<Decl> {
        match self.peek() {
            TokenKind::KwClass => self.class_decl().map(Decl::Class),
            TokenKind::KwDef | TokenKind::KwVar | TokenKind::KwPrivate => {
                self.def_or_var_decl()
            }
            _ => {
                self.error_here("expected a declaration ('class', 'def', or 'var')");
                None
            }
        }
    }

    /// Parses either a method or a variable/field declaration starting at
    /// `private? (def|var)`.
    fn def_or_var_decl(&mut self) -> Option<Decl> {
        let is_private = self.eat(TokenKind::KwPrivate);
        let mutable = match self.peek() {
            TokenKind::KwVar => {
                self.bump();
                true
            }
            TokenKind::KwDef => {
                self.bump();
                false
            }
            _ => {
                self.error_here("expected 'def' or 'var'");
                return None;
            }
        };
        let name = self.ident()?;
        // `def name <tparams>? (` is a method; anything else is a variable.
        if !mutable && (self.at(TokenKind::LParen) || self.at(TokenKind::Lt)) {
            let m = self.method_tail(is_private, name)?;
            return Some(Decl::Method(m));
        }
        if is_private {
            self.error_here("'private' is only valid on methods");
        }
        let f = self.field_tail(mutable, name)?;
        Some(Decl::Var(f))
    }

    fn class_decl(&mut self) -> Option<ClassDecl> {
        let start = self.expect(TokenKind::KwClass)?.span;
        let name = self.ident()?;
        let type_params = if self.at(TokenKind::Lt) {
            self.type_param_list()?
        } else {
            Vec::new()
        };
        let mut header_params = Vec::new();
        if self.eat(TokenKind::LParen) {
            if !self.at(TokenKind::RParen) {
                loop {
                    header_params.push(self.param()?);
                    if !self.eat(TokenKind::Comma) {
                        break;
                    }
                }
            }
            self.expect(TokenKind::RParen)?;
        }
        let parent = if self.eat(TokenKind::KwExtends) {
            let pname = self.ident()?;
            let type_args = if self.at(TokenKind::Lt) {
                self.type_arg_list()?
            } else {
                Vec::new()
            };
            let span = pname.span;
            Some(ParentRef { name: pname, type_args, span })
        } else {
            None
        };
        self.expect(TokenKind::LBrace)?;
        let mut members = Vec::new();
        while !self.at(TokenKind::RBrace) && !self.at(TokenKind::Eof) {
            let before = self.pos;
            match self.member() {
                Some(m) => members.push(m),
                None => {
                    if self.pos == before {
                        self.bump();
                    }
                    while !matches!(
                        self.peek(),
                        TokenKind::KwDef
                            | TokenKind::KwVar
                            | TokenKind::KwNew
                            | TokenKind::KwPrivate
                            | TokenKind::RBrace
                            | TokenKind::Eof
                    ) {
                        self.bump();
                    }
                }
            }
        }
        let end = self.expect(TokenKind::RBrace)?.span;
        Some(ClassDecl {
            name,
            type_params,
            header_params,
            parent,
            members,
            span: start.to(end),
        })
    }

    fn member(&mut self) -> Option<Member> {
        match self.peek() {
            TokenKind::KwNew => self.ctor_decl().map(Member::Ctor),
            TokenKind::KwPrivate | TokenKind::KwDef | TokenKind::KwVar => {
                let is_private = self.eat(TokenKind::KwPrivate);
                let mutable = match self.peek() {
                    TokenKind::KwVar => {
                        self.bump();
                        true
                    }
                    TokenKind::KwDef => {
                        self.bump();
                        false
                    }
                    _ => {
                        self.error_here("expected 'def' or 'var' after 'private'");
                        return None;
                    }
                };
                let name = self.ident()?;
                if !mutable && (self.at(TokenKind::LParen) || self.at(TokenKind::Lt)) {
                    return self.method_tail(is_private, name).map(Member::Method);
                }
                if is_private {
                    self.error_here("'private' is only valid on methods");
                }
                self.field_tail(mutable, name).map(Member::Field)
            }
            _ => {
                self.error_here("expected a class member ('def', 'var', or 'new')");
                None
            }
        }
    }

    fn field_tail(&mut self, mutable: bool, name: Ident) -> Option<FieldDecl> {
        let ty = if self.eat(TokenKind::Colon) {
            Some(self.type_expr()?)
        } else {
            None
        };
        let init = if self.eat(TokenKind::Assign) {
            Some(self.expr()?)
        } else {
            None
        };
        let end = self.expect(TokenKind::Semi)?.span;
        let span = name.span.to(end);
        Some(FieldDecl { mutable, name, ty, init, id: self.fresh_id(), span })
    }

    fn method_tail(&mut self, is_private: bool, name: Ident) -> Option<MethodDecl> {
        let type_params = if self.at(TokenKind::Lt) {
            self.type_param_list()?
        } else {
            Vec::new()
        };
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.at(TokenKind::RParen) {
            loop {
                params.push(self.param()?);
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        let ret = if self.eat(TokenKind::Arrow) {
            Some(self.type_expr()?)
        } else {
            None
        };
        let (body, end) = if self.at(TokenKind::LBrace) {
            let b = self.block()?;
            let sp = b.span;
            (Some(b), sp)
        } else {
            let sp = self.expect(TokenKind::Semi)?.span;
            (None, sp)
        };
        let span = name.span.to(end);
        Some(MethodDecl { is_private, name, type_params, params, ret, body, span })
    }

    fn ctor_decl(&mut self) -> Option<CtorDecl> {
        let start = self.expect(TokenKind::KwNew)?.span;
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.at(TokenKind::RParen) {
            loop {
                let name = self.ident()?;
                let ty = if self.eat(TokenKind::Colon) {
                    Some(self.type_expr()?)
                } else {
                    None
                };
                params.push(CtorParam { name, ty, id: self.fresh_id() });
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        let super_args = if self.eat(TokenKind::KwSuper) {
            self.expect(TokenKind::LParen)?;
            let mut args = Vec::new();
            if !self.at(TokenKind::RParen) {
                loop {
                    args.push(self.expr()?);
                    if !self.eat(TokenKind::Comma) {
                        break;
                    }
                }
            }
            self.expect(TokenKind::RParen)?;
            Some(args)
        } else {
            None
        };
        let body = self.block()?;
        let span = start.to(body.span);
        Some(CtorDecl { params, super_args, body, span })
    }

    fn param(&mut self) -> Option<Param> {
        let name = self.ident()?;
        self.expect(TokenKind::Colon)?;
        let ty = self.type_expr()?;
        Some(Param { name, ty, id: self.fresh_id() })
    }

    fn type_param_list(&mut self) -> Option<Vec<Ident>> {
        self.expect(TokenKind::Lt)?;
        let mut out = Vec::new();
        loop {
            out.push(self.ident()?);
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        self.expect_gt()?;
        Some(out)
    }

    fn type_arg_list(&mut self) -> Option<Vec<TypeExpr>> {
        self.expect(TokenKind::Lt)?;
        let mut out = Vec::new();
        loop {
            out.push(self.type_expr()?);
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        self.expect_gt()?;
        Some(out)
    }

    // ---- types -------------------------------------------------------------

    fn type_expr(&mut self) -> Option<TypeExpr> {
        self.guarded(|p| p.type_expr_inner())
    }

    fn type_expr_inner(&mut self) -> Option<TypeExpr> {
        let lhs = self.type_atom()?;
        if self.eat(TokenKind::Arrow) {
            let rhs = self.type_expr()?; // right-associative
            let span = lhs.span.to(rhs.span);
            return Some(TypeExpr {
                kind: TypeExprKind::Function(Box::new(lhs), Box::new(rhs)),
                span,
            });
        }
        Some(lhs)
    }

    fn type_atom(&mut self) -> Option<TypeExpr> {
        match self.peek() {
            TokenKind::LParen => {
                let start = self.bump().span;
                let mut elems = Vec::new();
                if !self.at(TokenKind::RParen) {
                    loop {
                        elems.push(self.type_expr()?);
                        if !self.eat(TokenKind::Comma) {
                            break;
                        }
                    }
                }
                let end = self.expect(TokenKind::RParen)?.span;
                let span = start.to(end);
                if elems.len() == 1 {
                    // Degenerate rule: (T) is exactly T.
                    let mut t = elems.pop().expect("one element");
                    t.span = span;
                    Some(t)
                } else {
                    Some(TypeExpr { kind: TypeExprKind::Tuple(elems), span })
                }
            }
            TokenKind::Ident => {
                let name = self.ident()?;
                let args = if self.at(TokenKind::Lt) {
                    self.type_arg_list()?
                } else {
                    Vec::new()
                };
                let span = name.span;
                Some(TypeExpr { kind: TypeExprKind::Named { name, args }, span })
            }
            _ => {
                self.error_here("expected a type");
                None
            }
        }
    }

    // ---- statements ---------------------------------------------------------

    fn block(&mut self) -> Option<Block> {
        let start = self.expect(TokenKind::LBrace)?.span;
        let mut stmts = Vec::new();
        while !self.at(TokenKind::RBrace) && !self.at(TokenKind::Eof) {
            let before = self.pos;
            match self.stmt() {
                Some(s) => stmts.push(s),
                None => {
                    if self.pos == before {
                        self.bump();
                    }
                    // Recover to next statement boundary.
                    while !matches!(
                        self.peek(),
                        TokenKind::Semi | TokenKind::RBrace | TokenKind::Eof
                    ) {
                        self.bump();
                    }
                    self.eat(TokenKind::Semi);
                }
            }
        }
        let end = self.expect(TokenKind::RBrace)?.span;
        Some(Block { stmts, span: start.to(end) })
    }

    fn stmt(&mut self) -> Option<Stmt> {
        self.guarded(|p| p.stmt_inner())
    }

    fn stmt_inner(&mut self) -> Option<Stmt> {
        let start = self.cur().span;
        let kind = match self.peek() {
            TokenKind::LBrace => StmtKind::Block(self.block()?),
            TokenKind::KwIf => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(TokenKind::RParen)?;
                let then = Box::new(self.stmt()?);
                let els = if self.eat(TokenKind::KwElse) {
                    Some(Box::new(self.stmt()?))
                } else {
                    None
                };
                StmtKind::If(cond, then, els)
            }
            TokenKind::KwWhile => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(TokenKind::RParen)?;
                let body = Box::new(self.stmt()?);
                StmtKind::While(cond, body)
            }
            TokenKind::KwFor => return self.for_stmt(),
            TokenKind::KwVar | TokenKind::KwDef => {
                let mutable = self.bump().kind == TokenKind::KwVar;
                let binders = self.var_binders()?;
                self.expect(TokenKind::Semi)?;
                StmtKind::Local { mutable, binders }
            }
            TokenKind::KwReturn => {
                self.bump();
                let e = if self.at(TokenKind::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(TokenKind::Semi)?;
                StmtKind::Return(e)
            }
            TokenKind::KwBreak => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                StmtKind::Break
            }
            TokenKind::KwContinue => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                StmtKind::Continue
            }
            TokenKind::Semi => {
                self.bump();
                StmtKind::Empty
            }
            _ => {
                let e = self.expr()?;
                self.expect(TokenKind::Semi)?;
                StmtKind::Expr(e)
            }
        };
        let span = start.to(self.tokens[self.pos.saturating_sub(1)].span);
        Some(Stmt { kind, span, id: self.fresh_id() })
    }

    fn var_binders(&mut self) -> Option<Vec<VarBinder>> {
        let mut binders = Vec::new();
        loop {
            let name = self.ident()?;
            let ty = if self.eat(TokenKind::Colon) {
                Some(self.type_expr()?)
            } else {
                None
            };
            let init = if self.eat(TokenKind::Assign) {
                Some(self.expr()?)
            } else {
                None
            };
            binders.push(VarBinder { name, ty, init, id: self.fresh_id() });
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        Some(binders)
    }

    fn for_stmt(&mut self) -> Option<Stmt> {
        let start = self.expect(TokenKind::KwFor)?.span;
        self.expect(TokenKind::LParen)?;
        let mut decl = None;
        let mut init = None;
        if !self.at(TokenKind::Semi) {
            if self.at(TokenKind::KwVar) || self.at(TokenKind::KwDef) {
                self.bump();
                decl = Some(self.var_binders()?);
            } else if self.at(TokenKind::Ident) && self.peek_ahead(1) == TokenKind::Assign {
                // The paper's idiom `for (l = list; ...)` *declares* l.
                decl = Some(self.var_binders()?);
            } else {
                init = Some(self.expr()?);
            }
        }
        self.expect(TokenKind::Semi)?;
        let cond = if self.at(TokenKind::Semi) {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(TokenKind::Semi)?;
        let update = if self.at(TokenKind::RParen) {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(TokenKind::RParen)?;
        let body = self.stmt()?;
        let span = start.to(body.span);
        Some(Stmt {
            kind: StmtKind::For(Box::new(ForLoop { decl, init, cond, update, body })),
            span,
            id: self.fresh_id(),
        })
    }

    // ---- expressions ---------------------------------------------------------

    fn expr(&mut self) -> Option<Expr> {
        self.assign_expr()
    }

    fn assign_expr(&mut self) -> Option<Expr> {
        self.guarded(|p| p.assign_expr_inner())
    }

    fn assign_expr_inner(&mut self) -> Option<Expr> {
        let lhs = self.ternary_expr()?;
        if self.at(TokenKind::Assign) {
            self.bump();
            let value = self.assign_expr()?;
            let span = lhs.span.to(value.span);
            return Some(Expr {
                kind: ExprKind::Assign { target: Box::new(lhs), value: Box::new(value) },
                span,
                id: self.fresh_id(),
            });
        }
        Some(lhs)
    }

    fn ternary_expr(&mut self) -> Option<Expr> {
        self.guarded(|p| p.ternary_expr_inner())
    }

    fn ternary_expr_inner(&mut self) -> Option<Expr> {
        let cond = self.or_expr()?;
        if self.at(TokenKind::Question) {
            self.bump();
            let then = self.expr()?;
            self.expect(TokenKind::Colon)?;
            let els = self.ternary_expr()?;
            let span = cond.span.to(els.span);
            return Some(Expr {
                kind: ExprKind::Ternary {
                    cond: Box::new(cond),
                    then: Box::new(then),
                    els: Box::new(els),
                },
                span,
                id: self.fresh_id(),
            });
        }
        Some(cond)
    }

    fn or_expr(&mut self) -> Option<Expr> {
        let mut lhs = self.and_expr()?;
        while self.at(TokenKind::OrOr) {
            self.bump();
            let rhs = self.and_expr()?;
            let span = lhs.span.to(rhs.span);
            lhs = Expr {
                kind: ExprKind::Or(Box::new(lhs), Box::new(rhs)),
                span,
                id: self.fresh_id(),
            };
        }
        Some(lhs)
    }

    fn and_expr(&mut self) -> Option<Expr> {
        let mut lhs = self.bitor_expr()?;
        while self.at(TokenKind::AndAnd) {
            self.bump();
            let rhs = self.bitor_expr()?;
            let span = lhs.span.to(rhs.span);
            lhs = Expr {
                kind: ExprKind::And(Box::new(lhs), Box::new(rhs)),
                span,
                id: self.fresh_id(),
            };
        }
        Some(lhs)
    }

    fn bitor_expr(&mut self) -> Option<Expr> {
        self.binary_expr(0)
    }

    /// Binary operator levels, loosest first.
    const LEVELS: &'static [&'static [(TokenKind, BinOp)]] = &[
        &[(TokenKind::Pipe, BinOp::BitOr)],
        &[(TokenKind::Caret, BinOp::BitXor)],
        &[(TokenKind::Amp, BinOp::BitAnd)],
        &[(TokenKind::Eq, BinOp::Eq), (TokenKind::Ne, BinOp::Ne)],
        &[
            (TokenKind::Lt, BinOp::Lt),
            (TokenKind::Le, BinOp::Le),
            (TokenKind::Gt, BinOp::Gt),
            (TokenKind::Ge, BinOp::Ge),
        ],
        &[(TokenKind::Shl, BinOp::Shl), (TokenKind::Shr, BinOp::Shr)],
        &[(TokenKind::Plus, BinOp::Add), (TokenKind::Minus, BinOp::Sub)],
        &[
            (TokenKind::Star, BinOp::Mul),
            (TokenKind::Slash, BinOp::Div),
            (TokenKind::Percent, BinOp::Mod),
        ],
    ];

    /// The [`Self::LEVELS`] index and operator of a binary operator token.
    fn binary_op(k: TokenKind) -> Option<(usize, BinOp)> {
        Self::LEVELS.iter().enumerate().find_map(|(level, ops)| {
            ops.iter().find(|&&(tk, _)| tk == k).map(|&(_, op)| (level, op))
        })
    }

    /// Precedence climbing over [`Self::LEVELS`]: parses an operand, then
    /// folds in every operator at `min_level` or tighter, left-associatively.
    /// An operand costs one call, not one per level; the recursion only
    /// deepens when a tighter operator follows a looser one.
    fn binary_expr(&mut self, min_level: usize) -> Option<Expr> {
        let mut lhs = self.unary_expr()?;
        while let Some((level, op)) = Self::binary_op(self.peek()) {
            if level < min_level {
                break;
            }
            self.bump();
            let rhs = self.binary_expr(level + 1)?;
            let span = lhs.span.to(rhs.span);
            lhs = Expr {
                kind: ExprKind::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) },
                span,
                id: self.fresh_id(),
            };
        }
        Some(lhs)
    }

    fn unary_expr(&mut self) -> Option<Expr> {
        // Collect prefix operators iteratively so `----…x` costs no native
        // stack in the parser, then apply them innermost-first.
        let mut prefixes: Vec<Token> = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Minus => {
                    // `-9223372036854775808` (`i64::MIN`) only fits in an i64
                    // as a whole: its positive half overflows, so fold the
                    // sign into the literal before decoding.
                    if self.peek_ahead(1) == TokenKind::IntLit {
                        let lit = self.tokens[self.pos + 1];
                        let text = lit.text(self.src);
                        if decode_int_lit(text).is_none() {
                            if let Some(v) = decode_neg_int_lit(text) {
                                let minus = self.bump();
                                self.bump();
                                let span = minus.span.to(lit.span);
                                let e = Expr {
                                    kind: ExprKind::IntLit(v),
                                    span,
                                    id: self.fresh_id(),
                                };
                                let e = self.postfix_tail(e)?;
                                return Some(self.apply_prefixes(prefixes, e));
                            }
                        }
                    }
                    prefixes.push(self.bump());
                }
                TokenKind::Bang => {
                    prefixes.push(self.bump());
                }
                _ => break,
            }
        }
        // A prefix run is nesting like any other: cap it so the resulting
        // `Neg`/`Not` chain stays within what downstream recursion tolerates.
        if prefixes.len() as u32 > MAX_NESTING_DEPTH {
            let span = prefixes[0].span;
            self.diags.error(span, "expression too deeply nested");
            self.diags.note_last(
                None,
                format!("the parser limits nesting to {MAX_NESTING_DEPTH} levels"),
            );
            return None;
        }
        let e = self.postfix_expr()?;
        Some(self.apply_prefixes(prefixes, e))
    }

    fn apply_prefixes(&mut self, prefixes: Vec<Token>, mut e: Expr) -> Expr {
        for t in prefixes.into_iter().rev() {
            let span = t.span.to(e.span);
            let kind = match t.kind {
                TokenKind::Minus => ExprKind::Neg(Box::new(e)),
                _ => ExprKind::Not(Box::new(e)),
            };
            e = Expr { kind, span, id: self.fresh_id() };
        }
        e
    }

    fn postfix_expr(&mut self) -> Option<Expr> {
        let e = self.primary_expr()?;
        self.postfix_tail(e)
    }

    /// Parses call/index/member/type-arg suffixes onto an already-parsed
    /// expression.
    fn postfix_tail(&mut self, mut e: Expr) -> Option<Expr> {
        loop {
            match self.peek() {
                TokenKind::LParen => {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.at(TokenKind::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    let end = self.expect(TokenKind::RParen)?.span;
                    let span = e.span.to(end);
                    e = Expr {
                        kind: ExprKind::Call { func: Box::new(e), args },
                        span,
                        id: self.fresh_id(),
                    };
                }
                TokenKind::LBracket => {
                    self.bump();
                    let idx = self.expr()?;
                    let end = self.expect(TokenKind::RBracket)?.span;
                    let span = e.span.to(end);
                    e = Expr {
                        kind: ExprKind::Index { recv: Box::new(e), index: Box::new(idx) },
                        span,
                        id: self.fresh_id(),
                    };
                }
                TokenKind::Dot => {
                    self.bump();
                    e = self.member_tail(e)?;
                }
                TokenKind::Lt => {
                    // Possible explicit type application on the expression so
                    // far, e.g. `r<(int, int)>` from listing (p7).
                    match self.try_type_args_suffix() {
                        Some(targs) => {
                            e = self.apply_type_args(e, targs)?;
                        }
                        None => return Some(e),
                    }
                }
                _ => return Some(e),
            }
        }
    }

    /// Attaches explicit type arguments to a name or member expression.
    fn apply_type_args(&mut self, e: Expr, targs: Vec<TypeExpr>) -> Option<Expr> {
        let span = e.span;
        match e.kind {
            ExprKind::Name { name, type_args } if type_args.is_empty() => Some(Expr {
                kind: ExprKind::Name { name, type_args: targs },
                span,
                id: e.id,
            }),
            ExprKind::Member { recv, member, type_args } if type_args.is_empty() => {
                Some(Expr {
                    kind: ExprKind::Member { recv, member, type_args: targs },
                    span,
                    id: e.id,
                })
            }
            _ => {
                self.diags.error(span, "type arguments are only valid on names and members");
                None
            }
        }
    }

    /// After `.`: parse a member name (identifier, `new`, tuple index, or
    /// operator member), plus optional explicit type arguments.
    fn member_tail(&mut self, recv: Expr) -> Option<Expr> {
        use TokenKind::*;
        let t = self.cur();
        // Tuple index: `e.0`.
        if t.kind == IntLit {
            self.bump();
            let text = t.text(self.src);
            let index: u32 = match text.parse() {
                Ok(i) => i,
                Err(_) => {
                    self.diags.error(t.span, "invalid tuple index");
                    0
                }
            };
            let span = recv.span.to(t.span);
            return Some(Expr {
                kind: ExprKind::TupleIndex { recv: Box::new(recv), index },
                span,
                id: self.fresh_id(),
            });
        }
        let member = match t.kind {
            Ident => {
                let id = self.ident()?;
                MemberName::Ident(id)
            }
            KwNew => {
                self.bump();
                MemberName::New(t.span)
            }
            Eq => {
                self.bump();
                MemberName::Op(OpMember::Eq, t.span)
            }
            Ne => {
                self.bump();
                MemberName::Op(OpMember::Ne, t.span)
            }
            Bang => {
                self.bump();
                MemberName::Op(OpMember::Cast, t.span)
            }
            Question => {
                self.bump();
                MemberName::Op(OpMember::Query, t.span)
            }
            Plus => {
                self.bump();
                MemberName::Op(OpMember::Add, t.span)
            }
            Minus => {
                self.bump();
                MemberName::Op(OpMember::Sub, t.span)
            }
            Star => {
                self.bump();
                MemberName::Op(OpMember::Mul, t.span)
            }
            Slash => {
                self.bump();
                MemberName::Op(OpMember::Div, t.span)
            }
            Percent => {
                self.bump();
                MemberName::Op(OpMember::Mod, t.span)
            }
            Lt => {
                self.bump();
                MemberName::Op(OpMember::Lt, t.span)
            }
            Le => {
                self.bump();
                MemberName::Op(OpMember::Le, t.span)
            }
            Gt => {
                self.bump();
                MemberName::Op(OpMember::Gt, t.span)
            }
            Ge => {
                self.bump();
                MemberName::Op(OpMember::Ge, t.span)
            }
            Amp => {
                self.bump();
                MemberName::Op(OpMember::BitAnd, t.span)
            }
            Pipe => {
                self.bump();
                MemberName::Op(OpMember::BitOr, t.span)
            }
            Caret => {
                self.bump();
                MemberName::Op(OpMember::BitXor, t.span)
            }
            Shl => {
                self.bump();
                MemberName::Op(OpMember::Shl, t.span)
            }
            Shr => {
                self.bump();
                MemberName::Op(OpMember::Shr, t.span)
            }
            _ => {
                self.error_here("expected a member name after '.'");
                return None;
            }
        };
        // Optional explicit type arguments: `A.!<B>`, `a.m<int>`.
        let type_args = if self.at(TokenKind::Lt) {
            self.try_type_args_suffix().unwrap_or_default()
        } else {
            Vec::new()
        };
        let span = recv.span.to(member.span());
        Some(Expr {
            kind: ExprKind::Member { recv: Box::new(recv), member, type_args },
            span,
            id: self.fresh_id(),
        })
    }

    /// Tokens that may legitimately follow an explicit type-argument list in
    /// expression context. Mirrors the C# disambiguation rule.
    fn type_args_follower(k: TokenKind) -> bool {
        use TokenKind::*;
        matches!(
            k,
            LParen | RParen | RBracket | RBrace | Dot | Comma | Semi | Colon | Question
                | Eq | Ne | Eof
        )
    }

    /// Attempts to parse `<T, ...>` as a type-argument list; backtracks and
    /// returns `None` if it does not parse or is not followed by a
    /// disambiguating token.
    fn try_type_args_suffix(&mut self) -> Option<Vec<TypeExpr>> {
        debug_assert!(self.at(TokenKind::Lt));
        let snap = self.snapshot();
        let result = (|| {
            let args = self.type_arg_list()?;
            if Self::type_args_follower(self.peek()) {
                Some(args)
            } else {
                None
            }
        })();
        if result.is_none() {
            self.restore(snap);
        }
        result
    }

    fn primary_expr(&mut self) -> Option<Expr> {
        let t = self.cur();
        match t.kind {
            TokenKind::IntLit => {
                self.bump();
                let text = t.text(self.src);
                let v = match decode_int_lit(text) {
                    Some(v) => v,
                    None => {
                        self.diags.error(
                            t.span,
                            format!("integer literal '{text}' out of range"),
                        );
                        self.diags.note_last(
                            None,
                            format!("integer literals must fit in an i64 ({} to {})", i64::MIN, i64::MAX),
                        );
                        0
                    }
                };
                Some(Expr { kind: ExprKind::IntLit(v), span: t.span, id: self.fresh_id() })
            }
            TokenKind::ByteLit => {
                self.bump();
                let v = decode_byte_lit(t.text(self.src)).unwrap_or(0);
                Some(Expr { kind: ExprKind::ByteLit(v), span: t.span, id: self.fresh_id() })
            }
            TokenKind::StringLit => {
                self.bump();
                let v = decode_string_lit(t.text(self.src)).unwrap_or_default();
                Some(Expr {
                    kind: ExprKind::StringLit(v),
                    span: t.span,
                    id: self.fresh_id(),
                })
            }
            TokenKind::KwTrue | TokenKind::KwFalse => {
                self.bump();
                Some(Expr {
                    kind: ExprKind::BoolLit(t.kind == TokenKind::KwTrue),
                    span: t.span,
                    id: self.fresh_id(),
                })
            }
            TokenKind::KwNull => {
                self.bump();
                Some(Expr { kind: ExprKind::NullLit, span: t.span, id: self.fresh_id() })
            }
            TokenKind::LParen => {
                let start = self.bump().span;
                let mut elems = Vec::new();
                if !self.at(TokenKind::RParen) {
                    loop {
                        elems.push(self.expr()?);
                        if !self.eat(TokenKind::Comma) {
                            break;
                        }
                    }
                }
                let end = self.expect(TokenKind::RParen)?.span;
                let span = start.to(end);
                if elems.len() == 1 {
                    // (e) is exactly e; keep the wider span.
                    let mut e = elems.pop().expect("one element");
                    e.span = span;
                    Some(e)
                } else {
                    Some(Expr {
                        kind: ExprKind::Tuple(elems),
                        span,
                        id: self.fresh_id(),
                    })
                }
            }
            TokenKind::LBracket => {
                let start = self.bump().span;
                let mut elems = Vec::new();
                if !self.at(TokenKind::RBracket) {
                    loop {
                        elems.push(self.expr()?);
                        if !self.eat(TokenKind::Comma) {
                            break;
                        }
                    }
                }
                let end = self.expect(TokenKind::RBracket)?.span;
                let span = start.to(end);
                Some(Expr { kind: ExprKind::ArrayLit(elems), span, id: self.fresh_id() })
            }
            TokenKind::Ident => {
                let name = self.ident()?;
                let span = name.span;
                Some(Expr {
                    kind: ExprKind::Name { name, type_args: Vec::new() },
                    span,
                    id: self.fresh_id(),
                })
            }
            TokenKind::Error => {
                // The lexer already reported this token; consume it and leave
                // an error placeholder so parsing continues.
                self.bump();
                Some(Expr { kind: ExprKind::Error, span: t.span, id: self.fresh_id() })
            }
            _ => {
                self.error_here(format!("expected an expression, found {}", t.kind));
                // Consume the offending token unless it can close or continue
                // an enclosing construct — leaving anchors in place lets the
                // surrounding recovery loops resynchronize on them.
                if !Self::expr_recovery_anchor(t.kind) {
                    self.bump();
                }
                Some(Expr { kind: ExprKind::Error, span: t.span, id: self.fresh_id() })
            }
        }
    }

    /// Tokens a failed `primary_expr` must not consume: closers and keywords
    /// that enclosing constructs or recovery loops synchronize on.
    fn expr_recovery_anchor(k: TokenKind) -> bool {
        use TokenKind::*;
        matches!(
            k,
            RParen | RBracket | RBrace | Semi | Comma | Colon | Eof | KwClass | KwDef
                | KwVar | KwPrivate | KwNew | KwElse | KwReturn | KwIf | KwWhile | KwFor
                | KwBreak | KwContinue
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::sym;

    fn expr_ok(src: &str) -> Expr {
        let mut d = Diagnostics::new();
        let e = parse_expr(src, &mut Interner::new(), &mut d);
        assert!(!d.has_errors(), "errors for {src:?}: {:?}", d.into_vec());
        e.expect("expression")
    }

    fn type_ok(src: &str) -> TypeExpr {
        type_and_names(src).0
    }

    fn type_and_names(src: &str) -> (TypeExpr, Interner) {
        let mut d = Diagnostics::new();
        let mut names = Interner::new();
        let t = parse_type(src, &mut names, &mut d);
        assert!(!d.has_errors(), "errors for {src:?}: {:?}", d.into_vec());
        (t.expect("type"), names)
    }

    fn program_ok(src: &str) -> Program {
        let mut d = Diagnostics::new();
        let p = parse_program(src, &mut d);
        assert!(!d.has_errors(), "errors for {src:?}: {:?}", d.into_vec());
        p
    }

    #[test]
    fn parse_simple_types() {
        assert!(matches!(type_ok("int").kind, TypeExprKind::Named { .. }));
        assert!(matches!(type_ok("(int, int)").kind, TypeExprKind::Tuple(ref v) if v.len() == 2));
        assert!(matches!(type_ok("()").kind, TypeExprKind::Tuple(ref v) if v.is_empty()));
    }

    #[test]
    fn paren_type_collapses() {
        // (T) is exactly T.
        assert!(
            matches!(type_ok("(int)").kind, TypeExprKind::Named { name, .. } if name.sym == sym::INT)
        );
    }

    #[test]
    fn function_types_right_associative() {
        let t = type_ok("int -> int -> int");
        match t.kind {
            TypeExprKind::Function(_, r) => {
                assert!(matches!(r.kind, TypeExprKind::Function(..)));
            }
            _ => panic!("expected function type"),
        }
    }

    #[test]
    fn tuple_function_types() {
        let t = type_ok("(int, int) -> bool");
        match t.kind {
            TypeExprKind::Function(p, _) => {
                assert!(matches!(p.kind, TypeExprKind::Tuple(ref v) if v.len() == 2));
            }
            _ => panic!("expected function type"),
        }
    }

    #[test]
    fn nested_generics_split_shr() {
        let (t, names) = type_and_names("List<List<int>>");
        match t.kind {
            TypeExprKind::Named { name, args } => {
                assert_eq!(&names[name.sym], "List");
                assert_eq!(args.len(), 1);
            }
            _ => panic!("expected named type"),
        }
    }

    #[test]
    fn deeply_nested_generics() {
        type_ok("List<List<List<List<int>>>>");
        type_ok("Array<(int, List<bool>)>");
    }

    #[test]
    fn parse_literals() {
        assert!(matches!(expr_ok("42").kind, ExprKind::IntLit(42)));
        assert!(matches!(expr_ok("'a'").kind, ExprKind::ByteLit(b'a')));
        assert!(matches!(expr_ok("true").kind, ExprKind::BoolLit(true)));
        assert!(matches!(expr_ok("null").kind, ExprKind::NullLit));
        assert!(matches!(expr_ok("\"hi\"").kind, ExprKind::StringLit(ref v) if v == b"hi"));
    }

    #[test]
    fn tuple_exprs_and_collapse() {
        assert!(matches!(expr_ok("(1, 2)").kind, ExprKind::Tuple(ref v) if v.len() == 2));
        assert!(matches!(expr_ok("()").kind, ExprKind::Tuple(ref v) if v.is_empty()));
        assert!(matches!(expr_ok("(1)").kind, ExprKind::IntLit(1)));
    }

    #[test]
    fn tuple_index_chain() {
        // Listing (c5): z.1.0
        let e = expr_ok("z.1.0");
        match e.kind {
            ExprKind::TupleIndex { recv, index: 0 } => {
                assert!(matches!(recv.kind, ExprKind::TupleIndex { index: 1, .. }));
            }
            _ => panic!("expected nested tuple index"),
        }
    }

    #[test]
    fn method_call_parses_as_application() {
        let e = expr_ok("a.m(5)");
        match e.kind {
            ExprKind::Call { func, args } => {
                assert_eq!(args.len(), 1);
                assert!(matches!(func.kind, ExprKind::Member { .. }));
            }
            _ => panic!("expected call"),
        }
    }

    #[test]
    fn operator_members() {
        // Listings (b8-b11).
        for src in ["byte.==", "A.!=", "int.+", "int.-", "int.<<"] {
            let e = expr_ok(src);
            assert!(
                matches!(e.kind, ExprKind::Member { member: MemberName::Op(..), .. }),
                "{src} should be an operator member"
            );
        }
    }

    #[test]
    fn cast_and_query_with_type_args() {
        // Listings (b14-b15): A.!<B>, A.?<B>.
        let e = expr_ok("A.!<B>");
        match e.kind {
            ExprKind::Member { member: MemberName::Op(OpMember::Cast, _), type_args, .. } => {
                assert_eq!(type_args.len(), 1);
            }
            other => panic!("expected cast member, got {other:?}"),
        }
        let e = expr_ok("A.?<B>");
        assert!(matches!(
            e.kind,
            ExprKind::Member { member: MemberName::Op(OpMember::Query, _), .. }
        ));
    }

    #[test]
    fn new_as_function() {
        // Listing (b7): A.new
        let e = expr_ok("A.new");
        assert!(matches!(e.kind, ExprKind::Member { member: MemberName::New(_), .. }));
    }

    #[test]
    fn generic_type_member_call() {
        // Listing (d13): List<bool>.?(a)
        let e = expr_ok("List<bool>.?(a)");
        match e.kind {
            ExprKind::Call { func, .. } => match func.kind {
                ExprKind::Member { recv, member: MemberName::Op(OpMember::Query, _), .. } => {
                    assert!(matches!(
                        recv.kind,
                        ExprKind::Name { ref type_args, .. } if type_args.len() == 1
                    ));
                }
                other => panic!("expected query member, got {other:?}"),
            },
            _ => panic!("expected call"),
        }
    }

    #[test]
    fn explicit_method_type_args() {
        // Listing (d12): apply<int>(a, print)
        let e = expr_ok("apply<int>(a, print)");
        match e.kind {
            ExprKind::Call { func, args } => {
                assert_eq!(args.len(), 2);
                assert!(matches!(
                    func.kind,
                    ExprKind::Name { ref type_args, .. } if type_args.len() == 1
                ));
            }
            _ => panic!("expected call"),
        }
    }

    #[test]
    fn comparison_not_mistaken_for_type_args() {
        let e = expr_ok("a < b");
        assert!(matches!(e.kind, ExprKind::Binary { op: BinOp::Lt, .. }));
        let e = expr_ok("a < b && c > d");
        assert!(matches!(e.kind, ExprKind::And(..)));
    }

    #[test]
    fn type_args_with_tuple_type() {
        // Listing (p7): r<(int, int)>
        let e = expr_ok("r<(int, int)>");
        assert!(matches!(
            e.kind,
            ExprKind::Name { ref type_args, .. } if type_args.len() == 1
        ));
    }

    #[test]
    fn ternary_from_listing_p3() {
        let e = expr_ok("z ? f : g");
        assert!(matches!(e.kind, ExprKind::Ternary { .. }));
    }

    #[test]
    fn precedence_mul_over_add() {
        let e = expr_ok("1 + 2 * 3");
        match e.kind {
            ExprKind::Binary { op: BinOp::Add, rhs, .. } => {
                assert!(matches!(rhs.kind, ExprKind::Binary { op: BinOp::Mul, .. }));
            }
            _ => panic!("expected add at top"),
        }
    }

    #[test]
    fn shortcircuit_parses() {
        assert!(matches!(expr_ok("a && b || c").kind, ExprKind::Or(..)));
    }

    #[test]
    fn assignment_is_right_associative() {
        let e = expr_ok("a = b = c");
        match e.kind {
            ExprKind::Assign { value, .. } => {
                assert!(matches!(value.kind, ExprKind::Assign { .. }));
            }
            _ => panic!("expected assignment"),
        }
    }

    #[test]
    fn array_literal_and_index() {
        assert!(matches!(expr_ok("[1, 2, 3]").kind, ExprKind::ArrayLit(ref v) if v.len() == 3));
        assert!(matches!(expr_ok("a[i]").kind, ExprKind::Index { .. }));
    }

    #[test]
    fn parse_class_from_listing_a() {
        let p = program_ok(
            "class A {\n\
               var f: int;\n\
               def g: int;\n\
               new(f, g) { }\n\
               def m(a: byte) -> int { return 0; }\n\
             }\n\
             class B extends A {\n\
               def m(a: byte) -> int { return 1; }\n\
             }",
        );
        assert_eq!(p.decls.len(), 2);
        match &p.decls[0] {
            Decl::Class(c) => {
                assert_eq!(&p.names[c.name.sym], "A");
                assert_eq!(c.members.len(), 4);
            }
            _ => panic!("expected class"),
        }
        match &p.decls[1] {
            Decl::Class(c) => assert!(c.parent.is_some()),
            _ => panic!("expected class"),
        }
    }

    #[test]
    fn parse_generic_class_from_listing_d() {
        let p = program_ok(
            "class List<T> {\n\
               var head: T;\n\
               var tail: List<T>;\n\
               new(head, tail) { }\n\
             }\n\
             def apply<A>(list: List<A>, f: A -> void) {\n\
               for (l = list; l != null; l = l.tail) f(l.head);\n\
             }",
        );
        assert_eq!(p.decls.len(), 2);
        match &p.decls[0] {
            Decl::Class(c) => assert_eq!(c.type_params.len(), 1),
            _ => panic!("expected class"),
        }
        match &p.decls[1] {
            Decl::Method(m) => {
                assert_eq!(m.type_params.len(), 1);
                assert_eq!(m.params.len(), 2);
            }
            _ => panic!("expected method"),
        }
    }

    #[test]
    fn parse_header_params_class_from_listing_f() {
        let p = program_ok(
            "class DatastoreInterface(\n\
               create: () -> Record,\n\
               load: Key -> Record,\n\
               store: Record -> ()) {\n\
             }",
        );
        match &p.decls[0] {
            Decl::Class(c) => assert_eq!(c.header_params.len(), 3),
            _ => panic!("expected class"),
        }
    }

    #[test]
    fn parse_abstract_method_from_listing_n() {
        let p = program_ok("class Instr { def emit(buf: Buffer); }");
        match &p.decls[0] {
            Decl::Class(c) => match &c.members[0] {
                Member::Method(m) => assert!(m.body.is_none()),
                _ => panic!("expected method"),
            },
            _ => panic!("expected class"),
        }
    }

    #[test]
    fn parse_time_example_from_listing_e() {
        program_ok(
            "def time<A, B>(func: A -> B, a: A) -> (B, int) {\n\
               var start = clockticks();\n\
               return (func(a), clockticks() - start);\n\
             }",
        );
    }

    #[test]
    fn parse_super_ctor() {
        program_ok(
            "class A { def x: int; new(x) { } }\n\
             class B extends A { new(y: int) super(y) { } }",
        );
    }

    #[test]
    fn for_loop_with_implicit_decl() {
        let p = program_ok("def f() { for (i = 0; i < 10; i = i + 1) g(i); }");
        assert_eq!(p.decls.len(), 1);
    }

    #[test]
    fn error_recovery_keeps_later_decls() {
        let mut d = Diagnostics::new();
        let p = parse_program("class A { def ; } def ok() { }", &mut d);
        assert!(d.has_errors());
        assert!(p
            .decls
            .iter()
            .any(|x| matches!(x, Decl::Method(m) if &p.names[m.name.sym] == "ok")));
    }

    #[test]
    fn var_with_multiple_binders() {
        // Listing (q1'): var b0 = "hello", b1 = 15;
        let p = program_ok("def f() { var b0 = \"hello\", b1 = 15; }");
        match &p.decls[0] {
            Decl::Method(m) => {
                let body = m.body.as_ref().expect("body");
                match &body.stmts[0].kind {
                    StmtKind::Local { binders, .. } => assert_eq!(binders.len(), 2),
                    _ => panic!("expected local"),
                }
            }
            _ => panic!("expected method"),
        }
    }

    #[test]
    fn ids_are_unique() {
        let p = program_ok("def f(x: int) -> int { return x + 1; }");
        // All ids must be below node_count and the program parse allocated some.
        assert!(p.node_count > 0);
    }

    // ---- error recovery & robustness ---------------------------------------

    #[test]
    fn min_i64_literal_lexes_via_negation() {
        let e = expr_ok("-9223372036854775808");
        assert!(matches!(e.kind, ExprKind::IntLit(i64::MIN)), "{e:?}");
        // Double negation still folds the innermost pair.
        let e = expr_ok("--9223372036854775808");
        match e.kind {
            ExprKind::Neg(inner) => assert!(matches!(inner.kind, ExprKind::IntLit(i64::MIN))),
            other => panic!("expected neg, got {other:?}"),
        }
        // Subtraction is not negation: `2-…` keeps the binary operator.
        let mut d = Diagnostics::new();
        let _ = parse_expr("2-9223372036854775808", &mut Interner::new(), &mut d);
        assert!(d.has_errors(), "positive half alone is out of range");
    }

    #[test]
    fn out_of_range_literal_reports_value() {
        let mut d = Diagnostics::new();
        let e = parse_expr("9223372036854775808", &mut Interner::new(), &mut d);
        assert!(e.is_some());
        assert!(d
            .iter()
            .any(|x| x.message.contains("9223372036854775808") && x.message.contains("out of range")));
    }

    #[test]
    fn deep_nesting_reports_instead_of_overflowing() {
        for src in [
            "(".repeat(10_000),
            "(".repeat(10_000) + "1" + &")".repeat(10_000),
            "!".repeat(10_000) + "x",
            "[".repeat(10_000),
        ] {
            let mut d = Diagnostics::new();
            let _ = parse_expr(&src, &mut Interner::new(), &mut d);
            assert!(d.has_errors(), "expected a diagnostic for {} …", &src[..8]);
            assert!(
                d.iter().any(|x| x.message.contains("too deeply nested")),
                "wanted nesting diagnostic, got {:?}",
                d.iter().take(3).collect::<Vec<_>>()
            );
        }
        // Statements and types nest through the same guard.
        let stmts = "{".repeat(10_000);
        let mut d = Diagnostics::new();
        let _ = parse_program(&format!("def f() {stmts}"), &mut d);
        assert!(d.has_errors());
        let types = "(".repeat(10_000) + "int";
        let mut d = Diagnostics::new();
        let _ = parse_type(&types, &mut Interner::new(), &mut d);
        assert!(d.has_errors());
    }

    #[test]
    fn reasonable_nesting_still_parses() {
        // 200 levels sits well past any single thread's debug-build stack
        // budget: this only passes because recursion is segmented across
        // fresh threads.
        let src = "(".repeat(200) + "1" + &")".repeat(200);
        expr_ok(&src);
        let ty = "(".repeat(200) + "int" + &")".repeat(200);
        type_ok(&ty);
    }

    #[test]
    fn stray_shr_is_diagnosed_not_panicking() {
        for src in [">>", "a >> ;", "x = >>;", "List<int>> y", "f(a >>)"] {
            let mut d = Diagnostics::new();
            let _ = parse_program(&format!("def f() {{ {src} }}"), &mut d);
            assert!(d.has_errors(), "expected errors for {src:?}");
        }
    }

    #[test]
    fn missing_expr_leaves_error_node() {
        let mut d = Diagnostics::new();
        let p = parse_program("def f() { var x = ; }", &mut d);
        assert_eq!(d.error_count(), 1, "{:?}", d.iter().collect::<Vec<_>>());
        // The declaration survives with an Error placeholder as initializer.
        match &p.decls[0] {
            Decl::Method(m) => {
                let body = m.body.as_ref().expect("body");
                match &body.stmts[0].kind {
                    StmtKind::Local { binders, .. } => {
                        let init = binders[0].init.as_ref().expect("init");
                        assert!(matches!(init.kind, ExprKind::Error));
                    }
                    other => panic!("expected local, got {other:?}"),
                }
            }
            _ => panic!("expected method"),
        }
    }

    #[test]
    fn multiple_independent_errors_all_reported() {
        let src = "def f() {\n\
                     var a = ;\n\
                     var b = 1 +;\n\
                     var c = [1, , 2];\n\
                   }";
        let mut d = Diagnostics::new();
        let _ = parse_program(src, &mut d);
        assert!(d.error_count() >= 3, "{:?}", d.iter().collect::<Vec<_>>());
    }

    #[test]
    fn missing_call_arg_recovers_within_call() {
        let mut d = Diagnostics::new();
        let p = parse_program("def f() { g(, 2); }", &mut d);
        assert_eq!(d.error_count(), 1);
        // The call still has two argument slots.
        match &p.decls[0] {
            Decl::Method(m) => {
                let body = m.body.as_ref().expect("body");
                match &body.stmts[0].kind {
                    StmtKind::Expr(e) => match &e.kind {
                        ExprKind::Call { args, .. } => assert_eq!(args.len(), 2),
                        other => panic!("expected call, got {other:?}"),
                    },
                    other => panic!("expected expr stmt, got {other:?}"),
                }
            }
            _ => panic!("expected method"),
        }
    }

    #[test]
    fn garbage_never_loops_forever() {
        // Purely adversarial token soup; success is termination + errors.
        for src in [
            "} } ) ] ; , : >> << ?",
            "class { { { def var",
            "def f() { if (x { y } }",
            "var = = = ;",
            "\u{0}\u{1}\u{2}",
        ] {
            let mut d = Diagnostics::new();
            let _ = parse_program(src, &mut d);
            assert!(d.has_errors(), "expected errors for {src:?}");
        }
    }
}
