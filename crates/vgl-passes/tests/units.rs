//! Focused pass-level tests: each optimization/normalization facility is
//! checked through its statistics and through validator behaviour.

use vgl_passes::{monomorphize, normalize, optimize, PipelineStats};
use vgl_sema::analyze;
use vgl_syntax::{parse_program, Diagnostics};

/// Compiles `src` through the shipped pipeline.
fn compile(src: &str) -> (vgl_ir::Module, PipelineStats) {
    let c = vgl::Compiler::new()
        .compile(src)
        .unwrap_or_else(|e| panic!("compile: {e}"));
    (c.compiled, c.stats)
}

fn front(src: &str) -> vgl_ir::Module {
    let mut d = Diagnostics::new();
    let ast = parse_program(src, &mut d);
    assert!(!d.has_errors(), "parse: {:?}", d.into_vec());
    match analyze(&ast, &mut d) {
        Some(m) => m,
        None => panic!("sema: {:#?}", d.into_vec()),
    }
}

#[test]
fn const_folding_collapses_arithmetic() {
    let (_, stats) = compile("def main() -> int { return 2 * 3 + 4 * 5; }");
    assert!(stats.opt.consts_folded >= 3, "{:?}", stats.opt);
}

#[test]
fn constant_division_by_zero_becomes_trap() {
    let (compiled, stats) = compile("def main() -> int { return 1 / 0; }");
    assert!(stats.opt.consts_folded >= 1);
    let mut has_trap = false;
    for meth in &compiled.methods {
        if let Some(b) = &meth.body {
            vgl_ir::visit::for_each_expr(b, &mut |e| {
                if matches!(e.kind, vgl_ir::ExprKind::Trap(_)) {
                    has_trap = true;
                }
            });
        }
    }
    assert!(has_trap, "expected a trap for constant 1/0");
}

#[test]
fn inliner_collapses_leaf_helpers() {
    let (compiled, stats) = compile(
        "def sq(x: int) -> int { return x * x; }\n\
         def main() -> int { return sq(3) + sq(4); }",
    );
    assert!(stats.opt.inlined >= 2, "{:?}", stats.opt);
    // After inlining + folding, main should contain no direct calls to sq.
    let main = compiled.main.expect("main");
    let mut calls = 0;
    vgl_ir::visit::for_each_expr(compiled.method(main).body.as_ref().expect("body"), &mut |e| {
        if matches!(e.kind, vgl_ir::ExprKind::CallStatic { .. }) {
            calls += 1;
        }
    });
    assert_eq!(calls, 0, "sq calls survive inlining");
    // And constant folding should reduce it to the literal 25.
    assert!(stats.opt.consts_folded >= 2);
}

#[test]
fn inliner_revisits_callers_of_a_callee_that_becomes_a_leaf() {
    // `c` becomes a single-return leaf only in round 2, which drops the
    // empty block round 1 left of `if (false)`. `m` does not change before
    // then, so only the change to `c`'s inline entry brings `m` back.
    let (compiled, stats) = compile(
        "def c(x: int) -> int { if (false) System.puti(x); return x + 1; }\n\
         def m(x: int) -> int { return c(x) * 2; }\n\
         def main() -> int { return m(3); }",
    );
    assert_eq!(stats.opt.inlined, 1, "{:?}", stats.opt);
    let m = compiled.methods.iter().find(|m| m.name == "m").expect("m");
    let mut calls = 0;
    vgl_ir::visit::for_each_expr(m.body.as_ref().expect("body"), &mut |e| {
        if matches!(e.kind, vgl_ir::ExprKind::CallStatic { .. }) {
            calls += 1;
        }
    });
    assert_eq!(calls, 0, "m still calls c");
}

#[test]
fn inliner_skips_recursive_and_large_bodies() {
    let (_, stats) = compile(
        "def f(n: int) -> int { return n == 0 ? 0 : f(n - 1); }\n\
         def main() -> int { return f(3); }",
    );
    assert_eq!(stats.opt.inlined, 0, "recursive method must not inline");
}

#[test]
fn normalization_stats_reflect_flattening() {
    let m = front(
        "class P { var pos: (int, int); new(pos) { } }\n\
         def mk(a: int, b: int) -> (int, int) { return (a, b); }\n\
         def main() -> int { var p = P.new(mk(1, 2)); return p.pos.0; }",
    );
    let (mut mono, _) = monomorphize(&m);
    let norm = normalize(&mut mono);
    assert!(norm.fields_expanded >= 1, "{norm:?}");
    assert!(norm.params_expanded >= 1, "{norm:?}");
    assert!(norm.multi_return_methods >= 1, "{norm:?}");
    assert!(norm.tuple_exprs_removed >= 1, "{norm:?}");
    assert!(vgl_ir::check_normalized(&mono).is_empty());
}

#[test]
fn validators_catch_planted_violations() {
    let (mut compiled, _) = compile("def main() -> int { return 1; }");
    assert!(vgl_ir::check_normalized(&compiled).is_empty());
    // Plant a tuple-typed expression in main.
    let int = compiled.store.int;
    let pair = compiled.store.tuple(vec![int, int]);
    let main = compiled.main.expect("main");
    let planted = vgl_ir::Expr::new(
        vgl_ir::ExprKind::Tuple(vec![
            vgl_ir::Expr::new(vgl_ir::ExprKind::Int(1), int),
            vgl_ir::Expr::new(vgl_ir::ExprKind::Int(2), int),
        ]),
        pair,
    );
    compiled.methods[main.index()]
        .body
        .as_mut()
        .expect("body")
        .stmts
        .insert(0, vgl_ir::Stmt::Expr(planted));
    assert!(!vgl_ir::check_normalized(&compiled).is_empty());
}

#[test]
fn check_monomorphic_catches_leftover_vars() {
    let src = "def id<T>(x: T) -> T { return x; }\n\
               def main() -> int { return id(1); }";
    // The *source* module is polymorphic.
    assert!(!vgl_ir::check_monomorphic(&front(src)).is_empty());
    let (compiled, _) = compile(src);
    assert!(vgl_ir::check_monomorphic(&compiled).is_empty());
}

#[test]
fn optimizer_is_idempotent() {
    let m = front(
        "def sq(x: int) -> int { return x * x; }\n\
         def q<T>(x: T) -> bool { return int.?(x); }\n\
         def main() -> int { return q(sq(3)) ? 1 : 0; }",
    );
    let (mut mono, _) = monomorphize(&m);
    normalize(&mut mono);
    let first = optimize(&mut mono);
    let second = optimize(&mut mono);
    assert!(first.queries_folded >= 1);
    // A second run finds nothing new.
    assert_eq!(second.queries_folded, 0);
    assert_eq!(second.branches_folded, 0);
    assert_eq!(second.inlined, 0);
}

#[test]
fn dead_statements_are_removed() {
    // Pure statements are dropped (by normalization's pure-piece discard or
    // the optimizer's dead-statement pass — either way they must be gone).
    let (compiled, _) = compile(
        "def main() -> int {\n\
           var x = 5;\n\
           x;           // pure statement\n\
           1 + 2;       // pure statement\n\
           return x;\n\
         }",
    );
    let main = compiled.main.expect("main");
    let body = compiled.method(main).body.as_ref().expect("body");
    // Only the var decl and the return survive.
    assert!(body.stmts.len() <= 2, "dead statements survive: {:#?}", body.stmts);
}

#[test]
fn while_false_is_removed() {
    let (compiled, _) = compile(
        "def main() -> int {\n\
           while (false) { System.puti(1); }\n\
           return 7;\n\
         }",
    );
    let main = compiled.main.expect("main");
    let body = compiled.method(main).body.as_ref().expect("body");
    let mut whiles = 0;
    fn count_whiles(s: &vgl_ir::Stmt, n: &mut usize) {
        match s {
            vgl_ir::Stmt::While(..) => *n += 1,
            vgl_ir::Stmt::Block(b) => b.iter().for_each(|x| count_whiles(x, n)),
            vgl_ir::Stmt::If(_, t, e) => {
                t.iter().for_each(|x| count_whiles(x, n));
                e.iter().for_each(|x| count_whiles(x, n));
            }
            _ => {}
        }
    }
    body.stmts.iter().for_each(|s| count_whiles(s, &mut whiles));
    assert_eq!(whiles, 0);
}

#[test]
fn mono_dedupes_identical_instantiations() {
    let m = front(
        "def id<T>(x: T) -> T { return x; }\n\
         def main() -> int { return id(1) + id(2) + id(3); }",
    );
    let (_, stats) = monomorphize(&m);
    // One instance of id<int> despite three call sites (+ main).
    assert_eq!(stats.method_instances, 2, "{stats:?}");
}

#[test]
fn mono_separates_distinct_instantiations() {
    let m = front(
        "def id<T>(x: T) -> T { return x; }\n\
         def main() -> int { id(true); id('c'); return id(1); }",
    );
    let (_, stats) = monomorphize(&m);
    assert_eq!(stats.method_instances, 4, "{stats:?}"); // main + 3 ids
}

/// `context_digest` covers what reused code can reference by index and
/// nothing else: body and method-name edits keep it; signature, global,
/// field and interner changes move it. Every change but the last interns
/// the same types, so the digest must see the change itself.
#[test]
fn context_digest_keys_ids_not_bodies_or_names() {
    const BASE: &str = "var g: int = 1;\n\
        class P { var a: int; var b: bool; new(a, b) { } }\n\
        def u(x: int) -> int { return 0; }\n\
        def k() -> bool { return true; }\n\
        def main() -> int { var p = P.new(2, true); k(); return u(3) + p.a + g; }";
    let digest = |edits: &[(&str, &str)]| {
        let src = edits.iter().fold(BASE.to_string(), |s, (from, to)| s.replace(from, to));
        let (mut m, _) = monomorphize(&front(&src));
        normalize(&mut m);
        (vgl_passes::context_digest(&m), m.store.kinds().cloned().collect::<Vec<_>>())
    };
    let (base, kinds) = digest(&[]);
    for edits in [[("return 0;", "return 7;")], [("u(", "w(")]] {
        assert_eq!(digest(&edits).0, base, "{edits:?} moved the digest");
    }
    let param = [("u(x: int)", "u(x: bool)"), ("u(3)", "u(false)")];
    let ret = [("k() -> bool { return true; }", "k() -> int { return 3; }")];
    let global = [("= 1;", "= 2;")];
    let field = [("var b: bool;", "var b: bool; var c: int;")];
    for edits in [&param[..], &ret, &global, &field] {
        let (moved, moved_kinds) = digest(edits);
        assert_eq!(moved_kinds, kinds, "{edits:?} interned other types");
        assert_ne!(moved, base, "{edits:?} kept the digest");
    }
    let (moved, moved_kinds) = digest(&[("return 0;", "var s = Array<bool>.new(1); return 0;")]);
    assert_ne!(moved_kinds, kinds, "the body edit interns a type");
    assert_ne!(moved, base, "a new interned type kept the digest");
}
