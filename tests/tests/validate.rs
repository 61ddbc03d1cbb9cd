//! The `vgl_ir::validate` checkers must actually catch broken IR: compile a
//! valid program, then break an invariant by hand and assert the matching
//! checker reports it. This guards the guards — a checker that silently
//! accepts everything would make the fuzzer's pass-level validation (and the
//! `validate_ir` compile option) worthless.

use vgl_ir::{check_monomorphic, check_normalized, check_tuple_free};

fn compiled_module(src: &str) -> vgl::Module {
    let options = vgl::Options { validate_ir: true, ..vgl::Options::default() };
    vgl::Compiler::with_options(options).compile(src).expect("compiles").compiled
}

const CLEAN: &str = "def main() -> int { return 42; }";

/// The unlowered source module of a generic program still carries type
/// parameters — `check_monomorphic` must flag it, and the monomorphized
/// module must be clean.
#[test]
fn polymorphic_source_trips_check_monomorphic() {
    let src = "def id<T>(x: T) -> T { return x; }\n\
               def main() -> int { return id(3) + (id(true) ? 1 : 0); }";
    let mut d = vgl::Diagnostics::new();
    let ast = vgl_syntax::parse_program(src, &mut d);
    let module = vgl_sema::analyze(&ast, &mut d).expect("typechecks");
    let violations = check_monomorphic(&module);
    assert!(
        violations.iter().any(|v| v.message.contains("type parameters")),
        "expected a type-parameter violation, got {violations:?}"
    );
    let (mono, _) = vgl_passes::monomorphize(&module);
    assert!(check_monomorphic(&mono).is_empty());
}

/// Re-adding a type parameter to a compiled method must trip
/// `check_monomorphic`.
#[test]
fn injected_type_param_trips_check_monomorphic() {
    let mut m = compiled_module(CLEAN);
    assert!(check_monomorphic(&m).is_empty(), "clean module must validate");
    let main = m.main.expect("has main").0 as usize;
    m.methods[main].type_params.push(vgl_types::TypeVarId(0));
    let violations = check_monomorphic(&m);
    assert!(
        violations.iter().any(|v| v.message.contains("type parameters")),
        "expected a violation, got {violations:?}"
    );
}

/// A tuple-typed local injected into a normalized module must trip
/// `check_tuple_free` (the strict checker).
#[test]
fn injected_tuple_local_trips_check_tuple_free() {
    let mut m = compiled_module(CLEAN);
    assert!(check_tuple_free(&m).is_empty(), "clean module must validate");
    let main = m.main.expect("has main").0 as usize;
    let int = m.store.int;
    let pair = m.store.tuple(vec![int, int]);
    m.methods[main].locals.push(vgl_ir::Local {
        name: "injected".into(),
        ty: pair,
        mutable: true,
    });
    let violations = check_tuple_free(&m);
    assert!(
        violations.iter().any(|v| v.message.contains("tuple type")),
        "expected a tuple violation, got {violations:?}"
    );
}

/// A *nested* tuple-typed local is not a permitted boundary form and must
/// trip `check_normalized` too (a flat tuple-of-scalars local is a legal
/// call temp, so nest one level to break the invariant).
#[test]
fn injected_nested_tuple_local_trips_check_normalized() {
    let mut m = compiled_module(CLEAN);
    assert!(check_normalized(&m).is_empty(), "clean module must validate");
    let main = m.main.expect("has main").0 as usize;
    let int = m.store.int;
    let pair = m.store.tuple(vec![int, int]);
    let nested = m.store.tuple(vec![pair, int]);
    m.methods[main].locals.push(vgl_ir::Local {
        name: "injected".into(),
        ty: nested,
        mutable: true,
    });
    let violations = check_normalized(&m);
    assert!(
        violations.iter().any(|v| v.message.contains("nested tuple")),
        "expected a nested-tuple violation, got {violations:?}"
    );
}

/// A tuple-typed global must trip both `check_tuple_free` and
/// `check_normalized` — globals admit no boundary forms at all.
#[test]
fn injected_tuple_global_trips_both_tuple_checkers() {
    let src = "var g = 7;\ndef main() -> int { return g; }";
    let mut m = compiled_module(src);
    assert!(check_normalized(&m).is_empty(), "clean module must validate");
    let int = m.store.int;
    let pair = m.store.tuple(vec![int, int]);
    let g = m.globals.iter_mut().find(|g| g.name == "g").expect("global g");
    g.ty = pair;
    assert!(
        check_tuple_free(&m).iter().any(|v| v.location.starts_with("global ")),
        "check_tuple_free must flag the global"
    );
    assert!(
        check_normalized(&m).iter().any(|v| v.location.starts_with("global ")),
        "check_normalized must flag the global"
    );
}

/// A surviving tuple *construction* in a method body (not in a boundary
/// position) must trip `check_normalized`.
#[test]
fn surviving_tuple_construction_trips_check_normalized() {
    let mut m = compiled_module(CLEAN);
    let main = m.main.expect("has main").0 as usize;
    let int = m.store.int;
    let pair = m.store.tuple(vec![int, int]);
    let lit = |v| vgl_ir::Expr::new(vgl_ir::ExprKind::Int(v), int);
    let tup = vgl_ir::Expr::new(vgl_ir::ExprKind::Tuple(vec![lit(1), lit(2)]), pair);
    let body = m.methods[main].body.as_mut().expect("main has a body");
    body.stmts.insert(0, vgl_ir::Stmt::Expr(tup));
    let violations = check_normalized(&m);
    assert!(
        violations.iter().any(|v| v.message.contains("tuple construction")),
        "expected a construction violation, got {violations:?}"
    );
}

/// The `validate_ir` compiler option panics on broken IR and is on by
/// default in debug builds; a normal compile under it stays silent.
#[test]
fn validate_ir_option_is_quiet_on_valid_programs() {
    let opts = vgl::Options { validate_ir: true, ..vgl::Options::default() };
    let c = vgl::Compiler::with_options(opts)
        .compile("def pair() -> (int, int) { return (1, 2); }\n\
                  def main() -> int { var p = pair(); return p.0 + p.1; }")
        .expect("compiles with validation on");
    assert_eq!(c.execute().result.unwrap(), "3");
    assert!(vgl::Options::default().validate_ir == cfg!(debug_assertions));
}
