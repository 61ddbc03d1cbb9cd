//! Differential pipeline tests: for every corpus program, the interpreter
//! must produce identical results and output on the source module and on the
//! fully compiled (monomorphized + normalized + optimized) module — including
//! identical exceptions. This is the end-to-end guarantee that the §4 passes
//! are semantics-preserving.

use vgl_interp::{Interp, InterpError};

/// Compiles `src` through the shipped pipeline.
fn compile(src: &str) -> vgl::Compilation {
    vgl::Compiler::new()
        .compile(src)
        .unwrap_or_else(|e| panic!("compile: {e}"))
}

fn run(m: &vgl_ir::Module) -> (Result<String, String>, String) {
    let mut i = Interp::new(m);
    i.set_fuel(100_000_000);
    let r = match i.run() {
        Ok(v) => Ok(format!("{v}")),
        Err(InterpError::Exception(e)) => Err(e.to_string()),
        Err(other) => Err(other.to_string()),
    };
    (r, i.output())
}

/// Runs `src` through both paths and asserts identical observables.
fn differential(src: &str) -> (vgl_ir::Module, vgl_passes::PipelineStats) {
    let c = compile(src);
    let (before, out_before) = run(&c.module);
    let (after, out_after) = run(&c.compiled);
    assert_eq!(before, after, "result differs after pipeline for:\n{src}");
    assert_eq!(out_before, out_after, "output differs after pipeline for:\n{src}");
    (c.compiled, c.stats)
}

#[test]
fn simple_arithmetic() {
    differential("def main() -> int { return 6 * 7; }");
}

#[test]
fn loops_and_recursion() {
    differential(
        "def fib(n: int) -> int { return n < 2 ? n : fib(n - 1) + fib(n - 2); }\n\
         def main() -> int {\n\
           var s = 0;\n\
           for (i = 0; i < 10; i = i + 1) s = s + fib(i);\n\
           return s;\n\
         }",
    );
}

#[test]
fn tuple_returns_become_multivalue() {
    let (compiled, stats) = differential(
        "def divmod(a: int, b: int) -> (int, int) { return (a / b, a % b); }\n\
         def main() -> int {\n\
           var r = divmod(17, 5);\n\
           return r.0 * 10 + r.1;\n\
         }",
    );
    assert!(stats.norm.multi_return_methods >= 1);
    // The compiled module is tuple-free (modulo boundaries).
    assert!(vgl_ir::check_normalized(&compiled).is_empty());
}

#[test]
fn listing_q_normalization_examples() {
    differential(
        "def m(a: (string, int)) { System.puts(a.0); System.puti(a.1); }\n\
         def f(v: void) { System.puts(\"f\"); }\n\
         def main() {\n\
           var b = (\"hello\", 15);\n\
           m(b);\n\
           m(\"goodbye\", b.1);\n\
           m(\"cheers\", (11, 22).0);\n\
           var t: void;\n\
           f(t);\n\
         }",
    );
}

#[test]
fn generic_list_pipeline() {
    let (_, stats) = differential(
        "class List<T> { var head: T; var tail: List<T>; new(head, tail) { } }\n\
         def apply<A>(list: List<A>, f: A -> void) {\n\
           for (l = list; l != null; l = l.tail) f(l.head);\n\
         }\n\
         def pi(i: int) { System.puti(i); }\n\
         def pp(p: (int, int)) { System.puti(p.0 + p.1); }\n\
         def main() {\n\
           apply(List.new(1, List.new(2, null)), pi);\n\
           apply(List.new((3, 4), null), pp);\n\
         }",
    );
    // Two instantiations of List and apply.
    assert!(stats.mono.class_instances >= 2);
}

#[test]
fn print1_specialization_folds_queries() {
    let (compiled, stats) = differential(
        "def print1<T>(a: T) {\n\
           if (int.?(a)) System.puti(int.!(a));\n\
           if (bool.?(a)) System.putb(bool.!(a));\n\
           if (byte.?(a)) System.putc(byte.!(a));\n\
         }\n\
         def main() {\n\
           print1(7);\n\
           print1(false);\n\
           print1('x');\n\
         }",
    );
    // §3.3: the chain of queries is decided statically in each
    // specialization and folded away.
    assert!(stats.opt.queries_folded >= 6, "queries folded: {}", stats.opt.queries_folded);
    assert!(stats.opt.branches_folded >= 6, "branches folded: {}", stats.opt.branches_folded);
    // No Query operations survive in the compiled module.
    let mut queries = 0;
    for m in &compiled.methods {
        if let Some(b) = &m.body {
            vgl_ir::visit::for_each_expr(b, &mut |e| {
                if matches!(e.kind, vgl_ir::ExprKind::Apply(vgl_ir::Oper::Query { .. }, _)) {
                    queries += 1;
                }
            });
        }
    }
    assert_eq!(queries, 0, "type queries survive specialization");
}

#[test]
fn polymorphic_matcher_pipeline() {
    differential(
        "class Any { }\n\
         class Box<T> extends Any {\n\
           def val: T;\n\
           new(val) { }\n\
           def unbox() -> T { return val; }\n\
         }\n\
         class List<T> { var head: T; var tail: List<T>; new(head, tail) { } }\n\
         class Matcher {\n\
           var matches: List<Any>;\n\
           def add<T>(f: T -> void) {\n\
             matches = List<Any>.new(Box<T -> void>.new(f), matches);\n\
           }\n\
           def dispatch<T>(v: T) {\n\
             for (l = matches; l != null; l = l.tail) {\n\
               var f = l.head;\n\
               if (Box<T -> void>.?(f)) {\n\
                 Box<T -> void>.!(f).unbox()(v);\n\
                 return;\n\
               }\n\
             }\n\
             System.puts(\"?\");\n\
           }\n\
         }\n\
         def printInt(a: int) { System.puti(a); }\n\
         def printBool(a: bool) { System.putb(a); }\n\
         def printPair(a: (int, int)) { System.puti(a.0 * 100 + a.1); }\n\
         def main() {\n\
           var m = Matcher.new();\n\
           m.add(printInt);\n\
           m.add(printBool);\n\
           m.add(printPair);\n\
           m.dispatch(1);\n\
           m.dispatch(true);\n\
           m.dispatch((2, 3));\n\
           m.dispatch(\"s\");\n\
         }",
    );
}

#[test]
fn variant_instr_pipeline() {
    differential(
        "class Buffer { }\n\
         class Instr { def emit(buf: Buffer); }\n\
         class InstrOf<T> extends Instr {\n\
           var emitFunc: (Buffer, T) -> void;\n\
           var val: T;\n\
           new(emitFunc, val) { }\n\
           def emit(buf: Buffer) { emitFunc(buf, val); }\n\
         }\n\
         class Reg { def n: int; new(n) { } }\n\
         def add(b: Buffer, ops: (Reg, Reg)) { System.puti(ops.0.n + ops.1.n); }\n\
         def addi(b: Buffer, ops: (Reg, int)) { System.puti(ops.0.n + ops.1); }\n\
         def neg(b: Buffer, ops: Reg) { System.puti(-ops.n); }\n\
         def main() {\n\
           var r0 = Reg.new(3), r1 = Reg.new(4);\n\
           var buf = Buffer.new();\n\
           var is = [InstrOf.new(add, (r0, r1)), InstrOf.new(addi, (r0, 11)), InstrOf.new(neg, r1)];\n\
           var gs: Array<Instr> = [is[0], is[1], is[2]];\n\
           for (i = 0; i < gs.length; i = i + 1) gs[i].emit(buf);\n\
           if (InstrOf<Reg>.?(gs[2])) System.puts(\"reg\");\n\
         }",
    );
}

#[test]
fn tuple_heavy_code_has_zero_tuple_boxing_after_pipeline() {
    let src = "def swap(p: (int, int)) -> (int, int) { return (p.1, p.0); }\n\
               def main() -> int {\n\
                 var t = (1, 2);\n\
                 for (i = 0; i < 100; i = i + 1) t = swap(t);\n\
                 return t.0 + t.1;\n\
               }";
    let (compiled, _) = differential(src);
    // Run the *compiled* module: the interpreter still counts tuple allocs,
    // but the only ones left are the multi-return boundary boxes, which the
    // VM (unlike the interpreter) lowers to registers. Verify the body of
    // the loop performs no Tuple construction outside Return.
    let mut bad = 0;
    for m in &compiled.methods {
        if let Some(b) = &m.body {
            for s in &b.stmts {
                count_non_boundary_tuples(s, &mut bad);
            }
        }
    }
    assert_eq!(bad, 0, "non-boundary tuple constructions remain");
}

fn count_non_boundary_tuples(s: &vgl_ir::Stmt, bad: &mut usize) {
    use vgl_ir::Stmt;
    match s {
        Stmt::Return(Some(e)) => {
            // Tuple directly under Return is the multi-value boundary.
            if let vgl_ir::ExprKind::Tuple(es) = &e.kind {
                for x in es {
                    count_tuples_expr(x, bad);
                }
            } else {
                count_tuples_expr(e, bad);
            }
        }
        Stmt::Expr(e) | Stmt::Local(_, Some(e)) => count_tuples_expr(e, bad),
        Stmt::If(c, t, f) => {
            count_tuples_expr(c, bad);
            for x in t {
                count_non_boundary_tuples(x, bad);
            }
            for x in f {
                count_non_boundary_tuples(x, bad);
            }
        }
        Stmt::While(c, b) => {
            count_tuples_expr(c, bad);
            for x in b {
                count_non_boundary_tuples(x, bad);
            }
        }
        Stmt::Block(b) => {
            for x in b {
                count_non_boundary_tuples(x, bad);
            }
        }
        _ => {}
    }
}

fn count_tuples_expr(e: &vgl_ir::Expr, bad: &mut usize) {
    if matches!(e.kind, vgl_ir::ExprKind::Tuple(_)) {
        *bad += 1;
    }
    for c in vgl_ir::visit::children(e) {
        count_tuples_expr(c, bad);
    }
}

#[test]
fn exceptions_preserved_by_pipeline() {
    differential("def main() { var x = 1 / 0; }");
    differential("class A { var f: int; }\ndef main() { var a: A; System.puti(a.f); }");
    differential("def main() { var a = Array<int>.new(3); a[5] = 1; }");
    differential(
        "class A { }\nclass B extends A { }\n\
         def main() { var a = A.new(); var b = B.!(a); }",
    );
}

#[test]
fn virtual_dispatch_preserved() {
    let (compiled, stats) = differential(
        "class A { def v() -> int { return 1; } }\n\
         class B extends A { def v() -> int { return 2; } }\n\
         class C extends B { def v() -> int { return 3; } }\n\
         def main() -> int {\n\
           var xs: Array<A> = [A.new(), B.new(), C.new()];\n\
           var s = 0;\n\
           for (i = 0; i < xs.length; i = i + 1) s = s * 10 + xs[i].v();\n\
           return s;\n\
         }",
    );
    let _ = (compiled, stats);
}

#[test]
fn devirtualization_of_single_implementation() {
    let (_, stats) = differential(
        "class A { def v() -> int { return 41; } }\n\
         def main() -> int { var a = A.new(); return a.v() + 1; }",
    );
    assert!(stats.opt.devirtualized >= 1);
}

#[test]
fn generic_virtual_methods_pipeline() {
    differential(
        "class Base {\n\
           def visit<T>(x: T) -> int { return 1; }\n\
         }\n\
         class Derived extends Base {\n\
           def visit<T>(x: T) -> int { return 2; }\n\
         }\n\
         def main() -> int {\n\
           var b: Base = Derived.new();\n\
           var x = b.visit(5);\n\
           var y = b.visit(true);\n\
           var z = Base.new().visit((1, 2));\n\
           return x * 100 + y * 10 + z;\n\
         }",
    );
}

#[test]
fn arrays_of_tuples_soa() {
    differential(
        "def main() -> int {\n\
           var a = Array<(int, bool)>.new(4);\n\
           for (i = 0; i < 4; i = i + 1) a[i] = (i * i, i % 2 == 0);\n\
           var s = 0;\n\
           for (i = 0; i < a.length; i = i + 1) {\n\
             var e = a[i];\n\
             if (e.1) s = s + e.0;\n\
           }\n\
           return s;\n\
         }",
    );
}

#[test]
fn array_of_void_keeps_bounds_checks() {
    differential(
        "def main() {\n\
           var a = Array<void>.new(3);\n\
           a[2] = ();\n\
           var v = a[1];\n\
           System.puti(a.length);\n\
         }",
    );
    // Out of bounds must still trap.
    differential(
        "def main() {\n\
           var a = Array<void>.new(3);\n\
           var v = a[3];\n\
         }",
    );
}

#[test]
fn nested_tuples_flatten_fully() {
    differential(
        "def f(x: ((int, int), (bool, byte))) -> int {\n\
           return x.0.0 + x.0.1 + (x.1.0 ? 100 : 0) + int.!(x.1.1);\n\
         }\n\
         def main() -> int { return f(((1, 2), (true, '\\0'))); }",
    );
}

#[test]
fn tuple_equality_after_normalization() {
    differential(
        "def main() -> int {\n\
           var a = ((1, 2), true);\n\
           var b = ((1, 2), true);\n\
           var c = ((9, 2), true);\n\
           var n = 0;\n\
           if (a == b) n = n + 1;\n\
           if (a != c) n = n + 10;\n\
           return n;\n\
         }",
    );
}

#[test]
fn first_class_tuple_equality_wrapper() {
    let (_, stats) = differential(
        "def eqof<T>() -> ((T, T) -> bool) { return T.==; }\n\
         def check(eq: ((int, int), (int, int)) -> bool) -> bool {\n\
           return eq((1, 2), (1, 2)) && !eq((1, 2), (3, 4));\n\
         }\n\
         def main() -> bool {\n\
           var f = eqof<(int, int)>();\n\
           return check(f);\n\
         }",
    );
    // The first-class tuple equality became a synthesized scalar wrapper.
    assert!(stats.norm.wrappers_synthesized >= 1);
}

#[test]
fn fields_of_tuple_type_flatten() {
    let (compiled, _) = differential(
        "class P { var pos: (int, int); var name: string; new(pos, name) { } }\n\
         def main() -> int {\n\
           var p = P.new((3, 4), \"x\");\n\
           p.pos = (p.pos.1, p.pos.0);\n\
           return p.pos.0 * 10 + p.pos.1;\n\
         }",
    );
    let p = compiled.class_by_name("P").expect("P survives");
    // pos flattened to two scalar fields + name = 3 slots.
    assert_eq!(compiled.class(p).fields.len(), 3);
}

#[test]
fn interface_adapter_pipeline() {
    differential(
        "class Record { def tag: int; new(tag) { } }\n\
         class DatastoreInterface(\n\
           create: () -> Record,\n\
           load: int -> Record) {\n\
         }\n\
         class DatastoreImpl {\n\
           def create() -> Record { return Record.new(7); }\n\
           def load(k: int) -> Record { return Record.new(k); }\n\
           def adapt() -> DatastoreInterface {\n\
             return DatastoreInterface.new(create, load);\n\
           }\n\
         }\n\
         def main() {\n\
           var ds = DatastoreImpl.new().adapt();\n\
           System.puti(ds.create().tag);\n\
           System.puti(ds.load(42).tag);\n\
         }",
    );
}

#[test]
fn adt_hashmap_pipeline() {
    differential(
        "class HashMap<K, V> {\n\
           def hash: K -> int;\n\
           def equals: (K, K) -> bool;\n\
           var keys: Array<K>;\n\
           var vals: Array<V>;\n\
           var used: Array<bool>;\n\
           new(hash, equals) {\n\
             keys = Array<K>.new(16);\n\
             vals = Array<V>.new(16);\n\
             used = Array<bool>.new(16);\n\
           }\n\
           def set(key: K, val: V) {\n\
             var i = (hash(key) & 15);\n\
             while (used[i]) {\n\
               if (equals(keys[i], key)) { vals[i] = val; return; }\n\
               i = (i + 1) & 15;\n\
             }\n\
             keys[i] = key; vals[i] = val; used[i] = true;\n\
           }\n\
           def get(key: K) -> V {\n\
             var i = (hash(key) & 15);\n\
             while (used[i]) {\n\
               if (equals(keys[i], key)) return vals[i];\n\
               i = (i + 1) & 15;\n\
             }\n\
             var d: V; return d;\n\
           }\n\
         }\n\
         def idhash(x: int) -> int { return x; }\n\
         def pairhash(p: (int, int)) -> int { return p.0 * 31 + p.1; }\n\
         def paireq(a: (int, int), b: (int, int)) -> bool { return a == b; }\n\
         def main() {\n\
           var m = HashMap<int, int>.new(idhash, int.==);\n\
           m.set(1, 10);\n\
           m.set(17, 20);\n\
           System.puti(m.get(1));\n\
           System.puti(m.get(17));\n\
           var pm = HashMap<(int, int), int>.new(pairhash, paireq);\n\
           pm.set((1, 2), 99);\n\
           System.puti(pm.get((1, 2)));\n\
         }",
    );
}

#[test]
fn globals_with_tuple_types() {
    differential(
        "var origin = (1, 2);\n\
         var label = \"pt\";\n\
         def main() -> int {\n\
           var t = origin;\n\
           origin = (t.1, t.0);\n\
           return origin.0 * 10 + origin.1 + label.length;\n\
         }",
    );
}

#[test]
fn dead_code_eliminated_by_reachability() {
    let (compiled, _) = differential(
        "class Unused { def huge() -> int { return 1; } }\n\
         def unused_helper() -> int { return 2; }\n\
         def main() -> int { return 3; }",
    );
    assert!(compiled.class_by_name("Unused").is_none(), "dead class survived");
    assert!(compiled.method_by_name("unused_helper").is_none(), "dead method survived");
}

#[test]
fn expansion_grows_with_instantiations() {
    // E4 shape: more distinct instantiations → more code after mono.
    let make = |k: usize| {
        let mut src = String::from(
            "class Box<T> { def val: T; new(val) { } def get() -> T { return val; } }\n\
             def use<T>(x: T) -> T { return Box<T>.new(x).get(); }\n\
             def main() {\n",
        );
        for i in 0..k {
            // Distinct tuple widths give distinct type arguments.
            let args = (0..=i).map(|j| (i + j).to_string()).collect::<Vec<_>>().join(", ");
            src.push_str(&format!("  use(({args}));\n"));
        }
        src.push_str("}\n");
        src
    };
    let s2 = compile(&make(2)).stats;
    let s6 = compile(&make(6)).stats;
    assert!(
        s6.size_after_mono.expr_nodes > s2.size_after_mono.expr_nodes,
        "expansion should grow: {} vs {}",
        s6.size_after_mono.expr_nodes,
        s2.size_after_mono.expr_nodes
    );
    assert!(s6.mono.method_instances > s2.mono.method_instances);
}
