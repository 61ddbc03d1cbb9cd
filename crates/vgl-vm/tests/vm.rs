//! Three-way differential tests: interpreter-on-source, interpreter-on-
//! compiled, and VM-on-compiled must agree on results, output, and
//! exceptions. Plus the VM-specific claims: zero tuple boxes, zero
//! calling-convention checks, GC correctness under pressure.

use vgl_interp::{Interp, InterpError};
use vgl_ir::ops::Exception;
use vgl_vm::{ret_as_int, Vm, VmError};

/// Compiles `src` through the shipped pipeline, unfused: the claims under
/// test are the plain lowering's.
fn compile(src: &str) -> vgl::Compilation {
    vgl::Compiler::new()
        .without_fuse()
        .compile(src)
        .unwrap_or_else(|e| panic!("compile: {e}"))
}

/// Result normal form: Ok(int result or "()"/"ref") or Err(exception name).
type Observed = (Result<String, String>, String);

fn run_interp(m: &vgl_ir::Module) -> Observed {
    let mut i = Interp::new(m);
    i.set_fuel(200_000_000);
    let r = match i.run() {
        Ok(vgl_interp::Value::Int(v)) => Ok(v.to_string()),
        Ok(vgl_interp::Value::Bool(b)) => Ok(i64::from(b).to_string()),
        Ok(vgl_interp::Value::Byte(b)) => Ok((b as i64).to_string()),
        Ok(_) => Ok("_".into()),
        Err(InterpError::Exception(e)) => Err(e.to_string()),
        Err(o) => Err(o.to_string()),
    };
    (r, i.output())
}

fn run_vm(p: &vgl_vm::VmProgram) -> (Observed, vgl_vm::VmStats) {
    let mut vm = Vm::new(p);
    vm.set_fuel(500_000_000);
    let r = match vm.run() {
        Ok(words) => {
            if words.len() == 1 && !vgl_vm::ret_is_ref(&words) {
                Ok(ret_as_int(&words).expect("scalar").to_string())
            } else {
                Ok("_".into())
            }
        }
        Err(VmError::Exception(e)) => Err(e.to_string()),
        Err(o) => Err(o.to_string()),
    };
    ((r, vm.output()), vm.stats)
}

fn threeway(src: &str) -> vgl_vm::VmStats {
    let c = compile(src);
    let (r1, o1) = run_interp(&c.module);
    let (r2, o2) = run_interp(&c.compiled);
    assert_eq!(r1, r2, "interp source vs compiled for:\n{src}");
    assert_eq!(o1, o2, "interp output source vs compiled for:\n{src}");
    let ((r3, o3), stats) = run_vm(&c.program);
    assert_eq!(r1, r3, "interp vs VM result for:\n{src}");
    assert_eq!(o1, o3, "interp vs VM output for:\n{src}");
    // The structural E1 claim: the VM *cannot* box tuples.
    assert_eq!(stats.heap.tuple_boxes, 0);
    stats
}

#[test]
fn vm_arithmetic() {
    threeway("def main() -> int { return 6 * 7; }");
    threeway(
        "def main() -> int {\n\
           var s = 0;\n\
           for (i = 0; i < 100; i = i + 1) s = s + i;\n\
           return s;\n\
         }",
    );
    threeway(
        "def fib(n: int) -> int { return n < 2 ? n : fib(n - 1) + fib(n - 2); }\n\
         def main() -> int { return fib(18); }",
    );
}

#[test]
fn vm_shifts_and_bits() {
    threeway(
        "def main() -> int {\n\
           var x = 0x0F0F;\n\
           return ((x << 4) ^ (x >> 2)) & 0xFFFF | (x % 7) + (-x / 3);\n\
         }",
    );
}

#[test]
fn vm_tuples_and_multireturn() {
    threeway(
        "def divmod(a: int, b: int) -> (int, int) { return (a / b, a % b); }\n\
         def main() -> int {\n\
           var r = divmod(1234, 7);\n\
           var s = divmod(r.0, r.1);\n\
           return s.0 * 1000 + s.1;\n\
         }",
    );
}

#[test]
fn vm_swap_loop_zero_boxes() {
    let stats = threeway(
        "def swap(p: (int, int)) -> (int, int) { return (p.1, p.0); }\n\
         def main() -> int {\n\
           var t = (1, 2);\n\
           for (i = 0; i < 1000; i = i + 1) t = swap(t);\n\
           return t.0 * 10 + t.1;\n\
         }",
    );
    // Nothing in this program allocates at all.
    assert_eq!(stats.heap.objects, 0);
    assert_eq!(stats.heap.arrays, 0);
    assert_eq!(stats.heap.tuple_boxes, 0);
}

#[test]
fn vm_objects_and_virtual_calls() {
    threeway(
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
}

#[test]
fn vm_class_queries_constant_time_ranges() {
    threeway(
        "class A { }\n\
         class B extends A { }\n\
         class C extends A { }\n\
         class D extends B { }\n\
         def code(a: A) -> int {\n\
           if (D.?(a)) return 4;\n\
           if (B.?(a)) return 2;\n\
           if (C.?(a)) return 3;\n\
           return 1;\n\
         }\n\
         def main() -> int {\n\
           return code(A.new()) * 1000 + code(B.new()) * 100 + code(C.new()) * 10 + code(D.new());\n\
         }",
    );
}

#[test]
fn vm_first_class_functions() {
    threeway(
        "class A {\n\
           var f: int;\n\
           new(f) { }\n\
           def m(a: int) -> int { return f + a; }\n\
         }\n\
         def apply2(g: (int, int) -> int, a: int, b: int) -> int { return g(a, b); }\n\
         def main() -> int {\n\
           var a = A.new(100);\n\
           var m1 = a.m;\n\
           var m2 = A.m;\n\
           var s = m1(1) + m2(a, 2) + apply2(int.+, 3, 4);\n\
           var mk = A.new;\n\
           var b = mk(1000);\n\
           return s + b.m(5);\n\
         }",
    );
}

#[test]
fn vm_closure_equality() {
    threeway(
        "class A { def m(x: int) -> int { return x; } }\n\
         def main() -> int {\n\
           var a = A.new();\n\
           var b = A.new();\n\
           var n = 0;\n\
           var f = a.m, g = a.m, h = b.m;\n\
           if (f == g) n = n + 1;\n\
           if (f != h) n = n + 10;\n\
           if (int.+ == int.+) n = n + 100;\n\
           return n;\n\
         }",
    );
}

#[test]
fn vm_exceptions() {
    threeway("def main() { var x = 1 / 0; }");
    threeway("class A { var f: int; }\ndef main() { var a: A; System.puti(a.f); }");
    threeway("def main() { var a = Array<int>.new(3); a[3] = 1; }");
    threeway(
        "class A { }\nclass B extends A { }\n\
         def main() { var a = A.new(); var b = B.!(a); }",
    );
    threeway("def main() { var b = byte.!(300); }");
}

#[test]
fn vm_strings_and_output() {
    threeway(
        "def main() {\n\
           var s = \"hello\";\n\
           s[0] = 'H';\n\
           System.puts(s);\n\
           System.ln();\n\
           System.puti(-42);\n\
           System.putb(true);\n\
           System.putc('!');\n\
         }",
    );
}

#[test]
fn vm_print1_specialized() {
    threeway(
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
}

#[test]
fn vm_polymorphic_matcher() {
    threeway(
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
         def main() {\n\
           var m = Matcher.new();\n\
           m.add(printInt);\n\
           m.add(printBool);\n\
           m.dispatch(5);\n\
           m.dispatch(false);\n\
           m.dispatch(\"s\");\n\
         }",
    );
}

#[test]
fn vm_variant_instrs() {
    threeway(
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
         def neg(b: Buffer, ops: Reg) { System.puti(-ops.n); }\n\
         def main() {\n\
           var r0 = Reg.new(3), r1 = Reg.new(4);\n\
           var buf = Buffer.new();\n\
           var gs: Array<Instr> = [InstrOf.new(add, (r0, r1)), InstrOf.new(neg, r1)];\n\
           for (i = 0; i < gs.length; i = i + 1) gs[i].emit(buf);\n\
         }",
    );
}

#[test]
fn vm_array_of_tuples_soa() {
    threeway(
        "def main() -> int {\n\
           var a = Array<(int, bool)>.new(8);\n\
           for (i = 0; i < 8; i = i + 1) a[i] = (i * i, i % 2 == 0);\n\
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
fn vm_gc_under_pressure() {
    // A small heap forces many collections while a live linked list keeps
    // growing and temporaries die.
    let src = "class List<T> { var head: T; var tail: List<T>; new(head, tail) { } }\n\
               def sum(l: List<int>) -> int {\n\
                 var s = 0;\n\
                 for (x = l; x != null; x = x.tail) s = s + x.head;\n\
                 return s;\n\
               }\n\
               def main() -> int {\n\
                 var keep: List<int>;\n\
                 var total = 0;\n\
                 for (i = 0; i < 200; i = i + 1) {\n\
                   keep = List.new(i, keep);\n\
                   var garbage = List.new(i * 2, null);\n\
                   garbage = List.new(garbage.head, garbage);\n\
                   total = total + garbage.head;\n\
                 }\n\
                 return sum(keep) + total;\n\
               }";
    let c = compile(src);
    let (r1, _) = run_interp(&c.module);
    let mut vm = Vm::with_heap(&c.program, 512);
    vm.set_fuel(50_000_000);
    let got = match vm.run() {
        Ok(w) => Ok(ret_as_int(&w).expect("int").to_string()),
        Err(e) => Err(e.to_string()),
    };
    assert_eq!(r1, got);
    assert!(vm.stats.heap.collections > 0, "expected GC activity");
}

#[test]
fn vm_globals() {
    threeway(
        "var a = 10;\n\
         var b = a + 32;\n\
         var pair = (b, a);\n\
         def main() -> int { return pair.0 - pair.1; }",
    );
}

#[test]
fn vm_hashmap_pattern() {
    threeway(
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
fn vm_no_callsite_checks_vs_interp() {
    // E6: the interpreter performs a dynamic calling-convention check per
    // first-class call; the VM performs none (structurally absent).
    // `pick` mixes scalar- and tuple-parameter implementations behind one
    // function type, so the interpreter must adapt dynamically (§4.1).
    let src = "def f(a: int, b: int) -> int { return a + b; }\n\
               def g2(a: (int, int)) -> int { return a.0 + a.1; }\n\
               def pick(z: bool) -> ((int, int) -> int) { return z ? f : g2; }\n\
               def main() -> int {\n\
                 var s = 0;\n\
                 for (i = 0; i < 50; i = i + 1) {\n\
                   s = pick(i % 2 == 0)(s, 1);\n\
                 }\n\
                 return s;\n\
               }";
    let c = compile(src);
    let mut i = Interp::new(&c.module);
    i.run().expect("interp runs");
    assert!(i.stats.callsite_checks >= 50);
    assert!(i.stats.callsite_adaptations >= 25, "mixed-convention calls adapt");
    let ((r, _), _) = run_vm(&c.program);
    assert_eq!(r, Ok("50".into()));
}

#[test]
fn vm_listing_p_both_conventions() {
    threeway(
        "def f(a: int, b: int) { System.puts(\"f\"); System.puti(a + b); }\n\
         def g(a: (int, int)) { System.puts(\"g\"); System.puti(a.0 * a.1); }\n\
         def pick(z: bool) -> ((int, int) -> void) { return z ? f : g; }\n\
         def main() {\n\
           var t = (3, 4);\n\
           var x = pick(true);\n\
           x(3, 4);\n\
           x(t);\n\
           x = pick(false);\n\
           x(3, 4);\n\
           x(t);\n\
         }",
    );
}

#[test]
fn vm_function_type_queries() {
    threeway(
        "def pi(a: int) { System.puti(a); }\n\
         def pb(a: bool) { System.putb(a); }\n\
         def isf<F, T>(f: T) -> bool { return F.?<T>(f); }\n\
         def test<T>(f: T) -> int {\n\
           if (isf<int -> void, T>(f)) return 1;\n\
           if (isf<bool -> void, T>(f)) return 2;\n\
           return 0;\n\
         }\n\
         def main() -> int { return test(pi) * 10 + test(pb); }",
    );
}

#[test]
fn vm_byte_arithmetic_and_compares() {
    threeway(
        "def main() -> int {\n\
           var a = 'a', z = 'z';\n\
           var n = 0;\n\
           if (a < z) n = n + 1;\n\
           if (z >= a) n = n + 10;\n\
           if (a == 'a') n = n + 100;\n\
           return n + int.!(a);\n\
         }",
    );
}

#[test]
fn vm_fuel_guard() {
    let c = compile("def main() { while (true) { } }");
    let mut vm = Vm::new(&c.program);
    vm.set_fuel(100_000);
    assert!(matches!(vm.run(), Err(VmError::OutOfFuel)));
}

#[test]
fn exception_name_check() {
    // Keep the Display mapping stable across engines.
    assert_eq!(Exception::TypeCheck.to_string(), "!TypeCheckException");
}
