//! VM-specific edge coverage: explicit frames allow very deep recursion,
//! register pressure beyond 200 live temps, integer boundary arithmetic,
//! and exact agreement of Virgil shift/div semantics across engines.

use vgl_vm::{ret_as_int, Vm};

/// Compiles `src` through the shipped pipeline, unfused: the edges under
/// test are the plain lowering's.
fn compile_vm(src: &str) -> vgl_vm::VmProgram {
    vgl::Compiler::new()
        .without_fuse()
        .compile(src)
        .unwrap_or_else(|e| panic!("compile: {e}"))
        .program
}

fn run_int(src: &str) -> i32 {
    let p = compile_vm(src);
    let mut vm = Vm::new(&p);
    vm.set_fuel(1 << 32);
    let words = vm.run().unwrap_or_else(|e| panic!("vm: {e}"));
    ret_as_int(&words).expect("int result")
}

#[test]
fn vm_handles_very_deep_recursion() {
    // 100 000 frames: the interpreter would blow the Rust stack; the VM's
    // frames are explicit heap-side vectors.
    let r = run_int(
        "def count(n: int) -> int { return n == 0 ? 0 : 1 + count(n - 1); }\n\
         def main() -> int { return count(100000); }",
    );
    assert_eq!(r, 100000);
}

#[test]
fn vm_register_pressure() {
    // A single expression with ~128 live temporaries. Compiling a 128-deep
    // expression tree recurses deeply in debug builds; use a roomy stack.
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(|| {
            let mut expr = String::from("1");
            for i in 2..=128 {
                expr = format!("({expr} + {i})");
            }
            let src = format!("def main() -> int {{ return {expr}; }}");
            assert_eq!(run_int(&src), (1..=128).sum::<i32>());
        })
        .expect("spawn")
        .join()
        .expect("no panic");
}

#[test]
fn vm_integer_boundaries() {
    assert_eq!(
        run_int(
            "def main() -> int {\n\
               var max = 0x7FFFFFFF;\n\
               var min = max + 1;           // wraps to i32::MIN\n\
               var n = 0;\n\
               if (min < 0) n = n + 1;\n\
               if (min - 1 == max) n = n + 10;\n\
               if (min / (0 - 1) == min) n = n + 100;  // MIN / -1 wraps\n\
               if (min % (0 - 1) == 0) n = n + 1000;\n\
               return n;\n\
             }"
        ),
        1111
    );
}

#[test]
fn vm_shift_semantics() {
    // Virgil: out-of-range shifts produce 0 (or the sign for >>).
    assert_eq!(
        run_int(
            "def main() -> int {\n\
               var n = 0;\n\
               if (1 << 32 == 0) n = n + 1;\n\
               if (1 << 100 == 0) n = n + 10;\n\
               if ((0 - 8) >> 100 == 0 - 1) n = n + 100;\n\
               if (8 >> 100 == 0) n = n + 1000;\n\
               if (1 << 31 < 0) n = n + 10000;\n\
               return n;\n\
             }"
        ),
        11111
    );
}

#[test]
fn vm_many_functions_and_vtables() {
    // A wide hierarchy: 20 subclasses each overriding v; array dispatch over
    // all of them exercises the preorder range tests and vtables.
    let mut src = String::from("class Base { def v() -> int { return 0; } }\n");
    for i in 1..=20 {
        src.push_str(&format!(
            "class C{i} extends Base {{ def v() -> int {{ return {i}; }} }}\n"
        ));
    }
    src.push_str("def main() -> int {\n  var xs: Array<Base> = [Base.new()");
    for i in 1..=20 {
        src.push_str(&format!(", C{i}.new()"));
    }
    src.push_str(
        "];\n  var s = 0;\n  for (i = 0; i < xs.length; i = i + 1) s = s + xs[i].v();\n  return s;\n}\n",
    );
    assert_eq!(run_int(&src), (1..=20).sum::<i32>());
}

#[test]
fn vm_closure_heavy_loop() {
    // Create and call closures in a loop; closure cells become garbage and
    // must be collected under a small heap.
    let src = "class K { def k: int; new(k) { } def add(x: int) -> int { return x + k; } }\n\
               def main() -> int {\n\
                 var s = 0;\n\
                 for (i = 0; i < 5000; i = i + 1) {\n\
                   var f = K.new(i % 7).add;\n\
                   s = s + f(1);\n\
                 }\n\
                 return s;\n\
               }";
    let p = compile_vm(src);
    let mut vm = Vm::with_heap(&p, 1024);
    vm.set_fuel(1 << 30);
    let words = vm.run().expect("runs");
    let expect: i32 = (0..5000).map(|i| 1 + i % 7).sum();
    assert_eq!(ret_as_int(&words), Some(expect));
    assert!(vm.stats.heap.collections > 0);
    assert!(vm.stats.heap.closures >= 5000);
    assert_eq!(vm.stats.heap.tuple_boxes, 0);
}

#[test]
fn vm_string_pool_reallocation() {
    // Each loop iteration materializes a fresh string from the pool;
    // mutating it must not affect later copies.
    let src = "def main() -> int {\n\
                 var total = 0;\n\
                 for (i = 0; i < 100; i = i + 1) {\n\
                   var s = \"ab\";\n\
                   s[0] = byte.!(int.!('a') + i % 26);\n\
                   total = total + int.!(s[0]);\n\
                 }\n\
                 return total;\n\
               }";
    let expect: i32 = (0..100).map(|i| 97 + i % 26).sum();
    assert_eq!(run_int(src), expect);
}
