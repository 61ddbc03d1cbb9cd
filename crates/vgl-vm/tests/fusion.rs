//! Back-end optimizer integration tests: monomorphic inline caches, the
//! allocation-free dispatch loop's spill accounting, and fused-vs-unfused
//! behavioral equivalence on real compiled programs.

use vgl_vm::{check_fused, fuse, ret_as_int, Vm, VmProgram, RET_INLINE};

/// Compiles `src` through the shipped pipeline, unfused: these tests lower
/// and fuse the plain bytecode themselves.
fn compile(src: &str) -> VmProgram {
    vgl::Compiler::new()
        .without_fuse()
        .compile(src)
        .unwrap_or_else(|e| panic!("compile: {e}"))
        .program
}

fn run(p: &VmProgram) -> (Option<i32>, String, vgl_vm::VmStats) {
    let mut vm = Vm::new(p);
    vm.set_fuel(100_000_000);
    let r = vm.run().ok().and_then(|w| ret_as_int(&w));
    let out = vm.output();
    (r, out, vm.stats)
}

/// A dynamically monomorphic call site: one miss fills the cache, every
/// later call at the same site with the same receiver class hits. A second
/// receiver class through the same site costs exactly one more miss.
#[test]
fn inline_cache_counts_hits_and_misses() {
    let p = compile(
        "class A { def m() -> int { return 1; } }\n\
         class B extends A { def m() -> int { return 2; } }\n\
         def call100(o: A) -> int {\n\
             var s = 0;\n\
             for (i = 0; i < 100; i = i + 1) s = s + o.m();\n\
             return s;\n\
         }\n\
         def main() -> int { return call100(A.new()) + call100(B.new()); }",
    );
    let (r, _, stats) = run(&p);
    assert_eq!(r, Some(300));
    assert_eq!(stats.virtual_calls, 200);
    assert_eq!(stats.ic_hits + stats.ic_misses, 200, "every virtual call consults the IC");
    assert_eq!(stats.ic_misses, 2, "one miss per receiver-class transition");
    assert!(stats.ic_hit_rate() > 0.98, "hit rate {}", stats.ic_hit_rate());
}

/// A site that alternates receiver classes every call thrashes the
/// monomorphic cache — every call is a miss. Behavior must be unaffected.
#[test]
fn inline_cache_thrashes_on_polymorphic_site() {
    let p = compile(
        "class A { def m() -> int { return 1; } }\n\
         class B extends A { def m() -> int { return 2; } }\n\
         def main() -> int {\n\
             var a = A.new();\n\
             var b: A = B.new();\n\
             var s = 0;\n\
             for (i = 0; i < 50; i = i + 1) {\n\
                 var o = a;\n\
                 if (i % 2 == 0) o = b;\n\
                 s = s + o.m();\n\
             }\n\
             return s;\n\
         }",
    );
    let (r, _, stats) = run(&p);
    assert_eq!(r, Some(75));
    assert_eq!(stats.ic_misses, 50, "alternating receivers miss every time");
    assert_eq!(stats.ic_hits, 0);
}

/// Calls returning at most [`RET_INLINE`] values use the frame-inline return
/// slots: a call-heavy steady state performs zero Rust-side allocations.
#[test]
fn narrow_returns_never_spill() {
    assert_eq!(RET_INLINE, 2);
    let p = compile(
        "def swap(p: (int, int)) -> (int, int) { return (p.1, p.0); }\n\
         def main() -> int {\n\
             var t = (1, 2);\n\
             for (i = 0; i < 1000; i = i + 1) t = swap(t);\n\
             return t.0 + t.1;\n\
         }",
    );
    let (r, _, stats) = run(&p);
    assert_eq!(r, Some(3));
    assert!(stats.calls >= 1000, "loop body calls: {}", stats.calls);
    assert_eq!(stats.ret_spills, 0, "two scalar returns fit the inline slots");
    assert_eq!(stats.heap.tuple_boxes, 0);
}

/// Returns wider than [`RET_INLINE`] take the boxed spill path — counted,
/// correct, and still tuple-box-free on the VM heap.
#[test]
fn wide_returns_spill_and_stay_correct() {
    let p = compile(
        "def three(x: int) -> (int, int, int) { return (x, x + 1, x + 2); }\n\
         def main() -> int {\n\
             var s = 0;\n\
             for (i = 0; i < 10; i = i + 1) {\n\
                 var t = three(i);\n\
                 s = s + t.0 + t.1 + t.2;\n\
             }\n\
             return s;\n\
         }",
    );
    let (r, _, stats) = run(&p);
    assert_eq!(r, Some(165));
    assert!(stats.ret_spills >= 10, "wide returns must spill: {}", stats.ret_spills);
    assert_eq!(stats.heap.tuple_boxes, 0, "spills are frames, not heap tuples");
}

/// The full fusion pass is observationally invisible across a spread of
/// language features, shrinks code, validates, and keeps the VM heap free of
/// tuple boxes.
#[test]
fn fusion_is_observationally_invisible() {
    let sources = [
        // Loops + arithmetic (CmpBrI/IncLocal territory).
        "def main() -> int { var s = 0; for (i = 0; i < 37; i = i + 1) s = s + i * 3; return s; }",
        // Virtual dispatch + fields (FieldGetRet, IC interplay).
        "class P { var x: int; new(x) { } def get() -> int { return x; } }\n\
         class Q extends P { new(x: int) super(x * 2) { } }\n\
         def main() -> int {\n\
             var p: P = Q.new(10);\n\
             var s = 0;\n\
             for (i = 0; i < 10; i = i + 1) s = s + p.get();\n\
             return s;\n\
         }",
        // Null tests + early exits (NullBr/EqBr).
        "class N { var next: N; new(next) { } }\n\
         def len(n: N) -> int {\n\
             var c = 0;\n\
             for (x = n; x != null; x = x.next) c = c + 1;\n\
             return c;\n\
         }\n\
         def main() -> int {\n\
             var none: N;\n\
             return len(N.new(N.new(N.new(none))));\n\
         }",
        // Bound-method delegates (closure calls through the fused code).
        "class Adder { var k: int; new(k) { } def add(x: int) -> int { return x + k; } }\n\
         def main() -> int { var f = Adder.new(5).add; return f(10) + f(20); }",
    ];
    for src in sources {
        let unfused = compile(src);
        let mut fused = unfused.clone();
        let stats = fuse(&mut fused);
        let violations = check_fused(&fused);
        assert!(violations.is_empty(), "{src}\n{violations:?}");
        assert!(
            stats.instrs_after <= stats.instrs_before,
            "{src}: fusion grew code ({} -> {})",
            stats.instrs_before,
            stats.instrs_after
        );
        let (r1, o1, s1) = run(&unfused);
        let (r2, o2, s2) = run(&fused);
        assert_eq!(r1, r2, "{src}: results diverge");
        assert_eq!(o1, o2, "{src}: output diverges");
        assert_eq!(s2.heap.tuple_boxes, 0, "{src}: fused run boxed a tuple");
        assert_eq!(
            s1.heap.objects, s2.heap.objects,
            "{src}: fusion changed the dynamic allocation count"
        );
    }
}
