//! Quickstart: compile a Virgil III program and run it on both execution
//! engines — the type-passing reference interpreter and the compiled VM —
//! then show what the static pipeline (monomorphize → normalize → optimize)
//! did to it.
//!
//! Run with: `cargo run --example quickstart`

use vgl::Compiler;

const PROGRAM: &str = r#"
// Listing (e1-e5) of the paper: a timing utility that works for *any*
// function thanks to type parameters + tuples + first-class functions.
def time<A, B>(func: A -> B, a: A) -> (B, int) {
    var start = System.ticks();
    return (func(a), System.ticks() - start);
}

def sumTo(n: int) -> int {
    var s = 0;
    for (i = 1; i <= n; i = i + 1) s = s + i;
    return s;
}

def hypot2(p: (int, int)) -> int { return p.0 * p.0 + p.1 * p.1; }

def main() -> int {
    var r1 = time(sumTo, 1000);
    System.puts("sumTo(1000) = "); System.puti(r1.0); System.ln();
    var r2 = time(hypot2, (3, 4));
    System.puts("hypot2(3, 4) = "); System.puti(r2.0); System.ln();
    return r1.0 + r2.0;
}
"#;

fn main() {
    let compilation = match Compiler::new().compile(PROGRAM) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("compilation failed:\n{e}");
            std::process::exit(1);
        }
    };

    println!("== interpreter (type-argument passing, boxed tuples) ==");
    let interp = compilation.interpret();
    print!("{}", interp.output);
    println!("result: {:?}", interp.result);
    let is = interp.interp_stats.expect("interp stats");
    println!(
        "tuple boxes: {}, runtime type substitutions: {}, call-site checks: {}",
        is.allocs.tuples, is.type_substitutions, is.callsite_checks
    );

    println!();
    println!("== VM (monomorphized, normalized, optimized) ==");
    let vm = compilation.execute();
    print!("{}", vm.output);
    println!("result: {:?}", vm.result);
    let vs = vm.vm_stats.expect("vm stats");
    println!(
        "tuple boxes: {} (structurally impossible), closure cells: {}, GC runs: {}",
        vs.heap.tuple_boxes, vs.heap.closures, vs.heap.collections
    );

    println!();
    println!("== pipeline ==");
    println!("before:      {}", compilation.stats.size_before);
    println!("after mono:  {}", compilation.stats.size_after_mono);
    println!("after all:   {}", compilation.stats.size_after);
    println!(
        "mono: {} method instances from {} live methods (expansion x{:.2})",
        compilation.stats.mono.method_instances,
        compilation.stats.mono.live_source_methods,
        compilation.expansion_ratio()
    );
    println!(
        "norm: {} tuple exprs removed, {} params expanded, {} multi-return methods",
        compilation.stats.norm.tuple_exprs_removed,
        compilation.stats.norm.params_expanded,
        compilation.stats.norm.multi_return_methods
    );
    println!(
        "opt: {} queries folded, {} branches folded, {} inlined",
        compilation.stats.opt.queries_folded,
        compilation.stats.opt.branches_folded,
        compilation.stats.opt.inlined
    );

    assert_eq!(interp.result, vm.result, "engines must agree");
    assert_eq!(interp.output, vm.output, "engines must agree");
}
