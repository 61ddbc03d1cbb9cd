//! Heap allocations per phase, counted without a clock.
//!
//! A counting global allocator keeps a per-thread count of `alloc`,
//! `alloc_zeroed` and `realloc` calls. At jobs 1 every phase runs on the
//! calling thread, fuse's pool included, so reading the count around a
//! call gives the same number whichever tests run beside it. Each
//! measurement follows one warm-up run of the same work on the same thread,
//! so one-time initialization elsewhere in the process never lands in it.
//!
//! The front-end counts are taken through the entry points a caller that
//! times each layer uses: `lexer::lex`, `parse_tokens` and `analyze`. The
//! whole-compile counts are pinned in release builds only, because mono,
//! normalize and optimize check their postconditions in debug builds, and
//! those checks allocate. A change that moves a count re-pins it here and
//! says why.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vgl_bench::workloads;
use vgl_syntax::{ast, lexer, Diagnostics};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // During thread teardown the slot may be gone; those calls go uncounted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// `const`-initialized thread-local `Cell`, which itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Allocations made by lex, parse, sema and one `vgl_ir::measure` walk of
/// the analyzed module, in that order.
fn front_end(src: &str) -> [u64; 4] {
    let run = || {
        let mut diags = Diagnostics::new();
        let (tokens, lex) = counted(|| lexer::lex(src, &mut diags));
        let (program, parse) = counted(|| vgl_syntax::parse_tokens(src, tokens, &mut diags));
        let (module, sema) = counted(|| vgl_sema::analyze(&program, &mut diags));
        let module = module.expect("workload typechecks");
        let (_, measure) = counted(|| vgl_ir::measure(&module));
        [lex, parse, sema, measure]
    };
    run();
    run()
}

#[test]
fn serve_edit_front_end() {
    assert_eq!(front_end(&workloads::serve_edit(2, 1)), [15, 32_801, 30_643, 0]);
}

#[test]
fn big_program_front_end() {
    assert_eq!(front_end(&workloads::big_program(200)), [14, 8_870, 28_273, 0]);
}

#[test]
fn fanout_front_end() {
    assert_eq!(front_end(&workloads::instance_fanout_distinct(96)), [11, 1_181, 4_416, 0]);
}

/// Whole compiles, cold and served, in release builds only.
#[cfg(not(debug_assertions))]
mod whole_compile {
    use super::counted;
    use vgl::{Compiler, IncrementalCompiler};
    use vgl_bench::workloads;

    /// Allocations made by one cold compile at jobs 1, dropping included.
    fn cold_compile(src: &str) -> u64 {
        let compiler = Compiler::new().with_jobs(1);
        let run = || counted(|| drop(compiler.compile(src).expect("workload compiles"))).1;
        run();
        run()
    }

    #[test]
    fn cold_compiles() {
        let counts = [
            cold_compile(&workloads::serve_edit(2, 1)),
            cold_compile(&workloads::big_program(200)),
            cold_compile(&workloads::instance_fanout_distinct(96)),
        ];
        assert_eq!(counts, [199_839, 85_293, 53_614]);
    }

    /// A served edit: `serve_edit(2, 2)` after `serve_edit(2, 1)` on a warm
    /// store, compiled once on a first store as the warm-up.
    #[test]
    fn warm_served_edit() {
        let (first, second) = (workloads::serve_edit(2, 1), workloads::serve_edit(2, 2));
        let run = || {
            let served = IncrementalCompiler::new(Compiler::new().with_jobs(1));
            served.compile(&first).expect("first edit compiles");
            let (out, n) = counted(|| served.compile_reporting(&second).map(drop));
            out.expect("second edit compiles");
            n
        };
        run();
        assert_eq!(run(), 109_086);
    }
}

// Node sizes of the front end on 64-bit hosts: an identifier is a symbol
// and a span (32 bytes when it owned a `String`), and the rare large `for`
// statement is boxed (a `Stmt` was 288 bytes with it inline, an `Expr` 80).
const _: () = assert!(std::mem::size_of::<ast::Ident>() <= 12);
const _: () = assert!(std::mem::size_of::<ast::Expr>() <= 64);
const _: () = assert!(std::mem::size_of::<ast::Stmt>() <= 96);

/// `examples/v/gc.v` at `rounds` rounds of 200 list cells each.
fn gc_churn(rounds: u32) -> String {
    include_str!("../../../examples/v/gc.v")
        .replace("round < 2000", &format!("round < {rounds}"))
}

/// A loop of `calls` calls that each return three scalars.
fn wide_returns(calls: u32) -> String {
    format!(
        "def three(x: int) -> (int, int, int) {{ return (x, x + 1, x + 2); }}\n\
         def main() -> int {{\n\
           var s = 0;\n\
           for (i = 0; i < {calls}; i = i + 1) {{ var t = three(i); s = s + t.0 + t.2; }}\n\
           return s;\n\
         }}"
    )
}

/// Allocations `Compilation::execute` makes with the static VM and with
/// tiering, on a `gc.v`-style program that allocates 200 objects per round
/// and on a loop of calls that return three scalars. The count must not
/// grow with the objects or the calls, so the dispatch loop allocates
/// nothing per `new` and nothing per call.
#[test]
fn execute_allocations_do_not_grow_with_objects() {
    type Source = fn(u32) -> String;
    let inputs: [(Source, [u32; 2]); 2] = [(gc_churn, [20, 40]), (wide_returns, [1_000, 2_000])];
    for compiler in [vgl::Compiler::new(), vgl::Compiler::new().with_tiering()] {
        for (source, sizes) in inputs {
            let counts = sizes.map(|size| {
                let c = compiler.compile(&source(size)).expect("compiles");
                let run = || counted(|| assert!(c.execute().result.is_ok())).1;
                run();
                run()
            });
            assert_eq!(counts[0], counts[1], "{counts:?}");
        }
    }
}
