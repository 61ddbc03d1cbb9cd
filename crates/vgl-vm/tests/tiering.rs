//! Tiered-execution integration tests: behavioral identity under tiering
//! (including a forced threshold-1 tier storm), speculation of monomorphic
//! sites into guarded and inlined calls, also in frames already running,
//! guard-failure deoptimization with sticky megamorphic marking, and the
//! flight recorder's view of tier transitions.

use vgl_vm::{ret_as_int, Vm, VmProgram, VmStats};

/// Compiles `src` through the shipped pipeline, unfused: these tests lower
/// and fuse the plain bytecode themselves.
fn compile(src: &str) -> VmProgram {
    vgl::Compiler::new()
        .without_fuse()
        .compile(src)
        .unwrap_or_else(|e| panic!("compile: {e}"))
        .program
}

fn run_plain(p: &VmProgram) -> (Option<i32>, String) {
    let mut vm = Vm::new(p);
    vm.set_fuel(100_000_000);
    let r = vm.run().ok().and_then(|w| ret_as_int(&w));
    (r, vm.output())
}

fn run_tiered(p: &VmProgram, threshold: u64) -> (Option<i32>, String, VmStats) {
    let mut vm = Vm::new(p);
    vm.set_fuel(100_000_000);
    vm.enable_tiering(threshold);
    let r = vm.run().ok().and_then(|w| ret_as_int(&w));
    let out = vm.output();
    (r, out, vm.stats)
}

/// A monomorphic hot walker: the virtual call site only ever sees `Inc`,
/// so tiering speculates it — and because `Inc.apply` is a one-expression
/// body, the speculation inlines it to a micro-op (no callee frame).
const MONO: &str = "class Op { def apply(x: int) -> int { return x; } }\n\
     class Inc extends Op { def apply(x: int) -> int { return x + 1; } }\n\
     class Node { var op: Op; var next: Node; new(op, next) { } }\n\
     def walk(chain: Node, x0: int) -> int {\n\
         var x = x0;\n\
         for (n = chain; n != null; n = n.next) x = n.op.apply(x);\n\
         return x;\n\
     }\n\
     def main() -> int {\n\
         var none: Node;\n\
         var mono: Node;\n\
         for (k = 0; k < 16; k = k + 1) mono = Node.new(Inc.new(), mono);\n\
         var acc = 0;\n\
         for (i = 0; i < 200; i = i + 1) acc = (acc + walk(mono, i)) % 8191;\n\
         return acc;\n\
     }";

/// Polymorphic warmup, then a guard-failing receiver, then a long
/// monomorphic tail: exercises tier-up, deopt, and the sticky megamorphic
/// bit end to end.
const DEOPT: &str = "class Op { def apply(x: int) -> int { return x; } }\n\
     class Inc extends Op { def apply(x: int) -> int { return x + 1; } }\n\
     class Tri extends Op { def apply(x: int) -> int { return x * 3; } }\n\
     def walk(o: Op, n: int) -> int {\n\
         var x = 1;\n\
         for (i = 0; i < n; i = i + 1) x = (x + o.apply(i)) % 8191;\n\
         return x;\n\
     }\n\
     def main() -> int {\n\
         var a = walk(Inc.new(), 200);\n\
         var b = walk(Tri.new(), 200);\n\
         var c = walk(Inc.new(), 200);\n\
         return a + b + c;\n\
     }";

#[test]
fn tiering_is_behaviorally_invisible() {
    for src in [MONO, DEOPT] {
        let p = compile(src);
        let (r, out) = run_plain(&p);
        assert!(r.is_some());
        // Default-ish, aggressive, and degenerate thresholds all agree.
        for threshold in [256, 16, 1] {
            let (rt, ot, _) = run_tiered(&p, threshold);
            assert_eq!(r, rt, "threshold {threshold} changed the result");
            assert_eq!(out, ot, "threshold {threshold} changed the output");
        }
    }
}

#[test]
fn hot_monomorphic_site_tiers_up_and_inlines() {
    let p = compile(MONO);
    let (r, out) = run_plain(&p);
    let (rt, ot, stats) = run_tiered(&p, 64);
    assert_eq!((r, out), (rt, ot));
    assert!(stats.tier_ups > 0, "walker never tiered up");
    assert_eq!(stats.deopts, 0, "monomorphic site must not deopt");
    assert!(
        stats.inlined_calls > 0,
        "one-expression callee should inline behind the guard: {stats:?}"
    );
    // Inlined calls still count as virtual calls, and the IC totals keep
    // covering only the unspeculated path.
    assert!(stats.virtual_calls >= stats.inlined_calls + stats.guarded_calls);
}

#[test]
fn guard_failure_deopts_once_and_site_goes_megamorphic() {
    let p = compile(DEOPT);
    let (r, out) = run_plain(&p);
    let mut vm = Vm::new(&p);
    vm.set_fuel(100_000_000);
    vm.enable_tiering(16);
    let rt = vm.run().ok().and_then(|w| ret_as_int(&w));
    assert_eq!(r, rt);
    assert_eq!(out, vm.output());
    let stats = vm.stats;
    assert!(stats.tier_ups >= 2, "expected a re-tier after the deopt: {stats:?}");
    assert_eq!(stats.deopts, 1, "the failed guard deopts exactly once: {stats:?}");
    let tier = vm.tier_state().expect("tiering enabled");
    let mega = tier.mega_sites();
    assert_eq!(mega.len(), 1, "exactly one site goes megamorphic");
    assert!(tier.is_mega(mega[0]));
    // `walk` tiers up inside its first call, whose remaining `Inc` calls
    // inline. The `Tri` receiver deopts the site; the long monomorphic tail
    // re-tiers `walk`, but the megamorphic site stays a plain virtual call —
    // no new guards, no new inlining, no second deopt.
    assert_eq!(stats.guarded_calls, 0, "mega site must never be re-speculated: {stats:?}");
    assert!(
        (1..=200).contains(&stats.inlined_calls),
        "only the first walk inlines, and it does: {stats:?}"
    );
}

/// A loop in `main` makes `main` hot while it runs: tier-up speculates the
/// loop's call site, and the frame that is already running sees it, so
/// most of the 100,000 calls run their one-instruction callee inline.
#[test]
fn speculation_reaches_the_running_frame() {
    let p = compile(
        "class Op { def apply(x: int) -> int { return x; } }\n\
         class Inc extends Op { def apply(x: int) -> int { return x + 1; } }\n\
         def main() -> int {\n\
             var op: Op = Inc.new();\n\
             var x = 0;\n\
             for (i = 0; i < 100000; i = i + 1) x = op.apply(x) % 8191;\n\
             return x;\n\
         }",
    );
    let (r, out) = run_plain(&p);
    assert_eq!(r, Some(1708));
    let (rt, ot, stats) = run_tiered(&p, 256);
    assert_eq!((rt, ot), (r, out));
    assert!(stats.inlined_calls > 0, "the running main never inlined: {stats:?}");
    // The static fused run executes 800,010 instructions; an inlined call
    // leaves out the callee's frame.
    assert!(stats.instrs < 800_010, "{stats:?}");
}

#[test]
fn forced_tier_storm_stays_correct_and_bounded() {
    // Threshold 1: every function tiers up at its first trigger point and
    // the deopt path runs under maximum churn. The doubling re-tier
    // schedule must keep the tier-up count far below the trigger count.
    let p = compile(DEOPT);
    let (r, out) = run_plain(&p);
    let (rt, ot, stats) = run_tiered(&p, 1);
    assert_eq!((r, out), (rt, ot));
    assert!(stats.tier_ups > 0);
    assert!(
        stats.tier_ups < 100,
        "doubling schedule should bound re-tiers: {}",
        stats.tier_ups
    );
}

#[test]
fn flight_recorder_orders_tier_up_before_deopt() {
    let p = compile(DEOPT);
    let mut vm = Vm::new(&p);
    vm.set_fuel(100_000_000);
    vm.enable_tiering(16);
    vm.enable_flight_recorder(4096);
    assert!(vm.run().is_ok());
    let fr = vm.flight().expect("enabled");
    let events: Vec<String> = fr
        .events()
        .filter_map(|e| {
            use vgl_vm::FlightKind::*;
            match e.kind {
                TierUp { .. } => Some("tier-up".to_string()),
                Deopt { .. } => Some("deopt".to_string()),
                _ => None,
            }
        })
        .collect();
    let first_tier = events.iter().position(|e| e == "tier-up").expect("a tier-up event");
    let deopt = events.iter().position(|e| e == "deopt").expect("a deopt event");
    assert!(first_tier < deopt, "speculation precedes its failure: {events:?}");
    // The ring keeps instruction counters monotone across wraps.
    let ats: Vec<u64> = fr.events().map(|e| e.at_instr).collect();
    assert!(ats.windows(2).all(|w| w[0] <= w[1]), "flight ring out of order");
    let dump = vm.flight_dump().expect("non-empty");
    assert!(dump.contains("tier-up"), "dump renders tier-ups:\n{dump}");
    assert!(dump.contains("deopt"), "dump renders deopts:\n{dump}");
}
