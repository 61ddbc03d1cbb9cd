//! VM profiling invariants: profiling changes no observable behavior, the
//! opcode histogram accounts for every retired instruction, and GC events
//! mirror the heap's collection counters.

use vgl_vm::{ret_as_int, Vm, VmProgram, OPCODE_COUNT, OPCODE_NAMES};

/// Compiles `src` through the shipped pipeline, unfused: these tests lower
/// and fuse the plain bytecode themselves.
fn compile(src: &str) -> VmProgram {
    vgl::Compiler::new()
        .without_fuse()
        .compile(src)
        .unwrap_or_else(|e| panic!("compile: {e}"))
        .program
}

const CHURN: &str = "class List<T> { var head: T; var tail: List<T>; new(head, tail) { } }\n\
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
        total = total + garbage.head;\n\
      }\n\
      return sum(keep) + total;\n\
    }";

/// Turns one instrument on.
type Enable = fn(&mut Vm<'_>);

/// Every instrument a VM run can carry, enabled the way `vglc` enables it.
const INSTRUMENTS: [(&str, Enable); 5] = [
    ("opcode profile", |vm| vm.enable_profiling()),
    ("sampling hotness", |vm| vm.enable_runtime_profiling()),
    ("precise hotness", |vm| vm.enable_runtime_profiling_precise()),
    ("trace log", |vm| vm.enable_trace_log(1 << 18)),
    ("flight recorder", |vm| vm.enable_flight_recorder(64)),
];

#[test]
fn profiling_disabled_is_free() {
    // Same program, with and without each instrument, tiered and not:
    // identical result, output, retired instructions and heap counters —
    // instruments must observe, never perturb.
    for name in ["gc.v", "dispatch_chain.v", "generics.v", "tuples.v"] {
        let path = format!("{}/../../examples/v/{name}", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(&path).expect("example exists");
        for tier in [false, true] {
            let options = vgl::Options { tier, ..vgl::Options::default() };
            let c = vgl::Compiler::with_options(options).compile(&src).expect("compiles");
            let observe = |vm: &mut Vm<'_>| {
                let out = c.run_vm(vm);
                let stats = out.vm_stats.expect("vm stats");
                (out.result, out.output, stats.instrs, stats.heap)
            };
            let mut plain = c.vm();
            let want = observe(&mut plain);
            assert!(plain.profile().is_none(), "profiling is off by default");
            assert!(want.0.is_ok(), "{name}: {:?}", want.0);
            for (instrument, enable) in INSTRUMENTS {
                let mut vm = c.vm();
                enable(&mut vm);
                assert_eq!(
                    observe(&mut vm),
                    want,
                    "{name} (tier {tier}): the {instrument} perturbed the run"
                );
            }
        }
    }
}

#[test]
fn histogram_accounts_for_every_retired_instruction() {
    let program = compile(CHURN);
    let mut vm = Vm::with_heap(&program, 512);
    vm.enable_profiling();
    vm.run().expect("runs");
    let profile = vm.profile().expect("profiling on");
    assert_eq!(
        profile.retired(),
        vm.stats.instrs,
        "histogram total must equal the instruction counter"
    );
    // The histogram only reports executed opcodes, sorted descending.
    let hist = profile.opcode_histogram();
    assert!(!hist.is_empty());
    assert!(hist.windows(2).all(|w| w[0].1 >= w[1].1), "sorted by count");
    assert!(hist.iter().all(|&(_, c)| c > 0));
}

#[test]
fn gc_events_mirror_heap_collections() {
    let program = compile(CHURN);
    let mut vm = Vm::with_heap(&program, 512); // small: forces collections
    vm.enable_profiling();
    vm.run().expect("runs");
    let profile = vm.take_profile().expect("profiling on");
    assert!(vm.stats.heap.collections > 0, "expected GC activity");
    assert_eq!(profile.gc_events.len(), vm.stats.heap.collections);
    let mut last_at = 0;
    for e in &profile.gc_events {
        assert!(e.live_slots <= e.capacity_slots);
        assert!(e.copied_slots >= e.live_slots, "copy includes headers");
        assert!(e.at_instr >= last_at, "events are ordered");
        last_at = e.at_instr;
    }
    // take_profile leaves the VM unprofiled.
    assert!(vm.profile().is_none());
}

#[test]
fn runtime_profiling_observes_not_perturbs() {
    // Hotness profiling is deterministic telemetry: identical result,
    // output, and counters with it on or off — and two profiled runs of
    // the same program produce byte-identical profiles.
    let program = compile(CHURN);
    let mut plain = Vm::with_heap(&program, 512);
    let r1 = plain.run().expect("runs");
    assert!(plain.runtime_profile().is_none(), "off by default");

    let mut profiled = Vm::with_heap(&program, 512);
    profiled.enable_runtime_profiling();
    let r2 = profiled.run().expect("runs");
    assert_eq!(ret_as_int(&r1), ret_as_int(&r2));
    assert_eq!(plain.output(), profiled.output());
    assert_eq!(plain.stats.instrs, profiled.stats.instrs);

    let mut again = Vm::with_heap(&program, 512);
    again.enable_runtime_profiling();
    again.run().expect("runs");
    assert_eq!(
        profiled.runtime_profile(),
        again.runtime_profile(),
        "the runtime profile is deterministic"
    );
}

#[test]
fn sampling_profile_counts_calls_and_ticks_only() {
    // Default (sampling) mode: exact call counts, back-edge ticks for cost
    // attribution, and no per-return accounting — the configuration the
    // E10 overhead gate measures.
    let program = compile(CHURN);
    let mut vm = Vm::with_heap(&program, 512);
    vm.enable_runtime_profiling();
    vm.run().expect("runs");
    let profile = vm.take_runtime_profile().expect("enabled");
    let total_calls: u64 = profile.rows.iter().map(|r| r.calls).sum();
    assert_eq!(total_calls, vm.stats.calls + 1, "call counts stay exact");
    let ranked = profile.hotness_ranked(&program);
    assert!(ranked[0].ticks > 0, "loops tick at back-edges");
    assert!(
        profile.rows.iter().all(|r| r.incl_instrs == 0 && r.excl_instrs == 0),
        "sampling mode does no per-return accounting"
    );

    // Precise mode agrees with sampling mode on everything they share.
    let mut precise = Vm::with_heap(&program, 512);
    precise.enable_runtime_profiling_precise();
    precise.run().expect("runs");
    let pp = precise.take_runtime_profile().expect("enabled");
    for (a, b) in profile.rows.iter().zip(pp.rows.iter()) {
        assert_eq!(a.calls, b.calls);
        assert_eq!(a.ticks, b.ticks);
    }
}

#[test]
fn runtime_profile_accounts_for_every_instruction() {
    // Precise mode: exact inclusive/exclusive accounting at frame exits.
    let program = compile(CHURN);
    let mut vm = Vm::with_heap(&program, 512);
    vm.enable_runtime_profiling_precise();
    vm.run().expect("runs");
    let profile = vm.take_runtime_profile().expect("enabled");
    assert!(vm.runtime_profile().is_none(), "take disables");

    // Function entries = explicit call instructions + the two
    // `call_function` entries (no globals in CHURN, so just main).
    let total_calls: u64 = profile.rows.iter().map(|r| r.calls).sum();
    assert_eq!(total_calls, vm.stats.calls + 1);

    // Exclusive counts partition the run: every retired instruction
    // belongs to exactly one completed frame.
    let total_excl: u64 = profile.rows.iter().map(|r| r.excl_instrs).sum();
    assert_eq!(total_excl, vm.stats.instrs);

    // main's inclusive count covers the whole run, and inclusive ≥
    // exclusive everywhere.
    let ranked = profile.hotness_ranked(&program);
    assert!(!ranked.is_empty());
    let main_row = ranked.iter().find(|r| r.name.contains("main")).expect("main ran");
    assert_eq!(main_row.incl_instrs, vm.stats.instrs);
    for row in &ranked {
        assert!(row.incl_instrs >= row.excl_instrs, "{}", row.name);
        assert!(row.calls > 0);
    }
    // CHURN loops in main and sum: back-edge ticks observed, and the
    // ranking is tick-descending.
    assert!(ranked[0].ticks > 0);
    assert!(ranked.windows(2).all(|w| w[0].ticks >= w[1].ticks));

    // JSON round-trips through the in-tree parser.
    let j = profile.to_json(&program).render();
    let parsed = vgl_obs::json::parse(&j).expect("valid");
    assert_eq!(parsed.as_arr().unwrap().len(), ranked.len());
    let table = profile.render_table(&program);
    assert!(table.contains("ticks"));
}

const TRAPPING: &str = "class A { var x: int; new(x) { } }\n\
    def get(a: A) -> int { return a.x; }\n\
    def poke(i: int) -> int {\n\
      if (i <= 0) return 0;\n\
      return i + poke(i - 1);\n\
    }\n\
    def main() -> int {\n\
      var t = 0;\n\
      for (i = 0; i < 5; i = i + 1) t = t + poke(i);\n\
      var a: A;\n\
      return t + get(a);\n\
    }";

#[test]
fn flight_recorder_dumps_on_trap_with_ordering() {
    let program = compile(TRAPPING);
    let mut vm = Vm::new(&program);
    vm.enable_flight_recorder(64);
    let err = vm.run().expect_err("null deref traps");
    assert_eq!(format!("{err}"), "!NullCheckException");

    let fr = vm.flight().expect("enabled");
    // Oldest-first, instruction clock never goes backwards, trap is last.
    let events: Vec<_> = fr.events().collect();
    assert!(events.windows(2).all(|w| w[0].at_instr <= w[1].at_instr));
    assert!(matches!(
        events.last().unwrap().kind,
        vgl_vm::FlightKind::Trap { error: vgl_vm::VmError::Exception(_), .. }
    ));
    let calls = events
        .iter()
        .filter(|e| matches!(e.kind, vgl_vm::FlightKind::Call { .. }))
        .count();
    assert!(calls >= 7, "main + 5 pokes + get, got {calls}");

    let dump = vm.flight_dump().expect("non-empty");
    assert!(dump.starts_with("--- flight recorder"));
    assert!(dump.contains("poke"));
    assert!(
        dump.trim_end().lines().last().unwrap().contains("!NullCheckException in"),
        "trap is the final dump line:\n{dump}"
    );
    assert!(dump.contains("get"), "faulting function named");
}

#[test]
fn flight_recorder_wraps_but_keeps_the_trap() {
    let program = compile(TRAPPING);
    let mut vm = Vm::new(&program);
    vm.enable_flight_recorder(2);
    vm.run().expect_err("traps");
    let fr = vm.flight().expect("enabled");
    assert_eq!(fr.len(), 2);
    assert!(fr.dropped() > 0, "older events were overwritten");
    let last = fr.events().last().unwrap();
    assert!(matches!(last.kind, vgl_vm::FlightKind::Trap { .. }));
}

#[test]
fn flight_recorder_empty_dump_is_none() {
    let program = compile(CHURN);
    let mut vm = Vm::with_heap(&program, 512);
    assert!(vm.flight_dump().is_none(), "recorder disabled");
    vm.enable_flight_recorder(16);
    assert!(vm.flight_dump().is_none(), "enabled but nothing recorded yet");
    vm.run().expect("no trap");
    // A clean run still has its final moments available on request.
    assert!(vm.flight_dump().is_some());
}

#[test]
fn trace_log_records_spans_and_gc_instants() {
    let program = compile(CHURN);
    let mut vm = Vm::with_heap(&program, 512);
    vm.enable_trace_log(1 << 16);
    vm.run().expect("runs");
    let log = vm.take_trace_log().expect("enabled");
    // One span per frame: every call instruction plus the main entry.
    assert_eq!(log.span_count() as u64, vm.stats.calls + 1);
    assert_eq!(log.spans_dropped(), 0);
    assert_eq!(log.gc.len(), vm.stats.heap.collections);
    // The outermost span (depth 0) is main, closed last.
    let outer = log.spans().last().unwrap();
    assert_eq!(outer.depth, 0);
    assert!(program.funcs[outer.func as usize].name.contains("main"));

    // The ring keeps the *last* spans when it overflows — main (closed
    // last) always survives — and counts the overwritten ones rather than
    // hiding the truncation.
    let mut capped = Vm::with_heap(&program, 512);
    capped.enable_trace_log(3);
    capped.run().expect("runs");
    let log = capped.take_trace_log().expect("enabled");
    assert_eq!(log.span_count(), 3);
    assert_eq!(log.spans_dropped(), capped.stats.calls + 1 - 3);
    let outer = log.spans().last().unwrap();
    assert!(program.funcs[outer.func as usize].name.contains("main"));
}

#[test]
fn opcode_names_are_dense_and_unique() {
    assert_eq!(OPCODE_NAMES.len(), OPCODE_COUNT);
    let mut names: Vec<&str> = OPCODE_NAMES.to_vec();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), OPCODE_COUNT, "duplicate opcode name");
}
