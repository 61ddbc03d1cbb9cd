//! Golden-output tests over `examples/v/*.v`: every example must compile,
//! produce exactly the recorded output and result on BOTH engines, and
//! produce a valid machine-readable stats report. Update the table below
//! when an example legitimately changes.

use std::path::PathBuf;

fn example(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../examples/v")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"))
}

/// `(file, expected result, expected output)`.
const GOLDEN: &[(&str, &str, &str)] = &[
    ("hello.v", "42", "hello, virgil\n"),
    ("generics.v", "42", "17 true\n"),
    ("tuples.v", "292", "7,0 6,3 6,5 9,4 \n"),
    ("classes.v", "1128", "0 103 1025 \n"),
    ("closures.v", "59", "24 11 24\n"),
    ("delegates.v", "177", "177 10\n"),
    ("wide_tuples.v", "180", "9 9 72\n108\n"),
    ("gc.v", "39564", "39564\n"),
    ("dispatch_chain.v", "7328", "7328\n"),
];

#[test]
fn examples_match_golden_output_on_both_engines() {
    for &(name, result, output) in GOLDEN {
        let c = vgl::Compiler::new()
            .compile(&example(name))
            .unwrap_or_else(|e| panic!("{name} failed to compile:\n{e}"));
        let i = c.interpret();
        let v = c.execute();
        assert_eq!(i.result.as_deref(), Ok(result), "{name}: interp result");
        assert_eq!(v.result.as_deref(), Ok(result), "{name}: vm result");
        assert_eq!(i.output, output, "{name}: interp output");
        assert_eq!(v.output, output, "{name}: vm output");
    }
}

#[test]
fn examples_trace_every_phase() {
    for &(name, _, _) in GOLDEN {
        let c = vgl::Compiler::new().compile(&example(name)).expect("compiles");
        let names: Vec<&str> = c.trace.phases.iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            ["lex", "parse", "sema", "mono", "normalize", "optimize", "lower", "fuse"],
            "{name}: phase list"
        );
        assert!(
            c.trace.phases.iter().all(|p| p.items_in > 0),
            "{name}: every phase consumed something"
        );
    }
}

#[test]
fn examples_produce_valid_stats_reports() {
    for &(name, result, _) in GOLDEN {
        let c = vgl::Compiler::new().compile(&example(name)).expect("compiles");
        let i = c.interpret();
        let mut vm = c.vm();
        vm.enable_profiling();
        vm.enable_runtime_profiling_precise();
        let v = c.run_vm(&mut vm);
        let profile = vm.take_profile().expect("profiling enabled");
        let hotness = vm.take_runtime_profile().expect("hotness enabled");
        let report =
            vgl::report::stats_json(&c, Some(&i), Some(&v), Some(&profile), Some(&hotness));
        let text = report.render();
        let back = vgl_obs::json::parse(&text)
            .unwrap_or_else(|e| panic!("{name}: report is not valid JSON: {e:?}"));
        for key in ["phases", "pipeline", "bytecode_instrs", "interp", "vm", "runtime"] {
            assert!(back.get(key).is_some(), "{name}: report missing {key:?}");
        }
        let vm_result = back
            .get("vm")
            .and_then(|v| v.get("result"))
            .and_then(vgl_obs::json::Json::as_str);
        assert_eq!(vm_result, Some(result), "{name}: report vm result");
    }
}

/// The bytecode back-end optimizer (fusion + inline caches) must be
/// observationally invisible: every example produces the identical result and
/// output with fusion on (the default), and fused execution allocates exactly
/// zero tuple boxes (the §4.2 invariant, dynamically).
#[test]
fn examples_match_golden_output_with_fusion() {
    for &(name, result, output) in GOLDEN {
        let c = vgl::Compiler::new()
            .compile(&example(name))
            .unwrap_or_else(|e| panic!("{name} failed to compile fused:\n{e}"));
        assert!(
            c.fuse.instrs_before >= c.fuse.instrs_after,
            "{name}: fusion must not grow code ({} -> {})",
            c.fuse.instrs_before,
            c.fuse.instrs_after
        );
        let v = c.execute();
        assert_eq!(v.result.as_deref(), Ok(result), "{name}: fused vm result");
        assert_eq!(v.output, output, "{name}: fused vm output");
        let stats = v.vm_stats.expect("vm stats");
        assert_eq!(stats.heap.tuple_boxes, 0, "{name}: fused run boxed a tuple");
    }
}

/// Golden disassembly: the side-by-side unfused/fused listing for
/// `dispatch_chain.v` is pinned to a checked-in file so any change to
/// lowering, fusion rules, or the disassembler shows up in review. Regenerate
/// with `VGL_UPDATE_GOLDEN=1 cargo test -p vgl-integration golden`.
#[test]
fn dispatch_chain_disasm_matches_golden() {
    let c = vgl::Compiler::new()
        .without_fuse()
        .compile(&example("dispatch_chain.v"))
        .expect("compiles");
    let mut fused = c.program.clone();
    vgl_vm::fuse(&mut fused);
    let got = vgl_vm::side_by_side(&c.program, &fused);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/dispatch_chain.disasm");
    if std::env::var_os("VGL_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden disasm");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("read {path:?}: {e}; regenerate with VGL_UPDATE_GOLDEN=1")
    });
    assert_eq!(
        got, want,
        "disassembly drifted from {path:?}; regenerate with VGL_UPDATE_GOLDEN=1 if intended"
    );
}

#[test]
fn gc_example_profiles_collections() {
    let c = vgl::Compiler::new().compile(&example("gc.v")).expect("compiles");
    let (out, profile) = c.execute_profiled();
    assert!(out.result.is_ok());
    assert!(
        !profile.gc_events.is_empty(),
        "gc.v should trigger at least one collection"
    );
    for e in &profile.gc_events {
        assert!(e.live_slots <= e.capacity_slots, "live fits in the semispace");
        assert!(e.at_instr > 0, "collections happen during execution");
    }
    assert!(profile.retired() > 0);
}

// ---- Malformed corpus: diagnostics are golden too --------------------------

fn bad_example_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../examples/v-bad")
}

/// Every file in `examples/v-bad`. Each must produce at least one error —
/// and exactly the recorded rendered diagnostics. Regenerate the snapshots
/// with `VGL_UPDATE_GOLDEN=1 cargo test -p tests`.
const BAD: &[&str] = &[
    "bad_class.v",
    "bad_escape.v",
    "deep_nesting.v",
    "missing_semi.v",
    "multi_error.v",
    "overflow_literal.v",
    "stray_shr.v",
    "type_errors.v",
    "unterminated_string.v",
];

#[test]
fn bad_examples_match_expected_diagnostics() {
    for &name in BAD {
        let dir = bad_example_dir();
        let src_path = dir.join(name);
        let src = std::fs::read_to_string(&src_path)
            .unwrap_or_else(|e| panic!("read {src_path:?}: {e}"));
        // Check with the bare file name so snapshots are machine-independent.
        let report = vgl::Compiler::new().check(name, &src);
        assert!(!report.ok(), "{name}: expected errors, found none");
        let got = report.rendered.concat();
        let expected_path = dir.join(format!("{name}.expected"));
        if std::env::var("VGL_UPDATE_GOLDEN").is_ok() {
            std::fs::write(&expected_path, &got)
                .unwrap_or_else(|e| panic!("write {expected_path:?}: {e}"));
            continue;
        }
        let want = std::fs::read_to_string(&expected_path).unwrap_or_else(|e| {
            panic!("read {expected_path:?}: {e} (VGL_UPDATE_GOLDEN=1 to create)")
        });
        assert_eq!(
            got, want,
            "{name}: diagnostics drifted; rerun with VGL_UPDATE_GOLDEN=1 if intended"
        );
    }
}

#[test]
fn bad_examples_directory_is_fully_listed() {
    let mut on_disk: Vec<String> = std::fs::read_dir(bad_example_dir())
        .expect("examples/v-bad exists")
        .filter_map(|e| {
            let name = e.expect("dir entry").file_name().into_string().expect("utf-8");
            name.ends_with(".v").then_some(name)
        })
        .collect();
    on_disk.sort();
    assert_eq!(on_disk, BAD, "keep the BAD table in sync with examples/v-bad");
}

#[test]
fn good_examples_check_clean() {
    for &(name, _, _) in GOLDEN {
        let report = vgl::Compiler::new().check(name, &example(name));
        assert!(
            report.ok() && report.diagnostics.is_empty(),
            "{name}: expected a clean check, got {:?}",
            report.rendered
        );
    }
}

/// The acceptance bar for error recovery: a file with five independent
/// mistakes reports all five in one run.
#[test]
fn multi_error_reports_all_five() {
    let src = std::fs::read_to_string(bad_example_dir().join("multi_error.v"))
        .expect("multi_error.v");
    let report = vgl::Compiler::new().check("multi_error.v", &src);
    assert_eq!(
        report.error_count(),
        5,
        "recovery lost errors: {:?}",
        report.rendered
    );
}
