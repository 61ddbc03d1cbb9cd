//! End-to-end tests of the `vglc` binary: every subcommand over the checked-in
//! examples, exit codes, engine agreement under `both`, and the shape of
//! `stats --json`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn vglc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vglc"))
        .args(args)
        .output()
        .expect("vglc runs")
}

fn examples() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/v");
    let mut v: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {dir:?}: {e}"))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "v"))
        .collect();
    v.sort();
    assert!(!v.is_empty(), "no examples found in {dir:?}");
    v
}

#[test]
fn run_interp_and_both_agree_on_every_example() {
    for path in examples() {
        let p = path.to_str().expect("utf8 path");
        let run = vglc(&["run", p]);
        let interp = vglc(&["interp", p]);
        let both = vglc(&["both", p]);
        assert!(run.status.success(), "{p}: run failed: {run:?}");
        assert!(interp.status.success(), "{p}: interp failed: {interp:?}");
        assert!(both.status.success(), "{p}: engines disagree: {both:?}");
        assert_eq!(run.stdout, interp.stdout, "{p}: stdout differs across engines");
        assert_eq!(run.stdout, both.stdout, "{p}: both prints the agreed output");
    }
}

#[test]
fn stats_json_is_valid_and_complete_for_every_example() {
    for path in examples() {
        let p = path.to_str().expect("utf8 path");
        let out = vglc(&["stats", "--json", p]);
        assert!(out.status.success(), "{p}: stats --json failed: {out:?}");
        let text = String::from_utf8(out.stdout).expect("utf8");
        let json = vgl_obs::json::parse(text.trim())
            .unwrap_or_else(|e| panic!("{p}: invalid JSON: {e:?}\n{text}"));
        let keys = ["phases", "untraced_us", "pipeline", "bytecode_instrs", "interp", "vm", "runtime"];
        for key in keys {
            assert!(json.get(key).is_some(), "{p}: missing key {key:?}");
        }
        // The optimizer reports every `OptStats` counter, and only those.
        let keys: Vec<&str> = match json.get("pipeline").and_then(|o| o.get("optimize")) {
            Some(vgl_obs::json::Json::Obj(entries)) => {
                entries.iter().map(|(k, _)| k.as_str()).collect()
            }
            other => panic!("{p}: pipeline.optimize is not an object: {other:?}"),
        };
        assert_eq!(
            keys,
            [
                "consts_folded",
                "queries_folded",
                "casts_folded",
                "branches_folded",
                "dead_stmts_removed",
                "inlined"
            ],
            "{p}: pipeline.optimize keys"
        );
        // The unified runtime object carries both engines' counters.
        let rt = json.get("runtime").unwrap();
        assert!(
            rt.get("vm").and_then(|v| v.get("ic")).is_some(),
            "{p}: runtime.vm.ic missing"
        );
        assert!(
            rt.get("interp").and_then(|v| v.get("tuple_boxes")).is_some(),
            "{p}: runtime.interp.tuple_boxes missing"
        );
        // Both engines embedded in one report must agree on the result.
        let interp = json.get("interp").and_then(|o| o.get("result"));
        let vm = json.get("vm").and_then(|o| o.get("result"));
        assert!(interp.is_some() && vm.is_some(), "{p}: missing results");
        assert_eq!(
            interp.and_then(vgl_obs::json::Json::as_str),
            vm.and_then(vgl_obs::json::Json::as_str),
            "{p}: engines disagree in the report"
        );
        // The VM profile rides along with opcode counts.
        let profile = json.get("vm").and_then(|o| o.get("profile"));
        assert!(profile.is_some(), "{p}: missing vm profile");
    }
}

#[test]
fn profile_prints_phase_and_opcode_tables() {
    let path = examples().remove(0);
    let out = vglc(&["profile", path.to_str().expect("utf8 path")]);
    assert!(out.status.success(), "profile failed: {out:?}");
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("== compile phases =="), "missing phase table:\n{text}");
    assert!(text.contains("== vm profile =="), "missing vm table:\n{text}");
    assert!(text.contains("== hotness =="), "missing hotness table:\n{text}");
    for phase in ["lex", "parse", "sema", "mono", "normalize", "optimize", "lower", "(untraced)"] {
        assert!(text.contains(phase), "missing phase {phase}:\n{text}");
    }
    assert!(text.contains("gc:"), "missing gc summary:\n{text}");
}

#[test]
fn trace_writes_a_valid_chrome_trace_for_every_example() {
    let dir = std::env::temp_dir().join(format!("vglc-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    for path in examples() {
        let p = path.to_str().expect("utf8 path");
        let dest = dir.join(format!(
            "{}.json",
            path.file_stem().and_then(|s| s.to_str()).unwrap_or("trace")
        ));
        let out = vglc(&["trace", "--jobs", "8", "-o", dest.to_str().unwrap(), p]);
        assert!(out.status.success(), "{p}: trace failed: {out:?}");
        let text = std::fs::read_to_string(&dest)
            .unwrap_or_else(|e| panic!("{p}: trace file missing: {e}"));
        let json = vgl_obs::json::parse(&text)
            .unwrap_or_else(|e| panic!("{p}: invalid trace JSON: {e:?}"));
        let events = json
            .get("traceEvents")
            .and_then(vgl_obs::json::Json::as_arr)
            .unwrap_or_else(|| panic!("{p}: no traceEvents array"));
        // Compile-phase spans and at least one VM function span, always.
        let has = |want_ph: &str, want_pid: f64, name_pred: &dyn Fn(&str) -> bool| {
            events.iter().any(|e| {
                e.get("ph").and_then(vgl_obs::json::Json::as_str) == Some(want_ph)
                    && e.get("pid").and_then(vgl_obs::json::Json::as_f64) == Some(want_pid)
                    && e.get("name")
                        .and_then(vgl_obs::json::Json::as_str)
                        .map(name_pred)
                        .unwrap_or(false)
            })
        };
        assert!(has("X", 1.0, &|n| n == "mono"), "{p}: no compile spans");
        assert!(has("X", 2.0, &|n| n.contains("main")), "{p}: no VM span for main");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flight_record_dumps_only_on_traps() {
    let dir = std::env::temp_dir().join(format!("vglc-flight-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let trap = dir.join("trap.v");
    std::fs::write(
        &trap,
        "class A { var x: int; new(x) { } }\n\
         def get(a: A) -> int { return a.x; }\n\
         def main() -> int { var a: A; return get(a); }",
    )
    .expect("write");
    let out = vglc(&["run", "--flight-record", trap.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("--- flight recorder"), "missing dump:\n{err}");
    assert!(err.contains("!NullCheckException in"), "trap line missing:\n{err}");
    assert!(err.contains("runtime error: !NullCheckException"), "{err}");

    // A clean run stays quiet even with the recorder on.
    let clean = examples().remove(0);
    let out = vglc(&["run", "--flight-record=16", clean.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(!err.contains("flight recorder"), "dump on success:\n{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plain_stats_still_prints_pass_times() {
    let path = examples().remove(0);
    let out = vglc(&["stats", path.to_str().expect("utf8 path")]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("pass times:"), "missing pass times:\n{text}");
}

/// The golden shape of `disasm --tiered` on the dispatch-chain example:
/// a side-by-side baseline/tiered view where the mixed-chain walker stays
/// a plain virtual call, the monomorphic walker's site is speculated (the
/// one-expression `Inc.apply` inlines behind its class guard), and guard
/// sites carry their deopt target.
#[test]
fn disasm_tiered_shows_guarded_and_inlined_sites() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/v/dispatch_chain.v");
    let p = path.to_str().expect("utf8 path");
    let out = vglc(&["disasm", "--tiered", p]);
    assert!(out.status.success(), "disasm --tiered failed: {out:?}");
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("functions tiered (threshold"), "missing header:\n{text}");
    assert!(text.contains("-- baseline --"), "missing baseline column:\n{text}");
    assert!(text.contains("-- tiered --"), "missing tiered column:\n{text}");
    // The monomorphic walker speculates and inlines `x + 1`.
    let runinc = text.split("runinc").nth(1).expect("runinc section");
    let runinc = runinc.split("\n\n").next().expect("runinc block");
    assert!(runinc.contains("call_inline"), "mono site should inline:\n{runinc}");
    assert!(runinc.contains("!deopt@"), "guard sites carry a deopt target:\n{runinc}");
    // The mixed-chain walker's site stays an unspeculated virtual call.
    let run = text.split("\nf").find(|s| s.contains(" run (")).expect("run section");
    let run = run.split("\n\n").next().expect("run block");
    assert!(run.contains("call_virt"), "polymorphic site stays virtual:\n{run}");
    assert!(!run.contains("call_guard") && !run.contains("call_inline"), "{run}");
    // Both columns show the per-function tier counters.
    assert!(text.contains("tier-ups="), "missing per-function counters:\n{text}");
}

#[test]
fn bad_usage_exits_2() {
    let out = vglc(&[]);
    assert_eq!(out.status.code(), Some(2));
    let out = vglc(&["frobnicate", "--json", "x.v"]);
    assert_eq!(out.status.code(), Some(2), "--json is stats-only");
}

fn example(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/v").join(name);
    path.to_str().expect("utf8 path").to_string()
}

/// A tiered VM always runs the fused program, so `--no-fuse` selects the
/// static pipeline: asking for tiering as well is a usage error, and a
/// plain `run --no-fuse` prints what the default tiered run prints.
#[test]
fn no_fuse_selects_the_static_pipeline() {
    let gc = example("gc.v");
    for args in [
        &["stats", "--json", "--tier", "--no-fuse", gc.as_str()][..],
        &["run", "--no-fuse", "--tier-threshold", "8", gc.as_str()],
        &["disasm", "--tiered", "--no-fuse", gc.as_str()],
    ] {
        let out = vglc(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    }
    let plain = vglc(&["run", "--no-fuse", &gc]);
    let tiered = vglc(&["run", &gc]);
    assert!(plain.status.success(), "{plain:?}");
    assert!(tiered.status.success(), "{tiered:?}");
    assert_eq!(plain.stdout, tiered.stdout);
}

/// `gc.v` makes no virtual call, so there is no IC hit rate to report.
#[test]
fn profile_prints_no_ic_hit_rate_without_virtual_calls() {
    let out = vglc(&["profile", &example("gc.v")]);
    assert!(out.status.success(), "profile failed: {out:?}");
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("ic: 0 hits, 0 misses (n/a hit rate)"), "{text}");
}

#[test]
fn missing_file_fails_cleanly() {
    let out = vglc(&["run", "/nonexistent/nope.v"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("cannot read"), "unexpected stderr: {err}");
}
