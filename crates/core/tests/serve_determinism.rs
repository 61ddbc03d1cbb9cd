//! The served-compilation column of the determinism matrix: a daemon that
//! reuses cached per-function artifacts must produce **byte-identical**
//! bytecode to a cold one-shot `vglc` compile of the same source — across
//! edit histories, backend job counts, and concurrent sessions.
//!
//! "Byte-identical" is literal: the full disassembly of the fused program
//! is compared as a string. Everything the VM executes is in that text, so
//! equality here is equality of compiled output, not just of run results.

use std::sync::Arc;

use vgl::incremental::{IncrementalCompiler, Reuse};
use vgl::serve::{with_daemon, Client, Request, ServeConfig};
use vgl::{Compilation, Compiler, Options};
use vgl_obs::json::Json;
use vgl_vm::disasm;

/// A small edit-model program: a battery of classes and workers that never
/// change, plus one `hot` function the edit stamp rewrites — the same
/// shape the serving bench uses, sized for debug-build test time.
fn edited_program(edit: u64) -> String {
    let mut src = String::from(
        "class Gauge { def get(x: int) -> int { return x; } }\n\
         class Wide extends Gauge { def get(x: int) -> int { return x + 1; } }\n",
    );
    for f in 0..3 {
        src.push_str(&format!("def work{f}(n: int) -> int {{\n    var acc = n;\n"));
        src.push_str("    var b: Gauge = Wide.new();\n");
        for s in 0..24 {
            let k = (f * 31 + s * 7) % 97 + 2;
            match s % 4 {
                0 => src.push_str(&format!(
                    "    var t{s} = (acc + {k}, acc * 2); acc = t{s}.0 + t{s}.1;\n"
                )),
                1 => src.push_str(&format!("    acc = acc + b.get(acc % 64) + {k};\n")),
                2 => src.push_str(&format!(
                    "    if (acc % {k} == 0) acc = acc + {k}; else acc = acc - 1;\n"
                )),
                _ => src.push_str(&format!("    acc = acc ^ (acc / {k} + {k});\n")),
            }
        }
        src.push_str("    return acc;\n}\n");
    }
    let (a, b) = (edit % 97 + 1, edit % 8191);
    src.push_str(&format!("def hot(x: int) -> int {{ return (x * {a} + {b}) % 8191; }}\n"));
    src.push_str(
        "def main() -> int {\n    var acc = 0;\n    acc = work0(3) + work1(5) + work2(7);\n",
    );
    src.push_str(&format!("    return hot(acc % 1000) + {};\n}}\n", edit % 13));
    src
}

fn serving_options() -> Options {
    Options { fuse: true, jobs: 1, ..Options::default() }
}

/// Disassembles a cold one-shot compile — the reference output.
fn cold_disasm(options: &Options, src: &str) -> String {
    let c = Compiler::with_options(*options).compile(src).expect("cold compile");
    disasm(&c.program)
}

#[test]
fn warm_output_is_byte_identical_to_cold_across_edits() {
    let options = serving_options();
    let inc = IncrementalCompiler::new(Compiler::with_options(options));
    // Seed the store, then replay an edit history: every warm compile
    // (which copies in the stored normalized body of every method whose
    // post-mono body is unchanged, and splices stored fused code for every
    // method whose optimized body is) must equal a cold compile byte for
    // byte. Edit 3 repeats an earlier fingerprint on purpose.
    inc.compile(&edited_program(0)).expect("seed");
    for edit in [1u64, 2, 99, 1] {
        let src = edited_program(edit);
        let warm = inc.compile(&src).expect("warm compile");
        assert_eq!(
            disasm(&warm.program),
            cold_disasm(&options, &src),
            "edit {edit}: warm disassembly diverged from cold"
        );
    }
    let stats = inc.stats();
    assert!(stats.funcs.hits > 0, "the warm path must actually engage: {stats:?}");
    assert!(stats.bodies_reused > 0, "normalized bodies must be reused: {stats:?}");
}

#[test]
fn jobs_do_not_change_warm_output() {
    // The backend job count must never leak into compiled output — not in
    // a one-shot compile, and not through the cached warm path either.
    let reference = {
        let options = serving_options();
        cold_disasm(&options, &edited_program(5))
    };
    for jobs in [1usize, 8] {
        let options = Options { jobs, ..serving_options() };
        let inc = IncrementalCompiler::new(Compiler::with_options(options));
        inc.compile(&edited_program(4)).expect("seed");
        let warm = inc.compile(&edited_program(5)).expect("warm compile");
        assert_eq!(
            disasm(&warm.program),
            reference,
            "jobs={jobs}: warm disassembly diverged from the jobs=1 cold reference"
        );
        assert_eq!(cold_disasm(&options, &edited_program(5)), reference, "jobs={jobs} cold");
    }
}

#[test]
fn concurrent_warm_compiles_are_deterministic() {
    // Eight sessions compile overlapping edit histories against one shared
    // store (the daemon's exact concurrency shape, minus the socket).
    // Racing compiles publish into the store first-writer-wins; whichever
    // artifact a session observes, output must equal the cold reference.
    let options = serving_options();
    let inc = Arc::new(IncrementalCompiler::new(Compiler::with_options(options)));
    inc.compile(&edited_program(0)).expect("seed");
    let edits: Vec<u64> = vec![1, 2, 3, 4];
    let references: Vec<String> =
        edits.iter().map(|&e| cold_disasm(&options, &edited_program(e))).collect();
    std::thread::scope(|s| {
        for session in 0..8 {
            let inc = Arc::clone(&inc);
            let edits = &edits;
            let references = &references;
            s.spawn(move || {
                // Sessions walk the history in different orders so cache
                // publication races actually interleave.
                for i in 0..edits.len() {
                    let at = (i + session) % edits.len();
                    let warm =
                        inc.compile(&edited_program(edits[at])).expect("warm compile");
                    assert_eq!(
                        disasm(&warm.program),
                        references[at],
                        "session {session}, edit {}: diverged",
                        edits[at]
                    );
                }
            });
        }
    });
}

#[test]
fn fuzz_programs_warm_equal_cold() {
    // A sweep of generated programs through one shared store. Each program
    // primes the store and must itself compile as it does cold; then a
    // sibling with the first integer literal of `main` bumped goes through
    // the function stores, where every method but `main` can reuse its
    // normalized body and splice its fused code, and must match its cold
    // compile too: bytecode, IR and type ids.
    use vgl_fuzz::gen::{emit, gen_program, GenConfig};
    use vgl_syntax::token::TokenKind;
    let options = serving_options();
    let inc = IncrementalCompiler::new(Compiler::with_options(options));
    let cfg = GenConfig::default();
    let (mut checked, mut spliced, mut reused) = (0, 0, 0);
    for seed in 0..40u64 {
        let src = emit(&gen_program(seed, &cfg));
        let Ok(cold) = Compiler::with_options(options).compile(&src) else {
            continue; // generator emitted a diagnostic-bearing program
        };
        let warm = inc.compile(&src).expect("warm compiles what cold compiles");
        assert_eq!(
            disasm(&warm.program),
            disasm(&cold.program),
            "seed {seed}: warm disassembly diverged"
        );
        let main_at = src.find("def main(").expect("a generated program has a main");
        let tokens = vgl_syntax::lexer::lex(&src, &mut vgl_syntax::Diagnostics::new());
        let Some((v, sibling)) = tokens
            .iter()
            .find(|t| t.kind == TokenKind::IntLit && t.span.start as usize > main_at)
            .and_then(|t| bump(&src, t))
        else {
            continue;
        };
        let Ok(cold) = Compiler::with_options(options).compile(&sibling) else { continue };
        let (warm, reuse) = inc.compile_reporting(&sibling).expect("warm compiles the sibling");
        assert_eq!(
            disasm(&warm.program),
            disasm(&cold.program),
            "seed {seed}, `main` literal {v} -> {}: warm disassembly diverged",
            v + 1
        );
        assert_same_ir(&warm, &cold, &format!("seed {seed}, `main` literal {v} -> {}", v + 1));
        spliced += reuse.methods_spliced;
        reused += reuse.bodies_reused;
        checked += 1;
    }
    assert!(checked >= 20, "enough fuzz siblings compiled: {checked}");
    assert!(spliced > 0, "the siblings went through the function store");
    assert!(reused > 0, "the siblings reused normalized bodies");
}

#[test]
fn served_run_equals_one_shot_over_the_wire() {
    // End to end through the socket: the daemon's `run` of an edit history
    // reports the same result, output, and code size as one-shot compiles,
    // at jobs 1 and 8.
    for jobs in [1usize, 8] {
        let options = Options { jobs, ..serving_options() };
        let config = ServeConfig { options, ..ServeConfig::default() };
        with_daemon(config, |path| {
            let mut client = Client::connect(path).expect("connects");
            for edit in [0u64, 6, 7, 6] {
                let src = edited_program(edit);
                let cold = Compiler::with_options(options)
                    .compile(&src)
                    .expect("cold compile");
                let want = match cold.execute().result {
                    Ok(v) => v,
                    Err(t) => panic!("reference run trapped: {t}"),
                };
                let resp = client
                    .request(&Request::Run { session: "det".into(), source: src })
                    .expect("daemon responds");
                assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "edit {edit}: {resp}");
                assert_eq!(
                    resp.get("result").and_then(Json::as_str),
                    Some(want.as_str()),
                    "jobs={jobs}, edit {edit}: served result diverged"
                );
                assert_eq!(
                    resp.get("code_size").and_then(Json::as_u64),
                    Some(cold.code_size() as u64),
                    "jobs={jobs}, edit {edit}: served code size diverged"
                );
            }
        });
    }
}

/// The shipped example programs.
fn examples() -> Vec<std::path::PathBuf> {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/v");
    let mut v: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples/v exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "v"))
        .collect();
    v.sort();
    v
}

/// `src` with the integer literal `t` bumped by one, and the literal's value.
fn bump(src: &str, t: &vgl_syntax::token::Token) -> Option<(i64, String)> {
    let (start, end) = (t.span.start as usize, t.span.end as usize);
    let v = src[start..end].parse::<i64>().ok()?;
    Some((v, format!("{}{}{}", &src[..start], v + 1, &src[end..])))
}

/// Requires the warm and cold compiled modules to be the same IR with the
/// same type ids: equal module fingerprints (names included) and equal
/// context digests (the type interner dumped in id order).
fn assert_same_ir(warm: &Compilation, cold: &Compilation, what: &str) {
    assert_eq!(
        vgl::module_fingerprint(&warm.compiled),
        vgl::module_fingerprint(&cold.compiled),
        "{what}: warm IR diverged"
    );
    assert_eq!(
        vgl_passes::context_digest(&warm.compiled),
        vgl_passes::context_digest(&cold.compiled),
        "{what}: warm type ids or layout diverged"
    );
}

/// Compiles `edited` warm, on a store primed with `original`, and cold.
/// Requires byte-identical disassembly, the same IR and type ids, and equal
/// runs; returns the warm compile's reuse counts and its run result.
fn warm_equals_cold(original: &str, edited: &str, what: &str) -> (Reuse, Result<String, String>) {
    let options = serving_options();
    let inc = IncrementalCompiler::new(Compiler::with_options(options));
    inc.compile(original).expect("the original compiles");
    let (warm, reuse) = inc.compile_reporting(edited).expect("warm compile");
    let cold = Compiler::with_options(options).compile(edited).expect("cold compile");
    assert_eq!(disasm(&warm.program), disasm(&cold.program), "{what}: warm disassembly diverged");
    assert_same_ir(&warm, &cold, what);
    let (w, c) = (warm.execute(), cold.execute());
    assert_eq!(w.output, c.output, "{what}: warm output diverged");
    assert_eq!(w.result, c.result, "{what}: warm result diverged");
    (reuse, w.result)
}

#[test]
fn editing_an_inlined_callee_serves_the_edit() {
    // `m` inlines `c`, so `m`'s optimized body changes with `c`'s although
    // `m`'s own source does not. Reusing `m` across the edit must not serve
    // the old `c`.
    let program = |callee: &str| {
        format!(
            "def c(x: int) -> int {{ {callee} }}\n\
             def m(x: int) -> int {{ return c(x) * 2; }}\n\
             def main() -> int {{ return m(3); }}\n"
        )
    };
    for (before, after) in [
        ("return x + 1;", "return x + 2;"),
        ("return x + 1;", "var y = x + 2; return y;"),
        ("var y = x + 1; return y;", "return x + 2;"),
    ] {
        let what = format!("`{before}` -> `{after}`");
        let (_, result) = warm_equals_cold(&program(before), &program(after), &what);
        assert_eq!(result, Ok("10".to_string()), "{what}");
    }
}

#[test]
fn editing_an_inlined_tuple_sum_serves_the_edit() {
    // The `sum8` edit of `wide_tuples.v`: `main` inlines `sum8`.
    let path = examples().into_iter().find(|p| p.ends_with("wide_tuples.v"));
    let original = std::fs::read_to_string(path.expect("wide_tuples.v ships")).expect("reads");
    let edited = original.replace("return t.0 + t.1", "return t.1 + t.1");
    assert_ne!(edited, original, "the edit applies");
    let (_, result) = warm_equals_cold(&original, &edited, "sum8 edit");
    assert_eq!(result, Ok("183".to_string()));
}

#[test]
fn swapped_tuple_operator_wrappers_serve_cold_output() {
    // `T.==` and `T.!=` on a tuple `T` normalize to references to scalar
    // wrappers, whose ids are handed out in first-use order. Swapping which
    // caller instantiates which operator swaps the order mono lists the two
    // instances in, so each keeps its post-mono fingerprint and the module
    // keeps its context digest, but the wrapper ids their normalized bodies
    // embed trade places. A stored body is only reused when replaying its
    // wrapper demands gives the ids it embeds.
    let program = |a: &str, b: &str| {
        format!(
            "def eqof<T>() -> (T, T) -> bool {{ return T.==; }}\n\
             def neof<T>() -> (T, T) -> bool {{ return T.!=; }}\n\
             def a() -> bool {{ return {a}; }}\n\
             def b() -> bool {{ return {b}; }}\n\
             def main() -> bool {{ return a() && b(); }}\n"
        )
    };
    let eq = "eqof<(int, int)>()((1, 2), (1, 2))";
    let ne = "neof<(int, int)>()((1, 2), (3, 4))";
    let (reuse, result) = warm_equals_cold(&program(eq, ne), &program(ne, eq), "swapped operators");
    // `main` returns `true`, which the VM displays as 1.
    assert_eq!(result, Ok("1".to_string()));
    assert!(reuse.bodies_reused > 0, "unchanged bodies are still reused: {reuse:?}");
    // The two instances found their stored bodies, and the replay refused
    // them.
    let inc = IncrementalCompiler::new(Compiler::with_options(serving_options()));
    inc.compile(&program(eq, ne)).expect("the original compiles");
    let (_, reuse) = inc.compile_reporting(&program(ne, eq)).expect("warm compile");
    let stats = inc.stats();
    assert_eq!(stats.bodies.hits, reuse.bodies_reused + 2, "{stats:?}");
}

#[test]
fn every_literal_edit_of_the_examples_serves_cold_output() {
    // Each sibling bumps one integer literal of one example by one: a
    // one-method edit whose callers may have inlined it.
    use vgl_syntax::token::TokenKind;
    let (mut siblings, mut spliced, mut reused) = (0, 0, 0);
    for path in examples() {
        let original = std::fs::read_to_string(&path).expect("reads");
        let tokens = vgl_syntax::lexer::lex(&original, &mut vgl_syntax::Diagnostics::new());
        for t in tokens.iter().filter(|t| t.kind == TokenKind::IntLit) {
            let Some((v, sibling)) = bump(&original, t) else { continue };
            if Compiler::with_options(serving_options()).compile(&sibling).is_err() {
                continue; // e.g. a tuple index bumped past the width
            }
            let name = path.file_name().expect("a file").to_string_lossy();
            let what = format!("{name} with {v} -> {} at byte {}", v + 1, t.span.start);
            let reuse = warm_equals_cold(&original, &sibling, &what).0;
            spliced += reuse.methods_spliced;
            reused += reuse.bodies_reused;
            siblings += 1;
        }
    }
    eprintln!("{siblings} siblings, {spliced} methods spliced, {reused} bodies reused");
    assert!(siblings >= 100, "the sweep covers the examples: {siblings}");
    assert!(spliced > 0, "the sweep exercises splicing");
    assert!(reused > 0, "the sweep reuses normalized bodies");
}
