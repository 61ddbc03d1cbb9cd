//! The parallel back end's determinism contract, locked down.
//!
//! `Options.jobs`, the per-instance pass cache, and cost-chunked scheduling
//! may only change *how fast* the back half of the pipeline
//! (mono → normalize → optimize → lower → fuse) runs — never *what* it
//! produces. These tests compile every example program and a few hundred
//! seed-pinned fuzz programs across the full configuration matrix
//!
//!   jobs ∈ {1, 2, 8, 16} × cache ∈ {on, off} × chunking ∈ {on, off}
//!
//! and assert the outputs are byte-identical: same post-optimize module
//! fingerprint, same bytecode disassembly. Mono with its duplicate map gets
//! the same treatment across job counts, and profiled execution against
//! itself across job counts and repeated runs.
//!
//! Override the fuzz-case count with `VGL_DET_CASES` (default 300).

use vgl_fuzz::{emit, gen_program, GenConfig};

/// Every configuration axis the scheduler exposes. The baseline is the
/// serial, fully-featured corner; every other corner must agree with it.
const JOBS_MATRIX: [usize; 4] = [1, 2, 8, 16];

fn analyze(src: &str) -> vgl_ir::Module {
    let mut diags = vgl_syntax::Diagnostics::new();
    let ast = vgl_syntax::parse_program(src, &mut diags);
    assert!(!diags.has_errors(), "frontend rejected test program:\n{src}");
    vgl_sema::analyze(&ast, &mut diags).expect("sema accepts test program")
}

/// Compiles `src` through the whole back half at the given configuration and
/// returns the two observables the determinism contract is stated over: the
/// fused bytecode disassembly and the post-optimize module content hash.
fn compile_with(src: &str, jobs: usize, cache: bool, chunking: bool) -> (String, u64) {
    let module = analyze(src);
    let cfg = vgl_passes::BackendConfig { jobs, cache, chunking };
    let mut report = vgl_passes::BackendReport::default();
    let (mut m, _) = vgl_passes::monomorphize_cfg(&module, &cfg, &mut report);
    vgl_passes::normalize_cfg(&mut m, &cfg, &mut report);
    vgl_passes::optimize_cfg(&mut m, &cfg, &mut report);
    let fingerprint = vgl_passes::module_fingerprint(&m);
    let mut prog = vgl_vm::lower(&m);
    vgl_vm::fuse_cfg(&mut prog, &cfg);
    (vgl_vm::disasm(&prog), fingerprint)
}

fn example_sources() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/v");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("examples/v exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) == Some("v") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            out.push((name, std::fs::read_to_string(&path).expect("readable example")));
        }
    }
    out.sort();
    assert!(!out.is_empty(), "no example programs found in {dir}");
    out
}

fn det_cases() -> u64 {
    std::env::var("VGL_DET_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(300)
}

/// A 16-instance cache-hostile fan-out: every instance survives dedup, so
/// chunk planning and parallel hashing see real work.
fn fanout_source() -> String {
    let mut src = String::new();
    for i in 0..16 {
        src.push_str(&format!("class C{i} {{ var tag: int; new(tag) {{ }} }}\n"));
    }
    src.push_str(
        "def work<T>(x: T, n: int) -> int {\n\
         \tvar s = 0;\n\
         \tfor (i = 0; i < n; i = i + 1) { s = s + i * i + n; }\n\
         \treturn s;\n\
         }\n\
         def main() -> int {\n\
         \tvar t = 0;\n",
    );
    for i in 0..16 {
        src.push_str(&format!("\tt = t + work(C{i}.new({i}), 4);\n"));
    }
    src.push_str("\treturn t;\n}\n");
    src
}

/// Every checked-in example compiles to byte-identical bytecode across the
/// full jobs × cache × chunking matrix (16 corners, baseline included).
#[test]
fn examples_identical_across_full_matrix() {
    for (name, src) in example_sources() {
        let baseline = compile_with(&src, 1, true, true);
        for jobs in JOBS_MATRIX {
            for cache in [true, false] {
                for chunking in [true, false] {
                    let got = compile_with(&src, jobs, cache, chunking);
                    assert_eq!(
                        baseline, got,
                        "{name}: output differs at jobs={jobs} cache={cache} chunking={chunking}"
                    );
                }
            }
        }
    }
}

/// A warm second run agrees with the cold first one at the most parallel
/// corner of the matrix.
#[test]
fn examples_warm_rerun_matches_cold() {
    for (name, src) in example_sources() {
        let cold = compile_with(&src, 16, true, true);
        let warm = compile_with(&src, 16, true, true);
        assert_eq!(cold, warm, "{name}: warm re-run differs from cold run");
    }
}

/// Mono under the cache returns the same module, stats and
/// duplicate-instance map at every jobs count: fingerprinting on more
/// workers is pure scheduling.
#[test]
fn mono_cfg_matches_serial_at_every_job_count() {
    let mono = |module: &vgl_ir::Module, jobs: usize| {
        let cfg = vgl_passes::BackendConfig { jobs, cache: true, chunking: true };
        let mut report = vgl_passes::BackendReport::default();
        let (m, stats) = vgl_passes::monomorphize_cfg(module, &cfg, &mut report);
        let dup = report.dup_map.expect("the cache builds a duplicate map");
        (vgl_passes::module_fingerprint(&m), stats, dup.rep, dup.stats)
    };
    let mut sources = example_sources();
    sources.push(("fanout_distinct_16".into(), fanout_source()));
    for (name, src) in sources {
        let module = analyze(&src);
        let serial = mono(&module, 1);
        for jobs in [2, 8, 16] {
            assert_eq!(serial, mono(&module, jobs), "{name}: mono differs at jobs={jobs}");
        }
    }
}

/// Seed-pinned fuzz programs (default 300, `VGL_DET_CASES` overrides) agree
/// between jobs = 1 and jobs = 8.
#[test]
fn fuzz_programs_identical_serial_vs_parallel() {
    let cfg = GenConfig::default();
    for case in 0..det_cases() {
        let seed = 0xD473_0000 + case;
        let src = emit(&gen_program(seed, &cfg));
        let serial = compile_with(&src, 1, true, true);
        let parallel = compile_with(&src, 8, true, true);
        assert_eq!(
            serial, parallel,
            "seed {seed}: jobs=8 output differs from jobs=1 for:\n{src}"
        );
    }
}

/// A sample of the fuzz corpus sweeps the remaining corners: oversubscribed
/// jobs = 16, chunking off, and cache off.
#[test]
fn fuzz_programs_identical_across_matrix_corners() {
    let cfg = GenConfig::default();
    let cases = (det_cases() / 4).max(25);
    for case in 0..cases {
        let seed = 0xCAC4_E000 + case;
        let src = emit(&gen_program(seed, &cfg));
        let baseline = compile_with(&src, 1, true, true);
        for (jobs, cache, chunking) in
            [(8, false, true), (16, true, true), (16, true, false), (8, true, false)]
        {
            let got = compile_with(&src, jobs, cache, chunking);
            assert_eq!(
                baseline, got,
                "seed {seed}: output differs at jobs={jobs} cache={cache} \
                 chunking={chunking} for:\n{src}"
            );
        }
    }
}

/// The runtime profiler is observational: with hotness profiling enabled
/// (precise mode — the superset), every example produces byte-identical
/// output across job counts (including oversubscribed jobs = 16), and the
/// profile itself is byte-identical both across job counts and across
/// repeated runs of the same program.
#[test]
fn profiled_execution_identical_across_job_counts() {
    let program_with = |src: &str, jobs: usize| {
        let module = analyze(src);
        let cfg = vgl_passes::BackendConfig { jobs, cache: true, chunking: true };
        let mut report = vgl_passes::BackendReport::default();
        let (mut m, _) = vgl_passes::monomorphize_cfg(&module, &cfg, &mut report);
        vgl_passes::normalize_cfg(&mut m, &cfg, &mut report);
        vgl_passes::optimize_cfg(&mut m, &cfg, &mut report);
        let mut prog = vgl_vm::lower(&m);
        vgl_vm::fuse_cfg(&mut prog, &cfg);
        prog
    };
    let profiled_run = |prog: &vgl_vm::VmProgram| {
        let mut vm = vgl_vm::Vm::with_heap(prog, 1 << 20);
        vm.enable_runtime_profiling_precise();
        let result = vm.run().expect("example runs");
        let profile = vm.take_runtime_profile().expect("enabled");
        (result, vm.output(), profile.to_json(prog).render())
    };
    for (name, src) in example_sources() {
        let serial = profiled_run(&program_with(&src, 1));
        for jobs in [8, 16] {
            let parallel = profiled_run(&program_with(&src, jobs));
            assert_eq!(serial, parallel, "{name}: profiled run differs at jobs={jobs}");
        }
        let again = profiled_run(&program_with(&src, 8));
        assert_eq!(serial, again, "{name}: profile is not deterministic run to run");
    }
}

/// A generic function instantiated at many phantom type arguments collapses
/// to one unique fingerprint in the cache, and the deduplicated build is
/// still byte-identical to the uncached one.
#[test]
fn instance_fanout_dedups_and_stays_identical() {
    let mut src = String::new();
    for i in 0..8 {
        src.push_str(&format!("class C{i} {{}}\n"));
    }
    src.push_str(
        "def work<T>(n: int) -> int {\n\
         \tvar s = 0;\n\
         \tfor (var i = 0; i < n; i = i + 1) { s = s + i * i; }\n\
         \treturn s;\n\
         }\n\
         def main() -> int {\n\
         \tvar t = 0;\n",
    );
    for i in 0..8 {
        src.push_str(&format!("\tt = t + work<C{i}>(4);\n"));
    }
    src.push_str("\treturn t;\n}\n");

    let module = analyze(&src);
    let cfg = vgl_passes::BackendConfig { jobs: 8, cache: true, chunking: true };
    let mut report = vgl_passes::BackendReport::default();
    let (mut m, _) = vgl_passes::monomorphize_cfg(&module, &cfg, &mut report);
    vgl_passes::normalize_cfg(&mut m, &cfg, &mut report);
    vgl_passes::optimize_cfg(&mut m, &cfg, &mut report);
    assert!(
        report.norm_cache.hits >= 7,
        "8 phantom instances of work<T> should dedup to 1; norm cache: {:?}",
        report.norm_cache
    );
    assert!(report.norm_cache.hit_rate() > 0.0);

    let cached = compile_with(&src, 8, true, true);
    let uncached = compile_with(&src, 1, false, false);
    assert_eq!(cached, uncached, "deduplicated build must match the cold serial build");
}
