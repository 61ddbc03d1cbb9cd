//! The differential oracle: one generated program, every execution strategy,
//! identical observable behavior.
//!
//! A case is run on **eight** engine configurations:
//!
//! 1. the reference interpreter over the *source* module (runtime type
//!    arguments, boxed tuples — the paper's §4.3 interpreter strategy);
//! 2. the interpreter over the monomorphized + normalized module;
//! 3. the VM over the lowered unoptimized module;
//! 4. the interpreter over the optimized module;
//! 5. the VM over the lowered optimized module;
//! 6. the VM over the lowered optimized module after the bytecode back-end
//!    optimizer ([`vgl_vm::fuse`](mod@vgl_vm::fuse): copy propagation, dead-register
//!    elimination, superinstruction fusion) — run with
//!    [`vgl_vm::check_fused`] validating the fused code first, and the
//!    §4.2 zero-tuple-box invariant asserted on its heap statistics after;
//! 7. `vm-tiered`: the *unfused* lowering of the optimized module under
//!    **tiered profile-guided execution** — the program `vglc run` ships.
//!    The VM fuses the program once and runs the fused code, and tier-up
//!    only speculates: hot functions guard their monomorphic call sites by
//!    receiver class, and a failing guard deoptimizes the site in place to
//!    a plain virtual call. The hotness threshold comes from
//!    `VGL_TIER_THRESHOLD` (CI's forced-deopt lane sets it to 1 so
//!    effectively every call tiers up); tier-up, guard hits, and deopts
//!    must all be behaviourally invisible, and the §4.2 zero-tuple-box
//!    invariant is asserted on its heap;
//! 8. `vm-fused-gen`: the fused program once more on a **generational
//!    heap** — a bump-allocated nursery with write-barrier-fed minor
//!    collections in front of the mature space — at the
//!    [`OracleConfig::gen_heap_slots`]/[`OracleConfig::gen_nursery_slots`]
//!    limits. The fuzz driver randomizes both per case from the case seed
//!    (see [`crate::run_fuzz`]), so collector scheduling — minors, majors,
//!    promotion, heap growth — varies across cases while staying exactly
//!    reproducible from `vglc fuzz --seed N --cases 1`. The §4.2
//!    zero-tuple-box invariant is asserted on this lane's heap too.
//!
//! Before any fused lane runs, [`vgl_vm::check_fused`] validates the fused
//! code structurally and [`vgl_vm::check_fused_against`] compares it
//! against the unfused lowering: fusion must preserve both the
//! allocating-instruction count and the barrier-carrying store count per
//! function, so the optimizer can never fuse away a write barrier the
//! generational lane depends on.
//!
//! All eight must agree on the result value, the printed output, and the trap
//! (`!DivideByZeroException`, `!NullCheckException`, `!TypeCheckException`,
//! ...). Fuel exhaustion is **never** conflated with a language exception:
//! engines count steps differently, so an `OutOfFuel` anywhere makes the
//! case [`Verdict::Inconclusive`] rather than a mismatch, and so does a VM
//! `StackOverflow` (a call-depth budget the interpreter does not share).
//!
//! Every VM run carries a [flight recorder](vgl_vm::FlightRecorder): the
//! last 64 events (calls, inline-cache misses, GC, the trap) leading into
//! the end of the run. When engines disagree, the dump from the first
//! diverging VM engine is attached to the [`Verdict::Mismatch`]
//! description, so a shrunk repro ships with the trace that led into the
//! divergence or trap.
//!
//! Between passes the oracle also validates the §4 IR invariants with
//! [`vgl_ir::validate`]: [`vgl_ir::check_monomorphic`] after
//! monomorphization, [`vgl_ir::check_normalized`] after normalization and
//! again after optimization, and the strict [`vgl_ir::check_tuple_free`]
//! restricted to class fields and globals (where no boundary forms are
//! permitted at all).

use vgl_ir::{Module, Violation};

/// Fuel and heap budgets for oracle runs.
#[derive(Clone, Copy, Debug)]
pub struct OracleConfig {
    /// Interpreter step budget per run.
    pub interp_fuel: u64,
    /// VM instruction budget per run.
    pub vm_fuel: u64,
    /// VM semispace size in slots (kept small so allocation-heavy programs
    /// exercise the collector).
    pub heap_slots: usize,
    /// Total heap size for the `vm-fused-gen` lane. The fuzz driver
    /// randomizes this per case from the case seed.
    pub gen_heap_slots: usize,
    /// Nursery size for the `vm-fused-gen` lane (clamped by the heap to
    /// half its capacity); randomized alongside [`Self::gen_heap_slots`].
    pub gen_nursery_slots: usize,
}

impl Default for OracleConfig {
    fn default() -> OracleConfig {
        OracleConfig {
            interp_fuel: 4_000_000,
            vm_fuel: 40_000_000,
            heap_slots: 1 << 14,
            gen_heap_slots: 1 << 14,
            gen_nursery_slots: 1 << 11,
        }
    }
}

/// How one engine run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Normal completion with the displayed result value.
    Value(String),
    /// A language-level runtime exception (displayed form, e.g.
    /// `!NullCheckException`).
    Trap(String),
    /// The step/instruction budget ran out — distinct from any trap.
    OutOfFuel,
    /// The VM's call-depth budget ran out — like fuel, a resource limit.
    StackOverflow,
}

/// One engine execution: which engine, how it ended, what it printed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineRun {
    /// Engine label (`interp-src`, `interp-mono`, `vm-noopt`, `interp-opt`,
    /// `vm-opt`, `vm-fused`, `vm-tiered`, `vm-fused-gen`).
    pub engine: &'static str,
    /// How the run ended.
    pub outcome: Outcome,
    /// Everything printed via `System.*`.
    pub output: String,
    /// Flight-recorder dump of the run's final moments (VM engines only;
    /// the interpreters carry `None`). Never part of the agreement check.
    pub flight: Option<String>,
}

/// The oracle's judgement of one generated program.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// All engines agree (`trapped` records whether they agreed on a trap).
    Pass {
        /// Whether the agreed outcome was a runtime exception.
        trapped: bool,
    },
    /// Some engine ran out of fuel or of VM stack; engines count steps
    /// differently, so the case proves nothing either way.
    Inconclusive {
        /// The first engine that ran dry.
        engine: &'static str,
    },
    /// The front end rejected the generated program — a generator bug.
    Frontend {
        /// Rendered diagnostics.
        errors: String,
    },
    /// An IR invariant was violated after a pass — a compiler bug.
    Invariant {
        /// Which stage broke the invariant.
        stage: &'static str,
        /// The reported violations.
        violations: Vec<Violation>,
    },
    /// Engines disagree on result, output, or trap — a miscompile.
    Mismatch {
        /// Every engine run, first one is the reference.
        runs: Vec<EngineRun>,
    },
}

impl Verdict {
    /// Whether this verdict is a failure the fuzzer should report and shrink.
    pub fn is_failure(&self) -> bool {
        matches!(
            self,
            Verdict::Frontend { .. } | Verdict::Invariant { .. } | Verdict::Mismatch { .. }
        )
    }
}

/// A one-line description of a verdict, for reports.
pub fn describe(v: &Verdict) -> String {
    match v {
        Verdict::Pass { trapped: false } => "pass".into(),
        Verdict::Pass { trapped: true } => "pass (agreed trap)".into(),
        Verdict::Inconclusive { engine } => format!("inconclusive (fuel or stack on {engine})"),
        Verdict::Frontend { errors } => format!("front end rejected generated program:\n{errors}"),
        Verdict::Invariant { stage, violations } => {
            let mut s = format!("IR invariant violated after {stage}:");
            for v in violations.iter().take(5) {
                s.push_str(&format!("\n  {}: {}", v.location, v.message));
            }
            s
        }
        Verdict::Mismatch { runs } => {
            let mut s = String::from("engines disagree:");
            for r in runs {
                s.push_str(&format!(
                    "\n  {:>11}: {:?} output={:?}",
                    r.engine, r.outcome, r.output
                ));
            }
            // Attach the flight dump of the first VM engine that diverges
            // from the reference (falling back to any recorded run), so the
            // repro ships with the trace that led into the failure.
            let reference = &runs[0];
            let diverged = runs.iter().find(|r| {
                r.flight.is_some()
                    && (r.outcome != reference.outcome || r.output != reference.output)
            });
            if let Some(r) = diverged.or_else(|| runs.iter().find(|r| r.flight.is_some())) {
                s.push_str(&format!(
                    "\nflight recorder ({}):\n{}",
                    r.engine,
                    r.flight.as_deref().unwrap()
                ));
            }
            s
        }
    }
}

/// Ring capacity for the per-run flight recorder — enough tail to see the
/// calls and GC leading into a divergence without bloating reports.
const FLIGHT_CAPACITY: usize = 64;

fn run_interp(engine: &'static str, m: &Module, fuel: u64) -> EngineRun {
    let mut i = vgl_interp::Interp::new(m);
    i.set_fuel(fuel);
    let outcome = match i.run() {
        Ok(v) => Outcome::Value(v.to_string()),
        Err(vgl_interp::InterpError::OutOfFuel) => Outcome::OutOfFuel,
        Err(e) => Outcome::Trap(e.to_string()),
    };
    EngineRun { engine, outcome, output: i.output(), flight: None }
}

fn run_vm(engine: &'static str, m: &Module, cfg: &OracleConfig) -> EngineRun {
    run_vm_program(engine, &vgl_vm::lower(m), cfg).0
}

/// Runs an already-lowered (possibly fused) program; also returns the final
/// tuple-box count so fused runs can assert the §4.2 invariant dynamically.
fn run_vm_program(
    engine: &'static str,
    prog: &vgl_vm::VmProgram,
    cfg: &OracleConfig,
) -> (EngineRun, usize) {
    run_vm_program_full(engine, prog, cfg.heap_slots, 0, cfg.vm_fuel, None)
}

/// The fully general VM lane: `nursery_slots` > 0 runs the generational
/// collector (the eighth configuration); `tier` is the hotness threshold
/// for tiered execution (the seventh).
fn run_vm_program_full(
    engine: &'static str,
    prog: &vgl_vm::VmProgram,
    heap_slots: usize,
    nursery_slots: usize,
    vm_fuel: u64,
    tier: Option<u64>,
) -> (EngineRun, usize) {
    let mut vm = vgl_vm::Vm::with_heap_config(prog, heap_slots, nursery_slots);
    vm.set_fuel(vm_fuel);
    vm.enable_flight_recorder(FLIGHT_CAPACITY);
    if let Some(threshold) = tier {
        vm.enable_tiering(threshold);
    }
    let outcome = match vm.run() {
        Ok(words) => match vgl_vm::ret_as_int(&words) {
            Some(v) => Outcome::Value(v.to_string()),
            None => Outcome::Value(format!("{words:?}")),
        },
        Err(vgl_vm::VmError::OutOfFuel) => Outcome::OutOfFuel,
        Err(vgl_vm::VmError::StackOverflow) => Outcome::StackOverflow,
        Err(e) => Outcome::Trap(e.to_string()),
    };
    let tuple_boxes = vm.stats.heap.tuple_boxes;
    let flight = vm.flight_dump();
    (EngineRun { engine, outcome, output: vm.output(), flight }, tuple_boxes)
}

/// Strict tuple-freedom for declarations: class fields and globals admit no
/// boundary forms, so [`vgl_ir::check_tuple_free`]'s verdict is exact there.
fn strict_decl_tuple_violations(m: &Module) -> Vec<Violation> {
    vgl_ir::check_tuple_free(m)
        .into_iter()
        .filter(|v| v.location.starts_with("class ") || v.location.starts_with("global "))
        .collect()
}

/// Compiles `src` through the front end and both pipeline variants, runs all
/// eight engine configurations, validates IR invariants between passes, and
/// compares every observable.
pub fn check_source(src: &str, cfg: &OracleConfig) -> Verdict {
    check_source_tampered(src, cfg, |_| {})
}

/// [`check_source`] with a bytecode tamper hook: `tamper` is applied to the
/// fused program after structural validation (the tiered lane runs the
/// unfused lowering and is not tampered). The identity closure is the
/// production path; tests inject deterministic miscompiles here to prove
/// the oracle catches them and attaches the flight-recorder dump to the
/// resulting mismatch.
pub fn check_source_tampered(
    src: &str,
    cfg: &OracleConfig,
    tamper: impl Fn(&mut vgl_vm::VmProgram),
) -> Verdict {
    // Front end.
    let mut diags = vgl_syntax::Diagnostics::new();
    let ast = vgl_syntax::parse_program(src, &mut diags);
    if diags.has_errors() {
        return Verdict::Frontend { errors: render_diags(src, diags) };
    }
    let Some(module) = vgl_sema::analyze(&ast, &mut diags) else {
        return Verdict::Frontend { errors: render_diags(src, diags) };
    };

    // Pipeline with pass-level validation.
    let (mono_m, _) = vgl_passes::monomorphize(&module);
    let violations = vgl_ir::check_monomorphic(&mono_m);
    if !violations.is_empty() {
        return Verdict::Invariant { stage: "monomorphize", violations };
    }
    let mut norm_m = mono_m;
    vgl_passes::normalize(&mut norm_m);
    let violations = vgl_ir::check_normalized(&norm_m);
    if !violations.is_empty() {
        return Verdict::Invariant { stage: "normalize", violations };
    }
    let violations = strict_decl_tuple_violations(&norm_m);
    if !violations.is_empty() {
        return Verdict::Invariant { stage: "normalize (strict decls)", violations };
    }
    // `Module` is intentionally not `Clone`; rebuild the optimized variant
    // from the source module through the same (deterministic) passes.
    let (mut opt_m, _) = vgl_passes::monomorphize(&module);
    vgl_passes::normalize(&mut opt_m);
    vgl_passes::optimize(&mut opt_m);
    let violations = vgl_ir::check_normalized(&opt_m);
    if !violations.is_empty() {
        return Verdict::Invariant { stage: "optimize", violations };
    }

    // The sixth configuration runs the bytecode back-end optimizer over the
    // optimized lowering; its structural validator gates execution, and the
    // fused program must preserve the unfused baseline's per-function
    // allocation and write-barrier counts (the generational lane's safety
    // rests on every ref-store keeping its barrier through fusion).
    let baseline_prog = vgl_vm::lower(&opt_m);
    let mut fused_prog = baseline_prog.clone();
    vgl_vm::fuse(&mut fused_prog);
    let mut violations = vgl_vm::check_fused(&fused_prog);
    violations.extend(vgl_vm::check_fused_against(&baseline_prog, &fused_prog));
    if !violations.is_empty() {
        return Verdict::Invariant { stage: "fuse", violations };
    }
    tamper(&mut fused_prog);
    let (fused_run, fused_tuple_boxes) = run_vm_program("vm-fused", &fused_prog, cfg);

    // The seventh configuration runs what `Options::tier` builds — the
    // unfused lowering — under tiered execution: the VM fuses the program
    // once, and functions that cross the hotness threshold speculate on
    // monomorphic sites and deoptimize on guard failure — all of which must
    // be behaviourally invisible.
    // `VGL_TIER_THRESHOLD` feeds the CI forced-deopt lane (threshold 1 ⇒
    // tier-up on effectively every call).
    let tier_threshold = std::env::var("VGL_TIER_THRESHOLD")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(vgl_vm::DEFAULT_TIER_THRESHOLD);
    let (tiered_run, tiered_tuple_boxes) = run_vm_program_full(
        "vm-tiered",
        &baseline_prog,
        cfg.heap_slots,
        0,
        cfg.vm_fuel,
        Some(tier_threshold),
    );

    // The eighth configuration runs the fused program on the generational
    // heap at the (seed-randomized) nursery/heap limits: minors, promotion,
    // write-barrier traffic, and heap growth must all be behaviourally
    // invisible, and the §4.2 invariant holds on this heap too.
    let (gen_run, gen_tuple_boxes) = run_vm_program_full(
        "vm-fused-gen",
        &fused_prog,
        cfg.gen_heap_slots,
        cfg.gen_nursery_slots,
        cfg.vm_fuel,
        None,
    );
    for (stage, what, boxes) in [
        ("fuse (execution)", "fused", fused_tuple_boxes),
        ("tier (execution)", "tiered", tiered_tuple_boxes),
        ("generational heap (execution)", "generational", gen_tuple_boxes),
    ] {
        if boxes != 0 {
            return Verdict::Invariant {
                stage,
                violations: vec![Violation {
                    location: "heap".into(),
                    message: format!(
                        "{what} execution allocated {boxes} tuple boxes; §4.2 requires exactly 0"
                    ),
                }],
            };
        }
    }

    // Eight engine configurations.
    let runs = vec![
        run_interp("interp-src", &module, cfg.interp_fuel),
        run_interp("interp-mono", &norm_m, cfg.interp_fuel),
        run_vm("vm-noopt", &norm_m, cfg),
        run_interp("interp-opt", &opt_m, cfg.interp_fuel),
        run_vm("vm-opt", &opt_m, cfg),
        fused_run,
        tiered_run,
        gen_run,
    ];

    // OutOfFuel or StackOverflow anywhere ⇒ inconclusive, and never
    // comparable to a trap.
    if let Some(r) =
        runs.iter().find(|r| matches!(r.outcome, Outcome::OutOfFuel | Outcome::StackOverflow))
    {
        return Verdict::Inconclusive { engine: r.engine };
    }
    let reference = &runs[0];
    let agree = runs[1..]
        .iter()
        .all(|r| r.outcome == reference.outcome && r.output == reference.output);
    if !agree {
        return Verdict::Mismatch { runs };
    }
    Verdict::Pass { trapped: matches!(reference.outcome, Outcome::Trap(_)) }
}

fn render_diags(src: &str, diags: vgl_syntax::Diagnostics) -> String {
    let lines = vgl_syntax::LineMap::new(src);
    diags
        .into_vec()
        .iter()
        .map(|d| d.render("<fuzz>", &lines))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreeing_program_passes() {
        let v = check_source(
            "def main() -> int { System.puti(7); return 40 + 2; }",
            &OracleConfig::default(),
        );
        assert!(matches!(v, Verdict::Pass { trapped: false }), "{}", describe(&v));
    }

    #[test]
    fn agreed_trap_is_a_pass_and_not_fuel() {
        let v = check_source(
            "def main() -> int { var z = 0; return 3 / z; }",
            &OracleConfig::default(),
        );
        assert!(matches!(v, Verdict::Pass { trapped: true }), "{}", describe(&v));
    }

    #[test]
    fn fuel_exhaustion_is_inconclusive_not_a_trap() {
        let cfg = OracleConfig { interp_fuel: 50, vm_fuel: 50, ..OracleConfig::default() };
        let v = check_source(
            "def main() -> int {\n\
                 var i = 0;\n\
                 while (i < 1000000) i = i + 1;\n\
                 return i;\n\
             }",
            &cfg,
        );
        assert!(matches!(v, Verdict::Inconclusive { .. }), "{}", describe(&v));
        assert!(!describe(&v).contains("Exception"));
    }

    #[test]
    fn frontend_rejection_is_reported() {
        let v = check_source("def main() -> int { return q; }", &OracleConfig::default());
        assert!(matches!(v, Verdict::Frontend { .. }));
        assert!(v.is_failure());
    }

    /// Rewrites every immediate equal to `from` so it reads `to` instead —
    /// in plain `ConstI` loads and in the fused immediate superinstructions
    /// (`BinI`, `CmpBrI`). Same code length, so jump offsets stay valid.
    fn swap_imm(prog: &mut vgl_vm::VmProgram, from: i64, to: i64) {
        for f in &mut prog.funcs {
            for i in &mut f.code {
                match i {
                    vgl_vm::Instr::ConstI(_, v) if *v == from => *v = to,
                    vgl_vm::Instr::BinI { imm, .. } | vgl_vm::Instr::CmpBrI { imm, .. }
                        if i64::from(*imm) == from =>
                    {
                        *imm = to as i32;
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn injected_value_bug_is_caught_with_flight_context() {
        // Miscompile the fused build only: the printed constant 7 becomes 8,
        // so the fused engines' output diverges from the reference.
        let v = check_source_tampered(
            "def main() -> int { System.puti(7); return 0; }",
            &OracleConfig::default(),
            |p| swap_imm(p, 7, 8),
        );
        let Verdict::Mismatch { runs } = &v else { panic!("expected mismatch: {}", describe(&v)) };
        assert!(runs.iter().any(|r| r.engine == "vm-fused" && r.output.contains('8')));
        assert!(runs.iter().all(|r| r.engine.starts_with("interp") == r.flight.is_none()));
        let report = describe(&v);
        assert!(report.contains("engines disagree"), "{report}");
        assert!(report.contains("flight recorder (vm-fused"), "{report}");
        assert!(report.contains("--- flight recorder"), "{report}");
        assert!(report.contains("main"), "dump names the entry frame:\n{report}");
    }

    /// The tiered lane runs the unfused lowering that `Options::tier`
    /// ships, so a miscompile confined to the fused program leaves it in
    /// agreement with the reference.
    #[test]
    fn tiered_lane_runs_the_unfused_lowering() {
        let v = check_source_tampered(
            "def main() -> int { System.puti(7); return 0; }",
            &OracleConfig::default(),
            |p| swap_imm(p, 7, 8),
        );
        let Verdict::Mismatch { runs } = &v else { panic!("expected mismatch: {}", describe(&v)) };
        let output = |engine| &runs.iter().find(|r| r.engine == engine).unwrap().output;
        assert_eq!(output("vm-fused"), "8");
        assert_eq!(output("vm-tiered"), output("interp-src"));
        assert_eq!(output("vm-tiered"), "7");
    }

    #[test]
    fn injected_trap_bug_attaches_the_trap_flight_dump() {
        // Zero the loop bound in the fused build: the divisor stays 0, the
        // fused engines trap on the division, everything else returns 4.
        let v = check_source_tampered(
            "def main() -> int {\n\
                 var z = 0;\n\
                 for (i = 0; i < 9; i = i + 1) z = z + 1;\n\
                 return 36 / z;\n\
             }",
            &OracleConfig::default(),
            |p| swap_imm(p, 9, 0),
        );
        let Verdict::Mismatch { runs } = &v else { panic!("expected mismatch: {}", describe(&v)) };
        assert_eq!(runs[0].outcome, Outcome::Value("4".into()));
        let fused = runs.iter().find(|r| r.engine == "vm-fused").unwrap();
        assert_eq!(fused.outcome, Outcome::Trap("!DivideByZeroException".into()));
        let report = describe(&v);
        assert!(
            report.contains("!DivideByZeroException in"),
            "the dump's trap line rides along with the repro:\n{report}"
        );
    }

    #[test]
    fn untampered_path_is_the_production_path() {
        // The identity tamper must behave exactly like check_source.
        let v = check_source_tampered(
            "def main() -> int { return 40 + 2; }",
            &OracleConfig::default(),
            |_| {},
        );
        assert!(matches!(v, Verdict::Pass { trapped: false }), "{}", describe(&v));
    }
}
