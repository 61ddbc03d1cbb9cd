//! `vgl-fuzz` — differential fuzzing for the virgil-rs pipeline.
//!
//! The paper's central claim is that classes, functions, tuples, and type
//! parameters compose without restriction and lower to a small kernel by
//! *semantics-preserving* transformations (monomorphization §4.3, tuple
//! normalization §4.2, query folding §3.3). This crate tests that claim
//! mechanically:
//!
//! - [`gen`] builds well-typed-by-construction programs from a seeded model
//!   spanning class hierarchies with virtual and abstract methods, first-class
//!   functions and bound delegates, generics, tuples up to width 16, type
//!   queries/casts, recursion, and GC-pressure loops;
//! - [`oracle`] runs each program on eight engine configurations (source
//!   interpreter, monomorphized interpreter, VM, both post-optimizer
//!   variants, the VM over bytecode rewritten by the back-end
//!   superinstruction fuser, the tiered VM, and the generational heap),
//!   validates the §4 IR invariants between passes,
//!   and demands identical results, output, and traps — with fuel exhaustion
//!   kept strictly distinct from language exceptions;
//! - [`mod@shrink`] greedily reduces a failing program to a minimal repro while
//!   preserving the failure class, so every report is a short program plus a
//!   seed;
//! - [`chaos`] corrupts the generated programs (token surgery, byte splices,
//!   truncation, nesting amplifiers) and asserts the pipeline rejects bad
//!   input with diagnostics instead of panicking — the crash-fuzzing lane
//!   behind `vglc fuzz --chaos`.
//!
//! Entry points: [`run_fuzz`] and [`run_chaos`] (used by `vglc fuzz` and CI), or the modules
//! directly for property tests.

pub mod chaos;
pub mod gen;
pub mod oracle;
pub mod protocol;
pub mod rng;
pub mod shrink;

pub use chaos::{run_chaos, ChaosConfig, ChaosFailure, ChaosReport};
pub use gen::{emit, gen_program, GenConfig, Prog};
pub use oracle::{check_source, describe, OracleConfig, Outcome, Verdict};
pub use rng::Rng;
pub use shrink::{fail_kind, shrink, shrink_text, FailKind};

/// A full fuzzing campaign's configuration.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Base seed; case `i` uses `seed.wrapping_add(i)`.
    pub seed: u64,
    /// Number of cases to run (stops early at the first failure).
    pub cases: u64,
    /// Program-shape knobs.
    pub gen: GenConfig,
    /// Engine budgets.
    pub oracle: OracleConfig,
    /// Oracle re-runs allowed while shrinking a failure.
    pub shrink_budget: u32,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            seed: 42,
            cases: 100,
            gen: GenConfig::default(),
            oracle: OracleConfig::default(),
            shrink_budget: 2000,
        }
    }
}

/// A failing case, already shrunk.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// The exact seed that regenerates the failing program
    /// (`vglc fuzz --seed <seed> --cases 1`).
    pub seed: u64,
    /// Which case (0-based) in the campaign failed.
    pub case_index: u64,
    /// One-line description of the failure verdict.
    pub verdict: String,
    /// The generated program as emitted.
    pub original: String,
    /// The shrunk repro source.
    pub shrunk: String,
    /// Line count of the shrunk repro.
    pub shrunk_lines: usize,
}

/// Campaign totals plus the first failure, if any.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Cases attempted.
    pub cases: u64,
    /// Cases where all engines agreed on a normal result.
    pub passed: u64,
    /// Cases where all engines agreed on a trap.
    pub trapping: u64,
    /// Cases skipped because some engine ran out of fuel.
    pub inconclusive: u64,
    /// The first failure encountered (the campaign stops there).
    pub failure: Option<FuzzFailure>,
}

impl FuzzReport {
    /// Whether the campaign finished without a failure.
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }

    /// A human-readable summary line.
    pub fn summary(&self) -> String {
        format!(
            "{} cases: {} passed, {} agreed traps, {} inconclusive (fuel){}",
            self.cases,
            self.passed,
            self.trapping,
            self.inconclusive,
            if self.ok() { "" } else { ", 1 FAILURE" }
        )
    }
}

/// Runs a fuzzing campaign: generate, run the oracle, tally; on the first
/// failure, shrink it and stop. `progress` is called after every case with
/// (case index, verdict) — pass `|_, _| {}` for silence.
pub fn run_fuzz(cfg: &FuzzConfig, mut progress: impl FnMut(u64, &Verdict)) -> FuzzReport {
    let mut report = FuzzReport::default();
    for i in 0..cfg.cases {
        let seed = cfg.seed.wrapping_add(i);
        let prog = gen_program(seed, &cfg.gen);
        let src = emit(&prog);
        // Randomize the generational lane's heap limits from the case seed
        // (deterministic, so `--seed N --cases 1` reproduces the exact
        // collector schedule): heap 4K–32K slots, nursery 1/4–1/16 of it.
        let mut oracle = cfg.oracle;
        oracle.gen_heap_slots = 1 << (12 + seed % 4);
        oracle.gen_nursery_slots = oracle.gen_heap_slots >> (2 + (seed / 4) % 3);
        let verdict = check_source(&src, &oracle);
        report.cases += 1;
        progress(i, &verdict);
        match &verdict {
            Verdict::Pass { trapped: false } => report.passed += 1,
            Verdict::Pass { trapped: true } => report.trapping += 1,
            Verdict::Inconclusive { .. } => report.inconclusive += 1,
            failing => {
                let kind = fail_kind(failing).expect("non-pass verdict is a failure");
                let reduced = shrink(&prog, kind, &oracle, cfg.shrink_budget);
                let shrunk = emit(&reduced);
                report.failure = Some(FuzzFailure {
                    seed,
                    case_index: i,
                    verdict: describe(failing),
                    original: src,
                    shrunk_lines: shrunk.lines().count(),
                    shrunk,
                });
                return report;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_is_clean() {
        let cfg = FuzzConfig { seed: 7, cases: 8, ..FuzzConfig::default() };
        let report = run_fuzz(&cfg, |_, _| {});
        assert!(report.ok(), "{:?}", report.failure.map(|f| f.verdict));
        assert_eq!(report.cases, 8);
    }

    #[test]
    fn report_summary_mentions_every_bucket() {
        let s = FuzzReport { cases: 3, passed: 1, trapping: 1, inconclusive: 1, failure: None }
            .summary();
        assert!(s.contains("3 cases") && s.contains("1 passed") && s.contains("traps"));
    }
}
