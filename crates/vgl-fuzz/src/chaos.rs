//! Chaos lane: crash-fuzzing the front end with corrupted inputs.
//!
//! The regular fuzz lane feeds the pipeline well-typed-by-construction
//! programs and checks that eight engine configurations agree. This lane does
//! the opposite: it takes those valid programs and *breaks* them — deleting,
//! duplicating, and swapping tokens, splicing in garbage bytes, truncating
//! mid-token, and amplifying nesting depth — then asserts the whole pipeline
//! degrades gracefully: every input either compiles or is rejected with
//! diagnostics. A panic, abort, or stack overflow anywhere is a bug, and the
//! offending input is minimized with [`shrink_text`] before being reported.
//!
//! Entry point: [`run_chaos`] (used by `vglc fuzz --chaos` and CI).

use std::panic::{self, AssertUnwindSafe};

use crate::gen::{emit, gen_program, GenConfig};
use crate::oracle::{check_source, describe, OracleConfig, Verdict};
use crate::rng::Rng;
use crate::shrink::{fail_kind, shrink_text};
use vgl_syntax::lexer;
use vgl_syntax::token::TokenKind;
use vgl_syntax::Diagnostics;

/// A chaos campaign's configuration.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Base seed; case `i` mutates the program generated from
    /// `seed.wrapping_add(i)`.
    pub seed: u64,
    /// Number of cases to run (stops early at the first failure).
    pub cases: u64,
    /// Shape knobs for the base programs being corrupted.
    pub gen: GenConfig,
    /// Each case applies `1..=max_mutations` stacked mutations.
    pub max_mutations: u32,
    /// Predicate re-runs allowed while minimizing a failing input.
    pub shrink_budget: u32,
    /// Engine budgets for inputs that still compile after mutation.
    pub oracle: OracleConfig,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 42,
            cases: 200,
            gen: GenConfig::default(),
            max_mutations: 4,
            shrink_budget: 600,
            oracle: OracleConfig::default(),
        }
    }
}

/// A crashing (or otherwise failing) chaos case, already minimized.
#[derive(Clone, Debug)]
pub struct ChaosFailure {
    /// The exact seed that regenerates the failing case
    /// (`vglc fuzz --chaos --seed <seed> --cases 1`).
    pub seed: u64,
    /// Which case (0-based) in the campaign failed.
    pub case_index: u64,
    /// What went wrong: `panic: <message>` or an oracle verdict.
    pub kind: String,
    /// The mutated input that triggered the failure.
    pub input: String,
    /// The minimized input (same failure class).
    pub shrunk: String,
}

/// Campaign totals plus the first failure, if any.
#[derive(Clone, Debug, Default)]
pub struct ChaosReport {
    /// Cases attempted.
    pub cases: u64,
    /// Mutated inputs rejected with diagnostics — the expected outcome.
    pub rejected: u64,
    /// Mutations that left the program valid; all engines still agreed.
    pub accepted: u64,
    /// Valid after mutation but some engine ran out of fuel or of VM stack.
    pub inconclusive: u64,
    /// The first failure encountered (the campaign stops there).
    pub failure: Option<ChaosFailure>,
}

impl ChaosReport {
    /// Whether the campaign finished without a failure.
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }

    /// A human-readable summary line.
    pub fn summary(&self) -> String {
        format!(
            "{} chaos cases: {} rejected with diagnostics, {} still valid, \
             {} inconclusive (fuel){}",
            self.cases,
            self.rejected,
            self.accepted,
            self.inconclusive,
            if self.ok() { ", no crashes" } else { ", 1 FAILURE" }
        )
    }
}

/// What one pipeline run did with an input.
enum Observation {
    /// The pipeline returned normally with this verdict.
    Verdict(Verdict),
    /// The pipeline panicked; the payload's message.
    Panic(String),
}

/// Runs the full pipeline on `src`, converting panics into data.
fn observe(src: &str, cfg: &OracleConfig) -> Observation {
    match panic::catch_unwind(AssertUnwindSafe(|| check_source(src, cfg))) {
        Ok(v) => Observation::Verdict(v),
        Err(payload) => Observation::Panic(panic_message(payload.as_ref())),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs a chaos campaign: generate a valid program, corrupt it, run the full
/// pipeline, and demand a clean verdict or diagnostics — never a panic. The
/// first failing input is minimized and the campaign stops. `progress` is
/// called after every case with (case index, input was rejected).
pub fn run_chaos(cfg: &ChaosConfig, mut progress: impl FnMut(u64, bool)) -> ChaosReport {
    let mut report = ChaosReport::default();
    // Expected panics inside `catch_unwind` would otherwise spray backtraces
    // over the terminal; silence the hook for the campaign and restore it
    // after.
    let prev_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    for i in 0..cfg.cases {
        let case_seed = cfg.seed.wrapping_add(i);
        let base = emit(&gen_program(case_seed, &cfg.gen));
        let mut rng = Rng::new(case_seed ^ 0xC4A5_9B42_D6E8_F013);
        let src = mutate(&base, &mut rng, cfg.max_mutations);
        report.cases += 1;
        let failure_kind = match observe(&src, &cfg.oracle) {
            Observation::Panic(msg) => Some(format!("panic: {msg}")),
            Observation::Verdict(v) => match v {
                Verdict::Frontend { .. } => {
                    report.rejected += 1;
                    None
                }
                Verdict::Pass { .. } => {
                    report.accepted += 1;
                    None
                }
                Verdict::Inconclusive { .. } => {
                    report.inconclusive += 1;
                    None
                }
                // A mutation that leaves the program valid but breaks an IR
                // invariant or splits the engines is a real compiler bug.
                failing => Some(describe(&failing)),
            },
        };
        progress(i, failure_kind.is_none());
        if let Some(kind) = failure_kind {
            let shrunk = shrink_failure(&src, &kind, cfg);
            report.failure = Some(ChaosFailure {
                seed: case_seed,
                case_index: i,
                kind,
                input: src,
                shrunk,
            });
            break;
        }
    }
    panic::set_hook(prev_hook);
    report
}

/// Minimizes a failing input, preserving its failure class: panics must
/// still panic, verdict failures must keep the same [`fail_kind`].
fn shrink_failure(src: &str, kind: &str, cfg: &ChaosConfig) -> String {
    if kind.starts_with("panic: ") {
        return shrink_text(
            src,
            |s| matches!(observe(s, &cfg.oracle), Observation::Panic(_)),
            cfg.shrink_budget,
        );
    }
    let want = match check_source(src, &cfg.oracle) {
        v @ (Verdict::Invariant { .. } | Verdict::Mismatch { .. }) => fail_kind(&v),
        _ => None,
    };
    let Some(want) = want else {
        // Flaky classification (e.g. the failure needed the silenced panic
        // path); don't risk shrinking toward a different bug.
        return src.to_string();
    };
    shrink_text(
        src,
        |s| match observe(s, &cfg.oracle) {
            Observation::Verdict(v) => fail_kind(&v).as_ref() == Some(&want),
            Observation::Panic(_) => false,
        },
        cfg.shrink_budget,
    )
}

// ---- mutators --------------------------------------------------------------

/// Applies `1..=max_mutations` stacked mutations to `src`. Deterministic in
/// `rng`; always returns valid UTF-8 (every splice point is a char
/// boundary).
pub fn mutate(src: &str, rng: &mut Rng, max_mutations: u32) -> String {
    let n = 1 + rng.below(max_mutations.max(1) as u64);
    let mut s = src.to_string();
    for _ in 0..n {
        s = mutate_once(&s, rng);
    }
    s
}

fn mutate_once(src: &str, rng: &mut Rng) -> String {
    match rng.below(7) {
        0 => delete_token(src, rng),
        1 => duplicate_token(src, rng),
        2 => swap_tokens(src, rng),
        3 => splice_garbage(src, rng),
        4 => truncate(src, rng),
        5 => amplify_nesting(src, rng),
        _ => splice_literal(src, rng),
    }
}

/// Byte ranges of every real token (the lexer's diagnostics go to scratch —
/// mutated inputs are expected to mis-lex).
fn token_ranges(src: &str) -> Vec<(usize, usize)> {
    let mut scratch = Diagnostics::new();
    lexer::lex(src, &mut scratch)
        .into_iter()
        .filter(|t| t.kind != TokenKind::Eof)
        .map(|t| (t.span.start as usize, t.span.end as usize))
        .collect()
}

/// A random char-boundary position in `src`.
fn boundary(src: &str, rng: &mut Rng) -> usize {
    if src.is_empty() {
        return 0;
    }
    let mut p = rng.below(src.len() as u64 + 1) as usize;
    while p < src.len() && !src.is_char_boundary(p) {
        p += 1;
    }
    p
}

fn delete_token(src: &str, rng: &mut Rng) -> String {
    let toks = token_ranges(src);
    if toks.is_empty() {
        return splice_garbage(src, rng);
    }
    let &(a, b) = rng.pick(&toks);
    format!("{}{}", &src[..a], &src[b..])
}

fn duplicate_token(src: &str, rng: &mut Rng) -> String {
    let toks = token_ranges(src);
    if toks.is_empty() {
        return splice_garbage(src, rng);
    }
    let &(a, b) = rng.pick(&toks);
    format!("{}{} {}", &src[..b], &src[a..b], &src[b..])
}

fn swap_tokens(src: &str, rng: &mut Rng) -> String {
    let toks = token_ranges(src);
    if toks.len() < 2 {
        return splice_garbage(src, rng);
    }
    let mut i = rng.below(toks.len() as u64) as usize;
    let mut j = rng.below(toks.len() as u64) as usize;
    if i == j {
        j = (j + 1) % toks.len();
    }
    if i > j {
        std::mem::swap(&mut i, &mut j);
    }
    let (a1, b1) = toks[i];
    let (a2, b2) = toks[j];
    format!(
        "{}{}{}{}{}",
        &src[..a1],
        &src[a2..b2],
        &src[b1..a2],
        &src[a1..b1],
        &src[b2..]
    )
}

fn splice_garbage(src: &str, rng: &mut Rng) -> String {
    const POOL: &[u8] = b"!@#$%^&*(){}[]<>;:,.?~`'\"\\|=+-_/ \n\t\0\x7fxX09";
    let at = boundary(src, rng);
    let n = 1 + rng.below(8) as usize;
    let mut garbage = String::new();
    for _ in 0..n {
        let b = POOL[rng.below(POOL.len() as u64) as usize];
        garbage.push(b as char);
    }
    // Occasionally splice a multi-byte char to probe UTF-8 handling.
    if rng.chance(20) {
        garbage.push('λ');
    }
    format!("{}{}{}", &src[..at], garbage, &src[at..])
}

fn truncate(src: &str, rng: &mut Rng) -> String {
    let at = boundary(src, rng);
    src[..at].to_string()
}

/// Inserts a deeply nested blob to stress the parser's depth guard.
fn amplify_nesting(src: &str, rng: &mut Rng) -> String {
    let depth = 64 << rng.below(6); // 64..=2048
    let (open, close) = match rng.below(3) {
        0 => ('(', ')'),
        1 => ('[', ']'),
        _ => ('{', '}'),
    };
    let at = boundary(src, rng);
    let blob = format!(
        "{}1{}",
        open.to_string().repeat(depth as usize),
        close.to_string().repeat(depth as usize)
    );
    format!("{}{}{}", &src[..at], blob, &src[at..])
}

/// Splices in literals that sit on numeric edge cases.
fn splice_literal(src: &str, rng: &mut Rng) -> String {
    const LITERALS: &[&str] = &[
        "9223372036854775807",
        "9223372036854775808",
        "-9223372036854775808",
        "99999999999999999999999999",
        "0x8000000000000000",
        "0xFFFFFFFFFFFFFFFFFF",
        "\"unterminated",
        "'x",
        "'\\q'",
    ];
    let at = boundary(src, rng);
    let lit = rng.pick(LITERALS);
    format!("{} {} {}", &src[..at], lit, &src[at..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutators_are_deterministic() {
        let base = emit(&gen_program(3, &GenConfig::default()));
        let a = mutate(&base, &mut Rng::new(99), 4);
        let b = mutate(&base, &mut Rng::new(99), 4);
        assert_eq!(a, b);
        // And actually change the input.
        assert_ne!(a, base);
    }

    #[test]
    fn small_chaos_campaign_never_crashes() {
        let cfg = ChaosConfig {
            seed: 7,
            cases: 40,
            oracle: OracleConfig {
                interp_fuel: 200_000,
                vm_fuel: 2_000_000,
                ..OracleConfig::default()
            },
            ..ChaosConfig::default()
        };
        let report = run_chaos(&cfg, |_, _| {});
        assert!(
            report.ok(),
            "chaos failure: {:#?}",
            report.failure.map(|f| (f.kind, f.shrunk))
        );
        assert_eq!(report.cases, 40);
        // Corruption should usually break the program.
        assert!(report.rejected > 0, "{}", report.summary());
    }

    #[test]
    fn shrink_text_minimizes_while_preserving_predicate() {
        let src = "aaa\nbbb\nNEEDLE ccc\nddd\neee";
        let out = shrink_text(src, |s| s.contains("NEEDLE"), 500);
        assert_eq!(out, "NEEDLE");
    }

    #[test]
    fn observe_reports_panics_as_data() {
        // A panic inside the observed closure must surface as an
        // `Observation::Panic`, not unwind through the campaign. (No
        // pipeline panic is known, so test the machinery directly.)
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let got = std::panic::catch_unwind(|| panic!("boom {}", 1));
        std::panic::set_hook(prev);
        assert_eq!(panic_message(got.unwrap_err().as_ref()), "boom 1");
    }
}
