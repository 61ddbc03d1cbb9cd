//! Seeded inputs: every source a workload runs, the order it runs them in,
//! and each source's reference result from the type-passing interpreter.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use vgl_bench::workloads as gen;

use crate::Workload;

/// SplitMix64. The benchmark owns its generator so that no change to the
/// program under test can change the inputs a seed produces.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// `base` moved by up to `pct` percent either way.
    pub fn jitter(&mut self, base: usize, pct: u64) -> usize {
        let span = (base as u64 * pct / 100).max(1);
        (base as u64 - span + self.below(2 * span + 1)) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// What a program must produce: its result (or trap) and printed output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expected {
    pub result: Result<String, String>,
    pub output: String,
}

pub struct Program {
    pub name: String,
    pub source: String,
    pub expected: Expected,
}

/// One workload's inputs. `sequences` holds one operation order per
/// client thread, as indices into `programs`. Local workloads have one
/// sequence, repeated until the run ends. `edit_serve` has one per client;
/// its first entry is the source that set-up primes the store with.
pub struct Corpus {
    pub programs: Vec<Program>,
    pub sequences: Vec<Vec<usize>>,
    /// The programs whose counts describe the workload (`code_instrs` and
    /// the per-layer counts): every program for the local workloads, the
    /// primed sources for `edit_serve`.
    pub base: Vec<usize>,
    /// FNV-1a over every generated source, in order.
    pub digest: u64,
}

/// Number of `edit_serve` client connections.
pub const SERVE_CLIENTS: usize = 2;

/// Generates the sources a seed gives, without reference results.
pub fn sources(
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<Vec<(String, String)>, String> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    match workload {
        Workload::ColdBuild => {
            for w in 1..=3 {
                let stamp = rng.below(1 << 32);
                out.push((format!("serve_edit({w})"), gen::serve_edit(w, stamp)));
            }
            let k = rng.jitter(200, 5);
            out.push((format!("big_program({k})"), gen::big_program(k)));
            let k = rng.jitter(64, 10);
            out.push((format!("fanout_dup({k})"), gen::instance_fanout_dup(k)));
            let k = rng.jitter(64, 10);
            out.push((
                format!("fanout_distinct({k})"),
                gen::instance_fanout_distinct(k),
            ));
            out.extend(examples()?);
        }
        Workload::RunTiered => {
            // Sizes are chosen so the VM runs take 15-130 ms, spread apart;
            // the seed moves them by at most 2% so run time stays
            // comparable across seeds.
            type Generator = fn(usize) -> String;
            let sized: [(&str, Generator, usize); 7] = [
                (
                    "polymorphic_then_monomorphic",
                    gen::polymorphic_then_monomorphic,
                    6000,
                ),
                ("polymorphic", gen::polymorphic, 1100),
                ("dispatch_chain", gen::dispatch_chain, 120_000),
                ("tuple_heavy", gen::tuple_heavy, 200_000),
                ("mixed_app", gen::mixed_app, 150_000),
                ("server_churn", gen::server_churn, 85_000),
                ("server_steady", gen::server_steady, 80_000),
            ];
            for (name, f, n) in sized {
                let n = rng.jitter(n, 2);
                out.push((format!("{name}({n})"), f(n)));
            }
            out.extend(examples()?.into_iter().filter(|(n, _)| n == "gc.v"));
        }
        Workload::EditServe => {
            // Enough fresh edits per client for the run; a client that runs
            // out starts over from its first edit.
            let per_client = ((seconds * 12.0) as usize).max(24);
            for c in 0..SERVE_CLIENTS {
                for i in 0..per_client {
                    let stamp = rng.below(1 << 32);
                    out.push((format!("client{c}.edit{i}"), gen::serve_edit(2, stamp)));
                }
            }
        }
    }
    Ok(out)
}

/// The `examples/v` programs, by file name, from the checkout root.
fn examples() -> Result<Vec<(String, String)>, String> {
    let dir = Path::new("examples/v");
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut files: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "v"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            std::fs::read_to_string(&p)
                .map(|s| (name, s))
                .map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// How often each local-workload program runs per cycle. A quantile that
/// falls on the edge between two programs' latency bands jumps between
/// them from run to run, so the weights put each quantile in the middle of
/// one band.
///
/// `cold_build` has 12 small programs once each, then `serve_edit(1)` 16
/// times, `serve_edit(2)` 4 times and `serve_edit(3)` 8 times. In the
/// 40-operation cycle the median is the 20th, mid-band of `serve_edit(1)`,
/// and the p90 the 36th, mid-band of `serve_edit(3)`: both are mostly
/// back-end (fuse) time.
///
/// `run_tiered` has eight programs, two of them twice. In the
/// 10-operation cycle the median is the 5th, mid-band of `tuple_heavy`, and
/// the p90 the 9th, mid-band of `server_steady`, the slowest program.
fn weight(workload: Workload, name: &str) -> usize {
    match workload {
        Workload::ColdBuild if name == "serve_edit(1)" => 16,
        Workload::ColdBuild if name == "serve_edit(2)" => 4,
        Workload::ColdBuild if name == "serve_edit(3)" => 8,
        Workload::RunTiered if name.starts_with("tuple_heavy") => 2,
        Workload::RunTiered if name.starts_with("server_steady") => 2,
        _ => 1,
    }
}

/// Generates the corpus and computes every reference result.
pub fn build(workload: Workload, seed: u64, seconds: f64) -> Result<Corpus, String> {
    let named = sources(workload, seed, seconds)?;
    let digest = digest(&named);
    let expected = par_map(&named, |(_, src)| reference(src));
    let mut programs = Vec::with_capacity(named.len());
    for ((name, source), exp) in named.into_iter().zip(expected) {
        let expected = exp.map_err(|e| format!("{name}: {e}"))?;
        programs.push(Program {
            name,
            source,
            expected,
        });
    }
    let mut rng = Rng::new(seed ^ 0x0b5e_55ed);
    let (sequences, base) = match workload {
        Workload::EditServe => {
            let per_client = programs.len() / SERVE_CLIENTS;
            // One request in every four resubmits the previous source
            // unchanged, at a seeded place in its block; the rest carry a
            // fresh edit. A fixed share keeps the latency quantiles from
            // moving with the seed, and as every client resubmits in the
            // same round, the clients go in rounds of like requests.
            let places: Vec<usize> = (0..per_client.div_ceil(3))
                .map(|_| rng.below(4) as usize)
                .collect();
            let seqs: Vec<Vec<usize>> = (0..SERVE_CLIENTS)
                .map(|c| {
                    let first = c * per_client;
                    let mut seq = vec![first];
                    let mut next = first + 1;
                    for i in 0.. {
                        if next >= first + per_client {
                            break;
                        }
                        if i % 4 == places[i / 4] {
                            seq.push(*seq.last().expect("primed"));
                        } else {
                            seq.push(next);
                            next += 1;
                        }
                    }
                    seq
                })
                .collect();
            let base = seqs.iter().map(|s| s[0]).collect();
            (seqs, base)
        }
        _ => {
            let mut cycle: Vec<usize> = (0..programs.len())
                .flat_map(|i| std::iter::repeat_n(i, weight(workload, &programs[i].name)))
                .collect();
            rng.shuffle(&mut cycle);
            (vec![cycle], (0..programs.len()).collect())
        }
    };
    Ok(Corpus {
        programs,
        sequences,
        base,
        digest,
    })
}

pub fn digest(named: &[(String, String)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for (name, src) in named {
        for b in name.bytes().chain([0]).chain(src.bytes()).chain([0]) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Runs `source` on the reference interpreter, which executes the typed
/// source module directly with runtime type arguments and boxed tuples. It
/// shares only the front end with the compiled path: no mono, normalize,
/// optimize, lower, fuse or VM.
pub fn reference(source: &str) -> Result<Expected, String> {
    let mut diags = vgl_syntax::Diagnostics::new();
    let ast = vgl_syntax::parse_program(source, &mut diags);
    let module = if diags.has_errors() {
        None
    } else {
        vgl_sema::analyze(&ast, &mut diags)
    };
    let Some(module) = module else {
        let mut msg = String::from("does not compile:");
        for d in diags.into_vec() {
            let _ = write!(msg, " {}", d.message);
        }
        return Err(msg);
    };
    let mut interp = vgl_interp::Interp::new(&module);
    if let Some(fuel) = vgl::Options::default().fuel {
        interp.set_fuel(fuel);
    }
    let result = interp
        .run()
        .map(|v| v.to_string())
        .map_err(|e| e.to_string());
    Ok(Expected {
        result,
        output: interp.output(),
    })
}

/// Maps `f` over `items` on one thread per core, keeping order.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..crate::nproc().min(items.len().max(1)) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(item);
                slots.lock().expect("a reference worker panicked")[i] = Some(r);
            });
        }
    });
    slots
        .into_inner()
        .expect("a reference worker panicked")
        .into_iter()
        .map(|r| r.expect("every item mapped"))
        .collect()
}
