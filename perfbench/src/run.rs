//! Untraced closed loops through the shipped entry points: one fresh
//! `Compiler` per operation for the local workloads, `vgld` requests for
//! `edit_serve`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use vgl::serve::{Client, Daemon, Json, Request, ServeConfig};
use vgl::{Compiler, Options, RunOutcome};

use crate::corpus::{Corpus, Expected};

/// Operations a run completes at the least, so that at least ten samples
/// lie beyond the p90.
pub const MIN_OPS: usize = 100;

/// One completed operation.
#[derive(Clone, Debug)]
pub struct Op {
    pub program: usize,
    pub latency: Duration,
    /// The compile part: `Compiler::compile`, or the daemon's own
    /// `compile_us` for a served request.
    pub compile: Duration,
    /// The rest: `Compilation::execute`, or for a served request everything
    /// but the daemon's compile (execution, framing, transport).
    pub run: Duration,
    pub code_size: usize,
    pub ok: bool,
    /// Live heap right after the operation, in MB (see [`heap_mb`]).
    pub heap_mb: f64,
    /// The calibration kernel's time, measured on the loop's thread right
    /// after the operation, or on `edit_serve` after its round (see
    /// [`crate::calib`]).
    pub calib: Duration,
}

/// Checks a VM outcome against the reference. Also fails a run that
/// allocated a tuple box: the paper's tuples never live on the heap.
pub fn check(expected: &Expected, out: &RunOutcome) -> Result<(), String> {
    if out.result != expected.result {
        return Err(format!(
            "result {:?}, expected {:?}",
            out.result, expected.result
        ));
    }
    if out.output != expected.output {
        return Err("printed output differs from the reference".into());
    }
    match out.vm_stats {
        Some(s) if s.heap.tuple_boxes != 0 => Err(format!("{} tuple boxes", s.heap.tuple_boxes)),
        _ => Ok(()),
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// glibc's `struct mallinfo2`.
#[repr(C)]
struct MallInfo2 {
    _arena: usize,
    _ordblks: usize,
    _smblks: usize,
    _hblks: usize,
    hblkhd: usize,
    _usmblks: usize,
    _fsmblks: usize,
    uordblks: usize,
    _fordblks: usize,
    _keepcost: usize,
}

extern "C" {
    fn mallinfo2() -> MallInfo2;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// `mallopt` parameters, from glibc's `malloc.h`.
const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;

/// Makes glibc's allocator keep the memory a process frees and serve
/// blocks up to 32 MB from it, instead of handing it back to the kernel and
/// faulting it in again. By default it adapts both thresholds to what the
/// process has freed so far, so the page faults an operation takes depend
/// on the run's history: on `cold_build` they were a fifth of the run's
/// time and moved with the host far more than user time did. Pinned, a
/// closed loop measures the program's own work once its memory is warm.
pub fn pin_allocator() {
    // SAFETY: `mallopt` only sets two of the allocator's tunables under its
    // own lock; it is called before this process starts any thread, and
    // both values lie within glibc's documented ranges.
    let ok = unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1 && mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1
    };
    if !ok {
        eprintln!("perfbench: mallopt refused the allocator settings");
    }
}

/// Live heap of this process in MB: what the allocator has handed out and
/// not had back, over every arena plus mmapped blocks. Resident size is no
/// steady measure here: freed blocks the allocator keeps (or zeroes again
/// on reuse) move it by 8 MB steps from one process to the next.
pub fn heap_mb() -> f64 {
    // SAFETY: `mallinfo2` takes no arguments, reads only the allocator's
    // own state under the allocator's locks, and returns a plain struct by
    // value whose layout `MallInfo2` matches.
    let m = unsafe { mallinfo2() };
    (m.uordblks + m.hblkhd) as f64 / (1024.0 * 1024.0)
}

pub fn report_failure(name: &str, why: &str) {
    eprintln!("perfbench: {name}: {why}");
}

/// Whether a loop over `cycle` may stop before operation `n`: only
/// between whole cycles, so every run mixes the programs in the same
/// proportions, and only after `min_cycles`, `MIN_OPS` and the deadline.
pub fn may_stop(n: usize, cycle: usize, min_cycles: usize, deadline: Instant) -> bool {
    n.is_multiple_of(cycle) && n >= (min_cycles * cycle).max(MIN_OPS) && Instant::now() >= deadline
}

/// `cold_build` / `run_tiered`: one thread compiles and runs the cycle
/// until the time is up.
pub fn local(corpus: &Corpus, options: Options, seconds: f64) -> Vec<Op> {
    let cycle = &corpus.sequences[0];
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut ops = Vec::new();
    for (n, &p) in cycle.iter().cycle().enumerate() {
        if may_stop(n, cycle.len(), 1, deadline) {
            break;
        }
        let prog = &corpus.programs[p];
        let t0 = Instant::now();
        let compiled = Compiler::with_options(options).compile(&prog.source);
        let t1 = Instant::now();
        let (outcome, code_size) = match &compiled {
            Ok(c) => (Some(c.execute()), c.code_size()),
            Err(_) => (None, 0),
        };
        let t2 = Instant::now();
        let verdict = match (&compiled, &outcome) {
            (Err(e), _) => Err(format!("compile error: {e}")),
            (_, Some(out)) => check(&prog.expected, out),
            _ => unreachable!("a compiled program always runs"),
        };
        if let Err(why) = &verdict {
            report_failure(&prog.name, why);
        }
        let heap_mb = heap_mb();
        drop(compiled);
        ops.push(Op {
            program: p,
            latency: t2 - t0,
            compile: t1 - t0,
            run: t2 - t1,
            code_size,
            ok: verdict.is_ok(),
            heap_mb,
            calib: crate::calib::sample(),
        });
    }
    ops
}

/// A running in-process `vgld` with one primed connection per client.
pub struct Served {
    pub daemon: Daemon,
    pub clients: Vec<Client>,
    /// The priming responses' operations, one per client.
    pub primed: Vec<Op>,
}

/// A socket path in the working directory (the benchmark writes nowhere
/// else), short enough for `sun_path`.
fn socket_path() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    PathBuf::from(format!(
        "perfbench-{}-{}.sock",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Starts the daemon with `ServeConfig::default()`, connects every client
/// and primes the store with each client's first source.
pub fn start_daemon(corpus: &Corpus) -> Result<Served, String> {
    let path = socket_path();
    let daemon = Daemon::start(&path, ServeConfig::default())
        .map_err(|e| format!("vgld: bind {}: {e}", path.display()))?;
    let mut served = Served {
        daemon,
        clients: Vec::new(),
        primed: Vec::new(),
    };
    for (c, seq) in corpus.sequences.iter().enumerate() {
        let mut client = Client::connect(&path).map_err(|e| format!("vgld: connect: {e}"))?;
        let op = request(&mut client, c, corpus, seq[0]);
        if !op.ok {
            return Err(format!(
                "vgld: priming {} failed",
                corpus.programs[seq[0]].name
            ));
        }
        served.clients.push(client);
        served.primed.push(op);
    }
    Ok(served)
}

impl Served {
    /// Closes every connection and waits for the daemon to stop.
    pub fn stop(self) {
        drop(self.clients);
        self.daemon.join();
    }
}

/// Sends one `run` request and checks the response against the reference.
fn request(client: &mut Client, c: usize, corpus: &Corpus, p: usize) -> Op {
    let prog = &corpus.programs[p];
    let req = Request::Run {
        session: format!("client{c}"),
        source: prog.source.clone(),
    };
    let t0 = Instant::now();
    let resp = client.request(&req);
    let latency = t0.elapsed();
    let verdict = match &resp {
        Err(e) => Err(format!("transport: {e}")),
        Ok(r) => served_check(&prog.expected, r),
    };
    if let Err(why) = &verdict {
        report_failure(&prog.name, why);
    }
    let field = |k: &str| {
        resp.as_ref()
            .ok()
            .and_then(|r| r.get(k))
            .and_then(Json::as_f64)
    };
    let compile = Duration::from_secs_f64(field("compile_us").unwrap_or(0.0) / 1e6).min(latency);
    Op {
        program: p,
        latency,
        compile,
        run: latency - compile,
        code_size: field("code_size").unwrap_or(0.0) as usize,
        ok: verdict.is_ok(),
        heap_mb: heap_mb(),
        // Taken by `serve` once every client's request of the round is done.
        calib: Duration::ZERO,
    }
}

fn served_check(expected: &Expected, resp: &Json) -> Result<(), String> {
    if resp.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("daemon error: {resp}"));
    }
    if resp.get("compiled").and_then(Json::as_bool) != Some(true) {
        return Err("did not compile".into());
    }
    let result = match (resp.get("result"), resp.get("trap")) {
        (Some(v), _) => Ok(v.as_str().unwrap_or_default().to_string()),
        (_, Some(t)) => Err(t.as_str().unwrap_or_default().to_string()),
        _ => return Err("no result".into()),
    };
    if result != expected.result {
        return Err(format!("result {result:?}, expected {:?}", expected.result));
    }
    if resp.get("output").and_then(Json::as_str) != Some(expected.output.as_str()) {
        return Err("printed output differs from the reference".into());
    }
    Ok(())
}

/// `edit_serve`: every client sends its sequence after the primed source
/// in a closed loop until the time is up, wrapping if it runs out. The
/// clients go in rounds: each sends one request, and once every client has
/// its answer this thread takes the round's calibration sample while the
/// daemon is idle, so the sample measures the host, not the benchmark's own
/// load. Returns each client's completed operations.
pub fn serve(corpus: &Corpus, served: &mut Served, seconds: f64) -> Vec<Vec<Op>> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let clients = served.clients.len();
    let min_rounds = MIN_OPS.div_ceil(clients);
    let barrier = Barrier::new(clients + 1);
    let stop = AtomicBool::new(false);
    let (barrier, stop) = (&barrier, &stop);
    let mut samples = Vec::new();
    let mut per_client: Vec<Vec<Op>> = std::thread::scope(|s| {
        let handles: Vec<_> = served
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let seq = &corpus.sequences[c];
                s.spawn(move || {
                    let mut ops = Vec::new();
                    for &p in seq[1..].iter().cycle() {
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        ops.push(request(client, c, corpus, p));
                        barrier.wait();
                    }
                    ops
                })
            })
            .collect();
        loop {
            let done = samples.len() >= min_rounds && Instant::now() >= deadline;
            stop.store(done, Ordering::SeqCst);
            barrier.wait();
            if done {
                break;
            }
            barrier.wait();
            samples.push(crate::calib::sample());
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    for ops in &mut per_client {
        for (op, &calib) in ops.iter_mut().zip(&samples) {
            op.calib = calib;
        }
    }
    per_client
}
