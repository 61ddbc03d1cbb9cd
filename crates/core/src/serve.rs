//! `vgld`: the compile-as-a-service daemon.
//!
//! One process, one unix socket, many concurrent sessions. Each
//! connection is served by its own thread; all of them compile through a
//! single shared [`IncrementalCompiler`], so every request warms the
//! persistent content-addressed stores for every other client — the
//! edit/recompile cycle an editor or build server drives hits the
//! per-function cache for everything the edit did not touch.
//!
//! Robustness contract (enforced by the protocol-chaos fuzz lane and the
//! golden frame tests): a malformed, oversized, truncated, or interleaved
//! frame gets an error response where the transport still works and costs
//! at most that one connection. Request handlers run under
//! `catch_unwind`, so a panic in a compile (an internal compiler error)
//! is reported to the one client that triggered it and the daemon stays
//! up. Nothing a client sends can make the daemon exit except an explicit
//! `shutdown` request.
//!
//! Observability: every request is timed and recorded as one JSON line
//! stamped on the `vgl-obs` epoch (a fixed number of the most recent are
//! retrievable via [`Daemon::trace_lines`]); `stats` reports
//! per-command counts, live session names, in-flight requests, store hit
//! rates, and p50/p90/p99 request latency.

use std::collections::HashMap;
use std::io::{self, Read};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use vgl_obs::flight::Ring;
use vgl_obs::since_epoch;

use crate::incremental::IncrementalCompiler;
use crate::proto::{self, error_response, ok_response, read_frame, write_frame};
use crate::{Compiler, Options};

pub use crate::proto::Request;
pub use vgl_obs::json::Json;

/// How a daemon is configured. The compiler options are fixed for the
/// daemon's lifetime — they are part of every cache key, so one daemon
/// serves exactly one configuration (as `vglc serve` flags request).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Compiler options shared by every request.
    pub options: Options,
    /// Level-1 (whole-artifact) store capacity, in entries.
    pub artifact_capacity: usize,
    /// Level-2 (per-function) store capacity, in entries.
    pub func_capacity: usize,
    /// A connection with no complete read for this long is dropped; keeps
    /// half-open peers from pinning threads forever.
    pub idle_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            options: Options::default(),
            artifact_capacity: crate::incremental::DEFAULT_ARTIFACT_CAPACITY,
            func_capacity: crate::incremental::DEFAULT_FUNC_CAPACITY,
            idle_timeout: Duration::from_secs(30),
        }
    }
}

/// Request latencies the daemon keeps for its percentiles: the most recent
/// ones, in a fixed ring. 4096 ≈ the last few minutes of a busy daemon,
/// enough for serving percentiles without unbounded growth.
const LATENCY_CAPACITY: usize = 4096;

/// Request spans the daemon keeps: the most recent ones, in a fixed ring,
/// so a long-lived daemon's trace stays bounded.
const TRACE_CAPACITY: usize = 1024;

/// Distinct session names the daemon counts by name, as many as request
/// spans it keeps. Requests for any further name are counted under
/// [`OTHER_SESSIONS`], so clients cycling through names grow neither the
/// daemon's memory nor its `stats` frame.
const SESSION_CAPACITY: usize = TRACE_CAPACITY;

/// The `sessions` key counting requests for names past
/// [`SESSION_CAPACITY`]. A session that picks this name is counted there
/// too, so the key always means the same thing.
const OTHER_SESSIONS: &str = "(other)";

/// The `latency_us` stats object: requests recorded ever, and p50, p90,
/// p99 and max over the retained window (zeros when empty).
fn latency_json(latency: &Ring<u64>) -> Json {
    let mut sorted: Vec<u64> = latency.iter().copied().collect();
    sorted.sort_unstable();
    let at = |q: f64| match sorted.len() {
        0 => 0,
        n => sorted[((n - 1) as f64 * q).round() as usize],
    };
    let mut lat = Json::object();
    lat.set("count", Json::from(latency.total()));
    lat.set("p50_us", Json::from(at(0.50)));
    lat.set("p90_us", Json::from(at(0.90)));
    lat.set("p99_us", Json::from(at(0.99)));
    lat.set("max_us", Json::from(at(1.0)));
    lat
}

/// Everything the request threads share.
struct DaemonState {
    compiler: IncrementalCompiler,
    shutdown: AtomicBool,
    started: Instant,
    in_flight: AtomicUsize,
    connections: AtomicUsize,
    /// Requests served per command name, plus `"errors"`.
    counts: Mutex<HashMap<&'static str, u64>>,
    /// Session name → requests served for it, for at most
    /// [`SESSION_CAPACITY`] names plus [`OTHER_SESSIONS`].
    sessions: Mutex<HashMap<String, u64>>,
    /// Recent request latencies in microseconds.
    latency: Mutex<Ring<u64>>,
    /// The most recent per-request spans, one JSON line each.
    trace: Mutex<Ring<String>>,
    idle_timeout: Duration,
}

impl DaemonState {
    fn count(&self, key: &'static str) {
        *self.counts.lock().expect("counts poisoned").entry(key).or_insert(0) += 1;
    }

    fn note_session(&self, name: &str) {
        let mut s = self.sessions.lock().expect("sessions poisoned");
        if let Some(n) = s.get_mut(name) {
            *n += 1;
            return;
        }
        let named = s.len() - usize::from(s.contains_key(OTHER_SESSIONS));
        let key = if name == OTHER_SESSIONS || named >= SESSION_CAPACITY {
            OTHER_SESSIONS
        } else {
            name
        };
        *s.entry(key.to_string()).or_insert(0) += 1;
    }

    /// Handles one decoded request. The bool asks the connection loop to
    /// stop reading (shutdown).
    fn handle(self: &Arc<Self>, req: &Request) -> (Json, bool) {
        match req {
            Request::Compile { session, source } => {
                self.count("compile");
                self.note_session(session);
                (self.compile_response(source, None), false)
            }
            Request::Run { session, source } => {
                self.count("run");
                self.note_session(session);
                (self.compile_response(source, Some(())), false)
            }
            Request::Check { session, source } => {
                self.count("check");
                self.note_session(session);
                let report = Compiler::with_options(*self.compiler.options())
                    .check("<serve>", source);
                let mut resp = ok_response();
                resp.set("report", report.to_json());
                (resp, false)
            }
            Request::Stats => {
                self.count("stats");
                (self.stats_response(), false)
            }
            Request::Shutdown => {
                self.count("shutdown");
                self.shutdown.store(true, Ordering::SeqCst);
                let mut resp = ok_response();
                resp.set("shutting_down", Json::Bool(true));
                (resp, true)
            }
        }
    }

    /// `compile` and `run` share the cached pipeline; `run` additionally
    /// executes on the VM.
    fn compile_response(&self, source: &str, run: Option<()>) -> Json {
        let started = Instant::now();
        match self.compiler.compile_reporting(source) {
            Ok((c, reuse)) => {
                let mut resp = ok_response();
                resp.set("compiled", Json::Bool(true));
                resp.set("code_size", Json::from(c.code_size()));
                resp.set("methods", Json::from(c.compiled.methods.len()));
                resp.set(
                    "compile_us",
                    Json::from(started.elapsed().as_micros() as u64),
                );
                let mut warm = Json::object();
                warm.set("artifact_hit", Json::Bool(reuse.artifact_hit));
                warm.set("methods_spliced", Json::from(reuse.methods_spliced));
                warm.set("methods_compiled", Json::from(reuse.methods_compiled));
                resp.set("warm", warm);
                if run.is_some() {
                    let outcome = c.execute();
                    match outcome.result {
                        Ok(v) => resp.set("result", Json::from(v.as_str())),
                        Err(e) => resp.set("trap", Json::from(e.as_str())),
                    }
                    resp.set("output", Json::from(outcome.output.as_str()));
                }
                resp
            }
            Err(e) => {
                let mut resp = ok_response();
                resp.set("compiled", Json::Bool(false));
                resp.set(
                    "diagnostics",
                    Json::Arr(
                        e.rendered.iter().map(|r| Json::from(r.as_str())).collect(),
                    ),
                );
                resp
            }
        }
    }

    fn stats_response(&self) -> Json {
        let mut resp = ok_response();
        resp.set(
            "uptime_ms",
            Json::from(self.started.elapsed().as_millis() as u64),
        );
        resp.set("in_flight", Json::from(self.in_flight.load(Ordering::Relaxed)));
        resp.set(
            "connections",
            Json::from(self.connections.load(Ordering::Relaxed)),
        );
        let mut counts = Json::object();
        {
            let c = self.counts.lock().expect("counts poisoned");
            let mut keys: Vec<_> = c.keys().copied().collect();
            keys.sort_unstable();
            for k in keys {
                counts.set(k, Json::from(c[k]));
            }
        }
        resp.set("requests", counts);
        let mut sessions = Json::object();
        {
            let s = self.sessions.lock().expect("sessions poisoned");
            let mut names: Vec<_> = s.keys().cloned().collect();
            names.sort_unstable();
            for n in names {
                let count = s[&n];
                sessions.set(&n, Json::from(count));
            }
        }
        resp.set("sessions", sessions);
        let st = self.compiler.stats();
        let store = |s: vgl_passes::StoreStats| {
            let mut o = Json::object();
            o.set("lookups", Json::from(s.lookups));
            o.set("hits", Json::from(s.hits));
            o.set("inserts", Json::from(s.inserts));
            o.set("evictions", Json::from(s.evictions));
            o.set("hit_rate", Json::Num(s.hit_rate()));
            o
        };
        let mut cache = Json::object();
        cache.set("artifacts", store(st.artifacts));
        cache.set("funcs", store(st.funcs));
        cache.set("methods_spliced", Json::from(st.methods_spliced));
        cache.set("methods_compiled", Json::from(st.methods_compiled));
        cache.set("splice_rate", Json::Num(st.splice_rate()));
        resp.set("cache", cache);
        resp.set("latency_us", latency_json(&self.latency.lock().expect("latency poisoned")));
        resp
    }

    /// Records one finished request, which started at `start` since the
    /// `vgl-obs` epoch, as a JSON line in the shared trace ring.
    fn span(&self, cmd: &'static str, start: Duration, dur: Duration, ok: bool) {
        let mut o = Json::object();
        o.set("type", Json::from("span"));
        o.set("name", Json::from("request"));
        o.set("start_us", Json::Num(start.as_secs_f64() * 1e6));
        o.set("dur_us", Json::from(dur.as_micros() as u64));
        o.set("depth", Json::from(0u64));
        o.set("cmd", Json::from(cmd));
        o.set("ok", Json::Bool(ok));
        let mut line = o.render();
        line.push('\n');
        self.trace.lock().expect("trace poisoned").push(line);
    }
}

/// A [`Read`] adapter over the connection that polls a short socket
/// timeout so it can observe daemon shutdown and the idle limit without a
/// dedicated wakeup channel. Timeouts during an *idle* wait surface as
/// EOF (clean close); shutdown likewise.
struct ConnReader<'a> {
    stream: &'a UnixStream,
    state: &'a DaemonState,
    last_byte: Instant,
}

impl Read for ConnReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            if self.state.shutdown.load(Ordering::SeqCst) {
                return Ok(0);
            }
            match (&mut &*self.stream).read(buf) {
                Ok(0) => return Ok(0),
                Ok(n) => {
                    self.last_byte = Instant::now();
                    return Ok(n);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if self.last_byte.elapsed() > self.state.idle_timeout {
                        return Ok(0);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Serves one connection: a loop of read-frame → handle → write-frame.
/// Frame errors get a best-effort error response and close only this
/// connection. Handler panics are caught and reported as internal errors.
fn handle_conn(state: Arc<DaemonState>, stream: UnixStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    state.connections.fetch_add(1, Ordering::Relaxed);
    let mut reader =
        ConnReader { stream: &stream, state: &state, last_byte: Instant::now() };
    loop {
        let frame = read_frame(&mut reader);
        let msg = match frame {
            Ok(Some(msg)) => msg,
            Ok(None) => break,
            Err(e) => {
                state.count("errors");
                let _ = write_frame(&mut &stream, &error_response(&e.to_string()));
                break;
            }
        };
        state.in_flight.fetch_add(1, Ordering::SeqCst);
        let started = since_epoch();
        let (cmd, outcome) = match Request::from_json(&msg) {
            Ok(req) => {
                let cmd = match req {
                    Request::Compile { .. } => "compile",
                    Request::Check { .. } => "check",
                    Request::Run { .. } => "run",
                    Request::Stats => "stats",
                    Request::Shutdown => "shutdown",
                };
                // A panicking handler is an internal compiler error; it
                // must cost this request, not the daemon.
                let st = Arc::clone(&state);
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                    move || st.handle(&req),
                ));
                (cmd, result)
            }
            Err(e) => {
                state.count("errors");
                (
                    "invalid",
                    Ok((error_response(&format!("invalid request: {e}")), false)),
                )
            }
        };
        let (resp, stop) = match outcome {
            Ok(pair) => pair,
            Err(_) => {
                state.count("errors");
                (error_response("internal error: request handler panicked"), false)
            }
        };
        let dur = since_epoch().saturating_sub(started);
        state.latency.lock().expect("latency poisoned").push(dur.as_micros() as u64);
        state.in_flight.fetch_sub(1, Ordering::SeqCst);
        let ok = resp.get("ok").and_then(Json::as_bool).unwrap_or(false);
        state.span(cmd, started, dur, ok);
        if write_frame(&mut &stream, &resp).is_err() {
            break;
        }
        if stop {
            break;
        }
    }
    state.connections.fetch_sub(1, Ordering::Relaxed);
}

/// A running daemon: the bound socket plus its accept thread. Dropping the
/// handle does **not** stop the daemon; send [`Request::Shutdown`] (or call
/// [`Daemon::shutdown`]) and then [`Daemon::join`].
pub struct Daemon {
    path: PathBuf,
    state: Arc<DaemonState>,
    accept: Option<thread::JoinHandle<()>>,
}

impl Daemon {
    /// Binds `path` (removing a stale socket file first) and starts
    /// serving. Returns once the socket is accepting — a client may
    /// connect immediately.
    ///
    /// # Errors
    /// Propagates socket bind failures.
    pub fn start(path: &Path, config: ServeConfig) -> io::Result<Daemon> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        let state = Arc::new(DaemonState {
            compiler: IncrementalCompiler::with_capacity(
                Compiler::with_options(config.options),
                config.artifact_capacity,
                config.func_capacity,
            ),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            in_flight: AtomicUsize::new(0),
            connections: AtomicUsize::new(0),
            counts: Mutex::new(HashMap::new()),
            sessions: Mutex::new(HashMap::new()),
            latency: Mutex::new(Ring::new(LATENCY_CAPACITY)),
            trace: Mutex::new(Ring::new(TRACE_CAPACITY)),
            idle_timeout: config.idle_timeout,
        });
        let accept_state = Arc::clone(&state);
        let accept = thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let conn_state = Arc::clone(&accept_state);
                thread::spawn(move || handle_conn(conn_state, stream));
            }
        });
        Ok(Daemon { path: path.to_path_buf(), state, accept: Some(accept) })
    }

    /// The socket path clients connect to.
    pub fn socket_path(&self) -> &Path {
        &self.path
    }

    /// Whether a shutdown has been requested (by request or locally).
    pub fn shutdown_requested(&self) -> bool {
        self.state.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown locally (equivalent to a `shutdown` frame).
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop: it only observes the flag on its next
        // (possibly never-arriving) connection.
        let _ = UnixStream::connect(&self.path);
    }

    /// The most recent per-request spans (at most 1024), JSON-lines, oldest
    /// first.
    pub fn trace_lines(&self) -> String {
        self.state.trace.lock().expect("trace poisoned").iter().map(String::as_str).collect()
    }

    /// Requests traced since the daemon started, including those whose
    /// span has since left the ring.
    pub fn traced_requests(&self) -> u64 {
        self.state.trace.lock().expect("trace poisoned").total()
    }

    /// The current `stats` response (same shape the wire returns).
    pub fn stats_json(&self) -> Json {
        self.state.stats_response()
    }

    /// Blocks until some client sends a `shutdown` request, then tears the
    /// daemon down — the foreground `vglc serve` loop.
    pub fn wait(self) {
        while !self.shutdown_requested() {
            thread::sleep(Duration::from_millis(50));
        }
        self.join();
    }

    /// Waits for shutdown: joins the accept loop, then waits for live
    /// connections to drain, then removes the socket file.
    pub fn join(mut self) {
        self.shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Connection threads observe the flag within one poll interval.
        while self.state.connections.load(Ordering::Relaxed) > 0 {
            thread::sleep(Duration::from_millis(5));
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

/// A client connection to a running daemon. One request/response pair in
/// flight at a time (the protocol is strictly alternating per connection;
/// concurrency comes from multiple connections).
pub struct Client {
    stream: UnixStream,
}

impl Client {
    /// Connects to the daemon socket at `path`.
    ///
    /// # Errors
    /// Propagates connection failures.
    pub fn connect(path: &Path) -> io::Result<Client> {
        Ok(Client { stream: UnixStream::connect(path)? })
    }

    /// Sends `req` and waits for the response frame.
    ///
    /// # Errors
    /// Transport or framing failures; a daemon-side error still decodes
    /// as `Ok` (inspect the `ok` field).
    pub fn request(&mut self, req: &Request) -> Result<Json, proto::FrameError> {
        write_frame(&mut &self.stream, &req.to_json())?;
        match read_frame(&mut &self.stream)? {
            Some(resp) => Ok(resp),
            None => Err(proto::FrameError::Truncated),
        }
    }
}

/// What the protocol-chaos lane did; `failure` is `None` when the serving
/// contract held for every case.
#[derive(Clone, Debug, Default)]
pub struct ProtocolChaosReport {
    /// Hostile client scripts executed.
    pub cases: u64,
    /// Individual socket writes performed.
    pub chunks_sent: u64,
    /// Total hostile bytes written.
    pub bytes_sent: u64,
    /// Response frames the daemon produced (valid or error).
    pub responses: u64,
    /// Interleaved health probes that compiled and ran a real program.
    pub health_checks: u64,
    /// First contract violation, with the seed to reproduce it.
    pub failure: Option<String>,
}

impl ProtocolChaosReport {
    /// Whether every case upheld the contract.
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "protocol chaos: {} cases, {} chunks ({} bytes) sent, {} responses, \
             {} health checks — {}",
            self.cases,
            self.chunks_sent,
            self.bytes_sent,
            self.responses,
            self.health_checks,
            if self.ok() { "all survived" } else { "FAILED" }
        )
    }
}

/// Probes daemon health end to end: compile + run a known program, expect
/// its result within `deadline`. `Err` is a contract violation (the chaos
/// traffic broke or wedged the daemon).
fn health_probe(path: &Path, deadline: Duration) -> Result<(), String> {
    let stream = UnixStream::connect(path).map_err(|e| format!("connect failed: {e}"))?;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let req = Request::Run {
        session: "health".into(),
        source: "def main() -> int { return 40 + 2; }".into(),
    };
    write_frame(&mut &stream, &req.to_json()).map_err(|e| format!("write failed: {e}"))?;
    let limit = Instant::now() + deadline;
    loop {
        match read_frame(&mut &stream) {
            Ok(Some(resp)) => {
                return if resp.get("result").and_then(Json::as_str) == Some("42") {
                    Ok(())
                } else {
                    Err(format!("unexpected health response: {resp}"))
                };
            }
            Ok(None) => return Err("daemon closed the health connection".into()),
            Err(proto::FrameError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if Instant::now() > limit {
                    return Err("daemon did not answer the health probe (hang)".into());
                }
            }
            Err(e) => return Err(format!("health frame error: {e}")),
        }
    }
}

/// Runs the protocol-chaos lane: `cases` hostile client scripts
/// ([`vgl_fuzz::protocol::gen_case`]) against a live in-process daemon,
/// with a health probe every 100 cases and at the end. The contract: no
/// panic (the daemon answers the probe from the same process), no hang
/// (every probe answers within its deadline), and hostile traffic costs
/// at most its own connection.
pub fn run_protocol_chaos(
    seed: u64,
    cases: u64,
    mut progress: impl FnMut(u64),
) -> ProtocolChaosReport {
    use vgl_fuzz::protocol::{gen_case, Chunk};
    let mut report = ProtocolChaosReport::default();
    with_daemon(ServeConfig::default(), |path| {
        for i in 0..cases {
            let case_seed = seed.wrapping_add(i);
            let case = gen_case(case_seed);
            let Ok(stream) = UnixStream::connect(path) else {
                report.failure =
                    Some(format!("seed {case_seed}: daemon stopped accepting"));
                break;
            };
            let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
            let mut closed = false;
            for chunk in &case.chunks {
                match chunk {
                    Chunk::Send(bytes) => {
                        use io::Write;
                        // The daemon may already have dropped us after a
                        // malformed fragment; that is its right.
                        if (&stream).write_all(bytes).is_err() {
                            closed = true;
                            break;
                        }
                        report.chunks_sent += 1;
                        report.bytes_sent += bytes.len() as u64;
                    }
                    Chunk::Close => {
                        let _ = stream.shutdown(std::net::Shutdown::Both);
                        closed = true;
                        break;
                    }
                }
            }
            if !closed {
                let _ = stream.shutdown(std::net::Shutdown::Write);
                // Drain whatever the daemon answers; bounded so a wedged
                // daemon is a detected failure, not a hung lane.
                let limit = Instant::now() + Duration::from_secs(10);
                loop {
                    match read_frame(&mut &stream) {
                        Ok(Some(_)) => report.responses += 1,
                        Ok(None) => break,
                        Err(proto::FrameError::Io(e))
                            if matches!(
                                e.kind(),
                                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                            ) =>
                        {
                            if Instant::now() > limit {
                                report.failure = Some(format!(
                                    "seed {case_seed}: daemon neither answered nor \
                                     closed within 10s (kinds: {:?})",
                                    case.kinds
                                ));
                                break;
                            }
                        }
                        Err(_) => break,
                    }
                }
            }
            report.cases += 1;
            if report.failure.is_some() {
                break;
            }
            if (i + 1) % 100 == 0 || i + 1 == cases {
                if let Err(e) = health_probe(path, Duration::from_secs(10)) {
                    report.failure = Some(format!("after seed {case_seed}: {e}"));
                    break;
                }
                report.health_checks += 1;
            }
            progress(i + 1);
        }
    });
    report
}

/// A convenient scoped daemon for tests and benches: starts on a unique
/// socket under the system temp dir, runs `f` with the path, always joins.
pub fn with_daemon<T>(config: ServeConfig, f: impl FnOnce(&Path) -> T) -> T {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "vgld-{}-{}.sock",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let daemon = Daemon::start(&path, config).expect("daemon binds");
    let result = f(&path);
    daemon.join();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROGRAM: &str = "def main() -> int { return 40 + 2; }";

    #[test]
    fn serves_compile_run_and_stats() {
        with_daemon(ServeConfig::default(), |path| {
            let mut client = Client::connect(path).expect("connects");
            let resp = client
                .request(&Request::Run {
                    session: "t".into(),
                    source: PROGRAM.into(),
                })
                .expect("responds");
            assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
            assert_eq!(resp.get("result").and_then(Json::as_str), Some("42"));
            // Identical resubmission is a level-1 artifact hit.
            let resp = client
                .request(&Request::Compile {
                    session: "t".into(),
                    source: PROGRAM.into(),
                })
                .expect("responds");
            assert_eq!(
                resp.get("warm").and_then(|w| w.get("artifact_hit")),
                Some(&Json::Bool(true))
            );
            let stats = client.request(&Request::Stats).expect("responds");
            assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
            assert!(
                stats
                    .get("cache")
                    .and_then(|c| c.get("artifacts"))
                    .and_then(|a| a.get("hits"))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
                    >= 1
            );
            assert!(
                stats
                    .get("latency_us")
                    .and_then(|l| l.get("count"))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
                    >= 2
            );
        });
    }

    #[test]
    fn check_reports_diagnostics_without_closing() {
        with_daemon(ServeConfig::default(), |path| {
            let mut client = Client::connect(path).expect("connects");
            let resp = client
                .request(&Request::Check {
                    session: "t".into(),
                    source: "def main() -> int { return x; }".into(),
                })
                .expect("responds");
            assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
            let errors = resp
                .get("report")
                .and_then(|r| r.get("errors"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            assert!(errors >= 1, "unknown identifier must be reported: {resp}");
            // The connection is still usable.
            let resp = client.request(&Request::Stats).expect("responds");
            assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        });
    }

    #[test]
    fn malformed_frames_cost_one_connection_not_the_daemon() {
        use std::io::Write;
        with_daemon(ServeConfig::default(), |path| {
            // Garbage length prefix far over the bound.
            let mut s = UnixStream::connect(path).expect("connects");
            s.write_all(&u32::MAX.to_be_bytes()).expect("writes");
            s.write_all(b"junk").expect("writes");
            let resp = read_frame(&mut &s).expect("error response").expect("frame");
            assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
            // The daemon still serves a healthy client afterwards.
            let mut client = Client::connect(path).expect("connects");
            let resp = client
                .request(&Request::Run {
                    session: "t".into(),
                    source: PROGRAM.into(),
                })
                .expect("responds");
            assert_eq!(resp.get("result").and_then(Json::as_str), Some("42"));
        });
    }

    #[test]
    fn shutdown_request_stops_the_daemon() {
        let path = std::env::temp_dir()
            .join(format!("vgld-shutdown-{}.sock", std::process::id()));
        let daemon = Daemon::start(&path, ServeConfig::default()).expect("binds");
        let mut client = Client::connect(&path).expect("connects");
        let resp = client.request(&Request::Shutdown).expect("responds");
        assert_eq!(resp.get("shutting_down"), Some(&Json::Bool(true)));
        assert!(daemon.shutdown_requested());
        daemon.join();
        assert!(!path.exists(), "socket file removed on join");
    }

    #[test]
    fn concurrent_sessions_share_the_store() {
        with_daemon(ServeConfig::default(), |path| {
            let sources: Vec<String> = (0..4)
                .map(|i| format!("def main() -> int {{ return {i} + 1; }}"))
                .collect();
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let path = path.to_path_buf();
                    let src = sources[i].clone();
                    thread::spawn(move || {
                        let mut client = Client::connect(&path).expect("connects");
                        for _ in 0..3 {
                            let resp = client
                                .request(&Request::Run {
                                    session: format!("s{i}"),
                                    source: src.clone(),
                                })
                                .expect("responds");
                            assert_eq!(
                                resp.get("result").and_then(Json::as_str),
                                Some(format!("{}", i + 1).as_str())
                            );
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("client thread");
            }
            let mut client = Client::connect(path).expect("connects");
            let stats = client.request(&Request::Stats).expect("responds");
            let sessions = stats.get("sessions").expect("sessions");
            for i in 0..4 {
                assert!(sessions.get(&format!("s{i}")).is_some(), "session s{i} recorded");
            }
        });
    }

    /// A program of 16 helpers in which edit `edit` of client `client`
    /// changes one helper: each client's sources are its own.
    fn edited_program(client: usize, edit: usize) -> String {
        let mut src = String::from("def main() -> int {\n\tvar t = 0;\n");
        for f in 0..16 {
            src.push_str(&format!("\tt = t + f{f}({f});\n"));
        }
        src.push_str("\treturn t;\n}\n");
        for f in 0..16 {
            let k = if f == edit % 16 { 1000 * (client + 1) + edit } else { f };
            src.push_str(&format!(
                "def f{f}(n: int) -> int {{\n\tvar s = 0;\n\
                 \tfor (i = 0; i < n; i = i + 1) {{ s = s + i * {k}; }}\n\treturn s;\n}}\n"
            ));
        }
        src
    }

    #[test]
    fn concurrent_responses_count_their_own_reuse() {
        const ROUNDS: usize = 8;
        // Every third round resubmits the previous round's source.
        let resubmit = |round: usize| round % 3 == 2;
        let responses = with_daemon(ServeConfig::default(), |path| {
            // Both clients send each round's request together, so their
            // compiles overlap inside the daemon. Nothing panics before
            // the scope ends, so no client is left at the barrier.
            let barrier = std::sync::Barrier::new(2);
            thread::scope(|s| {
                let clients: Vec<_> = (0..2)
                    .map(|client| {
                        let barrier = &barrier;
                        s.spawn(move || {
                            let mut conn = Client::connect(path).ok();
                            let mut got = Vec::new();
                            for round in 0..ROUNDS {
                                let edit = round - usize::from(resubmit(round));
                                let req = Request::Compile {
                                    session: format!("c{client}"),
                                    source: edited_program(client, edit),
                                };
                                barrier.wait();
                                got.push(conn.as_mut().and_then(|c| c.request(&req).ok()));
                            }
                            got
                        })
                    })
                    .collect();
                clients.into_iter().map(|c| c.join().expect("client thread")).collect::<Vec<_>>()
            })
        });
        for (client, got) in responses.iter().enumerate() {
            for (round, resp) in got.iter().enumerate() {
                let resp = resp.as_ref().expect("every request got a response");
                let warm = resp.get("warm").expect("reuse counts");
                let count = |k: &str| warm.get(k).and_then(Json::as_u64).expect(k);
                let methods = resp.get("methods").and_then(Json::as_u64).expect("methods");
                let what = format!("client {client}, round {round}: {resp}");
                let hit = resubmit(round);
                assert_eq!(warm.get("artifact_hit"), Some(&Json::Bool(hit)), "{what}");
                assert_eq!(
                    count("methods_spliced") + count("methods_compiled"),
                    if hit { 0 } else { methods },
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn session_table_is_bounded() {
        with_daemon(ServeConfig::default(), |path| {
            let mut client = Client::connect(path).expect("connects");
            let names = SESSION_CAPACITY + 8;
            for i in 0..names {
                client
                    .request(&Request::Check { session: format!("n{i}"), source: PROGRAM.into() })
                    .expect("responds");
            }
            // The first name again: still counted under its own key.
            client
                .request(&Request::Check { session: "n0".into(), source: PROGRAM.into() })
                .expect("responds");
            let stats = client.request(&Request::Stats).expect("responds");
            let Some(Json::Obj(sessions)) = stats.get("sessions") else {
                panic!("sessions object in {stats:?}")
            };
            assert_eq!(sessions.len(), SESSION_CAPACITY + 1, "capped names plus the overflow key");
            let count = |k: &str| stats.get("sessions").and_then(|s| s.get(k)).and_then(Json::as_u64);
            assert_eq!(count("n0"), Some(2));
            assert_eq!(count(&format!("n{}", SESSION_CAPACITY - 1)), Some(1));
            assert_eq!(count(&format!("n{SESSION_CAPACITY}")), None, "past the cap");
            assert_eq!(count(OTHER_SESSIONS), Some(8));
        });
    }

    #[test]
    fn request_spans_reach_the_obs_trace() {
        let path = std::env::temp_dir()
            .join(format!("vgld-trace-{}.sock", std::process::id()));
        let daemon = Daemon::start(&path, ServeConfig::default()).expect("binds");
        let mut client = Client::connect(&path).expect("connects");
        client
            .request(&Request::Compile { session: "t".into(), source: PROGRAM.into() })
            .expect("responds");
        // A request's span is recorded before its response is written, so
        // it is in the ring by the time the client has the response.
        let lines = daemon.trace_lines();
        assert!(lines.contains("\"request\""), "span recorded: {lines:?}");
        assert!(lines.contains("compile"), "cmd field recorded: {lines:?}");
        // Past the capacity the ring keeps only the newest spans, but still
        // counts every request.
        let sent = TRACE_CAPACITY as u64 + 8;
        for _ in 1..sent {
            client.request(&Request::Stats).expect("responds");
        }
        assert_eq!(daemon.traced_requests(), sent);
        let lines = daemon.trace_lines();
        assert_eq!(lines.lines().count(), TRACE_CAPACITY);
        assert!(!lines.contains("compile"), "the oldest span was dropped");
        daemon.join();
    }
}
