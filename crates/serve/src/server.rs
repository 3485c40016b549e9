//! The daemon: listener, connection handlers, the shared `minipool`, the
//! fingerprint result cache and its persistence journal.
//!
//! The main thread blocks in `accept` and hands each connection over a
//! bounded queue (`QUEUE_DEPTH`) to a fixed set of long-lived handler
//! threads; a full queue is answered with a retryable status-1 error at
//! once. A `shutdown` request wakes the blocked `accept` by connecting to
//! the daemon's own address, so nothing on the accept path polls or
//! sleeps. Each submission runs on the shared pool
//! ([`minipool::ThreadPool::scope`] is safe to enter concurrently from
//! many threads — each scope's tasks carry their own completion latch).
//! Computed scenario results are appended to the
//! `hotnoc-serve-journal-v1` [`hotnoc_scenario::journal`] (one flushed line
//! per result) and warm-loaded into the cache on the next start; campaign
//! submissions run on the campaign engine with their manifests under the
//! spool directory, so a restarted daemon resumes rather than recomputes
//! them.

use crate::protocol::{
    decode_request, error_fields, response_line, Endpoint, Request, Stream, Submission,
    JOURNAL_SCHEMA,
};
use hotnoc_obs::TraceEvent;
use hotnoc_scenario::journal::{canonical_outcome, Journal, JournalError};
use hotnoc_scenario::json::Json;
use hotnoc_scenario::run::run_scenario;
use hotnoc_scenario::runner::{run_campaign_with, CampaignRun, RunnerOptions};
use hotnoc_scenario::tracefile::TraceDoc;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Accepted connections waiting for a free handler thread. One more is
/// answered with a retryable status-1 `busy` error and closed.
const QUEUE_DEPTH: usize = 64;

/// Longest request line (bytes, without its newline) a handler buffers.
/// A longer one gets an anonymous status-2 error and the connection closes.
const MAX_LINE: usize = 1 << 20;

/// A connection that sends nothing for this long is closed, and a reply
/// write that makes no progress for this long fails, so neither idle nor
/// non-reading clients can hold the fixed handler threads.
const IDLE: Duration = Duration::from_secs(3);

/// Handler read timeout: how often a handler waiting on a quiet connection
/// checks the idle limit and the drain flag.
const READ_TICK: Duration = Duration::from_millis(50);

/// How the daemon runs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Where to listen.
    pub endpoint: Endpoint,
    /// Worker threads for the shared pool (>= 1; clamped to
    /// [`minipool::MAX_WORKERS`]). It also sets the number of connection
    /// handler threads: the same count, but at least 2, so a ping or a
    /// shutdown never waits behind a single long submission.
    pub threads: usize,
    /// Path of the `hotnoc-serve-journal-v1` result journal; `None`
    /// disables persistence (the cache is memory-only).
    pub journal: Option<PathBuf>,
    /// Where to write the `hotnoc-trace-v1` serving trace (cache-hit
    /// events) on shutdown; `None` skips it.
    pub trace: Option<PathBuf>,
    /// Directory for campaign working state (one campaign manifest +
    /// artifact subdirectory per campaign fingerprint).
    pub spool: PathBuf,
}

/// What a drained daemon reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSummary {
    /// Submit requests received (hits + computes + failures + drain
    /// rejections). A connection turned away by a full queue is not
    /// counted: its request was never read.
    pub requests: u64,
    /// Submissions computed by running jobs.
    pub computed: u64,
    /// Submissions answered from the result cache.
    pub cache_hits: u64,
}

/// A serving failure: listener, journal or trace-file trouble. Protocol
/// errors never land here — they become per-request status responses.
#[derive(Debug)]
pub struct ServeError {
    /// What went wrong, with its path/endpoint context.
    pub message: String,
}

impl ServeError {
    fn new(message: String) -> ServeError {
        ServeError { message }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ServeError {}

/// One cached response: the payload objects (id-less) rendered with each
/// requester's id, so a repeat submission under the same id reproduces
/// the original bytes exactly.
struct CacheEntry {
    /// Spec name, for the cache-hit trace event.
    name: String,
    /// Response payload field lists, one per line, in stream order.
    lines: Vec<Vec<(String, Json)>>,
}

type Cache = HashMap<(String, u64), Arc<CacheEntry>>;

struct State {
    pool: minipool::ThreadPool,
    threads: usize,
    spool: PathBuf,
    /// The bound address (a TCP port 0 resolved), which the drain connects
    /// to once to wake the blocked `accept`.
    local: Endpoint,
    cache: Mutex<Cache>,
    journal: Option<Journal>,
    events: Mutex<Vec<TraceEvent>>,
    hits: AtomicU64,
    computed: AtomicU64,
    requests: AtomicU64,
    draining: AtomicBool,
}

/// Runs the daemon until a shutdown request drains it.
///
/// Binds the endpoint, warm-loads the journal into the result cache, then
/// accepts connections until a `{"op": "shutdown"}` arrives. Draining
/// lets in-flight jobs finish (and journal), rejects queued submissions
/// with a retryable status-1 error, joins every handler thread, writes
/// the serving trace, and removes a unix socket file on the way out.
///
/// # Errors
///
/// Returns a [`ServeError`] for listener, journal or trace-file trouble.
pub fn serve(opts: &ServeOptions) -> Result<ServeSummary, ServeError> {
    let listener = Listener::bind(&opts.endpoint)?;
    let local = listener.local_endpoint()?;
    let mut cache = Cache::new();
    let journal = match &opts.journal {
        Some(path) => Some(warm_load(path, &mut cache)?),
        None => None,
    };
    let warm = cache.len();
    let pool = minipool::ThreadPool::new();
    let threads = opts.threads.clamp(1, minipool::MAX_WORKERS);
    // The handler thread entering a scope helps drain it, so n-way
    // parallelism needs n - 1 workers (same sizing as the batch runner).
    pool.ensure_workers(threads.saturating_sub(1));
    let state = State {
        pool,
        threads,
        spool: opts.spool.clone(),
        local,
        cache: Mutex::new(cache),
        journal,
        events: Mutex::new(Vec::new()),
        hits: AtomicU64::new(0),
        computed: AtomicU64::new(0),
        requests: AtomicU64::new(0),
        draining: AtomicBool::new(false),
    };
    eprintln!(
        "serve: listening on {} ({} threads, {} journaled results warm)",
        state.local, threads, warm
    );

    let (queue, inbox) = sync_channel(QUEUE_DEPTH);
    let inbox = Mutex::new(inbox);
    // Leaving the scope joins every handler: each finishes its connection
    // (in-flight jobs finish and journal), then serves what is still
    // queued — submissions there are rejected as draining — and exits once
    // the closed queue is empty.
    std::thread::scope(|s| {
        for _ in 0..threads.max(2) {
            s.spawn(|| handle_queue(&inbox, &state));
        }
        accept_loop(listener, queue, &state)
    })?;
    if let Some(path) = &opts.trace {
        let events = std::mem::take(&mut *lock(&state.events));
        std::fs::write(path, TraceDoc::new("serve", events).to_jsonl())
            .map_err(|e| ServeError::new(format!("trace {}: {e}", path.display())))?;
    }
    let summary = ServeSummary {
        requests: state.requests.load(Ordering::SeqCst),
        computed: state.computed.load(Ordering::SeqCst),
        cache_hits: state.hits.load(Ordering::SeqCst),
    };
    eprintln!(
        "serve: drained after {} submissions ({} computed, {} cache hits)",
        summary.requests, summary.computed, summary.cache_hits
    );
    Ok(summary)
}

/// Accepts connections until the daemon drains, queueing each for a
/// handler. Returning drops the listener, which stops accepting (and
/// removes a unix socket file), and the queue's sender, which lets the
/// handlers exit once they have emptied it.
fn accept_loop(
    listener: Listener,
    queue: SyncSender<Box<dyn Stream>>,
    state: &State,
) -> Result<(), ServeError> {
    loop {
        let stream = listener
            .accept()
            .map_err(|e| ServeError::new(format!("accept on {}: {e}", state.local)))?;
        if state.draining.load(Ordering::SeqCst) {
            // The drain's wake-up connection, or a client that lost the
            // race with it: either way, dropped unserved.
            return Ok(());
        }
        if let Err(TrySendError::Full(mut stream)) = queue.try_send(stream) {
            // Every handler is busy and the queue is full: answer at once
            // (anonymously, the request is never read) and close.
            let _ = reply(stream.as_mut(), None, &error_fields(1, "busy", true));
        }
    }
}

/// One handler thread: serves queued connections one at a time until the
/// accept loop has stopped and the queue is empty.
fn handle_queue(inbox: &Mutex<Receiver<Box<dyn Stream>>>, state: &State) {
    loop {
        let next = lock(inbox).recv();
        let Ok(stream) = next else {
            return;
        };
        // A panicking submission costs its own connection, not the handler.
        let _ = catch_unwind(AssertUnwindSafe(|| handle_connection(stream, state)));
    }
}

/// A poisoned daemon lock only means some handler thread panicked
/// mid-update of a statistic or the cache; the data is still coherent
/// (every write is a single insert/push), so serving continues.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

enum Listener {
    Unix(UnixListener, PathBuf),
    Tcp(TcpListener),
}

impl Listener {
    fn bind(endpoint: &Endpoint) -> Result<Listener, ServeError> {
        match endpoint {
            Endpoint::Unix(path) => {
                // A socket file left by a killed daemon would fail the bind
                // with AddrInUse; a stale file only ever refuses
                // connections, so removing it is safe.
                if let Err(e) = std::fs::remove_file(path) {
                    if e.kind() != ErrorKind::NotFound {
                        return Err(ServeError::new(format!(
                            "socket {}: removing stale file: {e}",
                            path.display()
                        )));
                    }
                }
                let l = UnixListener::bind(path)
                    .map_err(|e| ServeError::new(format!("bind unix:{}: {e}", path.display())))?;
                Ok(Listener::Unix(l, path.clone()))
            }
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())
                    .map_err(|e| ServeError::new(format!("bind tcp:{addr}: {e}")))?;
                Ok(Listener::Tcp(l))
            }
        }
    }

    /// The address clients (and the drain wake-up) connect to: the socket
    /// path, or the bound TCP address with a port 0 resolved.
    fn local_endpoint(&self) -> Result<Endpoint, ServeError> {
        match self {
            Listener::Unix(_, path) => Ok(Endpoint::Unix(path.clone())),
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| Endpoint::Tcp(a.to_string()))
                .map_err(|e| ServeError::new(format!("socket tcp: {e}"))),
        }
    }

    /// Blocks until a connection arrives. Its reads time out every
    /// [`READ_TICK`] so the handler can enforce [`IDLE`] and notice a
    /// drain while the client is quiet; a write that makes no progress for
    /// [`IDLE`] fails, so a client that stops reading cannot pin a handler.
    fn accept(&self) -> std::io::Result<Box<dyn Stream>> {
        match self {
            Listener::Unix(l, _) => {
                let (s, _) = l.accept()?;
                s.set_read_timeout(Some(READ_TICK))?;
                s.set_write_timeout(Some(IDLE))?;
                Ok(Box::new(s))
            }
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_read_timeout(Some(READ_TICK))?;
                s.set_write_timeout(Some(IDLE))?;
                Ok(Box::new(s))
            }
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

enum Flow {
    Continue,
    Close,
}

fn handle_connection(mut stream: Box<dyn Stream>, state: &State) {
    let mut buf: Vec<u8> = Vec::new();
    let mut scanned = 0; // leading bytes of `buf` known to hold no newline
    let mut chunk = [0u8; 4096];
    // When the last reply went out or, while a request line is partial,
    // when its first byte arrived. Either way IDLE bounds the wait, so
    // neither a silent client nor one that drips a byte every few seconds
    // holds a handler.
    let mut since = Instant::now();
    loop {
        match buf[scanned..].iter().position(|&b| b == b'\n') {
            Some(at) if scanned + at <= MAX_LINE => {
                let raw: Vec<u8> = buf.drain(..=scanned + at).collect();
                scanned = 0;
                let line = String::from_utf8_lossy(&raw).trim().to_string();
                if line.is_empty() {
                    continue;
                }
                match handle_line(&line, stream.as_mut(), state) {
                    Ok(Flow::Continue) => since = Instant::now(),
                    Ok(Flow::Close) | Err(_) => return,
                }
                continue;
            }
            None if buf.len() <= MAX_LINE => {
                if since.elapsed() >= IDLE {
                    return;
                }
                scanned = buf.len();
            }
            _ => {
                // Like an unparsable line: answer anonymously and close.
                let error = format!("request line exceeds {MAX_LINE} bytes");
                let _ = reply(stream.as_mut(), None, &error_fields(2, &error, false));
                return;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // client hung up
            Ok(n) => {
                if buf.is_empty() {
                    since = Instant::now();
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // Between requests, a draining daemon closes at once.
                if state.draining.load(Ordering::SeqCst) && buf.is_empty() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

fn handle_line(line: &str, out: &mut dyn Write, state: &State) -> std::io::Result<Flow> {
    let j = match Json::parse(line) {
        Ok(j) => j,
        Err(e) => {
            // Unparsable bytes mean the line framing itself is suspect:
            // answer (anonymously — no id can be trusted out of a broken
            // line) and drop the connection. The daemon stays up.
            let fields = error_fields(2, &format!("malformed request line: {e}"), false);
            return reply(out, None, &fields).map(|()| Flow::Close);
        }
    };
    // Echo the id even on shape errors, so clients can correlate them.
    let id = j.get("id").and_then(Json::as_str).map(str::to_string);
    let request = match decode_request(&j) {
        Ok(r) => r,
        Err(e) => {
            return reply(out, id.as_deref(), &error_fields(2, &e, false)).map(|()| Flow::Continue);
        }
    };
    match request {
        Request::Ping => {
            let fields = vec![
                ("status".to_string(), Json::int(0)),
                ("pong".to_string(), Json::Bool(true)),
            ];
            reply(out, id.as_deref(), &fields).map(|()| Flow::Continue)
        }
        Request::Shutdown => {
            state.draining.store(true, Ordering::SeqCst);
            eprintln!("serve: shutdown requested, draining");
            // Wake the accept loop, blocked until a connection arrives; it
            // sees the flag and stops.
            if let Err(e) = state.local.connect() {
                eprintln!("serve: warning: drain wake-up on {}: {e}", state.local);
            }
            let fields = vec![
                ("status".to_string(), Json::int(0)),
                ("draining".to_string(), Json::Bool(true)),
            ];
            reply(out, id.as_deref(), &fields).map(|()| Flow::Continue)
        }
        Request::Submit { id, submission } => {
            state.requests.fetch_add(1, Ordering::SeqCst);
            if state.draining.load(Ordering::SeqCst) {
                // Queued behind a drain: clean, retryable rejection.
                let fields = error_fields(1, "draining", true);
                return reply(out, Some(&id), &fields).map(|()| Flow::Continue);
            }
            handle_submit(&id, *submission, out, state).map(|()| Flow::Continue)
        }
    }
}

fn handle_submit(
    id: &str,
    submission: Submission,
    out: &mut dyn Write,
    state: &State,
) -> std::io::Result<()> {
    let key = submission.key();
    let cached = lock(&state.cache).get(&key).cloned();
    if let Some(entry) = cached {
        record_hit(state, &key.0, &entry.name);
        return write_entry(out, id, &entry);
    }
    let entry = match submission {
        Submission::Scenario(spec) => {
            let mut result = None;
            state.pool.scope(|s| {
                s.spawn(|| result = Some(run_scenario(&spec)));
            });
            match result.expect("scope completed the spawned task") {
                Ok(outcome) => {
                    let outcome = outcome.to_json();
                    if let Some(journal) = &state.journal {
                        let line = Json::object(vec![
                            ("fingerprint", Json::str(&key.0)),
                            ("seed", Json::int(key.1)),
                            ("scenario", Json::str(&spec.name)),
                            ("outcome", outcome.clone()),
                        ]);
                        // Not fatal: the in-memory cache stays correct.
                        if journal.append(&line).is_err() {
                            eprintln!("serve: warning: journal append failed for {}", key.0);
                        }
                    }
                    scenario_entry(&spec.name, &key.0, outcome)
                }
                Err(e) => {
                    let fields = error_fields(1, &format!("scenario failed: {e}"), false);
                    return reply(out, Some(id), &fields);
                }
            }
        }
        Submission::Campaign(spec) => {
            // The campaign keeps its usual manifest journal in the spool,
            // keyed by fingerprint: a daemon killed mid-campaign resumes
            // instead of recomputing, and artifact bytes are unchanged.
            let opts = RunnerOptions {
                threads: state.threads,
                out_dir: state.spool.join(&key.0),
                max_jobs: None,
                fresh: false,
                progress: false,
                trace_dir: None,
            };
            match run_campaign_with(&spec, None, &opts, &state.pool) {
                Ok(run) => campaign_entry(&spec.name, &key.0, &run),
                Err(e) => {
                    let fields = error_fields(1, &format!("campaign failed: {e}"), false);
                    return reply(out, Some(id), &fields);
                }
            }
        }
    };
    state.computed.fetch_add(1, Ordering::SeqCst);
    let entry = Arc::new(entry);
    lock(&state.cache).insert(key, Arc::clone(&entry));
    write_entry(out, id, &entry)
}

/// Records a cache hit on the observability plane: a `CacheHit` trace
/// event keyed by hit ordinal (assigned under the event lock so the trace
/// stays in non-descending order) plus a stderr log line. The response
/// bytes themselves carry no marker — that is what keeps them
/// byte-identical to the computed response.
fn record_hit(state: &State, fingerprint: &str, name: &str) {
    let mut events = lock(&state.events);
    let ordinal = state.hits.fetch_add(1, Ordering::SeqCst) + 1;
    events.push(TraceEvent::CacheHit {
        cycle: ordinal,
        fingerprint: fingerprint.to_string(),
        name: name.to_string(),
    });
    drop(events);
    eprintln!("serve: cache hit {fingerprint} ({name})");
}

fn scenario_entry(name: &str, fingerprint: &str, outcome: Json) -> CacheEntry {
    CacheEntry {
        name: name.to_string(),
        lines: vec![vec![
            ("status".to_string(), Json::int(0)),
            ("fingerprint".to_string(), Json::str(fingerprint)),
            ("outcome".to_string(), outcome),
        ]],
    }
}

fn campaign_entry(name: &str, fingerprint: &str, run: &CampaignRun) -> CacheEntry {
    let mut lines = Vec::with_capacity(run.completed.len() + 1);
    for r in &run.completed {
        lines.push(vec![
            ("job".to_string(), Json::int(r.index as u64)),
            ("name".to_string(), Json::str(&r.spec.name)),
            ("seed".to_string(), Json::int(r.spec.seed)),
            ("status".to_string(), Json::int(0)),
            ("outcome".to_string(), r.outcome.to_json()),
        ]);
    }
    lines.push(vec![
        ("status".to_string(), Json::int(0)),
        ("fingerprint".to_string(), Json::str(fingerprint)),
        ("jobs".to_string(), Json::int(run.total_jobs as u64)),
    ]);
    CacheEntry {
        name: name.to_string(),
        lines,
    }
}

/// Writes one response line and flushes it.
fn reply(out: &mut dyn Write, id: Option<&str>, fields: &[(String, Json)]) -> std::io::Result<()> {
    writeln!(out, "{}", response_line(id, fields))?;
    out.flush()
}

fn write_entry(out: &mut dyn Write, id: &str, entry: &CacheEntry) -> std::io::Result<()> {
    for fields in &entry.lines {
        writeln!(out, "{}", response_line(Some(id), fields))?;
    }
    out.flush()
}

/// Opens (creating if absent) the journal and warm-loads its results into
/// the cache. Records that do not verify — unparsable, or an outcome that
/// does not re-serialize to the exact bytes it was journaled as (the
/// cached response must be byte-identical to the original computation's)
/// — are skipped; a torn tail is truncated away. A file with any other
/// header is refused.
fn warm_load(path: &Path, cache: &mut Cache) -> Result<Journal, ServeError> {
    let err = |e: std::io::Error| ServeError::new(format!("journal {}: {e}", path.display()));
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(err)?;
        }
    }
    let header = Json::object(vec![("schema", Json::str(JOURNAL_SCHEMA))]);
    let opened = Journal::open(path, &header, |j| {
        let fingerprint = j.get("fingerprint").and_then(Json::as_str)?;
        let seed = j.get("seed").and_then(Json::as_u64)?;
        let name = j.get("scenario").and_then(Json::as_str)?;
        let raw = j.get("outcome")?;
        canonical_outcome(raw)?;
        let entry = scenario_entry(name, fingerprint, raw.clone());
        Some(((fingerprint.to_string(), seed), entry))
    });
    match opened {
        Ok((journal, records)) => {
            for (key, entry) in records {
                cache.insert(key, Arc::new(entry));
            }
            Ok(journal)
        }
        Err(JournalError::Mismatch) => Err(ServeError::new(format!(
            "journal {}: not a {JOURNAL_SCHEMA} file",
            path.display()
        ))),
        Err(JournalError::Io(e)) => Err(err(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use hotnoc_scenario::spec::ScenarioSpec;
    use std::io::{BufRead, BufReader};
    use std::os::unix::net::UnixStream;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hotnoc-serve-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    fn scenario_text(name: &str, seed: u64) -> String {
        format!(
            r#"{{
  "name": "{name}",
  "chip": {{"config": "A"}},
  "workload": {{"kind": "traffic", "pattern": "uniform", "rate": 0.05, "packet_len": 2, "cycles": 120}},
  "policy": {{"kind": "baseline"}},
  "mode": "cosim",
  "fidelity": "quick",
  "seed": {seed}
}}"#
        )
    }

    /// Starts a daemon on a unix socket in `dir`, waits until it answers
    /// pings, and returns the endpoint plus the serve() thread handle.
    fn start_daemon(
        dir: &Path,
        journal: bool,
    ) -> (
        Endpoint,
        std::thread::JoinHandle<Result<ServeSummary, ServeError>>,
    ) {
        let opts = ServeOptions {
            endpoint: Endpoint::Unix(dir.join("hotnoc.sock")),
            threads: 2,
            journal: journal.then(|| dir.join("serve.journal.jsonl")),
            trace: Some(dir.join("serve.trace.jsonl")),
            spool: dir.join("spool"),
        };
        let endpoint = opts.endpoint.clone();
        let handle = std::thread::spawn(move || serve(&opts));
        for _ in 0..200 {
            if client::ping(&endpoint).is_ok() {
                return (endpoint, handle);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("daemon did not come up");
    }

    #[test]
    fn repeat_submission_is_byte_identical_and_hits_the_cache() {
        let dir = tmp_dir("roundtrip");
        let (endpoint, handle) = start_daemon(&dir, true);

        let spec = Json::parse(&scenario_text("serve-a", 11)).unwrap();
        let line = client::submit_line("req-1", &spec);
        let first = client::request(&endpoint, &line).expect("first submission");
        assert_eq!(first.len(), 1);
        assert_eq!(client::response_status(&first), 0);
        assert!(first[0].contains("\"outcome\""), "{}", first[0]);
        assert!(
            !first[0].contains("cache"),
            "responses must not mark cache state: {}",
            first[0]
        );
        let second = client::request(&endpoint, &line).expect("repeat submission");
        assert_eq!(first, second, "cached response must be byte-identical");

        // A different seed is a different key, not a hit.
        let other = Json::parse(&scenario_text("serve-a", 12)).unwrap();
        let third = client::request(&endpoint, &client::submit_line("req-1", &other)).unwrap();
        assert_ne!(first, third);

        client::shutdown(&endpoint).expect("shutdown");
        let summary = handle.join().unwrap().expect("serve exits cleanly");
        assert_eq!(summary.requests, 3);
        assert_eq!(summary.computed, 2);
        assert_eq!(summary.cache_hits, 1);

        // The hit is evidenced on the trace plane.
        let trace = std::fs::read_to_string(dir.join("serve.trace.jsonl")).unwrap();
        let doc = TraceDoc::parse(&trace).expect("valid hotnoc-trace-v1");
        assert_eq!(doc.events.len(), 1);
        assert!(trace.contains("\"kind\": \"cache_hit\""), "{trace}");
        assert!(trace.contains("serve-a"), "{trace}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_warm_load_survives_restart_and_drops_torn_tail() {
        let dir = tmp_dir("journal");
        let journal = dir.join("serve.journal.jsonl");
        let spec = Json::parse(&scenario_text("serve-j", 3)).unwrap();
        let line = client::submit_line("rq", &spec);

        let (endpoint, handle) = start_daemon(&dir, true);
        let first = client::request(&endpoint, &line).unwrap();
        client::shutdown(&endpoint).unwrap();
        handle.join().unwrap().unwrap();

        // Simulate a kill mid-append: a torn half-line at the tail.
        let mut text = std::fs::read_to_string(&journal).unwrap();
        assert!(text.starts_with(&format!("{{\"schema\": \"{JOURNAL_SCHEMA}\"}}")));
        text.push_str("{\"fingerprint\": \"dead");
        std::fs::write(&journal, &text).unwrap();

        let (endpoint, handle) = start_daemon(&dir, true);
        let warm = client::request(&endpoint, &line).unwrap();
        assert_eq!(first, warm, "warm-loaded response must reproduce bytes");
        client::shutdown(&endpoint).unwrap();
        let summary = handle.join().unwrap().unwrap();
        assert_eq!(summary.computed, 0, "journal must prevent recompute");
        assert_eq!(summary.cache_hits, 1);
        let clean = std::fs::read_to_string(&journal).unwrap();
        assert!(!clean.contains("dead"), "torn tail must be truncated");
        assert!(clean.ends_with('\n'));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_and_invalid_submissions_fail_clean_without_killing_the_daemon() {
        let dir = tmp_dir("badinput");
        let (endpoint, handle) = start_daemon(&dir, false);

        // Unparsable line: status 2, connection dropped, daemon alive.
        let bad = client::request(&endpoint, "this is not json").unwrap();
        assert_eq!(client::response_status(&bad), 2);
        client::ping(&endpoint).expect("daemon survives malformed input");

        // Parsable but invalid spec: status 2 with the validator's message.
        let invalid = r#"{"id": "v1", "submit": {"name": "x"}}"#;
        let resp = client::request(&endpoint, invalid).unwrap();
        assert_eq!(client::response_status(&resp), 2);
        assert!(resp[0].contains("\"id\": \"v1\""), "{}", resp[0]);

        client::shutdown(&endpoint).unwrap();
        let summary = handle.join().unwrap().unwrap();
        assert_eq!(summary.computed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_submissions_stream_jobs_and_cache_whole_responses() {
        let dir = tmp_dir("campaign");
        let (endpoint, handle) = start_daemon(&dir, false);
        let campaign = r#"{
  "schema": "hotnoc-campaign-spec-v1",
  "name": "serve-camp",
  "configs": [{"config": "A"}],
  "workloads": [{"kind": "traffic", "pattern": "uniform", "rate": 0.05, "packet_len": 2, "cycles": 100}],
  "policies": ["baseline"],
  "fidelity": "quick",
  "seeds": [1, 2],
  "seed": 9
}"#;
        let spec = Json::parse(campaign).unwrap();
        let line = client::submit_line("camp-1", &spec);
        let first = client::request(&endpoint, &line).expect("campaign submission");
        assert_eq!(first.len(), 3, "2 job lines + summary: {first:?}");
        assert!(first[0].contains("\"job\": 0"), "{}", first[0]);
        assert!(first[1].contains("\"job\": 1"), "{}", first[1]);
        assert!(first[2].contains("\"jobs\": 2"), "{}", first[2]);
        assert_eq!(client::response_status(&first), 0);
        let second = client::request(&endpoint, &line).unwrap();
        assert_eq!(first, second, "campaign responses must be byte-identical");

        client::shutdown(&endpoint).unwrap();
        let summary = handle.join().unwrap().unwrap();
        assert_eq!(summary.computed, 1);
        assert_eq!(summary.cache_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn submissions_during_drain_are_rejected_retryable() {
        let dir = tmp_dir("drain");
        let (endpoint, handle) = start_daemon(&dir, false);
        client::shutdown(&endpoint).unwrap();
        // The daemon may finish draining at any moment; until the socket
        // disappears, queued submissions must be rejected retryable.
        let spec = Json::parse(&scenario_text("late", 1)).unwrap();
        // A connection error means the daemon already fully drained —
        // equally clean; only an accepted request must be rejected right.
        if let Ok(lines) = client::request(&endpoint, &client::submit_line("late-1", &spec)) {
            assert_eq!(client::response_status(&lines), 1);
            assert!(lines[0].contains("\"retryable\": true"), "{}", lines[0]);
            assert!(lines[0].contains("draining"), "{}", lines[0]);
        }
        let summary = handle.join().unwrap().unwrap();
        assert_eq!(summary.computed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_with_foreign_schema_is_refused() {
        let dir = tmp_dir("foreign");
        let journal = dir.join("serve.journal.jsonl");
        std::fs::write(&journal, "{\"schema\": \"hotnoc-campaign-v1\"}\n").unwrap();
        let mut cache = Cache::new();
        let err = warm_load(&journal, &mut cache).unwrap_err();
        assert!(err.message.contains(JOURNAL_SCHEMA), "{}", err.message);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_loader_verifies_canonical_outcomes() {
        let dir = tmp_dir("canon");
        let journal = dir.join("serve.journal.jsonl");
        // A decodable record whose outcome is *not* canonical (fields out
        // of canonical order — "stall_us" before "phases"): the loader
        // must not cache it, because its cached bytes could not match
        // what the computation originally streamed.
        let spec = ScenarioSpec::parse(&scenario_text("c", 1)).unwrap();
        let fp = spec.fingerprint();
        std::fs::write(
            &journal,
            format!(
                "{{\"schema\": \"{JOURNAL_SCHEMA}\"}}\n{{\"fingerprint\": \"{fp}\", \"seed\": 1, \
                 \"scenario\": \"c\", \"outcome\": {{\"kind\": \"plan-cost\", \"stall_us\": 1.5, \
                 \"phases\": 1, \"flit_hops\": 2, \"energy_uj\": 1.0, \"moves\": 3}}}}\n"
            ),
        )
        .unwrap();
        let mut cache = Cache::new();
        let _file = warm_load(&journal, &mut cache).unwrap();
        assert!(cache.is_empty(), "non-canonical record must not be cached");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_keeps_records_after_a_rejected_line() {
        let dir = tmp_dir("rejected");
        let journal = dir.join("serve.journal.jsonl");
        let lines: Vec<String> = ["serve-r1", "serve-r2"]
            .iter()
            .map(|name| client::submit_line("rq", &Json::parse(&scenario_text(name, 4)).unwrap()))
            .collect();
        let (endpoint, handle) = start_daemon(&dir, true);
        let first: Vec<Vec<String>> = lines
            .iter()
            .map(|l| client::request(&endpoint, l).unwrap())
            .collect();
        client::shutdown(&endpoint).unwrap();
        handle.join().unwrap().unwrap();

        // Put a decodable but non-canonical record ("stall_us" before
        // "phases") between the two good ones.
        let text = std::fs::read_to_string(&journal).unwrap();
        let good: Vec<&str> = text.lines().collect();
        assert_eq!(good.len(), 3, "header + 2 records: {text}");
        let bad = "{\"fingerprint\": \"0000000000000000\", \"seed\": 1, \"scenario\": \"c\", \
                   \"outcome\": {\"kind\": \"plan-cost\", \"stall_us\": 1.5, \"phases\": 1, \
                   \"flit_hops\": 2, \"energy_uj\": 1.0, \"moves\": 3}}";
        std::fs::write(
            &journal,
            format!("{}\n{}\n{bad}\n{}\n", good[0], good[1], good[2]),
        )
        .unwrap();

        let (endpoint, handle) = start_daemon(&dir, true);
        let later = client::request(&endpoint, &lines[1]).unwrap();
        assert_eq!(later, first[1], "warm-loaded response must reproduce bytes");
        client::shutdown(&endpoint).unwrap();
        let summary = handle.join().unwrap().unwrap();
        assert_eq!(
            summary.computed, 0,
            "the record after the bad line was lost"
        );
        assert_eq!(summary.cache_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_spool_manifest_is_resumed_not_recomputed() {
        let campaign = r#"{
  "schema": "hotnoc-campaign-spec-v1",
  "name": "serve-spool",
  "configs": [{"config": "A"}],
  "workloads": [{"kind": "traffic", "pattern": "uniform", "rate": 0.05, "packet_len": 2, "cycles": 100}],
  "policies": ["baseline"],
  "fidelity": "quick",
  "seeds": [1, 2, 3],
  "seed": 5
}"#;
        let spec = hotnoc_scenario::CampaignSpec::parse(campaign).unwrap();
        let line = client::submit_line("spool-1", &Json::parse(campaign).unwrap());

        // Reference: a fresh daemon computes the whole campaign.
        let fresh_dir = tmp_dir("spool-fresh");
        let (endpoint, handle) = start_daemon(&fresh_dir, false);
        let fresh = client::request(&endpoint, &line).unwrap();
        client::shutdown(&endpoint).unwrap();
        handle.join().unwrap().unwrap();

        // A daemon killed after one job left its manifest in the spool.
        let dir = tmp_dir("spool-resume");
        let spool = dir.join("spool").join(spec.fingerprint());
        let partial = hotnoc_scenario::run_campaign(
            &spec,
            &RunnerOptions {
                threads: 1,
                out_dir: spool.clone(),
                max_jobs: Some(1),
                ..RunnerOptions::default()
            },
        )
        .unwrap();
        assert_eq!(partial.completed.len(), 1);
        let journaled = std::fs::read_to_string(&partial.manifest_path).unwrap();

        let (endpoint, handle) = start_daemon(&dir, false);
        let resumed = client::request(&endpoint, &line).unwrap();
        client::shutdown(&endpoint).unwrap();
        handle.join().unwrap().unwrap();
        assert_eq!(
            resumed, fresh,
            "resumed response differs from a fresh daemon's"
        );
        // The manifest was extended by the two missing jobs, not restarted.
        let manifest = std::fs::read_to_string(&partial.manifest_path).unwrap();
        assert!(manifest.starts_with(&journaled), "{manifest}");
        assert_eq!(manifest.lines().count(), 1 + 3, "{manifest}");
        let _ = std::fs::remove_dir_all(&fresh_dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unrunnable_ldpc_chip_is_answered_as_bad_input() {
        let dir = tmp_dir("unrunnable");
        let (endpoint, handle) = start_daemon(&dir, false);
        let weights = vec!["1.0"; 256].join(", ");
        let spec = format!(
            r#"{{"name": "big", "chip": {{"custom": {{"mesh_side": 16, "tile_weights": [{weights}],
            "base_peak_celsius": 80.0}}}}, "workload": {{"kind": "ldpc"}},
            "policy": {{"kind": "baseline"}}, "mode": "cosim", "fidelity": "quick", "seed": 1}}"#
        );
        let line = client::submit_line("big-1", &Json::parse(&spec).unwrap());
        let resp = client::request(&endpoint, &line).unwrap();
        assert_eq!(client::response_status(&resp), 2, "{resp:?}");
        assert!(resp[0].contains("cannot partition"), "{}", resp[0]);
        client::shutdown(&endpoint).unwrap();
        assert_eq!(handle.join().unwrap().unwrap().computed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A raw client connection whose reads give up after a generous bound,
    /// so a daemon that never answers fails the test instead of hanging it.
    fn connect(endpoint: &Endpoint) -> BufReader<UnixStream> {
        let Endpoint::Unix(path) = endpoint else {
            panic!("tests listen on unix sockets");
        };
        let s = UnixStream::connect(path).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        BufReader::new(s)
    }

    fn send(conn: &mut BufReader<UnixStream>, line: &str) {
        conn.get_mut()
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
    }

    fn read_line(conn: &mut BufReader<UnixStream>) -> String {
        let mut l = String::new();
        conn.read_line(&mut l)
            .expect("reply within the read timeout");
        l.trim_end().to_string()
    }

    /// A held connection a handler is known to be serving: it answered a
    /// ping and stays open.
    fn hold_handler(endpoint: &Endpoint) -> BufReader<UnixStream> {
        let mut conn = connect(endpoint);
        send(&mut conn, r#"{"op": "ping"}"#);
        assert!(read_line(&mut conn).contains("pong"));
        conn
    }

    #[test]
    fn overlong_request_line_is_refused_and_the_daemon_keeps_serving() {
        let dir = tmp_dir("longline");
        let (endpoint, handle) = start_daemon(&dir, false);
        let mut conn = connect(&endpoint);
        conn.get_mut().write_all(&vec![b'x'; MAX_LINE + 1]).unwrap();
        let reply = read_line(&mut conn);
        assert_eq!(
            reply,
            format!(r#"{{"status": 2, "error": "request line exceeds {MAX_LINE} bytes"}}"#)
        );
        assert_eq!(read_line(&mut conn), "", "the connection must be closed");
        client::ping(&endpoint).expect("daemon survives an overlong line");
        client::shutdown(&endpoint).unwrap();
        assert_eq!(handle.join().unwrap().unwrap().requests, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn idle_connections_cannot_starve_the_handlers() {
        let dir = tmp_dir("idle");
        let (endpoint, handle) = start_daemon(&dir, false);
        // start_daemon runs 2 pool threads, hence 2 handlers: hold both.
        let mut idle: Vec<_> = (0..2).map(|_| hold_handler(&endpoint)).collect();
        let spec = Json::parse(&scenario_text("idle", 5)).unwrap();
        let t0 = Instant::now();
        let mut conn = connect(&endpoint);
        send(&mut conn, &client::submit_line("fresh", &spec));
        let reply = read_line(&mut conn);
        let waited = t0.elapsed();
        assert!(
            reply.contains(r#""status": 0"#) || reply.contains(r#""retryable": true"#),
            "{reply}"
        );
        assert!(waited < IDLE + Duration::from_secs(5), "waited {waited:?}");
        for conn in &mut idle {
            assert_eq!(read_line(conn), "", "idle connection must be closed");
        }
        client::shutdown(&endpoint).unwrap();
        handle.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slow_drip_request_lines_are_cut_off() {
        let dir = tmp_dir("drip");
        let (endpoint, handle) = start_daemon(&dir, false);
        let mut drip = connect(&endpoint);
        let mut writer = drip.get_ref().try_clone().unwrap();
        let t0 = Instant::now();
        // One byte a second and never a newline, until the daemon hangs up
        // (or a bound well past the deadline, should it never).
        let dripper = std::thread::spawn(move || {
            while t0.elapsed() < IDLE + Duration::from_secs(10) {
                if writer.write_all(b"x").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_secs(1));
            }
        });
        // The other handler serves a normal client meanwhile.
        let mut conn = connect(&endpoint);
        send(&mut conn, r#"{"op": "ping"}"#);
        assert!(read_line(&mut conn).contains("pong"));
        assert!(t0.elapsed() < IDLE, "a normal client waited on the drip");
        assert_eq!(
            read_line(&mut drip),
            "",
            "the dripping line must be cut off"
        );
        let waited = t0.elapsed();
        assert!(waited < IDLE + Duration::from_secs(5), "waited {waited:?}");
        dripper.join().unwrap();
        drop(conn);
        client::shutdown(&endpoint).unwrap();
        handle.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clients_that_stop_reading_cannot_pin_the_handlers() {
        let dir = tmp_dir("noread");
        let (endpoint, handle) = start_daemon(&dir, false);
        // start_daemon runs 2 handlers. Pin both: each client pipelines far
        // more pings than the sockets buffer and never reads a reply, so
        // its handler blocks writing.
        let flood = format!("{}\n", r#"{"op": "ping"}"#).repeat(1 << 16);
        let stalled: Vec<_> = (0..2)
            .map(|_| {
                let conn = hold_handler(&endpoint);
                let mut writer = conn.get_ref().try_clone().unwrap();
                let flood = flood.clone();
                // Ends with an error once the daemon drops the connection.
                std::thread::spawn(move || writer.write_all(flood.as_bytes()));
                conn
            })
            .collect();
        let t0 = Instant::now();
        let mut conn = connect(&endpoint);
        send(&mut conn, r#"{"op": "ping"}"#);
        assert!(read_line(&mut conn).contains("pong"));
        let waited = t0.elapsed();
        assert!(waited < IDLE + Duration::from_secs(5), "waited {waited:?}");
        drop((stalled, conn));
        client::shutdown(&endpoint).unwrap();
        handle.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_queue_answers_busy_retryable_at_once() {
        let dir = tmp_dir("busy");
        let (endpoint, handle) = start_daemon(&dir, false);
        let held: Vec<_> = (0..2).map(|_| hold_handler(&endpoint)).collect();
        // Accepted in connect order: these fill the queue, the next is
        // turned away without its request ever being read.
        let queued: Vec<_> = (0..QUEUE_DEPTH).map(|_| connect(&endpoint)).collect();
        let t0 = Instant::now();
        let mut extra = connect(&endpoint);
        assert_eq!(
            read_line(&mut extra),
            r#"{"status": 1, "error": "busy", "retryable": true}"#
        );
        assert!(t0.elapsed() < IDLE, "a full queue must answer at once");
        assert_eq!(read_line(&mut extra), "", "the connection must be closed");
        drop((held, queued));
        // The handlers empty the queue only after noticing the hang-ups; a
        // shutdown sent before that is itself turned away as busy.
        let admitted = (0..200).any(|_| {
            let ack = client::shutdown(&endpoint).unwrap_or_default();
            ack.contains("draining") || {
                std::thread::sleep(Duration::from_millis(10));
                false
            }
        });
        assert!(admitted, "the daemon never admitted the shutdown");
        assert_eq!(handle.join().unwrap().unwrap().requests, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// 8 clients (4x the handlers) each submit their own fresh specs
    /// interleaved with repeats of them: half on one pipelined connection,
    /// half on a connection per request. Every reply must match a
    /// sequential reference byte for byte.
    #[test]
    fn concurrent_clients_get_the_sequential_replies() {
        const CLIENTS: usize = 8;
        // (spec, fresh or repeat) per request, for every client.
        const ORDER: [usize; 6] = [0, 1, 0, 2, 1, 2];
        let requests: Vec<Vec<String>> = (0..CLIENTS)
            .map(|c| {
                ORDER
                    .iter()
                    .map(|&k| {
                        let text = scenario_text(&format!("bat-{c}-{k}"), (100 + 3 * c + k) as u64);
                        client::submit_line(&format!("c{c}-{k}"), &Json::parse(&text).unwrap())
                    })
                    .collect()
            })
            .collect();

        let dir = tmp_dir("battery-ref");
        let (endpoint, handle) = start_daemon(&dir, false);
        let reference: Vec<Vec<String>> = requests
            .iter()
            .map(|lines| {
                let replies: Vec<String> = lines
                    .iter()
                    .flat_map(|l| client::request(&endpoint, l).unwrap())
                    .collect();
                replies
            })
            .collect();
        client::shutdown(&endpoint).unwrap();
        handle.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        let dir = tmp_dir("battery");
        let (endpoint, handle) = start_daemon(&dir, false);
        let replies: Vec<Vec<String>> = std::thread::scope(|s| {
            let clients: Vec<_> = requests
                .iter()
                .enumerate()
                .map(|(c, lines)| {
                    let endpoint = &endpoint;
                    s.spawn(move || {
                        if c % 2 == 0 {
                            let mut conn = connect(endpoint);
                            send(&mut conn, &lines.join("\n"));
                            lines.iter().map(|_| read_line(&mut conn)).collect()
                        } else {
                            lines
                                .iter()
                                .flat_map(|l| client::request(endpoint, l).unwrap())
                                .collect()
                        }
                    })
                })
                .collect();
            clients.into_iter().map(|h| h.join().unwrap()).collect()
        });
        client::shutdown(&endpoint).unwrap();
        let summary = handle.join().unwrap().unwrap();
        for (c, (got, want)) in replies.iter().zip(&reference).enumerate() {
            assert_eq!(got, want, "client {c}");
        }
        let n = (CLIENTS * ORDER.len()) as u64;
        assert_eq!(
            summary,
            ServeSummary {
                requests: n,
                computed: n / 2,
                cache_hits: n / 2,
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
