//! The `staub serve` daemon: listeners, admission control, and the one
//! answer path of `solve` and session `check` (answer store → scheduler).
//!
//! The server speaks the newline-delimited JSON protocol of
//! [`crate::protocol`] over any [`Endpoint`] (TCP and, on Unix, a Unix
//! domain socket). Connections are served by the [`crate::reactor`]
//! driver: the epoll reactor on Linux, where idle connections cost a slab
//! entry, not a thread, and requests execute on a fixed worker pool; a
//! blocking thread-per-connection driver elsewhere. Each `solve` and each
//! session `check` passes through an admission gate bounding concurrent
//! scheduler work, then through the [`AnswerStore`] (the in-memory LRU,
//! or the crash-persistent snapshot+log store when
//! [`ServerConfig::persist`] is set), and only on a miss runs the
//! scheduler: [`run_one_with`] for `solve`, and for `check` the same
//! scheduler through the session's [`Session`], whose warm engine serves
//! its escalation ladder. Both build their reply from the scheduler's
//! report the same way; they differ only in where the script comes from.
//!
//! # Drain
//!
//! Accept paths are nonblocking and poll the shutdown flag
//! ([`crate::signal`]), because glibc's `SA_RESTART` would otherwise
//! keep a blocking `accept` alive across SIGINT. On shutdown the server
//! stops accepting, lets in-flight requests finish and flush, closes
//! idle connections, joins every service thread, and only then lets
//! [`Server::join`] return — no request is abandoned mid-solve.
//!
//! # Cached-answer soundness
//!
//! A store hit never trusts the stored bytes blindly: `sat` entries are
//! rebound onto the requester's own symbols through the canonical
//! variable table and **re-verified by exact evaluation** of every
//! assertion before being served; any failure (index out of range, sort
//! mismatch surfacing as an eval error, stale or corrupt entry — even
//! one replayed from a damaged persistence log) silently degrades to a
//! miss and the scheduler runs. `unsat` entries are verdict-only and
//! derive either from exact lanes or from certified complete lanes (the
//! scheduler promotes a bounded-unsat only when its a-priori bound
//! certificate passes the independent `L4xx` lints), so replaying the
//! verdict for a canonically identical constraint is sound by
//! construction.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use staub_core::{
    run_one_with, BatchConfig, BatchReport, BatchVerdict, Metrics, RunOptions, Session, StaubError,
};
use staub_smtlib::{canonicalize, evaluate, Canonical, Model, Script, Value};

use crate::cache::{AnswerCache, AnswerStore, CacheConfig, CachedVerdict};
use crate::endpoint::Endpoint;
use crate::persist::{PersistConfig, PersistentStore};
use crate::protocol::{self, codes, Request, SolveReply, SolveRequest};
use crate::reactor::{self, ReactorConfig, ReactorGauges};
use crate::signal;

/// How a server instance listens, solves, caches, and persists.
/// Construct with [`ServerConfig::new`] and chain the builder methods;
/// every field is also public for direct struct updates.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// TCP endpoint to bind (port `0` for ephemeral).
    pub tcp: Endpoint,
    /// Optional additional Unix-socket endpoint (Unix only).
    pub unix: Option<std::path::PathBuf>,
    /// Scheduler configuration for store misses. Per-request
    /// `timeout_ms` and `steps` overrides are clamped to these values —
    /// a client can ask for less work than the server default, never
    /// more.
    pub batch: BatchConfig,
    /// Answer-store tuning; `None` disables caching entirely.
    pub cache: Option<CacheConfig>,
    /// When set (and `cache` is on), back the store with the
    /// crash-persistent snapshot + append-only log in this directory.
    pub persist: Option<PersistConfig>,
    /// Maximum `solve` requests running lanes at once.
    pub max_inflight: usize,
    /// Maximum `solve` requests queued behind the inflight limit before
    /// the server answers `overloaded` instead of blocking.
    pub max_waiting: usize,
    /// Request-line size cap in bytes (satellite of the parser depth cap).
    pub max_line_bytes: usize,
    /// Reactor worker threads (the fixed pool that executes requests).
    pub workers: usize,
    /// This node's name in protocol-v3 `route` hop lists. Defaults to
    /// `serve:<bound-address>`.
    pub node_name: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            tcp: Endpoint::Tcp("127.0.0.1:0".to_string()),
            unix: None,
            batch: BatchConfig::default(),
            cache: Some(CacheConfig::default()),
            persist: None,
            max_inflight: 4,
            max_waiting: 64,
            max_line_bytes: protocol::DEFAULT_MAX_LINE_BYTES,
            workers: 4,
            node_name: None,
        }
    }
}

impl ServerConfig {
    /// The default configuration: ephemeral loopback TCP, in-memory
    /// cache.
    pub fn new() -> ServerConfig {
        ServerConfig::default()
    }

    /// Sets the TCP listening endpoint.
    #[must_use]
    pub fn tcp(mut self, endpoint: Endpoint) -> ServerConfig {
        self.tcp = endpoint;
        self
    }

    /// Adds a Unix-socket listener.
    #[must_use]
    pub fn unix(mut self, path: impl Into<std::path::PathBuf>) -> ServerConfig {
        self.unix = Some(path.into());
        self
    }

    /// Sets the scheduler configuration used on store misses.
    #[must_use]
    pub fn batch(mut self, batch: BatchConfig) -> ServerConfig {
        self.batch = batch;
        self
    }

    /// Sets (or with `None` disables) the answer store.
    #[must_use]
    pub fn cache(mut self, cache: Option<CacheConfig>) -> ServerConfig {
        self.cache = cache;
        self
    }

    /// Backs the answer store with the persistent snapshot + log.
    #[must_use]
    pub fn persist(mut self, persist: PersistConfig) -> ServerConfig {
        self.persist = Some(persist);
        self
    }

    /// Sets the admission-gate budgets.
    #[must_use]
    pub fn admission(mut self, max_inflight: usize, max_waiting: usize) -> ServerConfig {
        self.max_inflight = max_inflight;
        self.max_waiting = max_waiting;
        self
    }

    /// Sets the request-line byte cap.
    #[must_use]
    pub fn max_line_bytes(mut self, bytes: usize) -> ServerConfig {
        self.max_line_bytes = bytes;
        self
    }

    /// Sets the reactor worker-pool size.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> ServerConfig {
        self.workers = workers.max(1);
        self
    }

    /// Overrides this node's name in v3 `route` hop lists.
    #[must_use]
    pub fn node_name(mut self, name: impl Into<String>) -> ServerConfig {
        self.node_name = Some(name.into());
        self
    }
}

/// Bounded-queue admission control for `solve` requests.
///
/// `acquire` admits up to `max_inflight` concurrent holders; up to
/// `max_waiting` more block on a condvar (woken in no particular order —
/// fairness is not needed, boundedness is). Anything beyond that is
/// refused immediately so the client gets an `overloaded` reply instead
/// of unbounded queueing.
struct AdmissionGate {
    state: Mutex<(usize, usize)>, // (active, waiting)
    cv: Condvar,
    max_inflight: usize,
    max_waiting: usize,
}

/// Why `acquire` did not grant a slot.
enum Refused {
    /// Both the inflight and waiting budgets are full.
    Overloaded,
    /// The server began draining while this request waited.
    ShuttingDown,
}

impl AdmissionGate {
    fn new(max_inflight: usize, max_waiting: usize) -> AdmissionGate {
        AdmissionGate {
            state: Mutex::new((0, 0)),
            cv: Condvar::new(),
            max_inflight: max_inflight.max(1),
            max_waiting,
        }
    }

    fn acquire(&self, shutting_down: impl Fn() -> bool) -> Result<(), Refused> {
        let mut s = self.state.lock().expect("gate poisoned");
        if s.0 < self.max_inflight {
            s.0 += 1;
            return Ok(());
        }
        if s.1 >= self.max_waiting {
            return Err(Refused::Overloaded);
        }
        s.1 += 1;
        loop {
            if shutting_down() {
                s.1 -= 1;
                return Err(Refused::ShuttingDown);
            }
            if s.0 < self.max_inflight {
                s.1 -= 1;
                s.0 += 1;
                return Ok(());
            }
            let (next, _) = self
                .cv
                .wait_timeout(s, Duration::from_millis(50))
                .expect("gate poisoned");
            s = next;
        }
    }

    fn release(&self) {
        let mut s = self.state.lock().expect("gate poisoned");
        s.0 -= 1;
        drop(s);
        self.cv.notify_one();
    }

    fn active(&self) -> usize {
        self.state.lock().expect("gate poisoned").0
    }

    /// Current (inflight, waiting), for the v3 `overloaded` reply.
    fn occupancy(&self) -> (usize, usize) {
        let s = self.state.lock().expect("gate poisoned");
        (s.0, s.1)
    }
}

/// State shared by the accept paths and every request executor.
struct Inner {
    config: ServerConfig,
    store: Option<Arc<dyn AnswerStore>>,
    metrics: Arc<Metrics>,
    gate: AdmissionGate,
    gauges: Arc<ReactorGauges>,
    node: String,
    started: Instant,
    local_shutdown: AtomicBool,
    connections: AtomicU64,
    requests: AtomicU64,
}

impl Inner {
    fn shutting_down(&self) -> bool {
        self.local_shutdown.load(Ordering::SeqCst) || signal::shutdown_requested()
    }
}

/// The reactor-facing protocol adapter: one [`Inner`] behind the
/// [`reactor::Service`] trait.
struct ServeService {
    inner: Arc<Inner>,
}

impl reactor::Service for ServeService {
    type Conn = SessionTable;

    fn handle(&self, sessions: &mut SessionTable, line: &str) -> (String, bool) {
        self.inner.requests.fetch_add(1, Ordering::Relaxed);
        self.inner.metrics.incr("serve.requests", 1);
        handle_line(&self.inner, sessions, line)
    }

    fn oversized(&self, observed: usize) -> String {
        self.inner.metrics.incr("serve.errors", 1);
        protocol::oversized_reply(1, self.inner.config.max_line_bytes, observed)
    }

    fn bad_utf8(&self) -> String {
        self.inner.metrics.incr("serve.errors", 1);
        protocol::error_reply(1, None, codes::BAD_JSON, "request line is not UTF-8")
    }

    fn shutting_down(&self) -> bool {
        self.inner.shutting_down()
    }

    fn connected(&self) {
        self.inner.connections.fetch_add(1, Ordering::Relaxed);
        self.inner.metrics.incr("serve.connections", 1);
    }
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`Server::shutdown`] then [`Server::join`] (or deliver SIGINT).
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    driver: JoinHandle<()>,
}

impl Server {
    /// Binds the listeners, warm-starts the answer store, and starts the
    /// connection driver.
    ///
    /// # Errors
    ///
    /// Propagates bind failures and persistent-store I/O failures.
    pub fn launch(config: ServerConfig) -> io::Result<Server> {
        let tcp_listener = config.tcp.bind()?;
        let addr = tcp_listener
            .tcp_addr()
            .ok_or_else(|| io::Error::other("primary endpoint must be TCP"))?;

        let mut listeners = vec![tcp_listener];
        if let Some(path) = &config.unix {
            listeners.push(Endpoint::unix(path.clone()).bind()?);
        }

        let store: Option<Arc<dyn AnswerStore>> = match (&config.cache, &config.persist) {
            (None, _) => None,
            (Some(cache), None) => Some(Arc::new(AnswerCache::new(cache))),
            (Some(cache), Some(persist)) => Some(Arc::new(PersistentStore::open(cache, persist)?)),
        };

        let node = config
            .node_name
            .clone()
            .unwrap_or_else(|| format!("serve:{addr}"));
        let inner = Arc::new(Inner {
            gate: AdmissionGate::new(config.max_inflight, config.max_waiting),
            store,
            metrics: Arc::new(Metrics::new()),
            gauges: Arc::new(ReactorGauges::default()),
            node,
            started: Instant::now(),
            local_shutdown: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            config,
        });

        let service = Arc::new(ServeService {
            inner: Arc::clone(&inner),
        });
        let gauges = Arc::clone(&inner.gauges);
        let reactor_config = ReactorConfig {
            workers: inner.config.workers.max(1),
            max_line_bytes: inner.config.max_line_bytes,
        };
        let driver = std::thread::Builder::new()
            .name("staub-reactor".into())
            .spawn(move || {
                let _ = reactor::run(&service, listeners, &gauges, &reactor_config);
            })?;

        Ok(Server {
            inner,
            addr,
            driver,
        })
    }

    /// The bound TCP address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begins a graceful drain (same effect as SIGINT).
    pub fn shutdown(&self) {
        self.inner.local_shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for the drain to complete: service threads exited, every
    /// connection closed.
    pub fn join(self) -> DrainSummary {
        let _ = self.driver.join();
        DrainSummary {
            connections: self.inner.connections.load(Ordering::Relaxed),
            requests: self.inner.requests.load(Ordering::Relaxed),
            uptime: self.inner.started.elapsed(),
        }
    }

    /// Point-in-time health JSON, as served to `staub client --health`
    /// (exposed for tests and the drain banner).
    pub fn health_json(&self) -> String {
        health_reply(&self.inner, 1, None)
    }
}

/// What a drained server reports on the way out.
#[derive(Debug, Clone, Copy)]
pub struct DrainSummary {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Requests handled over the server's lifetime.
    pub requests: u64,
    /// Total time the server was up.
    pub uptime: Duration,
}

/// Open sessions of one connection. Session state is
/// connection-scoped: a dropped connection drops its solver state, so a
/// crashed client cannot leak warm engines.
#[derive(Default)]
pub(crate) struct SessionTable {
    next: u64,
    open: Vec<(String, Session)>,
}

/// Cap on concurrently open sessions per connection — each one holds a
/// warm solver engine, so the bound is a memory bound.
const MAX_SESSIONS_PER_CONN: usize = 8;

impl SessionTable {
    fn get_mut(&mut self, name: &str) -> Option<&mut Session> {
        self.open
            .iter_mut()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }

    fn close(&mut self, name: &str) -> bool {
        let before = self.open.len();
        self.open.retain(|(n, _)| n != name);
        self.open.len() < before
    }
}

/// Dispatches one request line. Returns the reply and whether the
/// connection stays open.
fn handle_line(inner: &Arc<Inner>, sessions: &mut SessionTable, line: &str) -> (String, bool) {
    // Gate-protected work (one `solve` or session `check`), shared by both
    // request shapes: refuse while draining, admit through the bounded
    // queue, release on the way out.
    fn gated(
        inner: &Arc<Inner>,
        id: Option<&str>,
        v: u32,
        work: impl FnOnce() -> String,
    ) -> (String, bool) {
        if inner.shutting_down() {
            inner.metrics.incr("serve.errors", 1);
            return (
                protocol::error_reply(v, id, codes::SHUTTING_DOWN, "server is draining"),
                false,
            );
        }
        match inner.gate.acquire(|| inner.shutting_down()) {
            Err(Refused::Overloaded) => {
                inner.metrics.incr("serve.overloaded", 1);
                let (inflight, waiting) = inner.gate.occupancy();
                (protocol::overloaded_reply(v, id, inflight, waiting), true)
            }
            Err(Refused::ShuttingDown) => (
                protocol::error_reply(v, id, codes::SHUTTING_DOWN, "server is draining"),
                false,
            ),
            Ok(()) => {
                let reply = work();
                inner.gate.release();
                (reply, true)
            }
        }
    }

    let (v, request) = match protocol::parse_request(line) {
        Err(err) => {
            inner.metrics.incr("serve.errors", 1);
            return protocol::malformed_reply(&err);
        }
        Ok(parsed) => parsed,
    };
    match request {
        Request::Health { id } => (health_reply(inner, v, id.as_deref()), true),
        Request::Shutdown { id } => {
            inner.local_shutdown.store(true, Ordering::SeqCst);
            (protocol::shutdown_reply(v, id.as_deref()), false)
        }
        Request::Solve(req) => {
            if let Some(refusal) = protocol::routing_loop_reply(v, &req, &inner.node) {
                inner.metrics.incr("serve.errors", 1);
                return (refusal, true);
            }
            gated(inner, req.id.as_deref(), v, || solve_one(inner, v, &req))
        }
        Request::SessionOpen {
            id,
            timeout_ms,
            steps,
        } => (
            open_session(inner, sessions, id.as_deref(), timeout_ms, steps),
            true,
        ),
        Request::SessionAssert {
            id,
            session,
            constraint,
        } => {
            let reply = match sessions.get_mut(&session) {
                None => unknown_session(inner, id.as_deref(), &session),
                Some(open) => match open.assert_text(&constraint) {
                    Ok(()) => {
                        inner.metrics.incr("serve.session.asserts", 1);
                        protocol::session_reply(
                            2,
                            id.as_deref(),
                            &session,
                            &format!("\"level\":{}", open.assertion_level()),
                        )
                    }
                    Err(e) => {
                        inner.metrics.incr("serve.errors", 1);
                        protocol::error_reply(2, id.as_deref(), codes::PARSE_ERROR, &e.to_string())
                    }
                },
            };
            (reply, true)
        }
        Request::SessionCheck {
            id,
            session,
            no_cache,
        } => {
            if sessions.get_mut(&session).is_none() {
                return (unknown_session(inner, id.as_deref(), &session), true);
            }
            gated(inner, id.as_deref(), v, || {
                let open = sessions
                    .get_mut(&session)
                    .expect("session checked above; single-threaded connection");
                check_session(inner, id.as_deref(), &session, open, no_cache)
            })
        }
        Request::SessionClose { id, session } => {
            let reply = if sessions.close(&session) {
                inner.metrics.incr("serve.session.closed", 1);
                protocol::session_reply(2, id.as_deref(), &session, "\"closed\":true")
            } else {
                unknown_session(inner, id.as_deref(), &session)
            };
            (reply, true)
        }
    }
}

fn unknown_session(inner: &Arc<Inner>, id: Option<&str>, session: &str) -> String {
    inner.metrics.incr("serve.errors", 1);
    protocol::error_reply(
        2,
        id,
        codes::UNKNOWN_SESSION,
        &format!("no open session `{session}` on this connection"),
    )
}

// ---------------------------------------------------------------------------
// The answer path
// ---------------------------------------------------------------------------

/// Rebinds a cached canonical-index model onto the requester's symbols.
/// Returns `None` when an index has no counterpart (a stale or corrupt
/// entry) — the caller degrades to a miss.
fn rebind_model(canon: &Canonical, bindings: &[(usize, Value)]) -> Option<Model> {
    let mut model = Model::new();
    for (idx, value) in bindings {
        let sym = *canon.vars().get(*idx)?;
        model.insert(sym, value.clone());
    }
    Some(model)
}

/// Exact evaluation of every assertion under `model` (paper §4.4 applied
/// to cached answers: the model is only served if it still checks out).
fn model_satisfies(script: &Script, model: &Model) -> bool {
    script
        .assertions()
        .iter()
        .all(|&a| matches!(evaluate(script.store(), a, model), Ok(Value::Bool(true))))
}

fn named_bindings(script: &Script, model: &Model) -> Vec<(String, String)> {
    model
        .iter()
        .map(|(sym, value)| {
            (
                script.store().symbol_name(sym).to_string(),
                value.to_string(),
            )
        })
        .collect()
}

/// A verdict ready to reply with: its name, the `sat` bindings on the
/// requester's symbols, and the lane that decided it.
type Answer = (&'static str, Option<Vec<(String, String)>>, Option<String>);

/// Consults the answer store for a canonicalized script. `None` is a
/// miss — including an entry that failed re-verification, which is never
/// served (see the module docs on cached-answer soundness).
fn cache_lookup(inner: &Inner, canon: &Canonical, script: &Script) -> Option<Answer> {
    let store = inner.store.as_ref()?;
    match store.lookup(canon.fingerprint, &canon.key) {
        Some(CachedVerdict::Sat { model, winner }) => {
            if let Some(rebound) = rebind_model(canon, &model) {
                if model_satisfies(script, &rebound) {
                    inner.metrics.incr("serve.cache.hit", 1);
                    return Some(("sat", Some(named_bindings(script, &rebound)), winner));
                }
            }
            // Re-verification failed: never serve it, solve fresh.
            inner.metrics.incr("serve.cache.unsound_hit", 1);
            None
        }
        Some(CachedVerdict::Unsat { winner }) => {
            inner.metrics.incr("serve.cache.hit", 1);
            Some(("unsat", None, winner))
        }
        None => {
            inner.metrics.incr("serve.cache.miss", 1);
            None
        }
    }
}

/// Stores a fresh `sat` model or `unsat` verdict under the canonical
/// key (`unknown` is a budget artifact, never cached) and refreshes the
/// cache gauges.
fn cache_store(inner: &Inner, canon: &Canonical, verdict: &BatchVerdict, winner: &Option<String>) {
    let Some(store) = inner.store.as_ref() else {
        return;
    };
    let verdict = match verdict {
        BatchVerdict::Sat(model) => {
            // Index the model by canonical variable; symbols that do
            // not occur in any assertion have no canonical index and
            // are irrelevant to re-verification, so they are dropped.
            let indexed: Vec<(usize, Value)> = model
                .iter()
                .filter_map(|(sym, v)| canon.var_index(sym).map(|i| (i, v.clone())))
                .collect();
            CachedVerdict::Sat {
                model: indexed,
                winner: winner.clone(),
            }
        }
        BatchVerdict::Unsat => CachedVerdict::Unsat {
            winner: winner.clone(),
        },
        BatchVerdict::Unknown => return,
    };
    store.record(canon.fingerprint, &canon.key, verdict);
    let stats = store.stats();
    inner
        .metrics
        .gauge_set("serve.cache.entries", stats.entries as i64);
    inner
        .metrics
        .gauge_set("serve.cache.evictions", stats.evictions as i64);
}

/// The reply's v3 hop list: untouched when the request was not routed,
/// otherwise the request's hops plus this node.
fn reply_route(inner: &Inner, req: &SolveRequest) -> Vec<String> {
    if req.route.is_empty() {
        return Vec::new();
    }
    let mut route = req.route.clone();
    route.push(inner.node.clone());
    route
}

/// The server's scheduler configuration with a request's budget
/// overrides applied, each clamped to the configured maximum: a client
/// can ask for less work than the server default, never more.
fn clamped_batch(inner: &Inner, timeout_ms: Option<u64>, steps: Option<u64>) -> BatchConfig {
    let mut batch = inner.config.batch.clone();
    if let Some(ms) = timeout_ms {
        batch.timeout = batch.timeout.min(Duration::from_millis(ms));
    }
    if let Some(steps) = steps {
        batch.steps = batch.steps.min(steps.max(1));
    }
    batch
}

/// What the reply to a `solve` or session `check` takes from its request.
struct Asked<'a> {
    /// When the request started, for `wall_ms`.
    start: Instant,
    v: u32,
    id: Option<&'a str>,
    session: Option<&'a str>,
    route: Vec<String>,
    no_cache: bool,
}

/// The one answer path of `solve` and session `check`: canonicalize,
/// serve a store hit (a `sat` only after re-verification), otherwise run
/// `solve` (the scheduler), store its decided verdict, and build the reply
/// from its report. `solve` returns an error reply instead when it cannot
/// answer.
fn answer(
    inner: &Inner,
    asked: Asked<'_>,
    script: &Script,
    solve: impl FnOnce() -> Result<BatchReport, String>,
) -> String {
    let canon = canonicalize(script);
    let use_cache = inner.store.is_some() && !asked.no_cache;
    let hit = if use_cache {
        cache_lookup(inner, &canon, script)
    } else {
        None
    };
    let (cache, (verdict, model, winner), provenance, stats_json) = match hit {
        Some(answer) => ("hit", answer, None, None),
        None => {
            let report = match solve() {
                Ok(report) => report,
                Err(reply) => return reply,
            };
            let winner = report.winner_lane().map(|l| l.spec.label());
            if use_cache {
                cache_store(inner, &canon, &report.verdict, &winner);
            }
            let (verdict, model) = match &report.verdict {
                BatchVerdict::Sat(model) => ("sat", Some(named_bindings(script, model))),
                BatchVerdict::Unsat => ("unsat", None),
                BatchVerdict::Unknown => ("unknown", None),
            };
            let cache = if use_cache { "miss" } else { "off" };
            let answer = (verdict, model, winner);
            (
                cache,
                answer,
                report.provenance(),
                Some(report.stats_json()),
            )
        }
    };
    SolveReply {
        v: asked.v,
        id: asked.id.map(str::to_string),
        session: asked.session.map(str::to_string),
        verdict,
        model,
        winner,
        provenance,
        cache,
        fingerprint: canon.fingerprint_hex(),
        wall_ms: asked.start.elapsed().as_secs_f64() * 1e3,
        stats_json,
        route: asked.route,
    }
    .to_json()
}

fn solve_one(inner: &Arc<Inner>, v: u32, req: &SolveRequest) -> String {
    let start = Instant::now();
    let id = req.id.as_deref();

    let script = match Script::parse(&req.constraint) {
        Ok(s) => s,
        Err(e) => {
            inner.metrics.incr("serve.errors", 1);
            return protocol::error_reply(v, id, codes::PARSE_ERROR, &e.to_string());
        }
    };
    if script.assertions().is_empty() {
        inner.metrics.incr("serve.errors", 1);
        return protocol::error_reply(v, id, codes::EMPTY_SCRIPT, "constraint asserts nothing");
    }

    let asked = Asked {
        start,
        v,
        id,
        session: None,
        route: reply_route(inner, req),
        no_cache: req.no_cache,
    };
    answer(inner, asked, &script, || {
        let batch = clamped_batch(inner, req.timeout_ms, req.steps);
        let name = req.id.clone().unwrap_or_else(|| "request".to_string());
        let options = RunOptions {
            metrics: Some(Arc::clone(&inner.metrics)),
        };
        Ok(inner.metrics.time("serve.solve", || {
            run_one_with(&name, &script, &batch, &options)
        }))
    })
}

// ---------------------------------------------------------------------------
// Incremental sessions (protocol v2)
// ---------------------------------------------------------------------------

fn open_session(
    inner: &Arc<Inner>,
    sessions: &mut SessionTable,
    id: Option<&str>,
    timeout_ms: Option<u64>,
    steps: Option<u64>,
) -> String {
    if sessions.open.len() >= MAX_SESSIONS_PER_CONN {
        inner.metrics.incr("serve.errors", 1);
        return protocol::error_reply(
            2,
            id,
            codes::BAD_REQUEST,
            &format!("session limit ({MAX_SESSIONS_PER_CONN}) reached on this connection"),
        );
    }
    // Per-check budgets are fixed at open time.
    let batch = clamped_batch(inner, timeout_ms, steps);
    let session = Session::new(batch).with_metrics(Arc::clone(&inner.metrics));
    sessions.next += 1;
    let name = format!("s{}", sessions.next);
    sessions.open.push((name.clone(), session));
    inner.metrics.incr("serve.session.opened", 1);
    protocol::session_reply(2, id, &name, "")
}

fn check_session(
    inner: &Arc<Inner>,
    id: Option<&str>,
    name: &str,
    session: &mut Session,
    no_cache: bool,
) -> String {
    let start = Instant::now();
    let Some(script) = session.script().cloned() else {
        inner.metrics.incr("serve.errors", 1);
        return protocol::error_reply(2, id, codes::EMPTY_SCRIPT, "session has no assertions");
    };
    if script.assertions().is_empty() {
        inner.metrics.incr("serve.errors", 1);
        return protocol::error_reply(2, id, codes::EMPTY_SCRIPT, "session asserts nothing");
    }

    let asked = Asked {
        start,
        v: 2,
        id,
        session: Some(name),
        route: Vec::new(),
        no_cache,
    };
    answer(inner, asked, &script, || {
        inner.metrics.incr("serve.session.checks", 1);
        inner
            .metrics
            .time("serve.solve", || session.check())
            .map_err(|StaubError::EmptyScript| {
                inner.metrics.incr("serve.errors", 1);
                protocol::error_reply(2, id, codes::EMPTY_SCRIPT, "session asserts nothing")
            })
    })
}

// ---------------------------------------------------------------------------
// Health
// ---------------------------------------------------------------------------

fn health_reply(inner: &Arc<Inner>, v: u32, id: Option<&str>) -> String {
    let mut out = String::with_capacity(512);
    out.push('{');
    out.push_str(&format!("\"v\":{v},"));
    out.push_str("\"id\":");
    match id {
        Some(id) => crate::json::push_str_lit(&mut out, id),
        None => out.push_str("null"),
    }
    out.push_str(",\"status\":\"ok\",\"version\":");
    crate::json::push_str_lit(&mut out, env!("CARGO_PKG_VERSION"));
    out.push_str(",\"profile\":");
    crate::json::push_str_lit(
        &mut out,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    out.push_str(",\"node\":");
    crate::json::push_str_lit(&mut out, &inner.node);
    out.push_str(&format!(
        ",\"uptime_ms\":{:.0},\"inflight\":{},\"connections\":{},\"requests\":{},\"draining\":{}",
        inner.started.elapsed().as_secs_f64() * 1e3,
        inner.gate.active(),
        inner.connections.load(Ordering::Relaxed),
        inner.requests.load(Ordering::Relaxed),
        inner.shutting_down(),
    ));
    out.push_str(&format!(
        ",\"reactor\":{{\"enabled\":{},\"workers\":{},\"open_connections\":{},\"busy\":{}}}",
        cfg!(target_os = "linux"),
        inner.gauges.workers.load(Ordering::Relaxed),
        inner.gauges.open_connections.load(Ordering::Relaxed),
        inner.gauges.busy.load(Ordering::Relaxed),
    ));
    out.push_str(",\"cache\":");
    match &inner.store {
        None => out.push_str("null"),
        Some(store) => {
            let s = store.stats();
            out.push_str(&format!(
                "{{\"hits\":{},\"misses\":{},\"insertions\":{},\"evictions\":{},\"entries\":{}}}",
                s.hits, s.misses, s.insertions, s.evictions, s.entries
            ));
        }
    }
    out.push_str(",\"persist\":");
    match inner.store.as_ref().and_then(|s| s.persist_status()) {
        None => out.push_str("null"),
        Some(p) => out.push_str(&format!(
            "{{\"snapshot_entries\":{},\"log_records\":{},\"log_bytes\":{},\
             \"replayed\":{},\"rejected\":{},\"skipped\":{},\"snapshot_age_ms\":{}}}",
            p.snapshot_entries,
            p.log_records,
            p.log_bytes,
            p.replayed,
            p.rejected,
            p.skipped,
            p.snapshot_age_ms
        )),
    }
    out.push_str(",\"metrics\":");
    out.push_str(&inner.metrics.snapshot().to_json());
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn tiny_config() -> ServerConfig {
        ServerConfig::new().batch(BatchConfig {
            threads: 2,
            steps: 200_000,
            ..BatchConfig::default()
        })
    }

    fn solve_req(constraint: &str, id: Option<&str>) -> SolveRequest {
        SolveRequest {
            id: id.map(str::to_string),
            constraint: constraint.to_string(),
            timeout_ms: None,
            steps: None,
            no_cache: false,
            route: Vec::new(),
        }
    }

    #[test]
    fn gate_admits_up_to_inflight_then_overloads() {
        let gate = AdmissionGate::new(2, 0);
        assert!(gate.acquire(|| false).is_ok());
        assert!(gate.acquire(|| false).is_ok());
        assert!(matches!(gate.acquire(|| false), Err(Refused::Overloaded)));
        gate.release();
        assert!(gate.acquire(|| false).is_ok());
        assert_eq!(gate.active(), 2);
        assert_eq!(gate.occupancy(), (2, 0));
    }

    #[test]
    fn gate_waiter_bails_on_shutdown() {
        let gate = AdmissionGate::new(1, 4);
        assert!(gate.acquire(|| false).is_ok());
        assert!(matches!(gate.acquire(|| true), Err(Refused::ShuttingDown)));
    }

    #[test]
    fn solve_and_check_answers_share_the_cache() {
        let server = Server::launch(tiny_config()).expect("bind loopback");
        let inner = Arc::clone(&server.inner);
        let mut sessions = SessionTable::default();
        // Opens a session holding `constraint` and checks it through the
        // answer path (the gate in `handle_line` is not under test).
        let check = |sessions: &mut SessionTable, constraint: &str, no_cache: bool| {
            let (open, _) = handle_line(&inner, sessions, r#"{"op":"session_open","v":2}"#);
            let parsed = crate::json::parse(&open).unwrap();
            let name = parsed.get("session").and_then(Json::as_str).unwrap();
            let session = sessions.get_mut(name).unwrap();
            session.assert_text(constraint).unwrap();
            check_session(&inner, Some("c"), name, session, no_cache)
        };

        // Uncached, both kinds run the same lanes: a difference-logic
        // chain whose baseline is incomplete is decided by the DL lane.
        let dl_strict = "(declare-fun x0 () Int)(declare-fun x1 () Int)\
                         (declare-fun x2 () Int)(declare-fun x3 () Int)\
                         (declare-fun x4 () Int)\
                         (assert (< x0 x1))(assert (> x2 x1))(assert (< x2 x3))\
                         (assert (> x4 x3))(assert (<= (- x4 x0) 1))";
        let uncached = SolveRequest {
            no_cache: true,
            ..solve_req(dl_strict, Some("s"))
        };
        for reply in [
            check(&mut sessions, dl_strict, true),
            solve_one(&inner, 1, &uncached),
        ] {
            let parsed = crate::json::parse(&reply).unwrap();
            assert_eq!(parsed.get("verdict").and_then(Json::as_str), Some("unsat"));
            assert_eq!(parsed.get("winner").and_then(Json::as_str), Some("dl/zed"));
            assert_eq!(parsed.get("cache").and_then(Json::as_str), Some("off"));
        }

        // A `solve` answer serves an α-renamed session `check`...
        let req = solve_req(
            "(declare-fun x () Int)(assert (= (* x x) 49))(check-sat)",
            Some("s"),
        );
        let solved = solve_one(&inner, 1, &req);
        assert!(solved.contains("\"cache\":\"miss\""), "{solved}");
        let checked = check(
            &mut sessions,
            "(declare-fun y () Int)(assert (= 49 (* y y)))",
            false,
        );
        assert!(checked.contains("\"cache\":\"hit\""), "{checked}");
        assert!(checked.contains("\"model\":{\"y\":"), "{checked}");

        // ...and a `check` answer serves a later α-renamed `solve`.
        let checked = check(
            &mut sessions,
            "(declare-fun p () Int)(assert (> p 5))(assert (< p 9))",
            false,
        );
        assert!(checked.contains("\"cache\":\"miss\""), "{checked}");
        assert!(checked.contains("\"verdict\":\"sat\""), "{checked}");
        let req = solve_req(
            "(declare-fun z () Int)(assert (< z 9))(assert (> z 5))(check-sat)",
            Some("s"),
        );
        let solved = solve_one(&inner, 1, &req);
        assert!(solved.contains("\"cache\":\"hit\""), "{solved}");
        assert!(solved.contains("\"model\":{\"z\":"), "{solved}");

        let stats = inner.store.as_ref().unwrap().stats();
        assert_eq!((stats.hits, stats.misses), (2, 2));
        server.shutdown();
        server.join();
    }

    #[test]
    fn reply_kinds_keep_their_keys_and_version() {
        let server = Server::launch(tiny_config()).expect("bind loopback");
        let inner = Arc::clone(&server.inner);
        let constraint = "(declare-fun x () Int)(assert (> x 2))(check-sat)";
        let solve_miss = solve_one(&inner, 3, &solve_req(constraint, Some("m")));
        let solve_hit = solve_one(&inner, 3, &solve_req(constraint, Some("h")));
        let mut sessions = SessionTable::default();
        let _ = handle_line(&inner, &mut sessions, r#"{"op":"session_open","v":2}"#);
        let session = sessions.get_mut("s1").unwrap();
        session
            .assert_text("(declare-fun y () Int)(assert (< y 0))")
            .unwrap();
        let check_miss = check_session(&inner, Some("m"), "s1", session, false);
        let check_hit = check_session(&inner, Some("h"), "s1", session, false);

        const SOLVE: &[&str] = &[
            "cache",
            "fingerprint",
            "id",
            "model",
            "provenance",
            "stats",
            "status",
            "v",
            "verdict",
            "wall_ms",
            "winner",
        ];
        const CHECK: &[&str] = &[
            "cache",
            "fingerprint",
            "id",
            "model",
            "provenance",
            "session",
            "stats",
            "status",
            "v",
            "verdict",
            "wall_ms",
            "winner",
        ];
        // (reply, keys, v, cache, provenance present, stats present)
        let kinds = [
            (&solve_miss, SOLVE, 3, "miss", true, true),
            (&solve_hit, SOLVE, 3, "hit", false, false),
            (&check_miss, CHECK, 2, "miss", true, true),
            (&check_hit, CHECK, 2, "hit", false, false),
        ];
        for (reply, keys, v, cache, provenance, stats) in kinds {
            let Json::Obj(fields) = crate::json::parse(reply).unwrap() else {
                panic!("not an object: {reply}");
            };
            assert_eq!(fields.keys().collect::<Vec<_>>(), keys, "{reply}");
            assert_eq!(fields["v"].as_u64(), Some(v), "{reply}");
            assert_eq!(fields["cache"].as_str(), Some(cache), "{reply}");
            assert_eq!(fields["provenance"] != Json::Null, provenance, "{reply}");
            assert_eq!(fields["stats"] != Json::Null, stats, "{reply}");
        }
        server.shutdown();
        server.join();
    }

    #[test]
    fn solve_path_answers_and_caches() {
        let server = Server::launch(tiny_config()).expect("bind loopback");
        let inner = Arc::clone(&server.inner);
        let req = solve_req(
            "(declare-fun x () Int)(assert (= (* x x) 49))(check-sat)",
            Some("t1"),
        );
        let first = solve_one(&inner, 1, &req);
        assert!(first.contains("\"verdict\":\"sat\""), "{first}");
        assert!(first.contains("\"cache\":\"miss\""), "{first}");
        assert!(first.contains("\"v\":1"), "{first}");
        assert!(first.contains("\"provenance\":{"), "{first}");
        // α-renamed + commutatively flipped: must hit.
        let renamed = SolveRequest {
            constraint: "(declare-fun y () Int)(assert (= 49 (* y y)))(check-sat)".into(),
            ..req.clone()
        };
        let second = solve_one(&inner, 1, &renamed);
        assert!(second.contains("\"cache\":\"hit\""), "{second}");
        assert!(second.contains("\"verdict\":\"sat\""), "{second}");
        assert!(second.contains("\"model\":{\"y\":"), "{second}");
        let stats = inner.store.as_ref().unwrap().stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        server.shutdown();
        server.join();
    }

    #[test]
    fn dl_unsat_repeat_hits_the_cache_with_dl_provenance() {
        let server = Server::launch(tiny_config()).expect("bind loopback");
        let inner = Arc::clone(&server.inner);
        // A planted negative cycle: x − y ≤ 1 together with y − x < −1.
        let req = solve_req(
            "(declare-fun x () Int)(declare-fun y () Int)\
             (assert (<= (- x y) 1))(assert (< (- y x) (- 1)))\
             (check-sat)",
            Some("dl1"),
        );
        let first = solve_one(&inner, 1, &req);
        assert!(first.contains("\"verdict\":\"unsat\""), "{first}");
        assert!(first.contains("\"cache\":\"miss\""), "{first}");
        // Admission runs the DL lane first, on the request's thread, so it
        // decides the miss every time; the cache records that provenance.
        let winner = |reply: &str| {
            let parsed = crate::json::parse(reply).unwrap();
            let label = parsed.get("winner").and_then(crate::json::Json::as_str);
            label.map(str::to_string)
        };
        assert_eq!(winner(&first).as_deref(), Some("dl/zed"), "{first}");
        // The repeat is α-renamed, flips one comparison (`>=` vs `<=`),
        // and spells the strict Int bound in its tightened non-strict
        // form — all folded away by canonicalization, so the answer must
        // come from the cache, the miss's `dl/zed` provenance replayed
        // verbatim, with no lanes run (`stats:null` is only ever emitted on
        // the lane-free hit path).
        let renamed = SolveRequest {
            constraint: "(declare-fun a () Int)(declare-fun b () Int)\
                         (assert (>= 1 (- a b)))(assert (<= (- b a) (- 2)))\
                         (check-sat)"
                .into(),
            ..req.clone()
        };
        let second = solve_one(&inner, 1, &renamed);
        assert!(second.contains("\"cache\":\"hit\""), "{second}");
        assert!(second.contains("\"verdict\":\"unsat\""), "{second}");
        assert_eq!(winner(&second).as_deref(), Some("dl/zed"), "{second}");
        assert!(second.contains("\"stats\":null"), "{second}");
        let stats = inner.store.as_ref().unwrap().stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        server.shutdown();
        server.join();
    }

    #[test]
    fn no_cache_flag_bypasses_the_cache() {
        let server = Server::launch(tiny_config()).expect("bind loopback");
        let inner = Arc::clone(&server.inner);
        let req = SolveRequest {
            no_cache: true,
            ..solve_req("(declare-fun a () Int)(assert (> a 3))(check-sat)", None)
        };
        let one = solve_one(&inner, 1, &req);
        let two = solve_one(&inner, 1, &req);
        assert!(one.contains("\"cache\":\"off\""), "{one}");
        assert!(two.contains("\"cache\":\"off\""), "{two}");
        assert_eq!(inner.store.as_ref().unwrap().stats().insertions, 0);
        server.shutdown();
        server.join();
    }

    #[test]
    fn routed_solve_appends_this_node_and_refuses_loops() {
        let server = Server::launch(tiny_config().node_name("serve:test-node")).expect("bind");
        let inner = Arc::clone(&server.inner);
        let mut sessions = SessionTable::default();
        let line = r#"{"op":"solve","v":3,"constraint":"(declare-fun x () Int)(assert (> x 1))(check-sat)","route":["route:front"]}"#;
        let (reply, keep) = handle_line(&inner, &mut sessions, line);
        assert!(keep);
        assert!(
            reply.contains("\"route\":[\"route:front\",\"serve:test-node\"]"),
            "{reply}"
        );
        // The same request arriving with this node already in the hop
        // list is a loop: refused, connection stays up.
        let looped =
            r#"{"op":"solve","v":3,"constraint":"(assert true)","route":["serve:test-node"]}"#;
        let (reply, keep) = handle_line(&inner, &mut sessions, looped);
        assert!(keep);
        assert!(reply.contains("routing-loop"), "{reply}");
        server.shutdown();
        server.join();
    }

    #[test]
    fn health_reports_reactor_and_persist_blocks() {
        let dir = std::env::temp_dir().join(format!("staub-serve-health-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::launch(tiny_config().persist(PersistConfig::in_dir(&dir)))
            .expect("bind loopback");
        let health = server.health_json();
        let parsed = crate::json::parse(&health).unwrap();
        let reactor = parsed.get("reactor").expect("reactor block");
        assert_eq!(
            reactor.get("enabled").and_then(crate::json::Json::as_bool),
            Some(cfg!(target_os = "linux"))
        );
        let persist = parsed.get("persist").expect("persist block");
        assert_eq!(
            persist.get("replayed").and_then(crate::json::Json::as_u64),
            Some(0)
        );
        server.shutdown();
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn session_lifecycle_over_handle_line() {
        let server = Server::launch(tiny_config()).expect("bind loopback");
        let inner = Arc::clone(&server.inner);
        let mut sessions = SessionTable::default();

        let (open, keep) = handle_line(&inner, &mut sessions, r#"{"op":"session_open","v":2}"#);
        assert!(keep);
        assert!(open.contains("\"session\":\"s1\""), "{open}");

        let (reply, keep) = handle_line(
            &inner,
            &mut sessions,
            r#"{"op":"assert","v":2,"session":"s1","constraint":"(declare-fun x () Int)(assert (= (* x x) 49))"}"#,
        );
        assert!(keep);
        assert!(reply.contains("\"status\":\"ok\""), "{reply}");
        assert!(reply.contains("\"level\":0"), "{reply}");

        let (check1, _) = handle_line(
            &inner,
            &mut sessions,
            r#"{"op":"check","v":2,"session":"s1"}"#,
        );
        assert!(check1.contains("\"verdict\":\"sat\""), "{check1}");
        assert!(check1.contains("\"session\":\"s1\""), "{check1}");
        assert!(check1.contains("\"v\":2"), "{check1}");

        // A second check of the identical stack is a cache hit.
        let (check2, _) = handle_line(
            &inner,
            &mut sessions,
            r#"{"op":"check","v":2,"session":"s1"}"#,
        );
        assert!(check2.contains("\"cache\":\"hit\""), "{check2}");
        assert!(check2.contains("\"verdict\":\"sat\""), "{check2}");

        // Growing the stack changes the canonical constraint: miss, and
        // the warm engine solves the strictly stronger script.
        let (reply, _) = handle_line(
            &inner,
            &mut sessions,
            r#"{"op":"assert","v":2,"session":"s1","constraint":"(assert (> x 0))"}"#,
        );
        assert!(reply.contains("\"status\":\"ok\""), "{reply}");
        let (check3, _) = handle_line(
            &inner,
            &mut sessions,
            r#"{"op":"check","v":2,"session":"s1"}"#,
        );
        assert!(check3.contains("\"cache\":\"miss\""), "{check3}");
        assert!(check3.contains("\"verdict\":\"sat\""), "{check3}");
        assert!(check3.contains("\"model\":{\"x\":\"7\"}"), "{check3}");

        let (closed, _) = handle_line(
            &inner,
            &mut sessions,
            r#"{"op":"session_close","v":2,"session":"s1"}"#,
        );
        assert!(closed.contains("\"closed\":true"), "{closed}");
        let (gone, keep) = handle_line(
            &inner,
            &mut sessions,
            r#"{"op":"check","v":2,"session":"s1"}"#,
        );
        assert!(keep);
        assert!(gone.contains("unknown-session"), "{gone}");

        server.shutdown();
        server.join();
    }

    #[test]
    fn bad_session_requests_keep_the_connection_open() {
        let server = Server::launch(tiny_config()).expect("bind loopback");
        let inner = Arc::clone(&server.inner);
        let mut sessions = SessionTable::default();

        // Future version: refused with its own code, connection survives.
        let (reply, keep) = handle_line(&inner, &mut sessions, r#"{"op":"health","v":7}"#);
        assert!(keep);
        assert!(reply.contains("unsupported_version"), "{reply}");

        // Session command without v:2: structured error.
        let (reply, keep) = handle_line(&inner, &mut sessions, r#"{"op":"session_open"}"#);
        assert!(!keep, "v1 misuse of a v2 op is a framing error");
        assert!(reply.contains("session command"), "{reply}");

        // A parse error inside a session assert does not corrupt it.
        let (_, _) = handle_line(&inner, &mut sessions, r#"{"op":"session_open","v":2}"#);
        let (reply, keep) = handle_line(
            &inner,
            &mut sessions,
            r#"{"op":"assert","v":2,"session":"s1","constraint":"(assert (="}"#,
        );
        assert!(keep);
        assert!(reply.contains("parse-error"), "{reply}");
        let (reply, _) = handle_line(
            &inner,
            &mut sessions,
            r#"{"op":"assert","v":2,"session":"s1","constraint":"(declare-fun b () Int)(assert (> b 2))"}"#,
        );
        assert!(reply.contains("\"status\":\"ok\""), "{reply}");

        server.shutdown();
        server.join();
    }
}
