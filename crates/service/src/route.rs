//! The `staub route` front node: consistent-hash sharding of canonical
//! constraint fingerprints across backend `staub serve` processes.
//!
//! # Why shard by fingerprint
//!
//! The answer cache is keyed by the *canonical* form of a constraint, so
//! its hit rate depends on repeats landing on the node that saw the
//! first occurrence. A round-robin balancer splits α-renamed repeats
//! across backends and each one pays the solve; the router instead
//! parses and canonicalizes the constraint itself and hashes the
//! canonical fingerprint onto a consistent-hash ring, so every repeat of
//! a constraint — under any variable names — reaches the same backend
//! and its warm cache. The ring places [`RouteConfig::vnodes`] virtual
//! points per backend (FNV-1a of `"<endpoint>#<index>#<vnode>"`), which
//! keeps the load split even and means adding or removing one backend
//! remaps only `1/n` of the keyspace instead of reshuffling everything.
//!
//! # Protocol position
//!
//! The router is a protocol-v3 hop: it appends its node name to the
//! request's `route` list before forwarding, and the backend appends its
//! own to the reply, so a reply's `route` reads front-to-back (and a
//! request that somehow cycles back is refused with `routing-loop`
//! before any work happens). Backend replies are relayed to the client
//! verbatim — a v1 client sending through the router receives the
//! backend's v3-shaped reply, which is a superset of the v1 shape.
//! Session ops (`session_open` & co.) are refused: sessions are
//! connection-stateful by design, and the router's per-request dialing
//! cannot pin one client connection to one backend engine. Clients that
//! need sessions connect to a backend directly.
//!
//! # Failure handling
//!
//! A backend that fails to connect or mid-request is marked down for
//! [`RouteConfig::retry_cooldown`] and the request fails over to the
//! next *distinct* backend on the ring (deterministic order, so repeats
//! during an outage still co-locate). When every backend is down the
//! client gets a structured `no-backend` error rather than a hang.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use staub_smtlib::{canonicalize, Script};

use crate::client::Connection;
use crate::endpoint::Endpoint;
use crate::json;
use crate::protocol::{self, codes, Request, SolveRequest};
use crate::reactor::{self, ReactorConfig, ReactorGauges};
use crate::signal;

/// How a router listens, shards, and retries.
#[derive(Debug, Clone)]
pub struct RouteConfig {
    /// Endpoint the router listens on.
    pub listen: Endpoint,
    /// Backend `staub serve` endpoints (at least one).
    pub backends: Vec<Endpoint>,
    /// Virtual ring points per backend. More points smooth the load
    /// split at the cost of a (tiny) larger ring.
    pub vnodes: usize,
    /// Request-line byte cap (same meaning as the server's).
    pub max_line_bytes: usize,
    /// How long a failed backend stays marked down before being retried.
    pub retry_cooldown: Duration,
    /// Per-reply read timeout on backend connections, bounding how long
    /// a hung backend can hold a router worker.
    pub backend_timeout: Duration,
    /// This node's name in `route` hop lists. Defaults to
    /// `route:<bound-address>`.
    pub node_name: Option<String>,
    /// Router worker threads (the reactor's fixed pool).
    pub workers: usize,
}

impl Default for RouteConfig {
    fn default() -> RouteConfig {
        RouteConfig {
            listen: Endpoint::Tcp("127.0.0.1:0".to_string()),
            backends: Vec::new(),
            vnodes: 64,
            max_line_bytes: protocol::DEFAULT_MAX_LINE_BYTES,
            retry_cooldown: Duration::from_secs(1),
            backend_timeout: Duration::from_secs(120),
            node_name: None,
            workers: 4,
        }
    }
}

/// 64-bit FNV-1a: tiny, dependency-free, and plenty for ring placement
/// (keys are already canonical fingerprints; the ring hash only needs to
/// scatter, not resist adversaries).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The consistent-hash ring: sorted `(point, backend-index)` pairs.
struct Ring {
    points: Vec<(u64, usize)>,
    backends: usize,
}

impl Ring {
    fn build(backends: &[Endpoint], vnodes: usize) -> Ring {
        let mut points = Vec::with_capacity(backends.len() * vnodes);
        for (i, backend) in backends.iter().enumerate() {
            for v in 0..vnodes.max(1) {
                points.push((fnv1a64(format!("{backend}#{i}#{v}").as_bytes()), i));
            }
        }
        points.sort_unstable();
        Ring {
            points,
            backends: backends.len(),
        }
    }

    /// Backend indices to try for a fingerprint, in ring order starting
    /// at the first point clockwise of the key, one entry per distinct
    /// backend. The first entry is the home backend; the rest are the
    /// deterministic failover order.
    fn candidates(&self, fingerprint: u128) -> Vec<usize> {
        let key = fingerprint as u64 ^ (fingerprint >> 64) as u64;
        let start = self
            .points
            .partition_point(|&(point, _)| point < key)
            .checked_rem(self.points.len())
            .unwrap_or(0);
        let mut seen = vec![false; self.backends];
        let mut order = Vec::with_capacity(self.backends);
        for offset in 0..self.points.len() {
            let (_, backend) = self.points[(start + offset) % self.points.len()];
            if !seen[backend] {
                seen[backend] = true;
                order.push(backend);
                if order.len() == self.backends {
                    break;
                }
            }
        }
        order
    }
}

/// One backend's liveness view.
struct Backend {
    endpoint: Endpoint,
    down_until: Mutex<Option<Instant>>,
}

impl Backend {
    fn usable(&self) -> bool {
        match *self.down_until.lock().expect("backend poisoned") {
            Some(until) => Instant::now() >= until,
            None => true,
        }
    }

    fn mark_down(&self, cooldown: Duration) {
        *self.down_until.lock().expect("backend poisoned") = Some(Instant::now() + cooldown);
    }

    fn mark_up(&self) {
        *self.down_until.lock().expect("backend poisoned") = None;
    }
}

struct RouterInner {
    config: RouteConfig,
    ring: Ring,
    backends: Vec<Backend>,
    node: String,
    started: Instant,
    local_shutdown: AtomicBool,
    forwarded: AtomicU64,
    failed: AtomicU64,
    errors: AtomicU64,
}

impl RouterInner {
    fn shutting_down(&self) -> bool {
        self.local_shutdown.load(Ordering::SeqCst) || signal::shutdown_requested()
    }
}

/// A running `staub route` front node.
pub struct Router {
    inner: Arc<RouterInner>,
    addr: SocketAddr,
    gauges: Arc<ReactorGauges>,
    driver: JoinHandle<()>,
}

impl Router {
    /// Binds the listener and starts the connection driver.
    ///
    /// # Errors
    ///
    /// Fails on an empty backend list or a bind failure.
    pub fn launch(config: RouteConfig) -> io::Result<Router> {
        if config.backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a router needs at least one --backend",
            ));
        }
        let listener = config.listen.bind()?;
        let addr = listener
            .tcp_addr()
            .ok_or_else(|| io::Error::other("router listen endpoint must be TCP"))?;
        let ring = Ring::build(&config.backends, config.vnodes);
        let backends = config
            .backends
            .iter()
            .map(|endpoint| Backend {
                endpoint: endpoint.clone(),
                down_until: Mutex::new(None),
            })
            .collect();
        let node = config
            .node_name
            .clone()
            .unwrap_or_else(|| format!("route:{addr}"));
        let inner = Arc::new(RouterInner {
            ring,
            backends,
            node,
            started: Instant::now(),
            local_shutdown: AtomicBool::new(false),
            forwarded: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            config,
        });
        let gauges = Arc::new(ReactorGauges::default());

        let service = Arc::new(RouterService {
            inner: Arc::clone(&inner),
        });
        let driver_gauges = Arc::clone(&gauges);
        let reactor_config = ReactorConfig {
            workers: inner.config.workers.max(1),
            max_line_bytes: inner.config.max_line_bytes,
        };
        let driver = std::thread::Builder::new()
            .name("staub-router".into())
            .spawn(move || {
                let _ = reactor::run(&service, vec![listener], &driver_gauges, &reactor_config);
            })?;

        Ok(Router {
            inner,
            addr,
            gauges,
            driver,
        })
    }

    /// The bound TCP address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// This node's name in `route` hop lists.
    pub fn node_name(&self) -> &str {
        &self.inner.node
    }

    /// Open client connections right now.
    pub fn open_connections(&self) -> u64 {
        self.gauges.open_connections.load(Ordering::Relaxed)
    }

    /// Begins a graceful drain.
    pub fn shutdown(&self) {
        self.inner.local_shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for the drain to complete.
    pub fn join(self) {
        let _ = self.driver.join();
    }
}

struct RouterService {
    inner: Arc<RouterInner>,
}

impl reactor::Service for RouterService {
    type Conn = ();

    fn handle(&self, _conn: &mut (), line: &str) -> (String, bool) {
        handle_line(&self.inner, line)
    }

    fn oversized(&self, observed: usize) -> String {
        self.inner.errors.fetch_add(1, Ordering::Relaxed);
        protocol::oversized_reply(1, self.inner.config.max_line_bytes, observed)
    }

    fn bad_utf8(&self) -> String {
        self.inner.errors.fetch_add(1, Ordering::Relaxed);
        protocol::error_reply(1, None, codes::BAD_JSON, "request line is not UTF-8")
    }

    fn shutting_down(&self) -> bool {
        self.inner.shutting_down()
    }
}

fn handle_line(inner: &Arc<RouterInner>, line: &str) -> (String, bool) {
    let (v, request) = match protocol::parse_request(line) {
        Err(err) => {
            inner.errors.fetch_add(1, Ordering::Relaxed);
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
            if inner.shutting_down() {
                return (
                    protocol::error_reply(
                        v,
                        req.id.as_deref(),
                        codes::SHUTTING_DOWN,
                        "router is draining",
                    ),
                    false,
                );
            }
            (route_solve(inner, v, &req), true)
        }
        Request::SessionOpen { id, .. }
        | Request::SessionAssert { id, .. }
        | Request::SessionCheck { id, .. }
        | Request::SessionClose { id, .. } => {
            inner.errors.fetch_add(1, Ordering::Relaxed);
            (
                protocol::error_reply(
                    2,
                    id.as_deref(),
                    codes::BAD_REQUEST,
                    "sessions are connection-stateful; open them against a backend directly",
                ),
                true,
            )
        }
    }
}

/// Re-serializes a solve request for the backend hop: always protocol
/// v3 (the hop list needs it), with this router appended to `route`.
fn forward_line(req: &SolveRequest, node: &str) -> String {
    let mut out = String::with_capacity(req.constraint.len() + 96);
    out.push_str("{\"op\":\"solve\",\"v\":3,");
    if let Some(id) = &req.id {
        json::push_key(&mut out, "id");
        json::push_str_lit(&mut out, id);
        out.push(',');
    }
    json::push_key(&mut out, "constraint");
    json::push_str_lit(&mut out, &req.constraint);
    if let Some(ms) = req.timeout_ms {
        out.push_str(&format!(",\"timeout_ms\":{ms}"));
    }
    if let Some(s) = req.steps {
        out.push_str(&format!(",\"steps\":{s}"));
    }
    if req.no_cache {
        out.push_str(",\"no_cache\":true");
    }
    out.push_str(",\"route\":[");
    for hop in &req.route {
        json::push_str_lit(&mut out, hop);
        out.push(',');
    }
    json::push_str_lit(&mut out, node);
    out.push_str("]}");
    out
}

fn route_solve(inner: &Arc<RouterInner>, v: u32, req: &SolveRequest) -> String {
    let id = req.id.as_deref();
    if let Some(refusal) = protocol::routing_loop_reply(v, req, &inner.node) {
        inner.errors.fetch_add(1, Ordering::Relaxed);
        return refusal;
    }
    // Canonicalize locally so α-renamed repeats shard identically; a
    // constraint the router cannot parse would not parse on the backend
    // either, so refusing here saves the hop.
    let script = match Script::parse(&req.constraint) {
        Ok(s) => s,
        Err(e) => {
            inner.errors.fetch_add(1, Ordering::Relaxed);
            return protocol::error_reply(v, id, codes::PARSE_ERROR, &e.to_string());
        }
    };
    let fingerprint = canonicalize(&script).fingerprint;
    let line = forward_line(req, &inner.node);

    for backend_idx in inner.ring.candidates(fingerprint) {
        let backend = &inner.backends[backend_idx];
        if !backend.usable() {
            continue;
        }
        match try_backend(inner, backend, &line) {
            Ok(reply) => {
                backend.mark_up();
                inner.forwarded.fetch_add(1, Ordering::Relaxed);
                return reply;
            }
            Err(_) => {
                backend.mark_down(inner.config.retry_cooldown);
                inner.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    inner.errors.fetch_add(1, Ordering::Relaxed);
    protocol::error_reply(
        v,
        id,
        codes::NO_BACKEND,
        &format!(
            "all {} backends are down or cooling down",
            inner.backends.len()
        ),
    )
}

fn try_backend(inner: &Arc<RouterInner>, backend: &Backend, line: &str) -> io::Result<String> {
    let stream = backend.endpoint.connect()?;
    stream.set_read_timeout(Some(inner.config.backend_timeout))?;
    let mut conn = Connection::over(stream);
    conn.roundtrip(line)
}

fn health_reply(inner: &Arc<RouterInner>, v: u32, id: Option<&str>) -> String {
    let mut out = String::with_capacity(256);
    out.push('{');
    out.push_str(&format!("\"v\":{v},"));
    out.push_str("\"id\":");
    match id {
        Some(id) => json::push_str_lit(&mut out, id),
        None => out.push_str("null"),
    }
    out.push_str(",\"status\":\"ok\",\"role\":\"router\",\"node\":");
    json::push_str_lit(&mut out, &inner.node);
    out.push_str(&format!(
        ",\"uptime_ms\":{:.0},\"forwarded\":{},\"failed\":{},\"errors\":{},\"draining\":{}",
        inner.started.elapsed().as_secs_f64() * 1e3,
        inner.forwarded.load(Ordering::Relaxed),
        inner.failed.load(Ordering::Relaxed),
        inner.errors.load(Ordering::Relaxed),
        inner.shutting_down(),
    ));
    out.push_str(",\"backends\":[");
    for (i, backend) in inner.backends.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"endpoint\":");
        json::push_str_lit(&mut out, &backend.endpoint.to_string());
        out.push_str(&format!(",\"up\":{}}}", backend.usable()));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::solve_request;
    use crate::server::{Server, ServerConfig};

    fn endpoints(n: usize) -> Vec<Endpoint> {
        (0..n)
            .map(|i| Endpoint::Tcp(format!("10.0.0.{i}:7227")))
            .collect()
    }

    #[test]
    fn ring_is_deterministic_and_covers_every_backend() {
        let ring = Ring::build(&endpoints(3), 64);
        let mut hits = [0usize; 3];
        for i in 0..3000u128 {
            let fp = i.wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835);
            let order = ring.candidates(fp);
            assert_eq!(order, ring.candidates(fp), "lookup must be deterministic");
            assert_eq!(order.len(), 3, "failover order covers every backend");
            hits[order[0]] += 1;
        }
        for (i, &h) in hits.iter().enumerate() {
            assert!(
                h > 300,
                "backend {i} got {h}/3000 keys — ring is badly unbalanced: {hits:?}"
            );
        }
    }

    #[test]
    fn adding_a_backend_remaps_only_part_of_the_keyspace() {
        let three = Ring::build(&endpoints(3), 64);
        let four = Ring::build(&endpoints(4), 64);
        let mut moved = 0usize;
        const KEYS: usize = 2000;
        for i in 0..KEYS as u128 {
            let fp = i.wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835);
            if three.candidates(fp)[0] != four.candidates(fp)[0] {
                moved += 1;
            }
        }
        // Consistent hashing moves ~1/4 of keys; full rehashing would
        // move ~3/4. Assert we are much closer to the former.
        assert!(
            moved < KEYS / 2,
            "{moved}/{KEYS} keys moved — that is rehash-everything territory"
        );
    }

    #[test]
    fn sessions_are_refused_with_a_structured_error() {
        let inner = Arc::new(RouterInner {
            ring: Ring::build(&endpoints(1), 4),
            backends: vec![Backend {
                endpoint: endpoints(1).remove(0),
                down_until: Mutex::new(None),
            }],
            node: "route:test".into(),
            started: Instant::now(),
            local_shutdown: AtomicBool::new(false),
            forwarded: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            config: RouteConfig {
                backends: endpoints(1),
                ..RouteConfig::default()
            },
        });
        let (reply, keep) = handle_line(&inner, r#"{"op":"session_open","v":2}"#);
        assert!(keep);
        assert!(reply.contains("bad-request"), "{reply}");
        assert!(reply.contains("backend directly"), "{reply}");
    }

    #[test]
    fn routes_solves_to_backends_and_stamps_the_hop_list() {
        let backend_config = |name: &str| {
            ServerConfig::new()
                .batch(staub_core::BatchConfig {
                    threads: 2,
                    steps: 200_000,
                    ..staub_core::BatchConfig::default()
                })
                .node_name(name)
        };
        let back0 = Server::launch(backend_config("serve:back0")).expect("backend 0");
        let back1 = Server::launch(backend_config("serve:back1")).expect("backend 1");
        let router = Router::launch(RouteConfig {
            backends: vec![
                Endpoint::Tcp(back0.local_addr().to_string()),
                Endpoint::Tcp(back1.local_addr().to_string()),
            ],
            node_name: Some("route:front".into()),
            ..RouteConfig::default()
        })
        .expect("router");

        let endpoint = Endpoint::Tcp(router.local_addr().to_string());
        let mut conn = Connection::connect(&endpoint).expect("dial router");
        let constraint = "(declare-fun x () Int)(assert (= (* x x) 49))(check-sat)";
        let reply = conn
            .roundtrip(&solve_request("r1", constraint, None, None, false))
            .expect("routed solve");
        assert!(reply.contains("\"verdict\":\"sat\""), "{reply}");
        assert!(
            reply.contains("\"route\":[\"route:front\",\"serve:back")
                && reply.contains("\"cache\":\"miss\""),
            "{reply}"
        );

        // The α-renamed repeat must shard to the same backend and hit
        // its cache — the whole point of fingerprint sharding.
        let renamed = "(declare-fun y () Int)(assert (= 49 (* y y)))(check-sat)";
        let repeat = conn
            .roundtrip(&solve_request("r2", renamed, None, None, false))
            .expect("routed repeat");
        assert!(repeat.contains("\"cache\":\"hit\""), "{repeat}");

        // Health names both backends as up.
        let health = conn
            .roundtrip(&crate::client::health_request())
            .expect("router health");
        assert!(health.contains("\"role\":\"router\""), "{health}");
        assert_eq!(health.matches("\"up\":true").count(), 2, "{health}");

        router.shutdown();
        router.join();
        back0.shutdown();
        back1.shutdown();
        back0.join();
        back1.join();
    }

    #[test]
    fn failover_skips_a_dead_backend_and_reports_no_backend_when_all_die() {
        // Backend 0 is a bound-then-dropped port: connects are refused.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let live = Server::launch(ServerConfig::new().batch(staub_core::BatchConfig {
            threads: 2,
            steps: 200_000,
            ..staub_core::BatchConfig::default()
        }))
        .expect("live backend");
        let router = Router::launch(RouteConfig {
            backends: vec![
                Endpoint::Tcp(dead),
                Endpoint::Tcp(live.local_addr().to_string()),
            ],
            ..RouteConfig::default()
        })
        .expect("router");

        let endpoint = Endpoint::Tcp(router.local_addr().to_string());
        let mut conn = Connection::connect(&endpoint).expect("dial router");
        // Several distinct constraints: some will home on the dead
        // backend and must fail over to the live one.
        for i in 2..10 {
            let constraint = format!(
                "(declare-fun x () Int)(assert (= (* x x) {}))(check-sat)",
                i * i
            );
            let reply = conn
                .roundtrip(&solve_request("f", &constraint, None, None, false))
                .expect("failover solve");
            assert!(reply.contains("\"verdict\":\"sat\""), "{reply}");
        }

        live.shutdown();
        live.join();
        // With the only live backend gone (and the other refusing), a
        // fresh constraint must come back `no-backend`, not hang.
        let reply = conn
            .roundtrip(&solve_request(
                "dead",
                "(declare-fun z () Int)(assert (> z 100))(check-sat)",
                None,
                None,
                false,
            ))
            .expect("no-backend reply");
        assert!(reply.contains("no-backend"), "{reply}");

        router.shutdown();
        router.join();
    }
}
