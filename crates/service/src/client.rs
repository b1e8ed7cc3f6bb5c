//! Client-side drivers: one-shot requests (`staub client`) and the
//! replay load generator (`staub loadgen`).
//!
//! Both speak the same newline-delimited JSON protocol as the server and
//! reuse the [`LineReader`] so a response larger than the line cap is
//! reported rather than looping forever. The load generator additionally
//! *audits* responses: every reply must be well-formed JSON with a known
//! status, and `sat` replies carrying a parseable model are re-checked by
//! exact evaluation against the original constraint — the client-side
//! half of the soundness story.

use std::io::{self, Read, Write};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use staub_numeric::{BigInt, BigRational};
use staub_smtlib::{evaluate, Model, Script, Sort, Value};

use crate::endpoint::{Endpoint, EndpointStream};
use crate::json::{self, Json};
use crate::protocol::LineReader;

/// A connected protocol client over any byte stream.
pub struct Connection<S> {
    stream: S,
    reader: LineReader,
}

impl Connection<EndpointStream> {
    /// Dials an [`Endpoint`] on either transport (blocking reads;
    /// responses are caller-paced).
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Connection<EndpointStream>> {
        Ok(Connection::over(endpoint.connect()?))
    }
}

impl<S: Read + Write> Connection<S> {
    /// Wraps an already-connected stream (tests use an in-memory pair).
    pub fn over(stream: S) -> Connection<S> {
        Connection {
            stream,
            reader: LineReader::new(crate::protocol::DEFAULT_MAX_LINE_BYTES),
        }
    }

    /// Sends one request line and reads one response line.
    ///
    /// # Errors
    ///
    /// I/O failures, a response longer than the line cap, or a dropped
    /// connection all surface as `io::Error`.
    pub fn roundtrip(&mut self, request: &str) -> io::Result<String> {
        self.stream.write_all(request.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.stream.flush()?;
        self.reader.next_reply(&mut self.stream)
    }
}

/// Builds a `solve` request line (protocol v1).
pub fn solve_request(
    id: &str,
    constraint: &str,
    timeout_ms: Option<u64>,
    steps: Option<u64>,
    no_cache: bool,
) -> String {
    let mut out = String::with_capacity(constraint.len() + 64);
    out.push_str("{\"op\":\"solve\",\"v\":1,");
    json::push_key(&mut out, "id");
    json::push_str_lit(&mut out, id);
    out.push(',');
    json::push_key(&mut out, "constraint");
    json::push_str_lit(&mut out, constraint);
    if let Some(ms) = timeout_ms {
        out.push_str(&format!(",\"timeout_ms\":{ms}"));
    }
    if let Some(s) = steps {
        out.push_str(&format!(",\"steps\":{s}"));
    }
    if no_cache {
        out.push_str(",\"no_cache\":true");
    }
    out.push('}');
    out
}

/// Builds a `health` request line (protocol v1).
pub fn health_request() -> String {
    "{\"op\":\"health\",\"v\":1}".to_string()
}

/// Builds a `shutdown` request line (protocol v1).
pub fn shutdown_request() -> String {
    "{\"op\":\"shutdown\",\"v\":1}".to_string()
}

/// Builds a `session_open` request line (protocol v2).
pub fn session_open_request(timeout_ms: Option<u64>, steps: Option<u64>) -> String {
    let mut out = String::from("{\"op\":\"session_open\",\"v\":2");
    if let Some(ms) = timeout_ms {
        out.push_str(&format!(",\"timeout_ms\":{ms}"));
    }
    if let Some(s) = steps {
        out.push_str(&format!(",\"steps\":{s}"));
    }
    out.push('}');
    out
}

/// Builds a session `assert` request line (protocol v2).
pub fn assert_request(session: &str, constraint: &str) -> String {
    let mut out = String::with_capacity(constraint.len() + 64);
    out.push_str("{\"op\":\"assert\",\"v\":2,");
    json::push_key(&mut out, "session");
    json::push_str_lit(&mut out, session);
    out.push(',');
    json::push_key(&mut out, "constraint");
    json::push_str_lit(&mut out, constraint);
    out.push('}');
    out
}

/// Builds a session `check` request line (protocol v2).
pub fn check_request(session: &str, no_cache: bool) -> String {
    let mut out = String::from("{\"op\":\"check\",\"v\":2,");
    json::push_key(&mut out, "session");
    json::push_str_lit(&mut out, session);
    if no_cache {
        out.push_str(",\"no_cache\":true");
    }
    out.push('}');
    out
}

/// Builds a `session_close` request line (protocol v2).
pub fn session_close_request(session: &str) -> String {
    let mut out = String::from("{\"op\":\"session_close\",\"v\":2,");
    json::push_key(&mut out, "session");
    json::push_str_lit(&mut out, session);
    out.push('}');
    out
}

// ---------------------------------------------------------------------------
// Response auditing
// ---------------------------------------------------------------------------

/// Client-side audit of one solve reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Audit {
    /// `sat` / `unsat` / `unknown` / `error` / `overloaded`.
    pub verdict: String,
    /// `hit` / `miss` / `off` (empty for non-ok replies).
    pub cache: String,
    /// The reply was well-formed for its status.
    pub well_formed: bool,
    /// A `sat` model was present, parseable, and exactly satisfies the
    /// constraint. `true` when there was nothing to check.
    pub sound: bool,
}

/// Parses a model value printed by the server back into a [`Value`],
/// given the variable's sort in the requester's script.
fn parse_value(sort: &Sort, printed: &str) -> Option<Value> {
    match sort {
        Sort::Bool => match printed {
            "true" => Some(Value::Bool(true)),
            "false" => Some(Value::Bool(false)),
            _ => None,
        },
        Sort::Int => BigInt::from_str(printed).ok().map(Value::Int),
        Sort::Real => BigRational::from_str(printed).ok().map(Value::Real),
        // Bitvector / float model values round-trip through SMT-LIB
        // syntax, not Display; the loadgen corpora are Int/Real/Bool so
        // auditing those sorts is out of scope here.
        _ => None,
    }
}

/// Audits one reply line against the constraint that produced it.
pub fn audit_reply(constraint: &str, reply_line: &str) -> Audit {
    let bad = |verdict: &str| Audit {
        verdict: verdict.to_string(),
        cache: String::new(),
        well_formed: false,
        sound: true,
    };
    let Ok(reply) = json::parse(reply_line) else {
        return bad("unparseable");
    };
    let status = reply.get("status").and_then(Json::as_str).unwrap_or("");
    match status {
        "overloaded" => {
            return Audit {
                verdict: "overloaded".into(),
                cache: String::new(),
                well_formed: true,
                sound: true,
            }
        }
        "error" => {
            let has_code = reply
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str)
                .is_some();
            return Audit {
                verdict: "error".into(),
                cache: String::new(),
                well_formed: has_code,
                sound: true,
            };
        }
        "ok" => {}
        _ => return bad("bad-status"),
    }
    let Some(verdict) = reply.get("verdict").and_then(Json::as_str) else {
        return bad("ok");
    };
    let cache = reply
        .get("cache")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    let well_formed = matches!(verdict, "sat" | "unsat" | "unknown")
        && matches!(cache.as_str(), "hit" | "miss" | "off")
        && reply.get("fingerprint").and_then(Json::as_str).is_some();

    let mut sound = true;
    if verdict == "sat" {
        if let (Some(Json::Obj(bindings)), Ok(script)) =
            (reply.get("model"), Script::parse(constraint))
        {
            let mut model = Model::new();
            let mut parseable = true;
            for (name, value) in bindings {
                let Some(sym) = script.store().symbol(name) else {
                    parseable = false;
                    break;
                };
                let sort = script.store().symbol_sort(sym);
                match value.as_str().and_then(|v| parse_value(&sort, v)) {
                    Some(v) => {
                        model.insert(sym, v);
                    }
                    None => {
                        parseable = false;
                        break;
                    }
                }
            }
            if parseable {
                sound = script
                    .assertions()
                    .iter()
                    .all(|&a| matches!(evaluate(script.store(), a, &model), Ok(Value::Bool(true))));
            }
        }
    }
    Audit {
        verdict: verdict.to_string(),
        cache,
        well_formed,
        sound,
    }
}

// ---------------------------------------------------------------------------
// Load generation
// ---------------------------------------------------------------------------

/// Load-generator tuning.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server (or router) endpoint to dial.
    pub endpoint: Endpoint,
    /// Concurrent client connections.
    pub concurrency: usize,
    /// Times to replay the whole corpus.
    pub repeat: usize,
    /// Send `no_cache` on every request.
    pub no_cache: bool,
    /// Per-request step budget to send.
    pub steps: Option<u64>,
    /// Per-request timeout to send.
    pub timeout_ms: Option<u64>,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            endpoint: Endpoint::Tcp(String::new()),
            concurrency: 8,
            repeat: 1,
            no_cache: false,
            steps: None,
            timeout_ms: None,
        }
    }
}

/// One request's measured outcome.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// The constraint's name.
    pub name: String,
    /// Audited verdict string.
    pub verdict: String,
    /// `hit` / `miss` / `off`.
    pub cache: String,
    /// Round-trip latency.
    pub latency: Duration,
    /// Reply was well-formed.
    pub well_formed: bool,
    /// Reply passed the client-side model audit.
    pub sound: bool,
}

impl RequestRecord {
    /// One JSONL line for the throughput artifact.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push('{');
        json::push_key(&mut out, "name");
        json::push_str_lit(&mut out, &self.name);
        out.push(',');
        json::push_key(&mut out, "verdict");
        json::push_str_lit(&mut out, &self.verdict);
        out.push(',');
        json::push_key(&mut out, "cache");
        json::push_str_lit(&mut out, &self.cache);
        out.push_str(&format!(
            ",\"ms\":{:.3},\"well_formed\":{},\"sound\":{}}}",
            self.latency.as_secs_f64() * 1e3,
            self.well_formed,
            self.sound
        ));
        out
    }
}

/// Aggregate results of one loadgen run.
#[derive(Debug)]
pub struct LoadgenOutcome {
    /// Every request's record, in completion order.
    pub records: Vec<RequestRecord>,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
    /// Transport-level failures (connect/read/write errors).
    pub transport_errors: u64,
}

impl LoadgenOutcome {
    /// Requests per second over the whole run.
    pub fn rps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.records.len() as f64 / secs
        } else {
            0.0
        }
    }

    /// Latency percentile (`p` from 0 to 100) over completed requests,
    /// nearest-rank convention.
    pub fn latency_percentile(&self, p: f64) -> Duration {
        if self.records.is_empty() {
            return Duration::ZERO;
        }
        let mut sorted: Vec<Duration> = self.records.iter().map(|r| r.latency).collect();
        sorted.sort();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// `true` when every reply was well-formed and sound and the
    /// transport stayed clean.
    pub fn clean(&self) -> bool {
        self.transport_errors == 0 && self.records.iter().all(|r| r.well_formed && r.sound)
    }

    /// Count of records whose cache field matches.
    pub fn cache_count(&self, kind: &str) -> usize {
        self.records.iter().filter(|r| r.cache == kind).count()
    }
}

/// Replays `corpus` (name, constraint) pairs against a server at the
/// requested concurrency; each worker owns one connection and pulls the
/// next corpus index from a shared counter, so work distribution is
/// dynamic rather than striped.
///
/// # Errors
///
/// Only setup failures (spawn errors) surface here; per-request
/// transport failures are counted in the outcome instead.
pub fn run_loadgen(
    corpus: &[(String, String)],
    config: &LoadgenConfig,
) -> io::Result<LoadgenOutcome> {
    let total = corpus.len() * config.repeat.max(1);
    let next = AtomicUsize::new(0);
    let transport_errors = AtomicU64::new(0);
    let records: Mutex<Vec<RequestRecord>> = Mutex::new(Vec::with_capacity(total));
    let started = Instant::now();

    std::thread::scope(|scope| -> io::Result<()> {
        for worker in 0..config.concurrency.max(1) {
            let next = &next;
            let records = &records;
            let transport_errors = &transport_errors;
            let config = &config;
            std::thread::Builder::new()
                .name(format!("loadgen-{worker}"))
                .spawn_scoped(scope, move || {
                    let mut conn = match Connection::connect(&config.endpoint) {
                        Ok(c) => c,
                        Err(_) => {
                            transport_errors.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                    };
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            return;
                        }
                        let (name, constraint) = &corpus[i % corpus.len()];
                        let request = solve_request(
                            name,
                            constraint,
                            config.timeout_ms,
                            config.steps,
                            config.no_cache,
                        );
                        let sent = Instant::now();
                        match conn.roundtrip(&request) {
                            Ok(reply) => {
                                let audit = audit_reply(constraint, &reply);
                                records
                                    .lock()
                                    .expect("records poisoned")
                                    .push(RequestRecord {
                                        name: name.clone(),
                                        verdict: audit.verdict,
                                        cache: audit.cache,
                                        latency: sent.elapsed(),
                                        well_formed: audit.well_formed,
                                        sound: audit.sound,
                                    });
                            }
                            Err(_) => {
                                transport_errors.fetch_add(1, Ordering::Relaxed);
                                // The connection is suspect; reconnect.
                                match Connection::connect(&config.endpoint) {
                                    Ok(c) => conn = c,
                                    Err(_) => return,
                                }
                            }
                        }
                    }
                })?;
        }
        Ok(())
    })?;

    Ok(LoadgenOutcome {
        records: records.into_inner().expect("records poisoned"),
        wall: started.elapsed(),
        transport_errors: transport_errors.into_inner(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SQUARE: &str = "(declare-fun x () Int)(assert (= (* x x) 49))(check-sat)";

    #[test]
    fn audit_accepts_a_sound_sat_reply() {
        let reply = r#"{"id":"a","status":"ok","verdict":"sat","model":{"x":"7"},"winner":"baseline/zed","cache":"miss","fingerprint":"00","wall_ms":1.0,"stats":null}"#;
        let audit = audit_reply(SQUARE, reply);
        assert!(audit.well_formed, "{audit:?}");
        assert!(audit.sound, "{audit:?}");
        assert_eq!(audit.verdict, "sat");
        assert_eq!(audit.cache, "miss");
    }

    #[test]
    fn audit_flags_an_unsound_model() {
        let reply = r#"{"id":"a","status":"ok","verdict":"sat","model":{"x":"8"},"winner":null,"cache":"hit","fingerprint":"00","wall_ms":1.0,"stats":null}"#;
        let audit = audit_reply(SQUARE, reply);
        assert!(!audit.sound, "{audit:?}");
    }

    #[test]
    fn audit_flags_malformed_replies() {
        assert!(!audit_reply(SQUARE, "not json").well_formed);
        assert!(!audit_reply(SQUARE, r#"{"status":"ok"}"#).well_formed);
        assert!(
            !audit_reply(
                SQUARE,
                r#"{"status":"ok","verdict":"maybe","cache":"miss","fingerprint":"00"}"#
            )
            .well_formed
        );
    }

    #[test]
    fn audit_accepts_protocol_errors_as_well_formed() {
        let reply = r#"{"id":null,"status":"error","error":{"code":"parse-error","message":"no"}}"#;
        let audit = audit_reply(SQUARE, reply);
        assert!(audit.well_formed);
        assert_eq!(audit.verdict, "error");
    }

    #[test]
    fn rational_model_values_parse_back() {
        assert_eq!(
            parse_value(&Sort::Real, "3/4"),
            Some(Value::Real(BigRational::new(
                BigInt::from(3),
                BigInt::from(4)
            )))
        );
        assert_eq!(parse_value(&Sort::Bool, "true"), Some(Value::Bool(true)));
        assert_eq!(parse_value(&Sort::Int, "x"), None);
    }

    #[test]
    fn percentiles_and_rps_are_stable() {
        let outcome = LoadgenOutcome {
            records: (1..=100)
                .map(|i| RequestRecord {
                    name: format!("r{i}"),
                    verdict: "sat".into(),
                    cache: "miss".into(),
                    latency: Duration::from_millis(i),
                    well_formed: true,
                    sound: true,
                })
                .collect(),
            wall: Duration::from_secs(2),
            transport_errors: 0,
        };
        assert_eq!(outcome.rps(), 50.0);
        assert_eq!(outcome.latency_percentile(50.0), Duration::from_millis(50));
        assert_eq!(outcome.latency_percentile(95.0), Duration::from_millis(95));
        assert!(outcome.clean());
    }
}
