//! The `staub serve` wire protocol: newline-delimited JSON.
//!
//! One request per line, one response line per request, over TCP or a
//! Unix socket. Every request and response carries a protocol version
//! field `"v"` (absent means `1`); versions above [`PROTOCOL_VERSION`]
//! get a structured `unsupported_version` error instead of a parse
//! failure, so future revisions degrade gracefully on old servers. The
//! grammar (also documented in DESIGN.md):
//!
//! ```text
//! request  := solve | health | shutdown
//!           | session-open | session-assert | session-check | session-close
//! solve    := {"op":"solve", "v"?:1, "constraint":"<smt2>",
//!              "id"?:string, "timeout_ms"?:int, "steps"?:int,
//!              "no_cache"?:bool, "route"?:[string,...]}   (route: v3)
//! health   := {"op":"health", "v"?:1, "id"?:string}
//! shutdown := {"op":"shutdown", "v"?:1, "id"?:string}
//!
//! session-open  := {"op":"session_open", "v":2, "id"?:string,
//!                   "timeout_ms"?:int, "steps"?:int}
//! session-assert:= {"op":"assert", "v":2, "session":string,
//!                   "constraint":"<smt2 fragment>", "id"?:string}
//! session-check := {"op":"check", "v":2, "session":string,
//!                   "id"?:string, "no_cache"?:bool}
//! session-close := {"op":"session_close", "v":2, "session":string,
//!                   "id"?:string}
//!
//! response := ok-solve | ok-health | ok-shutdown | ok-session
//!           | error | overloaded
//! ok-solve := {"v":int, "id":string|null, "status":"ok",
//!              "verdict":"sat|unsat|unknown",
//!              "model":{name:value,...}|null, "winner":string|null,
//!              "provenance":{"label":string, "multiplier":int,
//!                            "steps":int}|null,
//!              "cache":"hit|miss|off", "fingerprint":hex128,
//!              "wall_ms":float, "stats":object|null,
//!              "route"?:[string,...]}                     (route: v3)
//! error    := {"v":int, "id":string|null, "status":"error",
//!              "error":{"code":string, "message":string,
//!                       "limit"?:int, "observed"?:int}}
//! overload := {"v":int, "id":string|null, "status":"overloaded",
//!              "error":{"code":"overloaded", "message":string,
//!                       "inflight"?:int, "waiting"?:int}}
//! ```
//!
//! Version 3 adds the `route` hop list: a front node (`staub route`)
//! forwards `solve` requests to the backend owning the constraint's
//! canonical fingerprint, appending its own name to `route`; the backend
//! appends its name in the reply, so a client can see the path its
//! request took. A request whose `route` already names the receiving hop
//! is refused (`routing-loop`) rather than forwarded again. Version 3
//! also makes the `oversized` and `overloaded` errors self-describing
//! (configured limit + observed length; current inflight + waiting) and
//! adds the `persist` block to `health` replies.
//!
//! `session_open` answers `{"v":2, ..., "session":string}`; `assert`
//! echoes the session plus the current `level`; `check` answers the
//! ok-solve shape plus `"session"`; `session_close` answers
//! `{..., "closed":true}`. Session state lives on the connection: a
//! closed connection drops its sessions.
//!
//! Malformed lines, unknown `op`s, and lines longer than the server's
//! request-size cap all yield a structured `error` response; the size cap
//! and the SMT-LIB parser's nesting-depth cap together bound per-request
//! memory, mirroring the crash-hardening stance of the batch front end.

use std::io::{self, Read};

use crate::json::{self, Json};

/// Default cap on one request line, in bytes. Analogous to the parser's
/// nesting-depth cap: a bound enforced *before* any tree is built.
pub const DEFAULT_MAX_LINE_BYTES: usize = 1 << 20;

/// Highest protocol version this build speaks. Version 1 is the original
/// stateless request/response protocol; version 2 adds the incremental
/// session commands; version 3 adds the `route` hop, the `persist`
/// health block, and self-describing `oversized`/`overloaded` errors.
pub const PROTOCOL_VERSION: u32 = 3;

/// Machine-readable error codes carried in `error` responses.
pub mod codes {
    /// The line was not valid JSON.
    pub const BAD_JSON: &str = "bad-json";
    /// The JSON was valid but not a known request shape.
    pub const BAD_REQUEST: &str = "bad-request";
    /// The request line exceeded the server's size cap.
    pub const OVERSIZED: &str = "oversized";
    /// The SMT-LIB constraint failed to parse.
    pub const PARSE_ERROR: &str = "parse-error";
    /// The constraint has no assertions.
    pub const EMPTY_SCRIPT: &str = "empty-script";
    /// The server is at capacity; retry later.
    pub const OVERLOADED: &str = "overloaded";
    /// The server is draining and no longer accepts work.
    pub const SHUTTING_DOWN: &str = "shutting-down";
    /// The request's `"v"` is newer than this server speaks.
    pub const UNSUPPORTED_VERSION: &str = "unsupported_version";
    /// A session command named a session this connection never opened
    /// (or already closed).
    pub const UNKNOWN_SESSION: &str = "unknown-session";
    /// The request's `route` list already names this hop — forwarding it
    /// again would cycle (v3).
    pub const ROUTING_LOOP: &str = "routing-loop";
    /// A front node could not reach any backend for this fingerprint
    /// (v3).
    pub const NO_BACKEND: &str = "no-backend";
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Solve one constraint.
    Solve(SolveRequest),
    /// Report liveness, build info, and a metrics snapshot.
    Health {
        /// Client-chosen correlation id, echoed back.
        id: Option<String>,
    },
    /// Begin a graceful drain (the protocol twin of SIGINT).
    Shutdown {
        /// Client-chosen correlation id, echoed back.
        id: Option<String>,
    },
    /// Open an incremental solving session on this connection (v2).
    SessionOpen {
        /// Client-chosen correlation id, echoed back.
        id: Option<String>,
        /// Per-check wall-clock budget (clamped to the server's).
        timeout_ms: Option<u64>,
        /// Per-check step budget (clamped to the server's).
        steps: Option<u64>,
    },
    /// Append an assertion fragment to an open session (v2).
    SessionAssert {
        /// Client-chosen correlation id, echoed back.
        id: Option<String>,
        /// The session name returned by `session_open`.
        session: String,
        /// SMT-LIB fragment (declarations and assertions).
        constraint: String,
    },
    /// Check the session's accumulated assertions (v2). The warm solver
    /// state persists across checks; the answer cache is consulted first.
    SessionCheck {
        /// Client-chosen correlation id, echoed back.
        id: Option<String>,
        /// The session name returned by `session_open`.
        session: String,
        /// Bypass the answer cache for this check.
        no_cache: bool,
    },
    /// Drop a session and its solver state (v2).
    SessionClose {
        /// Client-chosen correlation id, echoed back.
        id: Option<String>,
        /// The session name returned by `session_open`.
        session: String,
    },
}

/// The `solve` request payload.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRequest {
    /// Client-chosen correlation id, echoed back in the response.
    pub id: Option<String>,
    /// The SMT-LIB constraint text.
    pub constraint: String,
    /// Per-request wall-clock budget override (clamped to the server's).
    pub timeout_ms: Option<u64>,
    /// Per-request step budget override (clamped to the server's).
    pub steps: Option<u64>,
    /// Bypass the answer cache for this request.
    pub no_cache: bool,
    /// The hops this request has already traversed (v3). A front node
    /// appends its name before forwarding; a hop that finds itself here
    /// refuses the request instead of looping.
    pub route: Vec<String>,
}

/// A structured protocol failure: code plus human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// One of the [`codes`] constants.
    pub code: &'static str,
    /// Details for the human on the other end.
    pub message: String,
}

impl ProtocolError {
    fn new(code: &'static str, message: impl Into<String>) -> ProtocolError {
        ProtocolError {
            code,
            message: message.into(),
        }
    }
}

/// Parses one request line. Returns the request's protocol version
/// (defaulting to 1 when the `"v"` field is absent) alongside the
/// request, so replies can echo it.
///
/// # Errors
///
/// Returns a [`ProtocolError`] (ready to serialise with
/// [`error_reply`]) on malformed JSON, an unrecognised shape, or a
/// version newer than [`PROTOCOL_VERSION`].
pub fn parse_request(line: &str) -> Result<(u32, Request), ProtocolError> {
    let value =
        json::parse(line).map_err(|e| ProtocolError::new(codes::BAD_JSON, e.to_string()))?;
    let v = match value.get("v") {
        None | Some(Json::Null) => 1,
        Some(field) => match field.as_u64() {
            Some(n @ 1..) if n <= u64::from(PROTOCOL_VERSION) => n as u32,
            Some(n @ 1..) => {
                return Err(ProtocolError::new(
                    codes::UNSUPPORTED_VERSION,
                    format!(
                    "protocol version {n} not supported; this server speaks 1..={PROTOCOL_VERSION}"
                ),
                ))
            }
            _ => {
                return Err(ProtocolError::new(
                    codes::BAD_REQUEST,
                    "`v` must be a positive integer",
                ))
            }
        },
    };
    let id = value.get("id").and_then(Json::as_str).map(str::to_string);
    let op = value
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtocolError::new(codes::BAD_REQUEST, "missing string field `op`"))?;
    let num = |field: &str| -> Result<Option<u64>, ProtocolError> {
        match value.get(field) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => v.as_u64().map(Some).ok_or_else(|| {
                ProtocolError::new(
                    codes::BAD_REQUEST,
                    format!("`{field}` must be a nonnegative integer"),
                )
            }),
        }
    };
    let string_field = |field: &str| -> Result<String, ProtocolError> {
        value
            .get(field)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| {
                ProtocolError::new(
                    codes::BAD_REQUEST,
                    format!("`{op}` needs a string `{field}`"),
                )
            })
    };
    let require_v2 = || -> Result<(), ProtocolError> {
        if v < 2 {
            return Err(ProtocolError::new(
                codes::BAD_REQUEST,
                format!("`{op}` is a session command; send it with \"v\":2"),
            ));
        }
        Ok(())
    };
    let request = match op {
        "health" => Request::Health { id },
        "shutdown" => Request::Shutdown { id },
        "solve" => {
            let route = match value.get("route") {
                None | Some(Json::Null) => Vec::new(),
                Some(Json::Arr(hops)) => {
                    if v < 3 {
                        return Err(ProtocolError::new(
                            codes::BAD_REQUEST,
                            "`route` is a v3 field; send it with \"v\":3",
                        ));
                    }
                    let mut out = Vec::with_capacity(hops.len());
                    for hop in hops {
                        match hop.as_str() {
                            Some(s) => out.push(s.to_string()),
                            None => {
                                return Err(ProtocolError::new(
                                    codes::BAD_REQUEST,
                                    "`route` must be an array of strings",
                                ))
                            }
                        }
                    }
                    out
                }
                Some(_) => {
                    return Err(ProtocolError::new(
                        codes::BAD_REQUEST,
                        "`route` must be an array of strings",
                    ))
                }
            };
            Request::Solve(SolveRequest {
                id,
                constraint: string_field("constraint")?,
                timeout_ms: num("timeout_ms")?,
                steps: num("steps")?,
                no_cache: value
                    .get("no_cache")
                    .and_then(Json::as_bool)
                    .unwrap_or(false),
                route,
            })
        }
        "session_open" => {
            require_v2()?;
            Request::SessionOpen {
                id,
                timeout_ms: num("timeout_ms")?,
                steps: num("steps")?,
            }
        }
        "assert" => {
            require_v2()?;
            Request::SessionAssert {
                id,
                session: string_field("session")?,
                constraint: string_field("constraint")?,
            }
        }
        "check" => {
            require_v2()?;
            Request::SessionCheck {
                id,
                session: string_field("session")?,
                no_cache: value
                    .get("no_cache")
                    .and_then(Json::as_bool)
                    .unwrap_or(false),
            }
        }
        "session_close" => {
            require_v2()?;
            Request::SessionClose {
                id,
                session: string_field("session")?,
            }
        }
        other => {
            return Err(ProtocolError::new(
                codes::BAD_REQUEST,
                format!("unknown op `{other}`"),
            ))
        }
    };
    Ok((v, request))
}

fn push_head(out: &mut String, v: u32, id: Option<&str>) {
    out.push_str(&format!("\"v\":{v},"));
    json::push_key(out, "id");
    match id {
        Some(id) => json::push_str_lit(out, id),
        None => out.push_str("null"),
    }
    out.push(',');
}

/// Renders an `error` response line (no trailing newline), echoing the
/// request's protocol version.
pub fn error_reply(v: u32, id: Option<&str>, code: &str, message: &str) -> String {
    let mut out = String::with_capacity(96);
    out.push('{');
    push_head(&mut out, v, id);
    out.push_str("\"status\":\"error\",\"error\":{");
    json::push_key(&mut out, "code");
    json::push_str_lit(&mut out, code);
    out.push(',');
    json::push_key(&mut out, "message");
    json::push_str_lit(&mut out, message);
    out.push_str("}}");
    out
}

/// The reply to a line [`parse_request`] rejected, and whether the
/// connection stays open. A malformed line means the sender's framing can
/// no longer be trusted, so the connection closes after the reply; the one
/// exception is a *well-formed* line at a future version, whose framing is
/// fine, so the connection survives the refusal.
pub(crate) fn malformed_reply(err: &ProtocolError) -> (String, bool) {
    let keep_open = err.code == codes::UNSUPPORTED_VERSION;
    (error_reply(1, None, err.code, &err.message), keep_open)
}

/// The `routing-loop` refusal for a `solve` whose hop list already names
/// `node`: the request has been here before, and forwarding or solving it
/// again would cycle. `None` when `node` is not on the list.
pub(crate) fn routing_loop_reply(v: u32, req: &SolveRequest, node: &str) -> Option<String> {
    req.route.iter().any(|hop| hop == node).then(|| {
        error_reply(
            v,
            req.id.as_deref(),
            codes::ROUTING_LOOP,
            &format!("route already contains this node (`{node}`)"),
        )
    })
}

/// Renders the reply to `shutdown`: the node has begun draining (the
/// connection closes after it).
pub(crate) fn shutdown_reply(v: u32, id: Option<&str>) -> String {
    let mut out = String::with_capacity(64);
    out.push('{');
    push_head(&mut out, v, id);
    out.push_str("\"status\":\"ok\",\"draining\":true}");
    out
}

/// Renders the admission-control `overloaded` response line, carrying
/// the gate's current occupancy so a load generator can tell shed
/// (inflight at the cap) from stall (waiting deep).
pub fn overloaded_reply(v: u32, id: Option<&str>, inflight: usize, waiting: usize) -> String {
    let mut out = String::with_capacity(128);
    out.push('{');
    push_head(&mut out, v, id);
    out.push_str(&format!(
        "\"status\":\"overloaded\",\"error\":{{\"code\":\"overloaded\",\
         \"message\":\"request queue full; retry later\",\
         \"inflight\":{inflight},\"waiting\":{waiting}}}}}"
    ));
    out
}

/// Renders the request-size-cap `oversized` error, naming the configured
/// limit and how many bytes had arrived when the cap tripped (the true
/// line is at least that long — the server stops buffering at the cap).
pub fn oversized_reply(v: u32, limit: usize, observed: usize) -> String {
    let mut out = String::with_capacity(160);
    out.push('{');
    push_head(&mut out, v, None);
    out.push_str(&format!(
        "\"status\":\"error\",\"error\":{{\"code\":\"{}\",\
         \"message\":\"request line exceeds the {limit}-byte cap \
         ({observed} bytes buffered before giving up)\",\
         \"limit\":{limit},\"observed\":{observed}}}}}",
        codes::OVERSIZED
    ));
    out
}

/// Renders a simple session-command `ok` reply (`session_open`,
/// `assert`, `session_close`). `extra` is appended verbatim as
/// additional, already-serialised JSON members (e.g. `"level":3`);
/// empty adds nothing.
pub fn session_reply(v: u32, id: Option<&str>, session: &str, extra: &str) -> String {
    let mut out = String::with_capacity(96);
    out.push('{');
    push_head(&mut out, v, id);
    json::push_key(&mut out, "session");
    json::push_str_lit(&mut out, session);
    out.push_str(",\"status\":\"ok\"");
    if !extra.is_empty() {
        out.push(',');
        out.push_str(extra);
    }
    out.push('}');
    out
}

/// A successful `solve` (or session `check`) response, ready to
/// serialise.
#[derive(Debug, Clone)]
pub struct SolveReply {
    /// Protocol version to echo (1 for `solve`, 2 for session checks).
    pub v: u32,
    /// Echoed correlation id.
    pub id: Option<String>,
    /// The session this check ran in (session checks only).
    pub session: Option<String>,
    /// `sat` / `unsat` / `unknown`.
    pub verdict: &'static str,
    /// Variable assignments (name, printed value) for `sat`.
    pub model: Option<Vec<(String, String)>>,
    /// Winning lane label, when the scheduler ran.
    pub winner: Option<String>,
    /// Which lane/width produced the verdict, when a pipeline ran
    /// (absent on cache hits, where no lane ran).
    pub provenance: Option<staub_core::Provenance>,
    /// `hit` / `miss` / `off`.
    pub cache: &'static str,
    /// The canonical fingerprint, as 32 hex digits.
    pub fingerprint: String,
    /// End-to-end request time on the server.
    pub wall_ms: f64,
    /// The PR-3 stats block (a JSON object), when the scheduler ran.
    pub stats_json: Option<String>,
    /// The hops this request traversed, this server's own name last
    /// (v3; omitted from the reply when empty).
    pub route: Vec<String>,
}

impl SolveReply {
    /// Renders the response line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push('{');
        push_head(&mut out, self.v, self.id.as_deref());
        if let Some(session) = &self.session {
            json::push_key(&mut out, "session");
            json::push_str_lit(&mut out, session);
            out.push(',');
        }
        out.push_str("\"status\":\"ok\",\"verdict\":\"");
        out.push_str(self.verdict);
        out.push_str("\",\"model\":");
        match &self.model {
            None => out.push_str("null"),
            Some(bindings) => {
                out.push('{');
                for (i, (name, value)) in bindings.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    json::push_key(&mut out, name);
                    json::push_str_lit(&mut out, value);
                }
                out.push('}');
            }
        }
        out.push_str(",\"winner\":");
        match &self.winner {
            Some(w) => json::push_str_lit(&mut out, w),
            None => out.push_str("null"),
        }
        out.push_str(",\"provenance\":");
        match &self.provenance {
            Some(p) => {
                out.push('{');
                json::push_key(&mut out, "label");
                json::push_str_lit(&mut out, &p.label);
                out.push_str(&format!(
                    ",\"multiplier\":{},\"steps\":{}}}",
                    p.multiplier, p.steps
                ));
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"cache\":\"");
        out.push_str(self.cache);
        out.push_str("\",\"fingerprint\":");
        json::push_str_lit(&mut out, &self.fingerprint);
        out.push_str(&format!(",\"wall_ms\":{:.3},\"stats\":", self.wall_ms));
        match &self.stats_json {
            Some(s) => out.push_str(s),
            None => out.push_str("null"),
        }
        if !self.route.is_empty() {
            out.push_str(",\"route\":[");
            for (i, hop) in self.route.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::push_str_lit(&mut out, hop);
            }
            out.push(']');
        }
        out.push('}');
        out
    }
}

/// Outcome of reading one line under a byte cap.
#[derive(Debug)]
pub enum LineRead {
    /// A complete line (without the newline).
    Line(String),
    /// Clean end of stream.
    Eof,
    /// No full line yet (read timed out) — poll again; buffered partial
    /// input is retained.
    Idle,
    /// The line exceeded the cap. The connection should answer (naming
    /// the cap and how much had been buffered) and close.
    TooLong {
        /// Bytes buffered when the cap tripped — a lower bound on the
        /// true line length.
        observed: usize,
    },
    /// The bytes were not valid UTF-8.
    BadUtf8,
}

/// Reads newline-delimited requests with a size cap, resilient to read
/// timeouts (used so connection threads can poll the shutdown flag while
/// idle) and to pipelined requests (bytes after the newline are kept).
#[derive(Debug)]
pub struct LineReader {
    buf: Vec<u8>,
    max_line: usize,
}

impl LineReader {
    /// A reader enforcing `max_line` bytes per request line.
    pub fn new(max_line: usize) -> LineReader {
        LineReader {
            buf: Vec::new(),
            max_line,
        }
    }

    /// Pulls from `src` until a newline, EOF, timeout, or the cap.
    pub fn next_line(&mut self, src: &mut impl Read) -> io::Result<LineRead> {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                // The cap applies to the framed line as well: a fast
                // sender can land line + newline in a single read, and
                // that must not bypass the limit.
                if pos > self.max_line {
                    self.buf = self.buf.split_off(pos + 1);
                    return Ok(LineRead::TooLong { observed: pos });
                }
                let rest = self.buf.split_off(pos + 1);
                let mut line = std::mem::replace(&mut self.buf, rest);
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Ok(match String::from_utf8(line) {
                    Ok(s) => LineRead::Line(s),
                    Err(_) => LineRead::BadUtf8,
                });
            }
            if self.buf.len() > self.max_line {
                let observed = self.buf.len();
                self.buf.clear();
                return Ok(LineRead::TooLong { observed });
            }
            let mut chunk = [0u8; 4096];
            match src.read(&mut chunk) {
                Ok(0) => return Ok(LineRead::Eof),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(LineRead::Idle)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Reads one reply line from a blocking stream, the client side of the
    /// framing: waits through read timeouts, and turns EOF, an over-cap
    /// line and non-UTF-8 bytes into errors.
    ///
    /// # Errors
    ///
    /// I/O failures, a connection closed before the line ended, a line
    /// longer than the cap, or a line that is not UTF-8.
    pub(crate) fn next_reply(&mut self, src: &mut impl Read) -> io::Result<String> {
        let invalid = |message: &str| io::Error::new(io::ErrorKind::InvalidData, message);
        loop {
            match self.next_line(src)? {
                LineRead::Line(line) => return Ok(line),
                LineRead::Idle => {}
                LineRead::Eof => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection before replying",
                    ))
                }
                LineRead::TooLong { .. } => return Err(invalid("response exceeds the line cap")),
                LineRead::BadUtf8 => return Err(invalid("response is not UTF-8")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_request_round_trip() {
        let (v, req) = parse_request(
            r#"{"op":"solve","id":"r7","constraint":"(assert true)","steps":1000,"no_cache":true}"#,
        )
        .unwrap();
        assert_eq!(v, 1);
        match req {
            Request::Solve(s) => {
                assert_eq!(s.id.as_deref(), Some("r7"));
                assert_eq!(s.constraint, "(assert true)");
                assert_eq!(s.steps, Some(1000));
                assert_eq!(s.timeout_ms, None);
                assert!(s.no_cache);
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn health_and_shutdown_parse() {
        assert_eq!(
            parse_request(r#"{"op":"health"}"#).unwrap(),
            (1, Request::Health { id: None })
        );
        assert_eq!(
            parse_request(r#"{"op":"shutdown","v":1,"id":"x"}"#).unwrap(),
            (
                1,
                Request::Shutdown {
                    id: Some("x".into())
                }
            )
        );
    }

    #[test]
    fn version_negotiation() {
        // Explicit current versions pass through.
        assert_eq!(parse_request(r#"{"op":"health","v":2}"#).unwrap().0, 2);
        // A future version is refused with its own code, not a parse
        // failure.
        let err = parse_request(r#"{"op":"health","v":9}"#).unwrap_err();
        assert_eq!(err.code, codes::UNSUPPORTED_VERSION);
        assert!(err.message.contains("1..=3"), "{}", err.message);
        // Zero and non-integers are malformed, not "future".
        assert_eq!(
            parse_request(r#"{"op":"health","v":0}"#).unwrap_err().code,
            codes::BAD_REQUEST
        );
        assert_eq!(
            parse_request(r#"{"op":"health","v":"two"}"#)
                .unwrap_err()
                .code,
            codes::BAD_REQUEST
        );
    }

    #[test]
    fn session_commands_parse_at_v2_only() {
        let (v, req) =
            parse_request(r#"{"op":"session_open","v":2,"id":"s","steps":500}"#).unwrap();
        assert_eq!(v, 2);
        assert_eq!(
            req,
            Request::SessionOpen {
                id: Some("s".into()),
                timeout_ms: None,
                steps: Some(500),
            }
        );
        let (_, req) =
            parse_request(r#"{"op":"assert","v":2,"session":"s1","constraint":"(assert true)"}"#)
                .unwrap();
        assert_eq!(
            req,
            Request::SessionAssert {
                id: None,
                session: "s1".into(),
                constraint: "(assert true)".into(),
            }
        );
        let (_, req) =
            parse_request(r#"{"op":"check","v":2,"session":"s1","no_cache":true}"#).unwrap();
        assert_eq!(
            req,
            Request::SessionCheck {
                id: None,
                session: "s1".into(),
                no_cache: true,
            }
        );
        let (_, req) = parse_request(r#"{"op":"session_close","v":2,"session":"s1"}"#).unwrap();
        assert_eq!(
            req,
            Request::SessionClose {
                id: None,
                session: "s1".into(),
            }
        );
        // The same ops without v:2 are rejected — old servers would not
        // know them, and old clients cannot send them by accident.
        for line in [
            r#"{"op":"session_open"}"#,
            r#"{"op":"assert","session":"s1","constraint":"x"}"#,
            r#"{"op":"check","session":"s1"}"#,
            r#"{"op":"session_close","session":"s1"}"#,
        ] {
            assert_eq!(parse_request(line).unwrap_err().code, codes::BAD_REQUEST);
        }
    }

    #[test]
    fn malformed_requests_get_codes() {
        assert_eq!(parse_request("{").unwrap_err().code, codes::BAD_JSON);
        assert_eq!(parse_request("{}").unwrap_err().code, codes::BAD_REQUEST);
        assert_eq!(
            parse_request(r#"{"op":"solve"}"#).unwrap_err().code,
            codes::BAD_REQUEST
        );
        assert_eq!(
            parse_request(r#"{"op":"solve","constraint":"x","steps":-4}"#)
                .unwrap_err()
                .code,
            codes::BAD_REQUEST
        );
        assert_eq!(
            parse_request(r#"{"op":"fly"}"#).unwrap_err().code,
            codes::BAD_REQUEST
        );
        assert_eq!(
            parse_request(r#"{"op":"check","v":2}"#).unwrap_err().code,
            codes::BAD_REQUEST
        );
    }

    #[test]
    fn replies_are_parseable_json() {
        let err = error_reply(1, Some("a"), codes::PARSE_ERROR, "line 3: what");
        let v = crate::json::parse(&err).unwrap();
        assert_eq!(v.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(v.get("v").and_then(Json::as_u64), Some(1));
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("parse-error")
        );
        let over = overloaded_reply(1, None, 0, 0);
        let v = crate::json::parse(&over).unwrap();
        assert_eq!(v.get("status").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(v.get("id"), Some(&Json::Null));

        let sess = session_reply(2, Some("o"), "s1", "\"closed\":true");
        let v = crate::json::parse(&sess).unwrap();
        assert_eq!(v.get("v").and_then(Json::as_u64), Some(2));
        assert_eq!(v.get("session").and_then(Json::as_str), Some("s1"));
        assert_eq!(v.get("closed").and_then(Json::as_bool), Some(true));

        let reply = SolveReply {
            v: 2,
            id: Some("q".into()),
            session: Some("s1".into()),
            verdict: "sat",
            model: Some(vec![("x".into(), "7".into())]),
            winner: Some("staub/x1/zed".into()),
            provenance: Some(staub_core::Provenance {
                label: "staub/x1/zed".into(),
                multiplier: 1,
                steps: 42,
            }),
            cache: "miss",
            fingerprint: "ab".repeat(16),
            wall_ms: 1.5,
            stats_json: Some("{\"stages\":{}}".into()),
            route: vec!["route:front".into(), "serve:back0".into()],
        };
        let v = crate::json::parse(&reply.to_json()).unwrap();
        assert_eq!(v.get("verdict").and_then(Json::as_str), Some("sat"));
        assert_eq!(v.get("session").and_then(Json::as_str), Some("s1"));
        assert_eq!(
            v.get("model")
                .and_then(|m| m.get("x"))
                .and_then(Json::as_str),
            Some("7")
        );
        assert_eq!(
            v.get("provenance")
                .and_then(|p| p.get("multiplier"))
                .and_then(Json::as_u64),
            Some(1)
        );
        assert!(v.get("stats").unwrap().get("stages").is_some());
    }

    #[test]
    fn line_reader_caps_and_pipelines() {
        let mut reader = LineReader::new(16);
        let mut src = io::Cursor::new(b"{\"op\":1}\nsecond\n".to_vec());
        match reader.next_line(&mut src).unwrap() {
            LineRead::Line(l) => assert_eq!(l, "{\"op\":1}"),
            other => panic!("{other:?}"),
        }
        match reader.next_line(&mut src).unwrap() {
            LineRead::Line(l) => assert_eq!(l, "second"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(reader.next_line(&mut src).unwrap(), LineRead::Eof));

        let mut reader = LineReader::new(8);
        let mut src = io::Cursor::new(vec![b'a'; 64]);
        match reader.next_line(&mut src).unwrap() {
            LineRead::TooLong { observed } => assert!(observed > 8, "observed {observed}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn route_hops_parse_at_v3_only() {
        let (v, req) = parse_request(
            r#"{"op":"solve","v":3,"constraint":"(assert true)","route":["route:front"]}"#,
        )
        .unwrap();
        assert_eq!(v, 3);
        match req {
            Request::Solve(s) => assert_eq!(s.route, vec!["route:front".to_string()]),
            other => panic!("wrong shape: {other:?}"),
        }
        // Absent route is an empty hop list at any version.
        let (_, req) = parse_request(r#"{"op":"solve","constraint":"x"}"#).unwrap();
        match req {
            Request::Solve(s) => assert!(s.route.is_empty()),
            other => panic!("wrong shape: {other:?}"),
        }
        // Pre-v3 requests cannot smuggle the field, and non-string hops
        // are malformed.
        for bad in [
            r#"{"op":"solve","v":2,"constraint":"x","route":["a"]}"#,
            r#"{"op":"solve","v":3,"constraint":"x","route":[1]}"#,
            r#"{"op":"solve","v":3,"constraint":"x","route":"a"}"#,
        ] {
            assert_eq!(parse_request(bad).unwrap_err().code, codes::BAD_REQUEST);
        }
    }

    #[test]
    fn v3_errors_are_self_describing() {
        let over = overloaded_reply(3, Some("q"), 4, 17);
        let v = crate::json::parse(&over).unwrap();
        let err = v.get("error").unwrap();
        assert_eq!(err.get("inflight").and_then(Json::as_u64), Some(4));
        assert_eq!(err.get("waiting").and_then(Json::as_u64), Some(17));

        let big = oversized_reply(1, 1 << 20, 1_052_672);
        let v = crate::json::parse(&big).unwrap();
        let err = v.get("error").unwrap();
        assert_eq!(err.get("code").and_then(Json::as_str), Some("oversized"));
        assert_eq!(err.get("limit").and_then(Json::as_u64), Some(1 << 20));
        assert_eq!(err.get("observed").and_then(Json::as_u64), Some(1_052_672));
    }

    #[test]
    fn line_reader_strips_crlf() {
        let mut reader = LineReader::new(64);
        let mut src = io::Cursor::new(b"hello\r\n".to_vec());
        match reader.next_line(&mut src).unwrap() {
            LineRead::Line(l) => assert_eq!(l, "hello"),
            other => panic!("{other:?}"),
        }
    }
}
