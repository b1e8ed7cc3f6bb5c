//! End-to-end tests for the `staub serve` service layer: a real server on
//! a loopback socket, concurrent clients, and a differential comparison
//! against the in-process batch scheduler — with the answer cache on and
//! off.
//!
//! Determinism: the server and the reference scheduler run under identical
//! deterministic *step* budgets with a wall-clock deadline far too large
//! to trip (the `tests/portfolio_diff.rs` idiom), so verdicts do not
//! depend on host speed or CI load.

use std::collections::HashMap;
use std::time::Duration;

use staub::benchgen::{generate, SuiteKind};
use staub::core::{run_batch_with, BatchConfig, BatchItem, RunOptions, WidenPolicy};
use staub::service::json::{self, Json};
use staub::service::{
    audit_reply, health_request, run_loadgen, solve_request, CacheConfig, Connection, Endpoint,
    EndpointStream, LoadgenConfig, LoadgenOutcome, Server, ServerConfig,
};
use staub::smtlib::Script;

const STEPS: u64 = 300_000;
const TIMEOUT: Duration = Duration::from_secs(30);

fn batch_config() -> BatchConfig {
    BatchConfig {
        threads: 2,
        timeout: TIMEOUT,
        steps: STEPS,
        widen: WidenPolicy::Global(Vec::new()),
        cancel_losers: false,
        ..BatchConfig::default()
    }
}

fn serve_config(cache: bool) -> ServerConfig {
    let cache = if cache {
        Some(CacheConfig::default())
    } else {
        None
    };
    ServerConfig::new()
        .batch(batch_config())
        .cache(cache)
        .admission(8, 64)
}

/// A small mixed corpus (linear ints + nonlinear reals) printed to text,
/// as a client would submit it.
fn corpus() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for kind in [SuiteKind::QfLia, SuiteKind::QfNra] {
        for b in generate(kind, 5, 0xE2E) {
            out.push((b.name.clone(), b.script.to_string()));
        }
    }
    out
}

/// Reference verdicts from the in-process scheduler on the same corpus.
fn reference_verdicts(corpus: &[(String, String)]) -> HashMap<String, String> {
    let items: Vec<BatchItem> = corpus
        .iter()
        .map(|(name, text)| BatchItem {
            name: name.clone(),
            script: Script::parse(text).expect("corpus parses"),
        })
        .collect();
    run_batch_with(&items, &batch_config(), &RunOptions::default())
        .into_iter()
        .map(|r| (r.name.clone(), r.verdict.name().to_string()))
        .collect()
}

/// Boots a server, drives the corpus through 8 concurrent clients, and
/// checks every reply is well-formed, sound, and agrees with `run_batch_with`.
fn differential(cache: bool, no_cache_flag: bool, repeat: usize) -> LoadgenOutcome {
    let corpus = corpus();
    let expected = reference_verdicts(&corpus);
    let server = Server::launch(serve_config(cache)).expect("server starts");
    let endpoint = Endpoint::Tcp(server.local_addr().to_string());
    let outcome = run_loadgen(
        &corpus,
        &LoadgenConfig {
            endpoint,
            concurrency: 8,
            repeat,
            no_cache: no_cache_flag,
            steps: Some(STEPS),
            timeout_ms: Some(TIMEOUT.as_millis() as u64),
        },
    )
    .expect("loadgen runs");
    assert!(outcome.clean(), "transport errors or failed audits");
    assert_eq!(outcome.records.len(), corpus.len() * repeat);
    for record in &outcome.records {
        assert!(
            record.well_formed && record.sound,
            "{}: reply failed the audit",
            record.name
        );
        assert_eq!(
            &record.verdict,
            expected.get(&record.name).expect("known benchmark"),
            "{}: serve and batch disagree",
            record.name
        );
    }
    server.shutdown();
    server.join();
    outcome
}

#[test]
fn serve_matches_batch_with_cache_under_concurrency() {
    // Two passes over the corpus: the second mostly answers from cache,
    // and cached answers must audit identically to solved ones.
    let outcome = differential(true, false, 2);
    assert!(
        outcome.cache_count("hit") > 0,
        "a repeated corpus never hit the cache"
    );
}

#[test]
fn serve_matches_batch_without_cache() {
    let outcome = differential(false, false, 1);
    assert_eq!(
        outcome.cache_count("off"),
        outcome.records.len(),
        "cache-disabled server still consulted a cache"
    );
}

#[test]
fn no_cache_flag_bypasses_a_caching_server() {
    let outcome = differential(true, true, 2);
    assert_eq!(
        outcome.cache_count("off"),
        outcome.records.len(),
        "no_cache requests must never be served from cache"
    );
}

/// The health counter for a cache statistic.
fn cache_counter(health: &Json, key: &str) -> u64 {
    health
        .get("cache")
        .and_then(|c| c.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("health reply lacks cache.{key}"))
}

/// How many times the scheduler actually ran lanes (`serve.solve` is
/// observed only on a cache miss).
fn lane_solves(health: &Json) -> u64 {
    health
        .get("metrics")
        .and_then(|m| m.get("durations"))
        .and_then(|d| d.get("serve.solve"))
        .and_then(|s| s.get("count"))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

#[test]
fn repeated_and_renamed_constraints_answer_from_cache_without_lanes() {
    let server = Server::launch(serve_config(true)).expect("server starts");
    let endpoint = Endpoint::Tcp(server.local_addr().to_string());
    let mut conn = Connection::connect(&endpoint).expect("connect");

    let original = "(declare-fun x () Int)(assert (= (* x x) 49))(check-sat)";
    // α-renamed and commutatively flipped: the same constraint to the
    // canonicalizer, a different byte string to everyone else.
    let renamed = "(declare-fun y () Int)(assert (= 49 (* y y)))(check-sat)";

    let r1 = conn
        .roundtrip(&solve_request("cold", original, None, None, false))
        .expect("solve");
    let cold = audit_reply(original, &r1);
    assert_eq!(cold.verdict, "sat");
    assert!(cold.well_formed && cold.sound, "cold reply failed audit");

    let h1 = json::parse(&conn.roundtrip(&health_request()).expect("health")).expect("json");
    let solves_before = lane_solves(&h1);
    let hits_before = cache_counter(&h1, "hits");
    assert!(solves_before >= 1);

    let r2 = conn
        .roundtrip(&solve_request("repeat", original, None, None, false))
        .expect("solve");
    let repeat = audit_reply(original, &r2);
    assert_eq!(repeat.verdict, "sat");
    assert_eq!(repeat.cache, "hit");
    assert!(repeat.sound, "cached model failed re-verification");

    let r3 = conn
        .roundtrip(&solve_request("renamed", renamed, None, None, false))
        .expect("solve");
    let alpha = audit_reply(renamed, &r3);
    assert_eq!(alpha.verdict, "sat");
    assert_eq!(alpha.cache, "hit");
    assert!(alpha.sound, "rebound model failed re-verification");

    // The acceptance criterion made observable: both answers came from
    // the cache (hit counter +2) and no new lanes were spawned.
    let h2 = json::parse(&conn.roundtrip(&health_request()).expect("health")).expect("json");
    assert_eq!(cache_counter(&h2, "hits"), hits_before + 2);
    assert_eq!(lane_solves(&h2), solves_before);

    server.shutdown();
    server.join();
}

#[test]
fn complete_lane_unsat_serves_and_repeats_from_cache() {
    // No baseline lane and no escalations: the server's only possible
    // source of a trusted unsat is a promoted complete lane, so this test
    // pins the whole chain — certify → bounded-unsat → L4xx-checked
    // promotion → cache insert → cache hit without new lanes.
    let mut config = serve_config(true);
    config.batch.include_baseline = false;
    let server = Server::launch(config).expect("server starts");
    let endpoint = Endpoint::Tcp(server.local_addr().to_string());
    let mut conn = Connection::connect(&endpoint).expect("connect");

    let parity = "(declare-fun x () Int)(declare-fun y () Int)
         (assert (= (+ (* 2 x) (* 2 y)) 7))(check-sat)";
    // α-renamed twin: same canonical constraint, different bytes.
    let renamed = "(declare-fun p () Int)(declare-fun q () Int)
         (assert (= (+ (* 2 p) (* 2 q)) 7))(check-sat)";

    let r1 = conn
        .roundtrip(&solve_request("cold", parity, None, None, false))
        .expect("solve");
    let cold = audit_reply(parity, &r1);
    assert_eq!(cold.verdict, "unsat");
    assert!(cold.well_formed && cold.sound, "cold reply failed audit");
    let winner = json::parse(&r1)
        .expect("reply is json")
        .get("winner")
        .and_then(Json::as_str)
        .map(str::to_string)
        .expect("unsat reply names its winning lane");
    assert!(
        winner.starts_with("complete/"),
        "unsat must come from the complete lane, got {winner}"
    );

    let h1 = json::parse(&conn.roundtrip(&health_request()).expect("health")).expect("json");
    let solves_before = lane_solves(&h1);
    let hits_before = cache_counter(&h1, "hits");
    assert!(solves_before >= 1);

    for (id, text) in [("repeat", parity), ("renamed", renamed)] {
        let reply = conn
            .roundtrip(&solve_request(id, text, None, None, false))
            .expect("solve");
        let audit = audit_reply(text, &reply);
        assert_eq!(audit.verdict, "unsat", "{id}");
        assert_eq!(audit.cache, "hit", "{id}: answer not served from cache");
        let cached_winner = json::parse(&reply)
            .expect("reply is json")
            .get("winner")
            .and_then(Json::as_str)
            .map(str::to_string)
            .expect("cached unsat keeps its winner label");
        assert!(
            cached_winner.starts_with("complete/"),
            "{id}: cached winner lost provenance: {cached_winner}"
        );
    }

    // Both repeats answered from cache; no further lanes were spawned.
    let h2 = json::parse(&conn.roundtrip(&health_request()).expect("health")).expect("json");
    assert_eq!(cache_counter(&h2, "hits"), hits_before + 2);
    assert_eq!(lane_solves(&h2), solves_before);

    server.shutdown();
    server.join();
}

/// Further requests on a connection the server closed must fail fast.
fn assert_closed(mut conn: Connection<EndpointStream>) {
    let err = conn.roundtrip(&health_request());
    assert!(err.is_err(), "server should have closed the connection");
}

#[test]
fn malformed_and_oversized_lines_get_error_and_close() {
    let mut config = serve_config(false);
    config.max_line_bytes = 4096;
    let server = Server::launch(config).expect("server starts");
    let endpoint = Endpoint::Tcp(server.local_addr().to_string());

    // Malformed JSON: structured error, then the connection closes.
    let mut conn = Connection::connect(&endpoint).expect("connect");
    let reply = conn.roundtrip("this is not json").expect("error reply");
    let parsed = json::parse(&reply).expect("reply is json");
    assert_eq!(parsed.get("status").and_then(Json::as_str), Some("error"));
    assert_eq!(
        parsed
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("bad-json")
    );
    assert_closed(conn);

    // Valid JSON but not a valid request: same treatment.
    let mut conn = Connection::connect(&endpoint).expect("connect");
    let reply = conn
        .roundtrip("{\"op\":\"frobnicate\"}")
        .expect("error reply");
    let parsed = json::parse(&reply).expect("reply is json");
    assert_eq!(
        parsed
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("bad-request")
    );
    assert_closed(conn);

    // A line over the request-size cap: the reply names the cap, then the
    // connection closes (the rest of the oversized line is never parsed).
    let mut conn = Connection::connect(&endpoint).expect("connect");
    let huge = solve_request("big", &"x ".repeat(8192), None, None, false);
    let reply = conn.roundtrip(&huge).expect("error reply");
    let parsed = json::parse(&reply).expect("reply is json");
    let error = parsed.get("error").expect("structured error object");
    assert_eq!(error.get("code").and_then(Json::as_str), Some("oversized"));
    // The structured error must name the configured cap and how much the
    // client actually sent, so the operator can tell which to change.
    assert_eq!(error.get("limit").and_then(Json::as_u64), Some(4096));
    assert!(
        error.get("observed").and_then(Json::as_u64) > Some(4096),
        "{reply}"
    );
    assert_closed(conn);

    server.shutdown();
    server.join();
}

#[test]
fn health_reports_build_and_cache_state() {
    let server = Server::launch(serve_config(true)).expect("server starts");
    let endpoint = Endpoint::Tcp(server.local_addr().to_string());
    let mut conn = Connection::connect(&endpoint).expect("connect");
    let reply = conn.roundtrip(&health_request()).expect("health");
    let parsed = json::parse(&reply).expect("reply is json");
    assert_eq!(parsed.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(
        parsed.get("version").and_then(Json::as_str),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert!(parsed.get("uptime_ms").is_some());
    assert_eq!(parsed.get("draining").and_then(Json::as_bool), Some(false));
    assert_eq!(cache_counter(&parsed, "hits"), 0);
    assert!(
        parsed
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .is_some(),
        "health must embed a metrics snapshot"
    );
    server.shutdown();
    server.join();
}

#[test]
fn shutdown_request_drains_gracefully() {
    let server = Server::launch(serve_config(false)).expect("server starts");
    let endpoint = Endpoint::Tcp(server.local_addr().to_string());
    let mut conn = Connection::connect(&endpoint).expect("connect");
    let reply = conn
        .roundtrip("{\"op\":\"shutdown\",\"id\":\"bye\"}")
        .expect("shutdown reply");
    let parsed = json::parse(&reply).expect("reply is json");
    assert_eq!(parsed.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(parsed.get("draining").and_then(Json::as_bool), Some(true));
    // The server must come down on its own from the request alone.
    let summary = server.join();
    assert!(summary.connections >= 1);
}

#[cfg(unix)]
#[test]
fn unix_socket_serves_solves() {
    let path = std::env::temp_dir().join(format!("staub-e2e-{}.sock", std::process::id()));
    let mut config = serve_config(true);
    config.unix = Some(path.clone());
    let server = Server::launch(config).expect("server starts");

    let mut conn = Connection::connect(&Endpoint::unix(&path)).expect("unix connect");
    let constraint = "(declare-fun x () Int)(assert (< 3 x))(assert (< x 5))(check-sat)";
    let reply = conn
        .roundtrip(&solve_request("ux", constraint, None, None, false))
        .expect("solve");
    let audit = audit_reply(constraint, &reply);
    assert_eq!(audit.verdict, "sat");
    assert!(audit.well_formed && audit.sound);

    server.shutdown();
    server.join();
    let _ = std::fs::remove_file(&path);
}
