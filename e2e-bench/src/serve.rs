//! Serve workloads: a loopback `staub serve` child process, started from
//! the built binary with its defaults plus the budgets of
//! [`inproc::batch_config`], driven over [`CONNECTIONS`] client
//! connections in a closed loop.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use staub_service::json::{self, Json};
use staub_service::{audit_reply, health_request, shutdown_request, solve_request, Audit};
use staub_service::{Connection, Endpoint};

use crate::corpus::{self, Item, Rng};
use crate::inproc::{self, contradicts, ms, ratio, Tracer};
use crate::trace::Trace;
use crate::{Args, Metric, Report};

/// Client connections, one thread each: one per core of the machine the
/// bounds were set on, so client and server share two cores.
pub const CONNECTIONS: usize = 2;

/// `serve-repeat` respells each distinct constraint this many extra times.
const RESPELLINGS: usize = 3;

/// `serve-unique` checks this many served texts against the in-process
/// verdict; `serve-repeat` checks every distinct constraint.
const UNIQUE_REFERENCE_CHECKS: usize = 128;

/// A `staub serve` child process on an ephemeral loopback port.
pub struct Server {
    child: Child,
    endpoint: Endpoint,
    // Held open so the child never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    running: bool,
}

impl Server {
    /// Starts the server and waits for its `listening on` handshake.
    pub fn start(staub: &Path, persist: Option<&Path>) -> Result<Server, String> {
        let mut command = Command::new(staub);
        command.args([
            "serve",
            "--addr",
            "tcp:127.0.0.1:0",
            "--steps",
            &inproc::STEPS.to_string(),
            "--timeout-ms",
            &inproc::TIMEOUT.as_millis().to_string(),
        ]);
        if let Some(dir) = persist {
            command.arg("--persist").arg(dir);
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", staub.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(_) => line
                .trim()
                .strip_prefix("listening on ")
                .map(str::to_string),
            Err(_) => None,
        };
        let endpoint = addr.and_then(|a| Endpoint::parse(&format!("tcp:{a}")).ok());
        let Some(endpoint) = endpoint else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("server gave no handshake: {line:?}"));
        };
        let server = Server {
            child,
            endpoint,
            _stdout: stdout,
            running: true,
        };
        let health = server.request(&health_request())?;
        match json::parse(&health) {
            Ok(reply) if reply.get("status").and_then(Json::as_str) == Some("ok") => Ok(server),
            _ => Err(format!("unhealthy server: {health}")),
        }
    }

    fn request(&self, line: &str) -> Result<String, String> {
        Connection::connect(&self.endpoint)
            .and_then(|mut c| c.roundtrip(line))
            .map_err(|e| format!("server request failed: {e}"))
    }

    /// The server's peak resident set (VmHWM).
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        crate::peak_rss_mb(Some(self.child.id()))
    }

    /// Asks the server to drain and waits for it to exit (killing it after
    /// ten seconds).
    pub fn stop(mut self) -> Result<(), String> {
        let _ = self.request(&shutdown_request());
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                self.running = false;
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err("server did not drain within 10 s".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.running {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A directory removed, with its contents, when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `path` empty.
    pub fn new(path: PathBuf) -> Result<ScratchDir, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }

    fn path(&self) -> &Path {
        &self.0
    }

    /// Summed size of the files directly inside.
    fn bytes(&self) -> u64 {
        std::fs::read_dir(&self.0)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok()?.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One request on the wire.
struct Record {
    /// Index into the workload's texts.
    text: usize,
    sent: Instant,
    rtt: Duration,
    reply: Result<String, String>,
}

/// The requests of one closed-loop window.
struct Burst {
    records: Vec<Record>,
    wall: Duration,
    /// The order position the next window starts at.
    next: usize,
}

/// Sends `requests[order[i]]` for `i` from `from` on, over [`CONNECTIONS`]
/// connections, until `window` has passed, or — without `cycle` — the order
/// is used up.
fn drive(
    endpoint: &Endpoint,
    requests: &[String],
    order: &[usize],
    from: usize,
    cycle: bool,
    window: Duration,
) -> Result<Burst, String> {
    let next = AtomicUsize::new(from);
    let start = Instant::now();
    let per_connection = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                scope.spawn(|| -> Result<Vec<Record>, String> {
                    let mut conn = Connection::connect(endpoint).map_err(|e| e.to_string())?;
                    let mut out = Vec::new();
                    while start.elapsed() < window {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if !cycle && i >= order.len() {
                            break;
                        }
                        let text = order[i % order.len()];
                        let sent = Instant::now();
                        let reply = conn.roundtrip(&requests[text]).map_err(|e| e.to_string());
                        let rtt = sent.elapsed();
                        let broken = reply.is_err();
                        out.push(Record {
                            text,
                            sent,
                            rtt,
                            reply,
                        });
                        if broken {
                            conn = Connection::connect(endpoint).map_err(|e| e.to_string())?;
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let wall = start.elapsed();
    let mut records: Vec<Record> = per_connection.into_iter().flatten().collect();
    records.sort_by_key(|r| r.sent);
    Ok(Burst {
        records,
        wall,
        next: next.into_inner(),
    })
}

/// Request lines, one per text; the id is the text's index, so replies to
/// one text differ only in `wall_ms`.
fn requests_for(texts: &[Item]) -> Vec<String> {
    texts
        .iter()
        .enumerate()
        .map(|(i, item)| solve_request(&i.to_string(), &item.text, None, None, false))
        .collect()
}

/// A reply's `wall_ms` and the reply without it.
fn split_wall(reply: &str) -> (f64, String) {
    const KEY: &str = "\"wall_ms\":";
    let Some(at) = reply.find(KEY) else {
        return (0.0, reply.to_string());
    };
    let rest = &reply[at + KEY.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    let wall = rest[..end].trim().parse().unwrap_or(0.0);
    (wall, format!("{}{}", &reply[..at], &rest[end..]))
}

/// A workload ready to measure: a running server and what to send it.
pub struct Setup {
    server: Server,
    /// Distinct constraints; each text's `base` indexes this.
    bases: Vec<Item>,
    texts: Vec<Item>,
    requests: Vec<String>,
    order: Vec<usize>,
    /// Send the order round and round (else each text once).
    cycle: bool,
    persist: Option<ScratchDir>,
}

/// What the checks after a window found.
struct Checked {
    failed: u64,
    decided: u64,
    hits: u64,
    /// Per record: the reply's `wall_ms`.
    server_ms: Vec<f64>,
}

/// Audits every reply (well-formed, `sat` models satisfy the text), and
/// compares verdicts with ground truth and with the in-process verdict of
/// the same constraint in `reference`: exactly for the text that was solved
/// in process, and for no contradiction on its respellings.
fn check(setup: &Setup, records: &[Record], reference: &HashMap<usize, &'static str>) -> Checked {
    let mut audits: HashMap<(usize, String), Audit> = HashMap::new();
    let mut out = Checked {
        failed: 0,
        decided: 0,
        hits: 0,
        server_ms: Vec::with_capacity(records.len()),
    };
    for r in records {
        let item = &setup.texts[r.text];
        let (wall, key) = match &r.reply {
            Ok(line) => split_wall(line),
            Err(e) => {
                eprintln!("transport error on {}: {e}", item.name);
                out.failed += 1;
                out.server_ms.push(0.0);
                continue;
            }
        };
        out.server_ms.push(wall);
        let audit = audits
            .entry((r.text, key))
            .or_insert_with(|| audit_reply(&item.text, r.reply.as_deref().expect("checked above")));
        let verdict = audit.verdict.as_str();
        let base = &setup.bases[item.base];
        let disagrees = reference.get(&item.base).is_some_and(|&local| {
            if item.text == base.text {
                local != verdict
            } else {
                matches!((local, verdict), ("sat", "unsat") | ("unsat", "sat"))
            }
        });
        let bad = !audit.well_formed
            || !audit.sound
            || !matches!(verdict, "sat" | "unsat" | "unknown")
            || contradicts(item.expected, verdict)
            || disagrees;
        if bad {
            eprintln!("failed: {} answered {verdict}", item.name);
            out.failed += 1;
        }
        out.decided += u64::from(matches!(verdict, "sat" | "unsat"));
        out.hits += u64::from(audit.cache == "hit");
    }
    out
}

/// In-process verdicts, under the same budgets, for the distinct
/// constraints behind the first `limit` texts of `records`.
fn reference(
    setup: &Setup,
    records: &[Record],
    limit: usize,
    mut solve: impl FnMut(&Item) -> Result<inproc::Solved, String>,
) -> Result<HashMap<usize, &'static str>, String> {
    let mut bases: Vec<usize> = Vec::new();
    let mut seen = HashSet::new();
    for r in records {
        let base = setup.texts[r.text].base;
        if seen.insert(base) {
            bases.push(base);
        }
    }
    bases.truncate(limit);
    bases
        .into_iter()
        .map(|b| Ok((b, solve(&setup.bases[b])?.verdict)))
        .collect()
}

/// Service-layer metrics that in-process workloads do not exercise.
pub fn absent_service_metrics() -> Vec<Metric> {
    service_metrics(0.0, &Trace::new(Instant::now()), 0.0)
}

fn service_metrics(hit_frac: f64, trace: &Trace, persist_bytes_per_req: f64) -> Vec<Metric> {
    let layers = trace.layers();
    let us = |name: &str| layers.get(name).map_or(0.0, |l| l.mean_us());
    vec![
        Metric::new("service.cache.hit_frac", "frac", hit_frac),
        Metric::new("service.server_us", "us", us("service.server")),
        Metric::new("service.wire_us", "us", us("request")),
        Metric::new("service.persist.bytes_per_req", "B", persist_bytes_per_req),
    ]
}

fn measure(args: &Args, setup: Setup, setup_s: f64) -> Result<Report, String> {
    let mut report = Report::default();
    let config = inproc::batch_config();
    let limit = if setup.cycle {
        usize::MAX
    } else {
        UNIQUE_REFERENCE_CHECKS
    };
    let endpoint = setup.server.endpoint.clone();
    let persisted_before = setup.persist.as_ref().map_or(0, ScratchDir::bytes);
    if !args.trace {
        let burst = drive(
            &endpoint,
            &setup.requests,
            &setup.order,
            0,
            setup.cycle,
            args.window(),
        )?;
        let reference = reference(&setup, &burst.records, limit, |item| {
            inproc::solve(item, &config)
        })?;
        let checked = check(&setup, &burst.records, &reference);
        let requests = burst.records.len();
        let latencies: Vec<f64> = burst.records.iter().map(|r| ms(r.rtt)).collect();
        report.attempted = requests as u64;
        report.failed = checked.failed;
        report.push(Metric::new("setup_s", "s", setup_s));
        report.speed(&latencies, burst.wall);
        report.push(Metric::new(
            "decided_frac",
            "frac",
            ratio(checked.decided as f64, requests as f64),
        ));
        report.lines.push(format!(
            "cache hits {} of {requests}; {} distinct constraints checked in process",
            checked.hits,
            reference.len()
        ));
        let Setup { server, .. } = setup;
        server.stop()?;
        return Ok(report);
    }
    // Traced: an untraced half, then a traced half continuing the same
    // request stream. Request spans are built from the client's own
    // timestamps, split by the reply's `wall_ms`.
    let half = args.window() / 2;
    let plain = drive(
        &endpoint,
        &setup.requests,
        &setup.order,
        0,
        setup.cycle,
        half,
    )?;
    let traced = drive(
        &endpoint,
        &setup.requests,
        &setup.order,
        plain.next,
        setup.cycle,
        half,
    )?;
    let persisted = setup.persist.as_ref().map_or(0, ScratchDir::bytes);
    let rss = setup.server.peak_rss_mb()?;
    let mut tracer = Tracer::new(Instant::now());
    let reference = reference(&setup, &traced.records, limit, |item| {
        tracer.solve(item, &config)
    })?;
    let plain_checked = check(&setup, &plain.records, &HashMap::new());
    let checked = check(&setup, &traced.records, &reference);
    let origin = traced.records.first().map_or_else(Instant::now, |r| r.sent);
    let mut spans = Trace::new(origin);
    for (i, (r, &server_ms)) in traced.records.iter().zip(&checked.server_ms).enumerate() {
        let root = spans.record(i as u64, None, "request", r.sent, r.rtt);
        let server = Duration::from_secs_f64(server_ms / 1e3).min(r.rtt);
        let wire_before = (r.rtt - server) / 2;
        spans.record(
            i as u64,
            Some(root),
            "service.server",
            r.sent + wire_before,
            server,
        );
    }
    let (span_count, traced_requests) = spans.counts();
    report.lines.push(format!(
        "{span_count} spans over {traced_requests} traced requests"
    ));
    let requests = (plain.records.len() + traced.records.len()) as u64;
    report.attempted = requests;
    report.failed = plain_checked.failed + checked.failed;
    report.metrics = tracer.layer_metrics();
    report.metrics.extend(service_metrics(
        ratio(checked.hits as f64, traced.records.len() as f64),
        &spans,
        ratio(
            persisted.saturating_sub(persisted_before) as f64,
            requests as f64,
        ),
    ));
    report.push(Metric::new("memory.peak_rss_mb", "MB", rss));
    report.push(Metric::new(
        "trace.coverage",
        "frac",
        ratio(
            spans.root_time().as_secs_f64(),
            CONNECTIONS as f64 * traced.wall.as_secs_f64(),
        ),
    ));
    let rate = |b: &Burst| ratio(b.records.len() as f64, b.wall.as_secs_f64());
    report.push(Metric::new(
        "trace.overhead_frac",
        "frac",
        1.0 - ratio(rate(&traced), rate(&plain)),
    ));
    let Setup { server, .. } = setup;
    server.stop()?;
    Ok(report)
}

/// `serve-repeat`: distinct fragments, each in several spellings, after a
/// warm-up pass that caches them. Set-up is starting the server and the
/// warm-up pass.
pub fn run_repeat(args: &Args) -> Result<Report, String> {
    let (per_family, keep) = if args.smoke { (10, 32) } else { (160, 512) };
    let candidates = corpus::fragments(args.seed, per_family);
    let warm_requests = requests_for(&candidates);
    let warm_order: Vec<usize> = (0..candidates.len()).collect();
    let ((server, warm), setup_s) = crate::timed_setup(args, || {
        let server = Server::start(&args.staub, None)?;
        let warm = drive(
            &server.endpoint,
            &warm_requests,
            &warm_order,
            0,
            false,
            Duration::MAX,
        )?;
        Ok((server, warm))
    })?;
    // Unknown verdicts are not cached; keep constraints the warm-up
    // decided, so the window exercises the cache read path.
    let decided: HashSet<usize> = warm
        .records
        .iter()
        .filter(|r| {
            let reply = r.reply.as_deref().ok().and_then(|l| json::parse(l).ok());
            let verdict = reply.as_ref().and_then(|j| j.get("verdict")?.as_str());
            matches!(verdict, Some("sat" | "unsat"))
        })
        .map(|r| r.text)
        .collect();
    let bases: Vec<Item> = candidates
        .into_iter()
        .enumerate()
        .filter(|(i, _)| decided.contains(i))
        .take(keep)
        .enumerate()
        .map(|(b, (_, item))| Item { base: b, ..item })
        .collect();
    let mut texts = Vec::with_capacity(bases.len() * (RESPELLINGS + 1));
    for base in &bases {
        texts.push(base.clone());
        for k in 1..=RESPELLINGS {
            let text = corpus::respell(&base.text, k).map_err(|e| format!("{}: {e}", base.name))?;
            texts.push(Item {
                text,
                ..base.clone()
            });
        }
    }
    let mut order: Vec<usize> = (0..texts.len()).collect();
    Rng::new(args.seed).shuffle(&mut order);
    let setup = Setup {
        server,
        requests: requests_for(&texts),
        bases,
        texts,
        order,
        cycle: true,
        persist: None,
    };
    measure(args, setup, setup_s)
}

/// `serve-unique`: canonically distinct fragments, each sent once to a
/// server that persists its answers. Set-up is starting the server on an
/// empty persistence directory.
pub fn run_unique(args: &Args) -> Result<Report, String> {
    let per_family = if args.smoke { 400 } else { 10_000 };
    let texts = corpus::unique_fragments(args.seed, per_family)?;
    let mut rep = 0;
    let ((server, dir), setup_s) = crate::timed_setup(args, || {
        rep += 1;
        let dir = ScratchDir::new(
            args.scratch
                .join(format!("serve-unique-{}-{rep}", std::process::id())),
        )?;
        let server = Server::start(&args.staub, Some(dir.path()))?;
        Ok((server, dir))
    })?;
    let setup = Setup {
        server,
        requests: requests_for(&texts),
        order: (0..texts.len()).collect(),
        bases: texts.clone(),
        texts,
        cycle: false,
        persist: Some(dir),
    };
    measure(args, setup, setup_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_wall_extracts_the_field_and_keys_the_rest() {
        let (wall, key) = split_wall(r#"{"id":"3","wall_ms":0.25,"stats":null}"#);
        assert_eq!(wall, 0.25);
        assert!(!key.contains("wall_ms"));
        let (wall, other) = split_wall(r#"{"id":"3","wall_ms":12,"stats":null}"#);
        assert_eq!((wall, &other), (12.0, &key));
        assert_eq!(split_wall("{}"), (0.0, "{}".to_string()));
    }
}
