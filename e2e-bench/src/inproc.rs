//! In-process workloads: one client thread submits text to the scheduler's
//! per-request entry point, `run_one_with` — the call `staub serve` makes
//! for every cache miss — in a closed loop.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use staub_core::sched::plan_lanes;
use staub_core::{
    absint, run_one_with, BatchConfig, BatchReport, BatchVerdict, LaneKind, LaneVerdict, Metrics,
    MetricsSnapshot, RunOptions,
};
use staub_smtlib::{canonicalize, evaluate, Model, Script, Value};

use crate::corpus::Item;
use crate::trace::Trace;
use crate::{Args, Metric, Report};

/// Per-lane step budget. It, not the wall-clock timeout, ends every lane,
/// so verdicts repeat exactly from run to run.
pub const STEPS: u64 = 250_000;

/// Per-lane wall-clock timeout: far above what [`STEPS`] takes, so it
/// never binds.
pub const TIMEOUT: Duration = Duration::from_secs(60);

/// The scheduler configuration in-process requests solve under: the
/// defaults with two scheduler threads and the budgets above, which is what
/// `staub serve --steps 250000 --timeout-ms 60000` runs on two cores.
pub fn batch_config() -> BatchConfig {
    BatchConfig {
        threads: 2,
        steps: STEPS,
        timeout: TIMEOUT,
        ..BatchConfig::default()
    }
}

/// What one request produced, kept for the checks after the window.
#[derive(Debug, Clone)]
pub struct Solved {
    /// `sat`, `unsat` or `unknown`.
    pub verdict: &'static str,
    /// The model of a `sat` verdict.
    pub model: Option<Model>,
}

fn solved(report: BatchReport) -> Solved {
    let verdict = report.verdict.name();
    let model = match report.verdict {
        BatchVerdict::Sat(model) => Some(model),
        BatchVerdict::Unsat | BatchVerdict::Unknown => None,
    };
    Solved { verdict, model }
}

/// The untraced request: parse the text, solve it.
pub fn solve(item: &Item, config: &BatchConfig) -> Result<Solved, String> {
    let script = Script::parse(&item.text).map_err(|e| format!("{}: {e}", item.name))?;
    let report = run_one_with(&item.name, &script, config, &RunOptions::default());
    Ok(solved(report))
}

/// Whether a verdict contradicts the generator's ground truth.
pub fn contradicts(expected: Option<bool>, verdict: &str) -> bool {
    matches!(
        (expected, verdict),
        (Some(true), "unsat") | (Some(false), "sat")
    )
}

/// Whether `model` makes every assertion of `text` true, by exact
/// evaluation independent of the solver.
fn model_holds(text: &str, model: &Model) -> bool {
    let Ok(script) = Script::parse(text) else {
        return false;
    };
    script
        .assertions()
        .iter()
        .all(|&a| matches!(evaluate(script.store(), a, model), Ok(Value::Bool(true))))
}

/// Lane-level totals gathered from traced reports.
#[derive(Debug, Default)]
struct LaneTotals {
    constraints: u64,
    decided: u64,
    /// Wins by lane kind: difference logic, complete, bounded, baseline.
    wins: [u64; 4],
    steps: u64,
    baseline_steps: u64,
    baseline_solve: Duration,
    bounded_steps: u64,
    bounded_solve: Duration,
    verify_ran: u64,
    verified: u64,
}

fn kind_index(kind: &LaneKind) -> usize {
    match kind {
        LaneKind::DiffLogic => 0,
        LaneKind::Complete { .. } => 1,
        LaneKind::Staub { .. } | LaneKind::Refine { .. } => 2,
        LaneKind::Baseline => 3,
    }
}

impl LaneTotals {
    fn add(&mut self, report: &BatchReport) {
        self.constraints += 1;
        if let Some(winner) = report.winner_lane() {
            self.decided += 1;
            self.wins[kind_index(&winner.spec.kind)] += 1;
        }
        for lane in &report.lanes {
            self.steps += lane.steps_used;
            match lane.spec.kind {
                LaneKind::Baseline => {
                    self.baseline_steps += lane.steps_used;
                    self.baseline_solve += lane.t_post;
                }
                LaneKind::DiffLogic => {}
                LaneKind::Staub { .. } | LaneKind::Complete { .. } | LaneKind::Refine { .. } => {
                    self.bounded_steps += lane.steps_used;
                    self.bounded_solve += lane.t_post;
                    if !lane.t_check.is_zero() {
                        self.verify_ran += 1;
                        self.verified += u64::from(lane.verdict == LaneVerdict::SatVerified);
                    }
                }
            }
        }
    }
}

/// The traced request path: one span per public call the request makes,
/// and the lanes of the report as child spans of `run_one_with`.
pub struct Tracer {
    /// The spans recorded so far.
    pub trace: Trace,
    totals: LaneTotals,
    metrics: Arc<Metrics>,
    next_request: u64,
}

impl Tracer {
    /// A tracer with an empty trace and registry.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            trace: Trace::new(origin),
            totals: LaneTotals::default(),
            metrics: Arc::new(Metrics::new()),
            next_request: 0,
        }
    }

    /// Parses and solves one text, recording its spans.
    pub fn solve(&mut self, item: &Item, config: &BatchConfig) -> Result<Solved, String> {
        let req = self.next_request;
        self.next_request += 1;
        let t = &mut self.trace;
        let root = t.open(req, None, "request");
        let parsed = t.time(req, Some(root), "smtlib.parse", || {
            Script::parse(&item.text)
        });
        let script = match parsed {
            Ok(script) => script,
            Err(e) => {
                t.close(root);
                return Err(format!("{}: {e}", item.name));
            }
        };
        t.time(req, Some(root), "smtlib.canon", || {
            black_box(canonicalize(&script))
        });
        t.time(req, Some(root), "absint.infer", || {
            black_box(absint::infer(&script))
        });
        t.time(req, Some(root), "absint.certify", || {
            black_box(absint::certify(&script))
        });
        t.time(req, Some(root), "absint.dl_detect", || {
            black_box(absint::difference_logic(&script))
        });
        t.time(req, Some(root), "sched.plan", || {
            black_box(plan_lanes(&script, config))
        });
        let options = RunOptions {
            metrics: Some(Arc::clone(&self.metrics)),
            ..RunOptions::default()
        };
        let started = Instant::now();
        let run = t.open(req, Some(root), "sched.run_one");
        let report = run_one_with(&item.name, &script, config, &options);
        t.close(run);
        // Lane start times are not reported. The baseline and difference-
        // logic lanes start with the run; the bounded lanes of the (single)
        // profile run one after another as a warm ladder (`RunOptions::warm`).
        let mut ladder = started;
        for lane in report.lanes.iter().filter(|l| !l.elapsed.is_zero()) {
            match lane.spec.kind {
                LaneKind::Baseline => {
                    t.record(req, Some(run), "solver.baseline", started, lane.elapsed);
                }
                LaneKind::DiffLogic => {
                    t.record(req, Some(run), "solver.dl", started, lane.elapsed);
                }
                LaneKind::Staub { .. } | LaneKind::Complete { .. } | LaneKind::Refine { .. } => {
                    let span = t.record(req, Some(run), "lane.bounded", ladder, lane.elapsed);
                    let mut at = ladder;
                    for (name, len) in [
                        ("transform", lane.t_trans),
                        ("solver.bounded", lane.t_post),
                        ("verify", lane.t_check),
                    ] {
                        t.record(req, Some(span), name, at, len);
                        at += len;
                    }
                    ladder += lane.elapsed;
                }
            }
        }
        t.close(root);
        self.totals.add(&report);
        Ok(solved(report))
    }

    /// The per-layer metrics below the service: analysis, scheduler,
    /// lanes and engines.
    pub fn layer_metrics(&self) -> Vec<Metric> {
        let layers = self.trace.layers();
        let us = |name: &str| layers.get(name).map_or(0.0, |l| l.mean_us());
        let registry: MetricsSnapshot = self.metrics.snapshot();
        let counter = |name: &str| registry.counters.get(name).copied().unwrap_or(0) as f64;
        let started = counter("sched.lane_started");
        let cancel_us = registry
            .histograms
            .get("sched.cancel_latency")
            .map_or(0.0, |h| ratio(h.sum_us as f64, h.count as f64));
        let t = &self.totals;
        let per_ms = |steps: u64, time: Duration| ratio(steps as f64, time.as_secs_f64() * 1e3);
        let share = |k: usize| ratio(t.wins[k] as f64, t.decided as f64);
        vec![
            Metric::new("smtlib.parse_us", "us", us("smtlib.parse")),
            Metric::new("smtlib.canon_us", "us", us("smtlib.canon")),
            Metric::new("absint.infer_us", "us", us("absint.infer")),
            Metric::new("absint.certify_us", "us", us("absint.certify")),
            Metric::new("absint.dl_detect_us", "us", us("absint.dl_detect")),
            Metric::new("sched.plan_us", "us", us("sched.plan")),
            Metric::new("sched.overhead_us", "us", us("sched.run_one")),
            Metric::new(
                "sched.lanes_run",
                "count",
                ratio(started, t.constraints as f64),
            ),
            Metric::new("sched.cancel_latency_us", "us", cancel_us),
            Metric::new(
                "sched.useful_lane_frac",
                "frac",
                ratio(counter("sched.lane_won"), started),
            ),
            Metric::new("sched.win_share.dl", "frac", share(0)),
            Metric::new("sched.win_share.complete", "frac", share(1)),
            Metric::new("sched.win_share.staub", "frac", share(2)),
            Metric::new("sched.win_share.baseline", "frac", share(3)),
            Metric::new("transform.us", "us", us("transform")),
            Metric::new("verify.us", "us", us("verify")),
            Metric::new(
                "verify.pass_frac",
                "frac",
                ratio(t.verified as f64, t.verify_ran as f64),
            ),
            Metric::new("solver.bounded_us", "us", us("solver.bounded")),
            Metric::new("solver.baseline_us", "us", us("solver.baseline")),
            Metric::new(
                "solver.steps",
                "count",
                ratio(t.steps as f64, t.constraints as f64),
            ),
            Metric::new(
                "solver.steps_per_ms.baseline",
                "steps/ms",
                per_ms(t.baseline_steps, t.baseline_solve),
            ),
            Metric::new(
                "solver.steps_per_ms.bounded",
                "steps/ms",
                per_ms(t.bounded_steps, t.bounded_solve),
            ),
        ]
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One measured request.
struct Sample {
    /// Corpus index.
    idx: usize,
    /// Parse plus solve.
    latency: Duration,
    /// The result, or why there is none.
    outcome: Result<Solved, String>,
}

/// A closed loop over the corpus, from its first item, cycling.
struct Window {
    /// Every request, in order.
    samples: Vec<Sample>,
    /// From the first request's start to the last one's end.
    wall: Duration,
}

/// Sends corpus items one at a time until `window` has passed (and, with
/// `whole_passes`, the pass in progress is complete); the request in
/// flight at the deadline finishes and counts.
fn run_window(
    corpus: &[Item],
    window: Duration,
    whole_passes: bool,
    mut request: impl FnMut(&Item) -> Result<Solved, String>,
) -> Window {
    let start = Instant::now();
    let mut samples = Vec::new();
    let unfinished_pass = |done: usize| whole_passes && !done.is_multiple_of(corpus.len());
    while start.elapsed() < window || unfinished_pass(samples.len()) {
        let idx = samples.len() % corpus.len();
        let sent = Instant::now();
        let outcome = request(&corpus[idx]);
        samples.push(Sample {
            idx,
            latency: sent.elapsed(),
            outcome,
        });
    }
    Window {
        samples,
        wall: start.elapsed(),
    }
}

/// Counts failed requests: errors, verdicts that contradict ground truth
/// or an earlier verdict for the same text, and `sat` models that do not
/// satisfy the text.
fn failures(corpus: &[Item], samples: &[Sample]) -> u64 {
    let mut seen: HashMap<usize, &'static str> = HashMap::new();
    let mut failed = 0;
    for s in samples {
        let item = &corpus[s.idx];
        let bad = match &s.outcome {
            Err(e) => {
                eprintln!("error: {e}");
                true
            }
            Ok(solved) => {
                let first = *seen.entry(s.idx).or_insert(solved.verdict);
                contradicts(item.expected, solved.verdict)
                    || first != solved.verdict
                    || (solved.verdict == "sat"
                        && !solved
                            .model
                            .as_ref()
                            .is_some_and(|m| model_holds(&item.text, m)))
            }
        };
        if bad {
            eprintln!("failed: {}", item.name);
            failed += 1;
        }
    }
    failed
}

fn decided_frac(samples: &[Sample]) -> f64 {
    let decided = samples
        .iter()
        .filter(|s| matches!(&s.outcome, Ok(x) if x.verdict != "unknown"))
        .count();
    ratio(decided as f64, samples.len() as f64)
}

/// Runs an in-process workload. Its set-up is parsing every text of the
/// corpus, as a user reads their constraint files. With `whole_passes` the
/// untraced window covers the corpus a whole number of times, so that every
/// metric covers the same constraints whatever their order.
pub fn run(args: &Args, corpus: &[Item], whole_passes: bool) -> Result<Report, String> {
    let ((), setup_s) = crate::timed_setup(args, || {
        for item in corpus {
            Script::parse(&item.text).map_err(|e| format!("{}: {e}", item.name))?;
        }
        Ok(())
    })?;
    let config = batch_config();
    let mut report = Report::default();
    if !args.trace {
        let w = run_window(corpus, args.window(), whole_passes, |item| {
            solve(item, &config)
        });
        report.attempted = w.samples.len() as u64;
        report.failed = failures(corpus, &w.samples);
        let latencies: Vec<f64> = w.samples.iter().map(|s| ms(s.latency)).collect();
        report.push(Metric::new("setup_s", "s", setup_s));
        report.speed(&latencies, w.wall);
        report.push(Metric::new(
            "decided_frac",
            "frac",
            decided_frac(&w.samples),
        ));
        return Ok(report);
    }
    // Traced: every constraint runs untraced and traced, alternating which
    // goes first, so the two throughputs compare the same work.
    let mut tracer = Tracer::new(Instant::now());
    let (mut plain, mut traced) = (Duration::ZERO, Duration::ZERO);
    let mut traced_first = false;
    let w = run_window(corpus, args.window(), false, |item| {
        traced_first = !traced_first;
        let mut untraced = || {
            let start = Instant::now();
            let out = solve(item, &config);
            plain += start.elapsed();
            out
        };
        let (a, b) = if traced_first {
            let start = Instant::now();
            let b = tracer.solve(item, &config);
            traced += start.elapsed();
            (untraced(), b)
        } else {
            let a = untraced();
            let start = Instant::now();
            let b = tracer.solve(item, &config);
            traced += start.elapsed();
            (a, b)
        };
        match (a?, b?) {
            (a, b) if a.verdict == b.verdict => Ok(b),
            (a, b) => Err(format!(
                "{}: {} untraced but {} traced",
                item.name, a.verdict, b.verdict
            )),
        }
    });
    report.attempted = w.samples.len() as u64;
    report.failed = failures(corpus, &w.samples);
    let (spans, requests) = tracer.trace.counts();
    report
        .lines
        .push(format!("{spans} spans over {requests} traced requests"));
    report.metrics = tracer.layer_metrics();
    report
        .metrics
        .extend(crate::serve::absent_service_metrics());
    report.push(Metric::new(
        "memory.peak_rss_mb",
        "MB",
        crate::peak_rss_mb(None)?,
    ));
    report.push(Metric::new(
        "trace.coverage",
        "frac",
        ratio(tracer.trace.root_time().as_secs_f64(), traced.as_secs_f64()),
    ));
    report.push(Metric::new(
        "trace.overhead_frac",
        "frac",
        1.0 - ratio(plain.as_secs_f64(), traced.as_secs_f64()),
    ));
    Ok(report)
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
