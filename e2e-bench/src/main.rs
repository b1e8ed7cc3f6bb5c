//! End-to-end benchmark of STAUB as its users see it: text in, verdicts
//! checked, time measured from outside.
//!
//! ```text
//! bash e2e-bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! bash e2e-bench/run.sh --workload all --repeat 10
//! ```
//!
//! `run.sh` builds `staub` and this program (release) from the checkout and
//! runs it from the repository root. The last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`:
//! every end-to-end metric untraced, every per-layer metric with
//! `--trace 1`. A run with a failed request prints `"correct":false` and
//! exits 1. `--repeat R` runs each workload R times, each in a fresh process
//! with seeds `seed..seed+R`, and prints every metric's median, quartiles
//! and spread (interquartile range over median).
//!
//! # Workloads
//!
//! | name | what runs | why |
//! |---|---|---|
//! | `paper-mix` | the paper's evaluation suites as `EvalConfig` generates them (seed `0x57a0b`: NIA 64, LIA 36, NRA 28, LRA 12) plus 24 skewed-width constraints, in process, in an order drawn from the seed; one whole pass, about 23 s on the machine the bounds were set on | the engines (baseline ICP/simplex, bit-blast + SAT) do nearly all the work, and a few hard NIA and NRA constraints take most of it: the paper's premise |
//! | `fragments` | LIA, LRA, difference logic and linear (coefficients up to 64), 5,000 each, in process, cycling for `--seconds` | a median solve takes about 0.3 ms, so parse, analysis, lane planning, lane spawn and cancel, and transform are a large share |
//! | `serve-repeat` | 512 fragments the server decided in a warm-up pass, each as generated plus 3 α-renamed spellings with rotated assertions, to `staub serve` for `--seconds` | every request hits the answer cache: the read path (framing, reactor, parse, canonicalize, lookup, re-verification of `sat`, serialize) with lanes almost never running |
//! | `serve-unique` | fragments from another seed stream, deduplicated by canonical fingerprint, each sent once to `staub serve --persist` for `--seconds` | every request misses: lanes over the wire, the cache store and the persistent log append |
//!
//! `paper-mix` draws its constraints from the fixed seed because a fresh
//! draw changes which constraints are hard: on three seeds one pass took
//! 34, 25 and 27 s. The seed still orders the pass.
//!
//! In process, one client thread calls `run_one_with`, the entry point
//! serve uses per request, with two scheduler threads. The serve workloads
//! start `staub serve` with its defaults plus the same budgets and drive it
//! over two connections. Both are closed loops: a client sends its next
//! request when the previous reply arrives.
//!
//! Every lane runs under a 250,000-step budget and a 60 s timeout that
//! never binds, so verdicts, and with them `decided_frac`, repeat exactly.
//!
//! Every input is benchgen output printed to SMT-LIB text and parsed back,
//! which is what users submit. It matters: on the NRA suite (28
//! constraints, seed `0x57a0b`) the generator's in-memory scripts took 21k
//! steps and 25 ms and left 10 unknown, while the same scripts printed and
//! parsed back, byte-identical text, took 4.6M steps and 5.5 s and left 12
//! unknown. NIA shows the same kind of gap.
//!
//! # Correctness
//!
//! A request fails on an error or transport error, an `error` or
//! `overloaded` reply, a reply that fails `audit_reply`, a `sat` model that
//! does not satisfy the text by exact evaluation, a verdict that
//! contradicts benchgen's ground truth, or one that differs from the
//! in-process verdict under the same budgets. Serve workloads solve in
//! process, after the window, every distinct `serve-repeat` constraint and
//! the first 128 `serve-unique` texts; in-process workloads check that a
//! text solved twice gets the same verdict.
//!
//! # Metrics
//!
//! End to end, from untraced runs:
//!
//! * `setup_s`: median time of at least three set-ups, repeated until
//!   0.5 s is spent. In process, parsing the corpus; `serve-repeat`,
//!   starting the server and its warm-up pass; `serve-unique`, starting
//!   the server on an empty persistence directory.
//! * `throughput_per_s`: requests completed over the window's wall time.
//! * `latency_p50_ms`: nearest-rank median of the raw per-request samples.
//! * `decided_frac`: share of requests answered `sat` or `unsat`.
//!
//! Each run also prints its sample count and the p90 and p99 that have at
//! least ten samples beyond them (p99 from 1,000 samples). They, and peak
//! memory, are not bounded metrics: on a two-vCPU VM their spread over ten
//! seeds reached 27% (p90, `paper-mix`) and 24% (peak RSS,
//! `serve-repeat`).
//!
//! Per layer, from `--trace 1`, with the end-to-end metric each should
//! move:
//!
//! | layer metric | should move | on |
//! |---|---|---|
//! | `smtlib.parse_us`, `smtlib.canon_us` | `latency_p50_ms`, `throughput_per_s` | `serve-repeat` (`fragments` for parse) |
//! | `absint.infer_us`, `absint.certify_us`, `absint.dl_detect_us`, `sched.plan_us` | `throughput_per_s` | `fragments` |
//! | `sched.overhead_us` (run wall time minus the longest lane or ladder), `sched.lanes_run` (per constraint), `sched.cancel_latency_us`, `sched.useful_lane_frac` (lanes won per lane started) | `latency_p50_ms` | `fragments` |
//! | `sched.cancel_latency_us`, `sched.useful_lane_frac` | `throughput_per_s` | `paper-mix` |
//! | `sched.win_share.{dl,complete,staub,baseline}` | explains `decided_frac` | `paper-mix`, `fragments` |
//! | `transform.us` (`t_trans`), `verify.us` (`t_check`), `verify.pass_frac` | `throughput_per_s` | `fragments` |
//! | `solver.bounded_us` (`t_post`), `solver.baseline_us`, `solver.steps` (per constraint), `solver.steps_per_ms.{baseline,bounded}` | `throughput_per_s` | `paper-mix` |
//! | `service.cache.hit_frac`, `service.server_us` (reply `wall_ms`), `service.wire_us` (round trip minus `wall_ms`: reactor, queue wait, socket) | `latency_p50_ms` | `serve-repeat` |
//! | `service.persist.bytes_per_req` (growth of the persistence directory) | `throughput_per_s` | `serve-unique` |
//! | `memory.peak_rss_mb` (VmHWM of this process in process, of the server for serve) | none: memory has no bounded metric | all |
//! | `trace.coverage`, `trace.overhead_frac` | the ledger has no unexplained time | all |
//!
//! Times are mean self times per span: a span's length minus the part its
//! child spans cover. In process, each request records one span per public
//! call: `Script::parse`, `canonicalize`, `absint::{infer, certify,
//! difference_logic}`, `sched::plan_lanes` and `run_one_with`. The
//! report's lanes become child spans of `run_one_with`, and `t_trans`,
//! `t_post` and `t_check` become theirs. Lane start times are not
//! reported: the baseline and difference-logic lanes are placed at the
//! start of the run and the bounded lanes one after another, as the warm
//! ladder runs them. Each constraint is solved untraced and traced, in
//! alternating order; `trace.overhead_frac` is the share of traced time the
//! untraced solves did not need.
//!
//! For serve, each request's round trip is a span, split by the reply's
//! `wall_ms` into server time and wire time; spans are built after the
//! window from the client's timestamps. An untraced half-window and a
//! traced one give `trace.overhead_frac`. The layers below the service are
//! measured by solving the checked constraints in process, traced, after
//! the window. Service metrics read 0 on in-process workloads, which have
//! no service layer.
//!
//! `trace.coverage` is the share of the traced client time that lies
//! inside request spans; every part of a request span is attributed to a
//! named layer.
//!
//! Two warnings when reading the numbers:
//!
//! * Steps are not a common unit of time. The NIA baseline burns 500k
//!   steps in 2.7–7 s, bounded lanes in 0.3–0.9 s; compare
//!   `solver.steps_per_ms.*`, not steps, across engines.
//! * `BatchReport::wall` and `time_to_answer` count from the start of a
//!   batch, so in a multi-constraint batch they include the time a
//!   constraint waits in the queue. This benchmark submits one constraint
//!   per call and times it from outside.

#![forbid(unsafe_code)]

mod corpus;
mod inproc;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use staub_service::json::{self, Json};

/// Fewest set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Cheap set-ups repeat until this much time has been spent on them...
const SETUP_BUDGET: Duration = Duration::from_millis(500);

/// ...or this many have run.
const SETUP_MAX_REPS: usize = 100;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["paper-mix", "fragments", "serve-repeat", "serve-unique"];

/// Command-line arguments.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    staub: PathBuf,
    scratch: PathBuf,
    repeat: usize,
    smoke: bool,
}

impl Args {
    fn window(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

const USAGE: &str =
    "usage: e2e_bench --workload paper-mix|fragments|serve-repeat|serve-unique|all \
[--seed N] [--seconds N] [--trace 0|1] [--staub PATH] [--scratch DIR] [--repeat R] [--smoke]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15,
        trace: false,
        staub: PathBuf::from("target/release/staub"),
        scratch: PathBuf::from("target/e2e-bench"),
        repeat: 0,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            "--staub" => args.staub = PathBuf::from(&value),
            "--scratch" => args.scratch = PathBuf::from(&value),
            "--repeat" => args.repeat = number()? as usize,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let known = WORKLOADS.contains(&args.workload.as_str());
    if !(known || (args.workload == "all" && args.repeat > 0)) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

impl Metric {
    /// A metric with its unit.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    lines: Vec<String>,
}

impl Report {
    fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    /// Adds throughput and median latency over a window, and notes the
    /// sample count and the tail percentiles that have ten samples beyond
    /// them.
    fn speed(&mut self, latencies_ms: &[f64], wall: Duration) {
        let sorted = stats::sorted(latencies_ms);
        let n = sorted.len();
        self.push(Metric::new(
            "throughput_per_s",
            "1/s",
            n as f64 / wall.as_secs_f64(),
        ));
        self.push(Metric::new(
            "latency_p50_ms",
            "ms",
            stats::percentile(&sorted, 50),
        ));
        let tail: Vec<String> = [90, 99]
            .into_iter()
            .filter(|&p| stats::has_tail(n, p))
            .map(|p| format!("p{p} {:.3} ms", stats::percentile(&sorted, p)))
            .collect();
        self.lines
            .push(format!("{n} latency samples; {}", tail.join(", ")));
    }

    fn to_json(&self) -> Result<String, String> {
        let mut metrics = Vec::new();
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("{} is not finite", m.name));
            }
            metrics.push(format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        ))
    }
}

/// Runs `setup` at least [`SETUP_REPS`] times and until [`SETUP_BUDGET`]
/// has been spent (at most [`SETUP_MAX_REPS`]; once when tracing),
/// dropping each result before the next starts; returns the last result
/// and the median time.
pub fn timed_setup<T>(
    args: &Args,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let (min, max) = if args.trace {
        (1, 1)
    } else {
        (SETUP_REPS, SETUP_MAX_REPS)
    };
    let mut last = None;
    let mut times = Vec::new();
    while times.len() < min
        || (times.len() < max && times.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64())
    {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), stats::median(&times)))
}

/// Peak resident set size (VmHWM) of a process, this one by default.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or(format!("{path} has no VmHWM"))
}

fn run_workload(args: &Args) -> Result<Report, String> {
    let smoke = args.smoke;
    match args.workload.as_str() {
        "paper-mix" => {
            let scale = if smoke { 0.1 } else { 1.0 };
            inproc::run(args, &corpus::paper_mix(args.seed, scale), true)
        }
        "fragments" => {
            let per_family = if smoke { 50 } else { 5_000 };
            inproc::run(args, &corpus::fragments(args.seed, per_family), false)
        }
        "serve-repeat" => serve::run_repeat(args),
        "serve-unique" => serve::run_unique(args),
        other => Err(format!("unknown workload {other}")),
    }
}

/// `--repeat`: runs each workload `args.repeat` times in fresh processes
/// and prints each metric's median and quartiles; `Ok(false)` when a run
/// failed.
fn repeat(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_correct = true;
    for workload in workloads {
        // (name, unit, one value per run), in first-seen order.
        let mut seen: Vec<(String, String, Vec<f64>)> = Vec::new();
        let mut failed_runs = 0;
        for seed in args.seed..args.seed + args.repeat as u64 {
            let mut command = Command::new(&exe);
            command
                .args(["--workload", workload])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .arg("--staub")
                .arg(&args.staub)
                .arg("--scratch")
                .arg(&args.scratch);
            if args.smoke {
                command.arg("--smoke");
            }
            let output = command.output().map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let result = json::parse(stdout.lines().last().unwrap_or("")).ok();
            let correct = result.as_ref().and_then(|j| j.get("correct")?.as_bool());
            if !output.status.success() || correct != Some(true) {
                failed_runs += 1;
                eprintln!("{workload} seed {seed}: failed run\n{stdout}");
            }
            let Some(Json::Obj(metrics)) = result.as_ref().and_then(|j| j.get("metrics")) else {
                continue;
            };
            for (name, m) in metrics {
                let (Some(Json::Num(value)), Some(unit)) =
                    (m.get("value"), m.get("unit").and_then(Json::as_str))
                else {
                    continue;
                };
                match seen.iter_mut().find(|(n, _, _)| n == name) {
                    Some((_, _, values)) => values.push(*value),
                    None => seen.push((name.clone(), unit.to_string(), vec![*value])),
                }
            }
        }
        println!("{workload}: {} runs, {failed_runs} failed", args.repeat);
        println!(
            "  {:<32} {:>9} {:>14} {:>14} {:>14} {:>8}",
            "metric", "unit", "median", "q1", "q3", "spread"
        );
        for (name, unit, values) in &seen {
            let med = stats::median(values);
            let (q1, q3) = if values.len() >= 2 {
                stats::quartiles(values)
            } else {
                (med, med)
            };
            println!(
                "  {name:<32} {unit:>9} {med:>14.6} {q1:>14.6} {q3:>14.6} {:>8.4}",
                inproc::ratio(q3 - q1, med.abs())
            );
        }
        all_correct &= failed_runs == 0;
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.repeat > 0 {
        return match repeat(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = run_workload(&args).and_then(|report| Ok((report.to_json()?, report)));
    match result {
        Ok((json, report)) => {
            println!(
                "{} seed {} ({} s{}), {} cores: {} attempted, {} failed",
                args.workload,
                args.seed,
                args.seconds,
                if args.trace { ", traced" } else { "" },
                std::thread::available_parallelism().map_or(0, usize::from),
                report.attempted,
                report.failed
            );
            for line in &report.lines {
                println!("{line}");
            }
            for m in &report.metrics {
                println!("  {:<32} {:>14.6} {}", m.name, m.value, m.unit);
            }
            println!("{json}");
            if report.failed == 0 && report.attempted > 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
