//! The STAUB command-line tool.
//!
//! Reads an SMT-LIB script over QF_LIA / QF_NIA / QF_LRA / QF_NRA and
//! either solves it with theory arbitrage (default) or emits the bounded
//! translation for use with any other SMT-LIB solver (`--emit`, the paper's
//! output flag).
//!
//! ```text
//! staub [OPTIONS] <file.smt2>
//! staub lint [--width N] <file.smt2>
//! staub stats [--width N] [--profile P] [--timeout-ms N] <file.smt2>
//! staub batch [BATCH OPTIONS] <dir|file.smt2>...
//! staub serve [SERVE OPTIONS]
//! staub client [--addr A] [--health | --shutdown | <file.smt2>...]
//! staub loadgen [LOADGEN OPTIONS] <dir|file.smt2>...
//!
//! OPTIONS:
//!   --emit             print the bounded SMT-LIB constraint and exit
//!   --width <N>        fixed bitvector width instead of inference
//!   --profile <P>      solver profile: zed (default) or cove
//!   --timeout-ms <N>   per-lane wall-clock budget (default 1000)
//!   --refine <N>       race the baseline against the per-variable refine
//!                      lane, at most N widening rungs (as `batch
//!                      --refine-depth N`)
//!   --reduce           width-reduce an already-bounded QF_BV input (§6.4)
//!   --stats            print inference details and the deciding lane
//! ```
//!
//! Solving runs the portfolio scheduler on the one file, as `staub batch`
//! does: the baseline races the bounded lanes (and the complete and
//! difference-logic lanes where they apply), the first sound answer
//! winning.
//!
//! The `lint` subcommand runs the `staub-lint` certifying checker: it
//! re-sorts the parsed input and, when the input is transformable,
//! re-certifies the bounded translation (boundedness, guard domination,
//! correspondence). Exits nonzero iff error-severity findings exist.
//!
//! The `stats` subcommand solves once with the metrics registry enabled
//! and prints the verdict, the deciding lane (or why the answer is
//! unknown), then the scheduler's lane spans and solver-internal counters.
//!
//! The `batch` subcommand drives every given constraint through the
//! multi-lane portfolio scheduler (baseline + STAUB width-escalation
//! lanes racing on a work-stealing pool) and emits one JSON report line
//! per constraint; see `staub batch --help` for the lane options. Batch
//! metrics are on by default (`--no-stats` disables them); with `--out
//! FILE` the aggregate snapshot is written to `FILE.stats.json`.
//!
//! The `serve` subcommand runs the solver as a long-lived daemon speaking
//! newline-delimited JSON over TCP (and optionally a Unix socket), with a
//! canonical-constraint answer cache in front of the scheduler; `client`
//! and `loadgen` are the matching drivers. See `staub serve --help`.

use std::process::ExitCode;
use std::time::Duration;

use std::fmt::Write as _;

use staub::core::{
    run_one_with, BatchConfig, BatchReport, BatchVerdict, LaneVerdict, RunOptions, Staub,
    StaubConfig, WidenPolicy, WidthChoice,
};
use staub::smtlib::Script;
use staub::solver::SolverProfile;

struct Options {
    file: String,
    emit: bool,
    width: WidthChoice,
    profile: SolverProfile,
    timeout: Duration,
    stats: bool,
    /// Refine-lane depth, when `--refine` was given.
    refine: Option<u32>,
    reduce: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut file = None;
    let mut options = Options {
        file: String::new(),
        emit: false,
        width: WidthChoice::Inferred,
        profile: SolverProfile::Zed,
        timeout: Duration::from_millis(1000),
        stats: false,
        refine: None,
        reduce: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--emit" => options.emit = true,
            "--reduce" => options.reduce = true,
            "--stats" => options.stats = true,
            "--width" => {
                let w = args
                    .next()
                    .ok_or("--width needs a value")?
                    .parse::<u32>()
                    .map_err(|e| format!("invalid width: {e}"))?;
                options.width = WidthChoice::Fixed(w);
            }
            "--profile" => match args.next().as_deref() {
                Some("zed") => options.profile = SolverProfile::Zed,
                Some("cove") => options.profile = SolverProfile::Cove,
                other => return Err(format!("unknown profile {other:?}")),
            },
            "--refine" => {
                let depth = args
                    .next()
                    .ok_or("--refine needs a value")?
                    .parse::<u32>()
                    .map_err(|e| format!("invalid refinement depth: {e}"))?;
                options.refine = Some(depth);
            }
            "--timeout-ms" => {
                let ms = args
                    .next()
                    .ok_or("--timeout-ms needs a value")?
                    .parse::<u64>()
                    .map_err(|e| format!("invalid timeout: {e}"))?;
                options.timeout = Duration::from_millis(ms);
            }
            "--help" | "-h" => return Err("help".to_string()),
            other if !other.starts_with('-') && file.is_none() => file = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    options.file = file.ok_or("missing input file")?;
    Ok(options)
}

const USAGE: &str = "usage: staub [--emit] [--reduce] [--width N] \
[--profile zed|cove] [--timeout-ms N] [--refine N] [--stats] <file.smt2>
       staub lint [--width N] <file.smt2>
       staub stats [--width N] [--profile zed|cove] [--timeout-ms N] <file.smt2>
       staub batch [--threads N] [--timeout-ms N] [--steps N] [--width N] \
[--profile zed|cove|both] [--escalate M,M,... | --refine [--refine-depth N]] \
[--no-baseline] [--no-cancel] [--no-stats] [--out FILE] <dir|file.smt2>...
       staub serve [--addr ENDPOINT] [--unix PATH] [--persist DIR] \
[SERVE OPTIONS]
       staub route --backend ENDPOINT [--backend ENDPOINT ...] [ROUTE OPTIONS]
       staub client [--addr ENDPOINT] [--health | --shutdown | <file.smt2>...]
       staub loadgen [--addr ENDPOINT] [--concurrency N] [--repeat N] \
[--no-cache] [--out FILE] <dir|file.smt2>...";

const STATS_USAGE: &str = "usage: staub stats [--width N] [--profile zed|cove] \
[--timeout-ms N] <file.smt2>

Solves the constraint once, as `staub FILE` does (the portfolio scheduler on
one file), with the metrics registry enabled. Prints the verdict, the lane
that decided it (or the scheduler's reason for an unknown), then the parse
span, the scheduler's lane events and spans (sched.*) and every lane's
solver-internal counters (solver.<lane>.*: SAT decisions/conflicts/
propagations/restarts, bit-blasted clauses, simplex pivots, branch-and-bound
nodes, ICP contractions, FP local-search moves).";

/// `staub stats`: one observed solve, then the metrics snapshot.
fn stats_main(args: Vec<String>) -> ExitCode {
    use staub::core::Metrics;
    use std::sync::Arc;

    let mut width = WidthChoice::Inferred;
    let mut profile = SolverProfile::Zed;
    let mut timeout = Duration::from_millis(1000);
    let mut file = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--width" => {
                let Some(w) = iter.next().and_then(|v| v.parse::<u32>().ok()) else {
                    eprintln!("error: --width needs a numeric value\n{STATS_USAGE}");
                    return ExitCode::from(2);
                };
                width = WidthChoice::Fixed(w);
            }
            "--profile" => match iter.next().as_deref() {
                Some("zed") => profile = SolverProfile::Zed,
                Some("cove") => profile = SolverProfile::Cove,
                other => {
                    eprintln!("error: unknown profile {other:?}\n{STATS_USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--timeout-ms" => {
                let Some(ms) = iter.next().and_then(|v| v.parse::<u64>().ok()) else {
                    eprintln!("error: --timeout-ms needs a numeric value\n{STATS_USAGE}");
                    return ExitCode::from(2);
                };
                timeout = Duration::from_millis(ms);
            }
            "--help" | "-h" => return emit(&format_args!("{STATS_USAGE}\n")),
            other if !other.starts_with('-') && file.is_none() => file = Some(other.to_string()),
            other => {
                eprintln!("error: unexpected argument `{other}`\n{STATS_USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(file) = file else {
        eprintln!("error: missing input file\n{STATS_USAGE}");
        return ExitCode::from(2);
    };
    let source = match std::fs::read_to_string(&file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {file}: {e}");
            return ExitCode::from(2);
        }
    };
    let metrics = Arc::new(Metrics::new());
    let script = match metrics.time("stage.parse", || Script::parse(&source)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let config = solve_config(width, profile, timeout, None);
    let options = RunOptions {
        metrics: Some(Arc::clone(&metrics)),
    };
    let Some(report) = solve(&file, &script, &config, &options) else {
        return ExitCode::FAILURE;
    };
    let mut out = format!("{}\n", report.verdict.name());
    match report.provenance() {
        Some(p) => {
            let _ = writeln!(
                out,
                "; lane {} (x{}) in {} steps",
                p.label, p.multiplier, p.steps
            );
        }
        None => {
            let steps: u64 = report.lanes.iter().map(|l| l.steps_used).sum();
            let _ = writeln!(out, "; no lane decided it ({steps} steps across lanes)");
        }
    }
    if let Some(reason) = report.unknown_reason {
        let _ = writeln!(out, "; unknown reason: {reason}");
    }
    let _ = write!(out, "{}", metrics.snapshot());
    emit(&out)
}

const BATCH_USAGE: &str = "usage: staub batch [BATCH OPTIONS] <dir|file.smt2>...

Runs every constraint through the multi-lane portfolio scheduler and prints
one JSON report line per constraint (winner lane, per-lane timings and
verdicts, cancellation latency).

BATCH OPTIONS:
  --threads <N>       worker threads (default: one per core)
  --timeout-ms <N>    per-lane wall-clock budget (default 1000)
  --steps <N>         per-lane deterministic step budget (default 4000000)
  --width <N>         fixed base width instead of inference
  --profile <P>       zed (default), cove, or both (doubles the lanes)
  --escalate <M,...>  widen globally: escalation multipliers (default 2,4)
  --refine            widen per variable instead: one counterexample-guided
                      refinement lane (excludes --escalate)
  --refine-depth <N>  maximum refinement rungs after the base attempt
                      (default 5; implies --refine)
  --no-baseline       skip the baseline lane (bounded lanes only)
  --no-cancel         let losing lanes run to completion (full timings)
  --no-stats          skip the metrics registry (per-record stats remain)
  --out <FILE>        write the JSONL to FILE instead of stdout
                      (with stats on, the aggregate metrics snapshot goes
                      to FILE.stats.json)";

/// `staub batch`: the multi-lane scheduler over a corpus of files.
fn batch_main(args: Vec<String>) -> ExitCode {
    use staub::core::{run_batch_with, BatchItem, Metrics};
    use std::sync::Arc;

    let mut config = BatchConfig::default();
    // The two widening policies; naming both is a usage error.
    let mut escalations: Option<Vec<u32>> = None;
    let mut refine_depth: Option<u32> = None;
    let mut out_path = None;
    let mut with_stats = true;
    let mut inputs = Vec::new();
    let mut iter = args.into_iter();
    macro_rules! value_of {
        ($flag:literal, $ty:ty) => {
            match iter.next().and_then(|v| v.parse::<$ty>().ok()) {
                Some(v) => v,
                None => return batch_usage_error(format_args!("{} needs a numeric value", $flag)),
            }
        };
    }
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threads" => config.threads = value_of!("--threads", usize),
            "--timeout-ms" => {
                config.timeout = Duration::from_millis(value_of!("--timeout-ms", u64));
            }
            "--steps" => config.steps = value_of!("--steps", u64),
            "--width" => config.width_choice = WidthChoice::Fixed(value_of!("--width", u32)),
            "--refine" => refine_depth = refine_depth.or(Some(WidenPolicy::DEFAULT_DEPTH)),
            "--refine-depth" => refine_depth = Some(value_of!("--refine-depth", u32)),
            "--profile" => match iter.next().as_deref() {
                Some("zed") => config.profiles = vec![SolverProfile::Zed],
                Some("cove") => config.profiles = vec![SolverProfile::Cove],
                Some("both") => config.profiles = vec![SolverProfile::Zed, SolverProfile::Cove],
                other => return batch_usage_error(format_args!("unknown profile {other:?}")),
            },
            "--escalate" => {
                let Some(spec) = iter.next() else {
                    return batch_usage_error("--escalate needs a comma-separated list");
                };
                let mut multipliers = Vec::new();
                for part in spec.split(',').filter(|p| !p.is_empty()) {
                    match part.parse::<u32>() {
                        Ok(m) => multipliers.push(m),
                        Err(e) => {
                            return batch_usage_error(format_args!("bad escalation `{part}`: {e}"))
                        }
                    }
                }
                escalations = Some(multipliers);
            }
            "--no-baseline" => config.include_baseline = false,
            "--no-cancel" => config.cancel_losers = false,
            "--no-stats" => with_stats = false,
            "--out" => {
                let Some(path) = iter.next() else {
                    return batch_usage_error("--out needs a path");
                };
                out_path = Some(path);
            }
            "--help" | "-h" => return emit(&format_args!("{BATCH_USAGE}\n")),
            other if !other.starts_with('-') => inputs.push(other.to_string()),
            other => return batch_usage_error(format_args!("unexpected argument `{other}`")),
        }
    }
    match (escalations, refine_depth) {
        (Some(_), Some(_)) => return batch_usage_error("use --escalate or --refine, not both"),
        (Some(multipliers), None) => config.widen = WidenPolicy::Global(multipliers),
        (None, Some(depth)) => config.widen = WidenPolicy::PerVariable { depth },
        (None, None) => {}
    }
    if inputs.is_empty() {
        return batch_usage_error("no input files or directories");
    }

    let files = match collect_smt2(&inputs) {
        Ok(files) => files,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };

    let mut items = Vec::new();
    for file in &files {
        let name = file.display().to_string();
        let source = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read {name}: {e}");
                return ExitCode::from(2);
            }
        };
        match Script::parse(&source) {
            Ok(script) => items.push(BatchItem { name, script }),
            Err(e) => {
                eprintln!("error: {name}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let metrics = Arc::new(if with_stats {
        Metrics::new()
    } else {
        Metrics::disabled()
    });
    let options = RunOptions {
        metrics: Some(Arc::clone(&metrics)),
    };
    let start = std::time::Instant::now();
    let reports = run_batch_with(&items, &config, &options);
    let wall = start.elapsed();

    let mut jsonl = String::new();
    let (mut sat, mut unsat, mut cancelled) = (0u32, 0u32, 0u32);
    // Unknown is not one population: a budget unknown might resolve with
    // more steps, a linear-non-dl unknown needs a wider certified lane,
    // and mixed-sorts and ineligible-fragment unknowns never decide (no
    // complete lane of any kind exists for them). Report each bucket.
    let (mut unknown_budget, mut unknown_linear) = (0u32, 0u32);
    let (mut unknown_mixed, mut unknown_fragment) = (0u32, 0u32);
    for report in &reports {
        jsonl.push_str(&report.to_jsonl());
        jsonl.push('\n');
        match report.verdict.name() {
            "sat" => sat += 1,
            "unsat" => unsat += 1,
            _ => match report.unknown_reason {
                Some("ineligible-fragment") => unknown_fragment += 1,
                Some("mixed-sorts") => unknown_mixed += 1,
                Some("linear-non-dl") => unknown_linear += 1,
                _ => unknown_budget += 1,
            },
        }
        cancelled += report
            .lanes
            .iter()
            .filter(|l| l.verdict == LaneVerdict::Cancelled)
            .count() as u32;
    }
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, &jsonl) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        if with_stats {
            let stats_path = format!("{path}.stats.json");
            if let Err(e) = std::fs::write(&stats_path, metrics.snapshot().to_json()) {
                eprintln!("error: cannot write {stats_path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let written = emit(&jsonl);
        if written != ExitCode::SUCCESS {
            return written;
        }
        if with_stats {
            eprintln!("; stats: {}", metrics.snapshot().to_json());
        }
    }
    eprintln!(
        "; {} constraints in {:.1?}: {sat} sat, {unsat} unsat, \
         {unknown_budget} unknown (budget), \
         {unknown_linear} unknown (linear, no complete lane), \
         {unknown_mixed} unknown (mixed Int+Real sorts), \
         {unknown_fragment} unknown (ineligible fragment); \
         {cancelled} lanes cancelled",
        reports.len(),
        wall,
    );
    ExitCode::SUCCESS
}

/// Reports a `staub batch` usage error (exit code 2).
fn batch_usage_error(message: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {message}\n{BATCH_USAGE}");
    ExitCode::from(2)
}

/// Expands a mix of files and directories into a sorted `.smt2` file
/// list (directories are scanned one level deep, sorted for determinism).
fn collect_smt2(inputs: &[String]) -> Result<Vec<std::path::PathBuf>, String> {
    let mut files = Vec::new();
    for input in inputs {
        let path = std::path::Path::new(input);
        if path.is_dir() {
            let entries = std::fs::read_dir(path)
                .map_err(|e| format!("cannot read directory {input}: {e}"))?;
            let mut found = Vec::new();
            for entry in entries.flatten() {
                let p = entry.path();
                if p.extension().is_some_and(|e| e == "smt2") {
                    found.push(p);
                }
            }
            found.sort();
            files.extend(found);
        } else {
            files.push(path.to_path_buf());
        }
    }
    if files.is_empty() {
        return Err(format!("no .smt2 files found under {inputs:?}"));
    }
    Ok(files)
}

/// Reads a corpus of (name, source) pairs for the service drivers.
fn read_corpus(inputs: &[String]) -> Result<Vec<(String, String)>, String> {
    let files = collect_smt2(inputs)?;
    let mut corpus = Vec::with_capacity(files.len());
    for file in files {
        let name = file.display().to_string();
        let source =
            std::fs::read_to_string(&file).map_err(|e| format!("cannot read {name}: {e}"))?;
        corpus.push((name, source));
    }
    Ok(corpus)
}

const SERVE_USAGE: &str = "usage: staub serve [SERVE OPTIONS]

Runs the solver as a long-lived daemon. Requests are newline-delimited
JSON ({\"op\":\"solve\",\"constraint\":\"...\"}); see DESIGN.md for the full
protocol grammar. A canonical-constraint answer cache in front of the
scheduler answers repeated (including alpha-renamed and commutatively
reordered) constraints without spawning lanes; with --persist the cache
survives restarts. On Linux connections are served by a nonblocking
epoll reactor with a fixed worker pool, so idle connections cost no
threads. SIGINT drains gracefully: in-flight requests finish, then the
process exits.

SERVE OPTIONS:
  --addr <ENDPOINT>     bind endpoint: HOST:PORT, tcp:HOST:PORT
                        (default 127.0.0.1:7227; port 0 picks an ephemeral
                        port, printed on stdout)
  --unix <PATH>         additionally listen on a Unix socket (Unix only)
  --persist <DIR>       persist the answer cache: snapshot + append-only
                        log in DIR, replayed on the next boot
  --snapshot-every <N>  compact the log into the snapshot every N
                        appended records (default 8192)
  --fsync               fsync the log after every append (durability over
                        throughput; default is flush-only)
  --workers <N>         reactor worker threads (default 4)
  --node-name <NAME>    this node's name in v3 route hop lists
                        (default serve:<bound-address>)
  --threads <N>         scheduler worker threads per request (default: cores)
  --timeout-ms <N>      per-lane wall-clock ceiling (default 1000); clients
                        may request less, never more
  --steps <N>           per-lane step-budget ceiling (default 4000000)
  --no-baseline         skip the baseline lane (bounded lanes only)
  --width <N>           fixed base width instead of inference
  --profile <P>         zed (default), cove, or both
  --no-cache            disable the answer cache
  --cache-capacity <N>  answer-cache entries (default 4096)
  --cache-shards <N>    answer-cache shards (default 8)
  --max-inflight <N>    concurrent solves (default 4)
  --max-waiting <N>     queued solves before `overloaded` (default 64)
  --max-line-bytes <N>  request-line size cap (default 1048576)";

/// `staub serve`: bind, print the address, drain on SIGINT.
fn serve_main(args: Vec<String>) -> ExitCode {
    use staub::service::{signal, CacheConfig, Endpoint, PersistConfig, Server, ServerConfig};

    let mut config = ServerConfig::new().tcp(Endpoint::Tcp("127.0.0.1:7227".to_string()));
    let mut cache = Some(CacheConfig::default());
    let mut persist: Option<PersistConfig> = None;
    let mut iter = args.into_iter();
    macro_rules! value_of {
        ($flag:literal, $ty:ty) => {
            match iter.next().and_then(|v| v.parse::<$ty>().ok()) {
                Some(v) => v,
                None => {
                    eprintln!("error: {} needs a numeric value\n{SERVE_USAGE}", $flag);
                    return ExitCode::from(2);
                }
            }
        };
    }
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => match iter.next().as_deref().map(Endpoint::parse) {
                Some(Ok(endpoint)) => config.tcp = endpoint,
                Some(Err(e)) => {
                    eprintln!("error: {e}\n{SERVE_USAGE}");
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("error: --addr needs an endpoint\n{SERVE_USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--unix" => match iter.next() {
                Some(path) => config.unix = Some(path.into()),
                None => {
                    eprintln!("error: --unix needs a path\n{SERVE_USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--persist" => match iter.next() {
                Some(dir) => match &mut persist {
                    Some(p) => p.dir = dir.into(),
                    None => persist = Some(PersistConfig::in_dir(dir)),
                },
                None => {
                    eprintln!("error: --persist needs a directory\n{SERVE_USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--snapshot-every" => {
                let every = value_of!("--snapshot-every", u64);
                persist
                    .get_or_insert_with(|| PersistConfig::in_dir("staub-cache"))
                    .snapshot_every = every;
            }
            "--fsync" => {
                persist
                    .get_or_insert_with(|| PersistConfig::in_dir("staub-cache"))
                    .fsync = true;
            }
            "--workers" => config.workers = value_of!("--workers", usize),
            "--node-name" => match iter.next() {
                Some(name) => config.node_name = Some(name),
                None => {
                    eprintln!("error: --node-name needs a value\n{SERVE_USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--threads" => config.batch.threads = value_of!("--threads", usize),
            "--timeout-ms" => {
                config.batch.timeout = Duration::from_millis(value_of!("--timeout-ms", u64));
            }
            "--steps" => config.batch.steps = value_of!("--steps", u64),
            "--no-baseline" => config.batch.include_baseline = false,
            "--width" => {
                config.batch.width_choice = WidthChoice::Fixed(value_of!("--width", u32));
            }
            "--profile" => match iter.next().as_deref() {
                Some("zed") => config.batch.profiles = vec![SolverProfile::Zed],
                Some("cove") => config.batch.profiles = vec![SolverProfile::Cove],
                Some("both") => {
                    config.batch.profiles = vec![SolverProfile::Zed, SolverProfile::Cove];
                }
                other => {
                    eprintln!("error: unknown profile {other:?}\n{SERVE_USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--no-cache" => cache = None,
            "--cache-capacity" => {
                let capacity = value_of!("--cache-capacity", usize);
                cache.get_or_insert_with(CacheConfig::default).capacity = capacity;
            }
            "--cache-shards" => {
                let shards = value_of!("--cache-shards", usize);
                cache.get_or_insert_with(CacheConfig::default).shards = shards;
            }
            "--max-inflight" => config.max_inflight = value_of!("--max-inflight", usize),
            "--max-waiting" => config.max_waiting = value_of!("--max-waiting", usize),
            "--max-line-bytes" => config.max_line_bytes = value_of!("--max-line-bytes", usize),
            "--help" | "-h" => return emit(&format_args!("{SERVE_USAGE}\n")),
            other => {
                eprintln!("error: unexpected argument `{other}`\n{SERVE_USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    config.cache = cache;
    config.persist = persist;

    signal::install_handlers();
    let server = match Server::launch(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The scripted wait-for-boot handshake: CI and tools watch stdout for
    // this exact prefix before firing requests. Nobody reading it is no
    // reason to stop serving.
    let _ = emit(&format_args!("listening on {}\n", server.local_addr()));
    let summary = server.join();
    eprintln!(
        "; drained after {:.1?}: {} connections, {} requests",
        summary.uptime, summary.connections, summary.requests
    );
    ExitCode::SUCCESS
}

const CLIENT_USAGE: &str = "usage: staub client [--addr HOST:PORT] \
[--timeout-ms N] [--steps N] [--no-cache] [--health | --shutdown | <file.smt2>...]

One-shot driver for a running `staub serve`. With --health, prints the
server's health snapshot (version, uptime, cache and scheduler counters).
With --shutdown, asks the server to drain. Otherwise solves each given
file and prints one response line per file. Exits nonzero if any reply
is an error or the transport fails.";

/// `staub client`: one-shot requests against a running server.
fn client_main(args: Vec<String>) -> ExitCode {
    use staub::service::{
        health_request, shutdown_request, solve_request, Connection, Endpoint, EndpointStream,
    };

    let mut addr = "127.0.0.1:7227".to_string();
    let mut health = false;
    let mut shutdown = false;
    let mut no_cache = false;
    let mut timeout_ms = None;
    let mut steps = None;
    let mut files = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => match iter.next() {
                Some(a) => addr = a,
                None => {
                    eprintln!("error: --addr needs a HOST:PORT value\n{CLIENT_USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--health" => health = true,
            "--shutdown" => shutdown = true,
            "--no-cache" => no_cache = true,
            "--timeout-ms" => timeout_ms = iter.next().and_then(|v| v.parse::<u64>().ok()),
            "--steps" => steps = iter.next().and_then(|v| v.parse::<u64>().ok()),
            "--help" | "-h" => return emit(&format_args!("{CLIENT_USAGE}\n")),
            other if !other.starts_with('-') => files.push(other.to_string()),
            other => {
                eprintln!("error: unexpected argument `{other}`\n{CLIENT_USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if !health && !shutdown && files.is_empty() {
        eprintln!("error: nothing to do (want --health, --shutdown, or files)\n{CLIENT_USAGE}");
        return ExitCode::from(2);
    }

    let endpoint = match Endpoint::parse(&addr) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {e}\n{CLIENT_USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut conn = match Connection::connect(&endpoint) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot connect to {endpoint}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Returns `true` when the reply indicates failure.
    fn run(conn: &mut Connection<EndpointStream>, request: &str) -> bool {
        match conn.roundtrip(request) {
            Ok(reply) => {
                emit(&format_args!("{reply}\n")) != ExitCode::SUCCESS
                    || reply.contains("\"status\":\"error\"")
                    || reply.contains("\"status\":\"overloaded\"")
            }
            Err(e) => {
                eprintln!("error: {e}");
                true
            }
        }
    }
    let mut failed = false;
    if health {
        failed |= run(&mut conn, &health_request());
    }
    for file in &files {
        match std::fs::read_to_string(file) {
            Ok(source) => {
                failed |= run(
                    &mut conn,
                    &solve_request(file, &source, timeout_ms, steps, no_cache),
                );
            }
            Err(e) => {
                eprintln!("error: cannot read {file}: {e}");
                failed = true;
            }
        }
    }
    if shutdown {
        failed |= run(&mut conn, &shutdown_request());
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

const LOADGEN_USAGE: &str = "usage: staub loadgen [--addr HOST:PORT] \
[--concurrency N] [--repeat N] [--timeout-ms N] [--steps N] [--no-cache] \
[--out FILE] <dir|file.smt2>...

Replays a corpus of constraints against a running `staub serve` at the
requested concurrency, audits every response (well-formedness plus exact
re-evaluation of returned models), writes one JSONL record per request,
and prints a throughput summary. Exits nonzero if any response was
malformed, any model failed the audit, or the transport misbehaved.";

/// `staub loadgen`: corpus replay + response audit against a server.
fn loadgen_main(args: Vec<String>) -> ExitCode {
    use staub::service::{run_loadgen, Endpoint, LoadgenConfig};

    let mut config = LoadgenConfig {
        endpoint: Endpoint::Tcp("127.0.0.1:7227".to_string()),
        ..LoadgenConfig::default()
    };
    let mut out_path = None;
    let mut inputs = Vec::new();
    let mut iter = args.into_iter();
    macro_rules! value_of {
        ($flag:literal, $ty:ty) => {
            match iter.next().and_then(|v| v.parse::<$ty>().ok()) {
                Some(v) => v,
                None => {
                    eprintln!("error: {} needs a numeric value\n{LOADGEN_USAGE}", $flag);
                    return ExitCode::from(2);
                }
            }
        };
    }
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => match iter.next().as_deref().map(Endpoint::parse) {
                Some(Ok(endpoint)) => config.endpoint = endpoint,
                Some(Err(e)) => {
                    eprintln!("error: {e}\n{LOADGEN_USAGE}");
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("error: --addr needs an endpoint\n{LOADGEN_USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--concurrency" => config.concurrency = value_of!("--concurrency", usize),
            "--repeat" => config.repeat = value_of!("--repeat", usize),
            "--timeout-ms" => config.timeout_ms = Some(value_of!("--timeout-ms", u64)),
            "--steps" => config.steps = Some(value_of!("--steps", u64)),
            "--no-cache" => config.no_cache = true,
            "--out" => match iter.next() {
                Some(path) => out_path = Some(path),
                None => {
                    eprintln!("error: --out needs a path\n{LOADGEN_USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => return emit(&format_args!("{LOADGEN_USAGE}\n")),
            other if !other.starts_with('-') => inputs.push(other.to_string()),
            other => {
                eprintln!("error: unexpected argument `{other}`\n{LOADGEN_USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if inputs.is_empty() {
        eprintln!("error: no input files or directories\n{LOADGEN_USAGE}");
        return ExitCode::from(2);
    }
    let corpus = match read_corpus(&inputs) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };

    let outcome = match run_loadgen(&corpus, &config) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: loadgen failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut jsonl = String::new();
    for record in &outcome.records {
        jsonl.push_str(&record.to_jsonl());
        jsonl.push('\n');
    }
    match out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &jsonl) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => {
            let written = emit(&jsonl);
            if written != ExitCode::SUCCESS {
                return written;
            }
        }
    }
    eprintln!(
        "; {} requests in {:.1?}: {:.1} req/s, p50 {:.1?}, p95 {:.1?}; \
         {} hit / {} miss / {} uncached; {} transport error(s)",
        outcome.records.len(),
        outcome.wall,
        outcome.rps(),
        outcome.latency_percentile(50.0),
        outcome.latency_percentile(95.0),
        outcome.cache_count("hit"),
        outcome.cache_count("miss"),
        outcome.cache_count("off"),
        outcome.transport_errors,
    );
    if outcome.clean() {
        ExitCode::SUCCESS
    } else {
        let bad_form = outcome.records.iter().filter(|r| !r.well_formed).count();
        let unsound = outcome.records.iter().filter(|r| !r.sound).count();
        eprintln!("; FAILED: {bad_form} malformed, {unsound} unsound replies");
        ExitCode::FAILURE
    }
}

const ROUTE_USAGE: &str = "usage: staub route --backend ENDPOINT \
[--backend ENDPOINT ...] [ROUTE OPTIONS]

Runs a front node that shards solve requests across backend `staub serve`
processes by consistent-hashing the canonical constraint fingerprint, so
every repeat of a constraint (under any variable names) lands on the same
backend and its warm answer cache. Failed backends are retried after a
cooldown; requests fail over to the next backend on the ring. Session ops
are refused (sessions are connection-stateful; open them against a
backend directly).

ROUTE OPTIONS:
  --listen <ENDPOINT>   bind endpoint (default 127.0.0.1:7337; port 0
                        picks an ephemeral port, printed on stdout)
  --backend <ENDPOINT>  a backend `staub serve` endpoint (repeatable;
                        at least one required)
  --vnodes <N>          virtual ring points per backend (default 64)
  --node-name <NAME>    this node's name in v3 route hop lists
                        (default route:<bound-address>)
  --workers <N>         router worker threads (default 4)
  --max-line-bytes <N>  request-line size cap (default 1048576)";

/// `staub route`: the consistent-hash sharding front node.
fn route_main(args: Vec<String>) -> ExitCode {
    use staub::service::{signal, Endpoint, RouteConfig, Router};

    let mut config = RouteConfig {
        listen: Endpoint::Tcp("127.0.0.1:7337".to_string()),
        ..RouteConfig::default()
    };
    let mut iter = args.into_iter();
    macro_rules! endpoint_of {
        ($flag:literal) => {
            match iter.next().as_deref().map(Endpoint::parse) {
                Some(Ok(endpoint)) => endpoint,
                Some(Err(e)) => {
                    eprintln!("error: {e}\n{ROUTE_USAGE}");
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("error: {} needs an endpoint\n{ROUTE_USAGE}", $flag);
                    return ExitCode::from(2);
                }
            }
        };
    }
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--listen" => config.listen = endpoint_of!("--listen"),
            "--backend" => config.backends.push(endpoint_of!("--backend")),
            "--vnodes" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => config.vnodes = n,
                None => {
                    eprintln!("error: --vnodes needs a numeric value\n{ROUTE_USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--workers" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => config.workers = n,
                None => {
                    eprintln!("error: --workers needs a numeric value\n{ROUTE_USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--max-line-bytes" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => config.max_line_bytes = n,
                None => {
                    eprintln!("error: --max-line-bytes needs a numeric value\n{ROUTE_USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--node-name" => match iter.next() {
                Some(name) => config.node_name = Some(name),
                None => {
                    eprintln!("error: --node-name needs a value\n{ROUTE_USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => return emit(&format_args!("{ROUTE_USAGE}\n")),
            other => {
                eprintln!("error: unexpected argument `{other}`\n{ROUTE_USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if config.backends.is_empty() {
        eprintln!("error: at least one --backend is required\n{ROUTE_USAGE}");
        return ExitCode::from(2);
    }

    signal::install_handlers();
    let router = match Router::launch(config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cannot start router: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Same wait-for-boot handshake as `staub serve`.
    let _ = emit(&format_args!("listening on {}\n", router.local_addr()));
    router.join();
    eprintln!("; router drained");
    ExitCode::SUCCESS
}

/// `staub lint`: run the certifying checker over a script and (when
/// transformable) its bounded translation. Exit code 1 iff error-severity
/// findings were reported.
fn lint_main(args: Vec<String>) -> ExitCode {
    use staub::core::check::check_transformed;
    use staub::lint::{resort, Severity};

    let mut width = WidthChoice::Inferred;
    let mut file = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--width" => {
                let Some(w) = iter.next().and_then(|v| v.parse::<u32>().ok()) else {
                    eprintln!("error: --width needs a numeric value\n{USAGE}");
                    return ExitCode::from(2);
                };
                width = WidthChoice::Fixed(w);
            }
            other if !other.starts_with('-') && file.is_none() => file = Some(other.to_string()),
            other => {
                eprintln!("error: unexpected argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(file) = file else {
        eprintln!("error: missing input file\n{USAGE}");
        return ExitCode::from(2);
    };
    let source = match std::fs::read_to_string(&file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {file}: {e}");
            return ExitCode::from(2);
        }
    };
    let script = match Script::parse(&source) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    // Pass 1 on the parsed input itself.
    let mut report = resort(script.store());

    // Passes 1–3 on the bounded translation, when one exists. A failing
    // transformation is not a lint finding — the pipeline would simply
    // revert to the original constraint.
    let staub = Staub::new(StaubConfig {
        width_choice: width,
        ..Default::default()
    });
    if script
        .logic()
        .is_none_or(staub::smtlib::Logic::is_unbounded)
    {
        match staub.transform(&script) {
            Ok(transformed) => report.merge(check_transformed(&script, &transformed)),
            Err(e) => eprintln!("; not transformable ({e}); input checks only"),
        }
    }

    let mut out = String::new();
    for finding in &report.findings {
        let _ = writeln!(out, "{finding}");
    }
    let errors = report.error_count();
    let warnings = report
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Warning)
        .count();
    let _ = writeln!(out, "{file}: {errors} error(s), {warnings} warning(s)");
    let written = emit(&out);
    if errors > 0 {
        ExitCode::FAILURE
    } else {
        written
    }
}

/// Writes `text` to a locked stdout. A reader that has already gone away
/// (`staub --emit f | head`) is a clean exit: the text was only for it.
fn emit(text: &dyn std::fmt::Display) -> ExitCode {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    match write!(out, "{text}").and_then(|()| out.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: cannot write output: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    {
        let mut args = std::env::args().skip(1);
        match args.next().as_deref() {
            Some("lint") => return lint_main(args.collect()),
            Some("stats") => return stats_main(args.collect()),
            Some("batch") => return batch_main(args.collect()),
            Some("serve") => return serve_main(args.collect()),
            Some("route") => return route_main(args.collect()),
            Some("client") => return client_main(args.collect()),
            Some("loadgen") => return loadgen_main(args.collect()),
            _ => {}
        }
    }
    let options = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if msg == "help" {
                return emit(&format_args!("{USAGE}\n"));
            }
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let source = match std::fs::read_to_string(&options.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", options.file);
            return ExitCode::from(2);
        }
    };
    let script = match Script::parse(&source) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let staub = Staub::new(StaubConfig {
        width_choice: options.width,
        ..Default::default()
    });

    if options.stats {
        let bounds = staub.infer(&script);
        eprintln!(
            "; bound inference: x = {}, [S] = {}, {} nodes",
            bounds.assumption_width, bounds.root_width, bounds.nodes_visited
        );
    }

    if options.reduce {
        use staub::core::bvreduce;
        use staub::solver::{SatResult, Solver};
        let Some(width) = bvreduce::infer_reduction(&script) else {
            eprintln!("error: input is not a reducible uniform-width QF_BV script");
            return ExitCode::FAILURE;
        };
        let Some(reduced) = bvreduce::reduce(&script, width) else {
            eprintln!("error: constants do not fit the inferred width {width}");
            return ExitCode::FAILURE;
        };
        if options.stats {
            eprintln!(
                "; reduced (_ BitVec {}) to (_ BitVec {})",
                reduced.original_width, reduced.width
            );
        }
        if options.emit {
            return emit(&reduced.script);
        }
        let solver = Solver::new(options.profile).with_timeout(options.timeout);
        return match solver.solve(&reduced.script).result {
            SatResult::Sat(narrow) => match bvreduce::lift_and_verify(&script, &reduced, &narrow) {
                Some(model) => emit(&format_args!("sat\n{}\n", model.to_smtlib(script.store()))),
                None => {
                    eprintln!("; narrow model did not verify; rerun without --reduce");
                    emit(&"unknown\n")
                }
            },
            _ => {
                eprintln!("; narrow constraint gave no verified answer");
                emit(&"unknown\n")
            }
        };
    }

    if options.emit {
        return match staub.transform(&script) {
            Ok(transformed) => {
                if options.stats {
                    eprintln!(
                        "; target: {}, {} guards",
                        match (transformed.bv_width, transformed.fp_format) {
                            (Some(w), _) => format!("(_ BitVec {w})"),
                            (_, Some((eb, sb))) => format!("(_ FloatingPoint {eb} {sb})"),
                            _ => "?".to_string(),
                        },
                        transformed.guard_count
                    );
                }
                emit(&transformed.script)
            }
            Err(e) => {
                eprintln!("error: cannot transform: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let start = std::time::Instant::now();
    let config = solve_config(
        options.width,
        options.profile,
        options.timeout,
        options.refine,
    );
    let Some(report) = solve(&options.file, &script, &config, &RunOptions::default()) else {
        return ExitCode::FAILURE;
    };
    if options.stats {
        let lane = report
            .winner_lane()
            .map_or_else(|| "none".to_string(), |l| l.spec.label());
        eprintln!("; decided by lane {lane} in {:?}", start.elapsed());
    }
    let text = match report.verdict {
        BatchVerdict::Sat(model) => format!("sat\n{}\n", model.to_smtlib(script.store())),
        verdict => format!("{}\n", verdict.name()),
    };
    emit(&text)
}

/// The scheduler configuration of `staub FILE` and `staub stats`: the
/// batch defaults under one profile, with `--refine N` planning the refine
/// lane at depth N (as `batch --refine-depth N`).
fn solve_config(
    width: WidthChoice,
    profile: SolverProfile,
    timeout: Duration,
    refine: Option<u32>,
) -> BatchConfig {
    let defaults = BatchConfig::default();
    BatchConfig {
        timeout,
        width_choice: width,
        profiles: vec![profile],
        widen: refine.map_or(defaults.widen, |depth| WidenPolicy::PerVariable { depth }),
        ..defaults
    }
}

/// Runs the scheduler on one file; `None` (after saying why) when the
/// script asserts nothing.
fn solve(
    file: &str,
    script: &Script,
    config: &BatchConfig,
    options: &RunOptions,
) -> Option<BatchReport> {
    if script.assertions().is_empty() {
        eprintln!("error: script has no assertions");
        return None;
    }
    Some(run_one_with(file, script, config, options))
}
