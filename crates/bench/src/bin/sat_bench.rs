//! Arena CDCL core vs the vendored pre-refactor solver: the CI acceptance
//! gate behind the SAT hot-path restructuring, and the start of the
//! propagation-throughput trajectory.
//!
//! Every bounded lane STAUB races bottoms out in unit propagation, so the
//! corpus is pure CNF, deterministic, and solver-agnostic:
//!
//! * **planted 3-SAT** — LCG-generated instances with a planted model
//!   (satisfiable; heavy propagation, light conflict);
//! * **pigeonhole** — `n+1` pigeons into `n` holes (unsatisfiable;
//!   resolution-hard, exercises conflict analysis, clause learning, and
//!   DB reduction);
//! * **xor chain** — an odd-parity xor cycle in CNF (unsatisfiable;
//!   long implication chains, restart-heavy).
//!
//! Both cores solve the identical instance list under an unlimited budget.
//! Output: `BENCH_sat.json` (path overridable as `argv[1]`) with
//! per-instance verdicts, conflicts, propagations, and wall time, the new
//! core's arena footprint and inprocessing counters, plus the gate bits
//! CI greps for:
//!
//! * `verdicts_ok` — both cores agree with the instance's ground truth on
//!   every instance;
//! * `throughput_ok` — the arena core's aggregate propagations/sec is at
//!   least 0.9× the reference core's (guard band for CI hardware jitter;
//!   the committed artifact shows the real ratio ≥ 1).
//!
//! Exits nonzero when any gate fails.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use staub_bench::reference_sat as old;
use staub_solver::sat as new;
use staub_solver::Budget;

/// A clause as `(variable index, polarity)` pairs.
type Clause = Vec<(usize, bool)>;

struct Instance {
    name: String,
    num_vars: usize,
    clauses: Vec<Clause>,
    expected: &'static str,
}

/// Deterministic LCG (same constants as the solver unit tests) so the
/// corpus is identical on every run and machine.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as u32
    }
}

/// Planted 3-SAT: every clause keeps at least one literal agreeing with a
/// hidden model, so the instance is satisfiable by construction.
fn planted_3sat(seed: u64, num_vars: usize, num_clauses: usize) -> Instance {
    let mut rng = Lcg(seed);
    let planted: Vec<bool> = (0..num_vars)
        .map(|_| rng.next().is_multiple_of(2))
        .collect();
    let mut clauses = Vec::with_capacity(num_clauses);
    for _ in 0..num_clauses {
        let mut clause = Vec::with_capacity(3);
        let forced = rng.next() as usize % num_vars;
        clause.push((forced, planted[forced]));
        for _ in 0..2 {
            let v = rng.next() as usize % num_vars;
            clause.push((v, rng.next().is_multiple_of(2)));
        }
        clauses.push(clause);
    }
    Instance {
        name: format!("planted3sat/v{num_vars}c{num_clauses}s{seed}"),
        num_vars,
        clauses,
        expected: "sat",
    }
}

/// `holes + 1` pigeons into `holes` holes: unsatisfiable, resolution-hard.
fn pigeonhole(holes: usize) -> Instance {
    let pigeons = holes + 1;
    let var = |p: usize, h: usize| p * holes + h;
    let mut clauses = Vec::new();
    for p in 0..pigeons {
        clauses.push((0..holes).map(|h| (var(p, h), true)).collect());
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                clauses.push(vec![(var(p1, h), false), (var(p2, h), false)]);
            }
        }
    }
    Instance {
        name: format!("pigeonhole/{pigeons}into{holes}"),
        num_vars: pigeons * holes,
        clauses,
        expected: "unsat",
    }
}

/// An odd-parity xor cycle: `x_i ⊕ x_{i+1} = 1` around a ring of odd
/// length is unsatisfiable (the parities sum to 1 over a cycle).
fn xor_ring(len: usize) -> Instance {
    assert!(len % 2 == 1, "odd ring length for unsatisfiability");
    let mut clauses = Vec::new();
    for i in 0..len {
        let j = (i + 1) % len;
        clauses.push(vec![(i, true), (j, true)]);
        clauses.push(vec![(i, false), (j, false)]);
    }
    Instance {
        name: format!("xorring/{len}"),
        num_vars: len,
        clauses,
        expected: "unsat",
    }
}

fn corpus() -> Vec<Instance> {
    vec![
        planted_3sat(0xdead_beef, 150, 620),
        planted_3sat(0xc0ff_ee11, 200, 840),
        planted_3sat(0x5eed_5eed, 250, 1050),
        pigeonhole(6),
        pigeonhole(7),
        xor_ring(101),
        xor_ring(201),
    ]
}

struct LegRow {
    verdict: &'static str,
    conflicts: u64,
    propagations: u64,
    wall: Duration,
}

fn run_new(inst: &Instance) -> (LegRow, u64, u64, u64) {
    let mut s = new::SatSolver::new(new::SatConfig::default());
    let vars: Vec<new::Var> = (0..inst.num_vars).map(|_| s.new_var()).collect();
    for c in &inst.clauses {
        let lits: Vec<new::Lit> = c
            .iter()
            .map(|&(v, pos)| new::Lit::new(vars[v], pos))
            .collect();
        s.add_clause(&lits);
    }
    let start = Instant::now();
    let verdict = match s.solve(&Budget::unlimited()) {
        new::SatSolverResult::Sat => "sat",
        new::SatSolverResult::Unsat => "unsat",
        new::SatSolverResult::Unknown => "unknown",
    };
    let wall = start.elapsed();
    (
        LegRow {
            verdict,
            conflicts: s.conflicts,
            propagations: s.propagations,
            wall,
        },
        s.arena_bytes() as u64,
        s.subsumed,
        s.strengthened,
    )
}

fn run_old(inst: &Instance) -> LegRow {
    let mut s = old::SatSolver::new(old::SatConfig::default());
    let vars: Vec<old::Var> = (0..inst.num_vars).map(|_| s.new_var()).collect();
    for c in &inst.clauses {
        let lits: Vec<old::Lit> = c
            .iter()
            .map(|&(v, pos)| old::Lit::new(vars[v], pos))
            .collect();
        s.add_clause(&lits);
    }
    let start = Instant::now();
    let verdict = match s.solve(&Budget::unlimited()) {
        old::SatSolverResult::Sat => "sat",
        old::SatSolverResult::Unsat => "unsat",
        old::SatSolverResult::Unknown => "unknown",
    };
    let wall = start.elapsed();
    LegRow {
        verdict,
        conflicts: s.conflicts,
        propagations: s.propagations,
        wall,
    }
}

fn props_per_sec(props: u64, wall: Duration) -> u64 {
    let secs = wall.as_secs_f64();
    if secs <= 0.0 {
        return 0;
    }
    (props as f64 / secs) as u64
}

fn main() -> ExitCode {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sat.json".to_string());
    let instances = corpus();

    // Warm-up pass (untimed) so first-touch page faults and lazy
    // allocator growth do not land in either leg's measurement.
    for inst in &instances {
        let _ = run_new(inst);
        let _ = run_old(inst);
    }

    let mut rows = Vec::new();
    let mut verdicts_ok = true;
    let (mut new_props, mut old_props) = (0u64, 0u64);
    let (mut new_wall, mut old_wall) = (Duration::ZERO, Duration::ZERO);
    let (mut arena_bytes, mut subsumed, mut strengthened) = (0u64, 0u64, 0u64);
    for inst in &instances {
        let (n, bytes, sub, strength) = run_new(inst);
        let o = run_old(inst);
        if n.verdict != inst.expected || o.verdict != inst.expected {
            verdicts_ok = false;
        }
        new_props += n.propagations;
        old_props += o.propagations;
        new_wall += n.wall;
        old_wall += o.wall;
        arena_bytes += bytes;
        subsumed += sub;
        strengthened += strength;
        rows.push(format!(
            concat!(
                "    {{\"name\":\"{}\",\"expected\":\"{}\",",
                "\"verdict_new\":\"{}\",\"verdict_old\":\"{}\",",
                "\"conflicts_new\":{},\"conflicts_old\":{},",
                "\"propagations_new\":{},\"propagations_old\":{},",
                "\"wall_us_new\":{},\"wall_us_old\":{},",
                "\"arena_bytes\":{},\"subsumed\":{},\"strengthened\":{}}}"
            ),
            inst.name,
            inst.expected,
            n.verdict,
            o.verdict,
            n.conflicts,
            o.conflicts,
            n.propagations,
            o.propagations,
            n.wall.as_micros(),
            o.wall.as_micros(),
            bytes,
            sub,
            strength,
        ));
    }

    let pps_new = props_per_sec(new_props, new_wall);
    let pps_old = props_per_sec(old_props, old_wall);
    // Guard band for CI hardware jitter; the committed artifact is
    // expected to show the ratio at or above 1.0.
    let throughput_ok = pps_new * 10 >= pps_old * 9;
    let ratio = if pps_old > 0 {
        pps_new as f64 / pps_old as f64
    } else {
        0.0
    };

    let json = format!(
        "{{\n  \"corpus\": [\n{}\n  ],\n  \"totals\": {{\
         \"propagations_new\":{new_props},\"propagations_old\":{old_props},\
         \"wall_us_new\":{},\"wall_us_old\":{},\
         \"props_per_sec_new\":{pps_new},\"props_per_sec_old\":{pps_old},\
         \"throughput_ratio\":{ratio:.3},\
         \"arena_bytes\":{arena_bytes},\"subsumed\":{subsumed},\
         \"strengthened\":{strengthened}}},\n  \
         \"verdicts_ok\": {verdicts_ok},\n  \
         \"throughput_ok\": {throughput_ok}\n}}\n",
        rows.join(",\n"),
        new_wall.as_micros(),
        old_wall.as_micros(),
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }

    println!(
        "arena core {pps_new} props/sec vs reference {pps_old} props/sec \
         (ratio {ratio:.3})"
    );
    println!(
        "arena {arena_bytes} bytes | subsumed {subsumed} | strengthened \
         {strengthened} | verdicts ok: {verdicts_ok}"
    );
    if !verdicts_ok || !throughput_ok {
        eprintln!(
            "FAIL: both cores must match ground truth on every instance, \
             and the arena core's propagation throughput must not regress \
             below 0.9x the reference"
        );
        return ExitCode::FAILURE;
    }
    println!("PASS (report: {out_path})");
    ExitCode::SUCCESS
}
