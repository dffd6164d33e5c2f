//! `batch-solve`: a library grid timed cell by cell.
//!
//! A cell is one `(instance, policy)` pair: `policy::by_name(..).run`
//! followed by `ColumnSchedule::validate`, fanned over
//! `malleable_bench::parallel::par_map`. Three slices stress different
//! layers:
//!
//! * **dense** — the serve task family (`P = 16`) at `n = 1000` under the
//!   rate-space lanes; its time is almost all `validate`;
//! * **flow** — power-law speeds and restricted assignment (`m = 8`)
//!   under the flow/probe/rank-oracle lanes; its time is almost all
//!   solver;
//! * **exact** — a 1/64-quantized family at `bigratio::Rational` with
//!   zero-tolerance validation; the only place `bigratio` runs.

use crate::report::{Fails, Report};
use crate::rng::{quantized_task, uniform_task, Rng};
use crate::stats::{mean, median, percentile, MIN_BEYOND};
use bigratio::Rational;
use malleable_core::bounds::arrival_aware_lower_bound;
use malleable_core::instance::Instance;
use malleable_core::policy;
use malleable_workloads::{generate, Spec};
use numkit::Scalar;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Machine capacity of the uniform families.
pub const P: f64 = 16.0;

/// Dense slice: the validate-bound rate-space lanes at `n = 1000`, and
/// `lmax-parametric`, whose float witness fails on some draws of this
/// family at `n ≥ 800`, at `n = 500`. The float `greedy-smith` and
/// `best-greedy` are left out: they return over-capacity schedules on
/// some draws at every size tried down to `n = 300` (README.md); they
/// run in the exact slice, and the traced run re-tests them.
const DENSE_N: usize = 1000;
const DENSE_POLICIES: &[&str] = &["wdeq", "wf-fast"];
const DENSE_SAFE_N: usize = 500;
const DENSE_SAFE_POLICIES: &[&str] = &["lmax-parametric"];
/// Flow slice: power-law speeds at `n = 300`, restricted assignment at
/// `n = 200` (where `wf-related` costs about as much as the dense cells),
/// and `greedy-smith-related` at `n = 40` on both (it is super-linear).
const FLOW_SPEEDS_N: usize = 300;
const FLOW_RESTRICTED_N: usize = 200;
const FLOW_POLICIES: &[&str] = &["lmax-parametric-related", "wf-related", "priority"];
const GREEDY_RELATED_N: usize = 40;
const EXACT_N: usize = 200;
const EXACT_POLICIES: &[&str] = &["wdeq", "wf-fast", "greedy-smith", "lmax-parametric"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slice {
    Dense,
    Flow,
    Exact,
}

impl Slice {
    pub fn name(self) -> &'static str {
        match self {
            Slice::Dense => "dense",
            Slice::Flow => "flow",
            Slice::Exact => "exact",
        }
    }
}

#[derive(Debug)]
pub enum CellInstance {
    F64(Arc<Instance>),
    Exact(Arc<Instance<Rational>>),
}

#[derive(Debug)]
pub struct Cell {
    pub slice: Slice,
    pub family: String,
    pub policy: &'static str,
    pub instance: CellInstance,
}

impl Cell {
    pub fn n(&self) -> usize {
        match &self.instance {
            CellInstance::F64(i) => i.n(),
            CellInstance::Exact(i) => i.n(),
        }
    }

    /// Report group: `exact` for the exact slice, else [`policy_group`].
    pub fn group(&self) -> &'static str {
        match self.slice {
            Slice::Exact => "exact",
            _ => policy_group(self.policy),
        }
    }
}

/// The `policy.run_ms.<group>` a policy's solve time is reported under.
pub fn policy_group(policy: &str) -> &'static str {
    match policy {
        "wdeq" => "wdeq",
        "wf-fast" => "wf",
        "lmax-parametric" => "lmax",
        "greedy-smith-related" => "greedy-related",
        _ => "related",
    }
}

/// What one cell produced.
#[derive(Debug, Clone, Default)]
pub struct CellOut {
    pub run_ms: f64,
    pub validate_ms: f64,
    /// `Some` when the policy returned a schedule (valid or not).
    pub cost_ratio: Option<f64>,
    pub valid: bool,
    pub error: Option<String>,
    pub columns: u64,
    pub nnz: u64,
    pub promoted: u64,
    pub completions: u64,
    /// Completion times as `f64` bit patterns (exact cells: rounded).
    pub digest: u64,
}

impl CellOut {
    pub fn fails(&self) -> Fails {
        let mut f = Fails::default();
        if self.cost_ratio.is_none() {
            f.policy_error = 1;
        } else if !self.valid {
            f.invalid_schedule = 1;
        }
        f
    }
}

/// Time one instance construction into `build_us`.
fn timed<T>(build_us: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    build_us.push(t0.elapsed().as_secs_f64() * 1e6);
    out
}

/// The grid for `seed` with every size divided by `scale` (1 for the
/// measured grid): the same seed gives the same cells, instances and
/// order. Each instance construction is timed into `build_us`.
pub fn build(seed: u64, scale: usize, build_us: &mut Vec<f64>) -> Vec<Cell> {
    let mut cells = Vec::new();
    let size = |n: usize| (n / scale).max(4);

    let mut rng = Rng::new(seed, 0xD0);
    for (n, policies) in [
        (size(DENSE_N), DENSE_POLICIES),
        (size(DENSE_SAFE_N), DENSE_SAFE_POLICIES),
    ] {
        let tasks: Vec<_> = (0..n).map(|_| uniform_task(&mut rng)).collect();
        let inst = Arc::new(timed(build_us, || {
            Instance::builder(P)
                .tasks(tasks)
                .build()
                .expect("uniform family is valid")
        }));
        for &policy in policies {
            cells.push(Cell {
                slice: Slice::Dense,
                family: format!("uniform[n={n}]"),
                policy,
                instance: CellInstance::F64(inst.clone()),
            });
        }
    }

    let speeds = |n| Spec::PowerLawSpeeds {
        n,
        machines: 8,
        alpha: 1.0,
    };
    let restricted = |n| Spec::RestrictedAssignment {
        n,
        machines: 8,
        min_eligible: 2,
    };
    let flow = [
        (speeds(size(FLOW_SPEEDS_N)), FLOW_POLICIES),
        (restricted(size(FLOW_RESTRICTED_N)), FLOW_POLICIES),
        (
            speeds(size(GREEDY_RELATED_N)),
            &["greedy-smith-related"][..],
        ),
        (
            restricted(size(GREEDY_RELATED_N)),
            &["greedy-smith-related"][..],
        ),
    ];
    for (k, (spec, policies)) in flow.iter().enumerate() {
        let inst = Arc::new(timed(build_us, || {
            generate(spec, seed.wrapping_add(0xF0 + k as u64))
        }));
        for &policy in *policies {
            cells.push(Cell {
                slice: Slice::Flow,
                family: spec.label().into_owned(),
                policy,
                instance: CellInstance::F64(inst.clone()),
            });
        }
    }

    let mut rng = Rng::new(seed, 0xE0);
    let exact_n = size(EXACT_N);
    let tasks: Vec<_> = (0..exact_n).map(|_| quantized_task(&mut rng)).collect();
    let exact = Arc::new(timed(build_us, || {
        Instance::builder(P)
            .tasks(tasks)
            .build()
            .expect("quantized family is valid")
            .to_scalar::<Rational>()
    }));
    for &policy in EXACT_POLICIES {
        cells.push(Cell {
            slice: Slice::Exact,
            family: format!("quantized[n={exact_n}]"),
            policy,
            instance: CellInstance::Exact(exact.clone()),
        });
    }
    cells
}

/// Scalars whose outputs can report `bigratio` tier promotion.
trait Promotion {
    fn promoted(&self) -> bool;
}

impl Promotion for f64 {
    fn promoted(&self) -> bool {
        false
    }
}

impl Promotion for Rational {
    fn promoted(&self) -> bool {
        self.is_promoted()
    }
}

fn run_typed<S: Scalar + Promotion>(instance: &Instance<S>, name: &str) -> CellOut {
    let mut out = CellOut::default();
    let Some(p) = policy::by_name::<S>(name) else {
        out.error = Some(format!("unknown policy {name}"));
        return out;
    };
    let t0 = Instant::now();
    let run = std::hint::black_box(p.run(instance));
    out.run_ms = t0.elapsed().as_secs_f64() * 1e3;
    let run = match run {
        Ok(r) => r,
        Err(e) => {
            out.error = Some(e.to_string());
            return out;
        }
    };
    let s = &run.schedule;
    let t1 = Instant::now();
    let verdict = s.validate(instance);
    out.validate_ms = t1.elapsed().as_secs_f64() * 1e3;
    out.valid = verdict.is_ok();
    if let Err(e) = verdict {
        out.error = Some(e.to_string());
    }
    let cost = s.weighted_completion_cost(instance).to_f64();
    let bound = arrival_aware_lower_bound(instance).to_f64();
    out.cost_ratio = Some(if bound > 0.0 { cost / bound } else { 1.0 });
    out.columns = s.columns.len() as u64;
    out.nnz = s.columns.iter().map(|c| c.rates.len() as u64).sum();
    out.completions = s.completions.len() as u64;
    out.promoted = s.completions.iter().filter(|c| c.promoted()).count() as u64;
    out.digest = s.completions.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, c| {
        (h ^ c.to_f64().to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    });
    out
}

pub fn run_cell(cell: &Cell) -> CellOut {
    match &cell.instance {
        CellInstance::F64(i) => run_typed(i, cell.policy),
        CellInstance::Exact(i) => run_typed(i, cell.policy),
    }
}

/// One pass over the grid on `par_map`: per-cell outcomes (grid order)
/// and the pass wall time in seconds.
///
/// Each cell flushes its thread's trace buffer (a no-op untraced):
/// `par_map`'s scope can return before a worker's thread-local buffer is
/// dropped, and its last events would miss the session.
pub fn pass(cells: &[Cell]) -> (Vec<CellOut>, f64) {
    let t0 = Instant::now();
    let outs = malleable_bench::parallel::par_map((0..cells.len()).collect(), |i| {
        // A panicking policy is a failed cell, not a failed run.
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_cell(&cells[i])))
            .unwrap_or_else(|_| CellOut {
                error: Some("the policy panicked".into()),
                ..CellOut::default()
            });
        malleable_trace::flush_thread();
        out
    });
    (outs, t0.elapsed().as_secs_f64())
}

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Size divisor and seed of the warm-up grid each set-up runs once. The
/// seed is fixed, so set-up does the same work on every run.
const WARMUP_SCALE: usize = 5;
const WARMUP_SEED: u64 = 0x5EED;
/// Passes per run at least, so the cell-latency p90 has ten samples
/// beyond it.
const MIN_PASSES: usize = 7;
/// The cell-latency tail percentile.
const TAIL_PCT: f64 = 90.0;

/// Run `batch-solve`: set up, run grid passes for `seconds`, check, and
/// report. With `trace`, one more pass runs inside a trace session and
/// the per-layer metrics are reported.
pub fn workload(seed: u64, seconds: f64, trace: bool, report: &mut Report) -> Result<(), String> {
    // Set-up: generate the first pass's grid and warm every lane once on
    // a fixed grid a fifth the size (code, allocator and thread start-up).
    let mut setup = Vec::new();
    let mut build_us = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        build(pass_seed(seed, 0), 1, &mut build_us);
        let warm = build(WARMUP_SEED, WARMUP_SCALE, &mut Vec::new());
        pass(&warm);
        setup.push(t0.elapsed().as_secs_f64());
    }

    // Each pass draws fresh instances (pass `k` from `pass_seed(seed,
    // k)`), so a run averages over several draws of every family.
    let window = Instant::now();
    let mut passes: Vec<(Vec<Cell>, Vec<CellOut>, f64)> = Vec::new();
    while passes.len() < MIN_PASSES || window.elapsed().as_secs_f64() < seconds {
        let cells = build(pass_seed(seed, passes.len()), 1, &mut Vec::new());
        let (outs, wall) = pass(&cells);
        passes.push((cells, outs, wall));
    }
    let (cells, first, _) = &passes[0];
    println!(
        "batch-solve: {} passes of {} cells",
        passes.len(),
        cells.len()
    );

    let mut latencies = Vec::new();
    let mut valid_tasks = 0.0;
    let mut wall = 0.0;
    let mut busy = 0.0;
    for (cells, outs, w) in &passes {
        wall += w;
        for (cell, out) in cells.iter().zip(outs) {
            report.attempted += 1;
            report.fails.add(&out.fails());
            if let Some(e) = out.error.as_ref().filter(|_| !out.valid) {
                eprintln!("failed cell {} on {}: {e}", cell.policy, cell.family);
            }
            latencies.push(out.run_ms + out.validate_ms);
            busy += (out.run_ms + out.validate_ms) / 1e3;
            if out.valid {
                valid_tasks += cell.n() as f64;
            }
        }
    }
    describe(&passes, report);

    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(cells.len());
    if !trace {
        report.metric("setup_s", median(&setup), "s");
        let p50 = percentile(&latencies, 50.0).expect("at least one cell");
        let tail = percentile(&latencies, TAIL_PCT).expect("at least one cell");
        if tail.beyond < MIN_BEYOND {
            report.invalid.push(format!(
                "cell p{TAIL_PCT} has {} samples beyond it (< {MIN_BEYOND})",
                tail.beyond
            ));
        }
        report.line("cell_p50_ms", p50.value, "ms", &format!("n={}", p50.n));
        report.line(
            "cell_p90_ms",
            tail.value,
            "ms",
            &format!("n={}, beyond={}", tail.n, tail.beyond),
        );
        report.metric("latency_p50_ms", p50.value, "ms");
        report.metric("latency_tail_ms", tail.value, "ms");
        report.metric("tasks_per_s", valid_tasks / wall, "1/s");
        report.metric("peak_rss_mb", crate::peak_rss_mb("self")?, "MiB");
        report.line("passes", passes.len() as f64, "count", "");
        return Ok(());
    }

    // Traced pass: the first pass again inside a trace session, for
    // the solver counters of one pass, the tracing cost, and a bit-for-bit
    // repeat check of every output.
    let session = malleable_trace::Session::start();
    let (traced, traced_wall) = pass(cells);
    let totals = session.finish().counter_totals();
    for ((cell, a), b) in cells.iter().zip(first).zip(&traced) {
        if a.digest != b.digest || a.valid != b.valid {
            report.check_errors.push(format!(
                "seed {seed}: re-running {} on {} changed its output",
                cell.policy, cell.family
            ));
        }
    }
    let b50 = percentile(&build_us, 50.0).expect("instances were built");
    let b99 = percentile(&build_us, 99.0).expect("instances were built");
    report.metric("instance.build_us.p50", b50.value, "us");
    report.metric("instance.build_us.p99", b99.value, "us");
    let (run, val): (f64, f64) = passes
        .iter()
        .flat_map(|(_, o, _)| o)
        .fold((0.0, 0.0), |(r, v), o| (r + o.run_ms, v + o.validate_ms));
    report.metric("schedule.validate_share", val / (run + val), "ratio");
    report.metric(
        "schedule.columns",
        first.iter().map(|o| o.columns).sum::<u64>() as f64,
        "count",
    );
    report.metric(
        "schedule.nnz",
        first.iter().map(|o| o.nnz).sum::<u64>() as f64,
        "count",
    );
    for name in crate::serve::COUNTERS {
        report.metric(name, totals.get(name).copied().unwrap_or(0) as f64, "count");
    }
    let (promoted, completions) = cells
        .iter()
        .zip(first)
        .filter(|(c, _)| c.slice == Slice::Exact)
        .fold((0, 0), |(p, n), (_, o)| (p + o.promoted, n + o.completions));
    report.metric(
        "bigratio.promoted_frac",
        promoted as f64 / completions.max(1) as f64,
        "ratio",
    );
    report.metric(
        "parallel.busy_frac",
        busy / (threads as f64 * wall),
        "ratio",
    );
    let ratios: Vec<f64> = first.iter().filter_map(|o| o.cost_ratio).collect();
    report.metric("cost_ratio_mean", mean(&ratios), "ratio");
    report.fail_metrics();
    report.metric(
        "trace.overhead_frac",
        traced_wall / passes[0].2 - 1.0,
        "ratio",
    );
    findings(seed, report);
    Ok(())
}

/// Re-test the seed findings the grid deliberately steps around: the
/// cells that fail validation at `n = 1000` on the dense family, and the
/// super-linear related-machine lanes at the sizes they were reported.
/// Report lines only; these cells are not part of the measured grid.
fn findings(seed: u64, report: &Report) {
    let mut rng = Rng::new(seed, 0xD0);
    let tasks: Vec<_> = (0..DENSE_N).map(|_| uniform_task(&mut rng)).collect();
    let dense = Arc::new(
        Instance::builder(P)
            .tasks(tasks)
            .build()
            .expect("uniform family is valid"),
    );
    let mut probes: Vec<(String, Arc<Instance>, &str)> =
        ["greedy-smith", "best-greedy", "lmax-parametric"]
            .into_iter()
            .map(|policy| (format!("uniform[n={DENSE_N}]"), dense.clone(), policy))
            .collect();
    let restricted = |n| Spec::RestrictedAssignment {
        n,
        machines: 8,
        min_eligible: 2,
    };
    let speeds = Spec::PowerLawSpeeds {
        n: 100,
        machines: 8,
        alpha: 1.0,
    };
    for (spec, salt, policy) in [
        (speeds, 0, "greedy-smith-related"),
        (restricted(100), 1, "greedy-smith-related"),
        (restricted(300), 2, "wdeq-related"),
        (restricted(300), 2, "wf-related"),
    ] {
        let inst = Arc::new(generate(&spec, seed.wrapping_add(0xA0 + salt)));
        probes.push((spec.label().into_owned(), inst, policy));
    }
    let outs = malleable_bench::parallel::par_map(probes.iter().collect(), |(_, inst, policy)| {
        run_typed(inst.as_ref(), policy)
    });
    for ((label, inst, policy), out) in probes.iter().zip(outs) {
        let status = out.error.unwrap_or_else(|| "valid".into());
        report.line(
            &format!("finding.{policy}.n{}.run_ms", inst.n()),
            out.run_ms,
            "ms",
            &format!("{label}: {status}"),
        );
    }
}

/// Number of grid draws the passes of a run are taken from.
const POOL: u64 = 256;
/// The pool draws on which a float lane returns an invalid schedule on
/// this tree, left out so that no measured operation fails (README.md
/// lists each with its failure). Sorted.
const EXCLUDED: &[u64] = &[118, 147, 164, 190, 215, 223];

/// The instance seed of pool draw `c`.
fn draw_seed(c: u64) -> u64 {
    Rng::new(c, 0x900).next_u64()
}

/// The instance seed of pass `k`: the run's seed picks where in the pool
/// (less the excluded draws) its passes start, and pass `k` takes the
/// `k`-th draw from there, so the passes of a run are distinct draws.
fn pass_seed(seed: u64, k: usize) -> u64 {
    let pool: Vec<u64> = (0..POOL)
        .filter(|c| EXCLUDED.binary_search(c).is_err())
        .collect();
    let start = Rng::new(seed, 0x9A55).below(pool.len());
    draw_seed(pool[(start + k) % pool.len()])
}

/// Report lines: per-cell outcomes of the first pass, per-slice shares
/// of cell time, and the per-group layer timings (median over passes).
fn describe(passes: &[(Vec<Cell>, Vec<CellOut>, f64)], report: &Report) {
    let (cells, first, _) = &passes[0];
    for (cell, out) in cells.iter().zip(first) {
        let status = match (&out.error, out.valid) {
            (_, true) => "valid".to_string(),
            (Some(e), _) => format!("FAILED: {e}"),
            (None, false) => "FAILED".to_string(),
        };
        println!(
            "  cell {:5} {:34} {:24} n={:4} run {:9.3} ms  validate {:9.3} ms  ratio {:.4}  {status}",
            cell.slice.name(),
            cell.family,
            cell.policy,
            cell.n(),
            out.run_ms,
            out.validate_ms,
            out.cost_ratio.unwrap_or(f64::NAN),
        );
    }
    // (validate ms, run + validate ms) per slice and per policy; exact
    // cells count under `exact`, not under their policy.
    let mut by_slice: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    let mut shares: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    let mut runs: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut validates = Vec::new();
    for (cells, outs, _) in passes {
        for (cell, out) in cells.iter().zip(outs) {
            let exact = cell.slice == Slice::Exact;
            let cell_ms = out.run_ms + out.validate_ms;
            for (map, key) in [
                (&mut by_slice, cell.slice.name()),
                (&mut shares, if exact { "exact" } else { cell.policy }),
            ] {
                let e = map.entry(key).or_default();
                e.0 += out.validate_ms;
                e.1 += cell_ms;
            }
            runs.entry(cell.group())
                .or_default()
                .push(if exact { cell_ms } else { out.run_ms });
            if !exact {
                validates.push(out.validate_ms);
            }
        }
    }
    let total: f64 = by_slice.values().map(|(_, t)| t).sum();
    for (slice, (v, t)) in &by_slice {
        report.line(&format!("slice.{slice}.time_share"), t / total, "ratio", "");
        report.line(&format!("slice.{slice}.validate_share"), v / t, "ratio", "");
    }
    for (group, xs) in &runs {
        let name = if *group == "exact" {
            "bigratio.exact_ms".to_string()
        } else {
            format!("policy.run_ms.{group}")
        };
        report.line(&name, median(xs), "ms", &format!("median of {}", xs.len()));
    }
    report.line(
        "schedule.validate_ms",
        median(&validates),
        "ms",
        &format!("median of {}", validates.len()),
    );
    for (policy, (v, t)) in &shares {
        report.line(
            &format!("schedule.validate_share.{policy}"),
            v / t,
            "ratio",
            "",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(cells: &[Cell]) -> String {
        let mut s = String::new();
        for c in cells {
            s.push_str(&format!(
                "{}|{}|{}|{}\n",
                c.slice.name(),
                c.family,
                c.policy,
                c.n()
            ));
            match &c.instance {
                CellInstance::F64(i) => {
                    for (_, t) in i.iter() {
                        s.push_str(&format!("{:?},{:?},{:?};", t.volume, t.weight, t.delta));
                    }
                }
                CellInstance::Exact(i) => {
                    for (_, t) in i.iter() {
                        s.push_str(&format!("{},{},{};", t.volume, t.weight, t.delta));
                    }
                }
            }
            s.push('\n');
        }
        s
    }

    #[test]
    fn same_seed_gives_a_byte_identical_grid() {
        let mut t = Vec::new();
        let a = fingerprint(&build(pass_seed(11, 0), 1, &mut t));
        assert_eq!(a, fingerprint(&build(pass_seed(11, 0), 1, &mut t)));
        assert_ne!(a, fingerprint(&build(pass_seed(12, 0), 1, &mut t)));
        assert_ne!(a, fingerprint(&build(pass_seed(11, 1), 1, &mut t)));
    }

    #[test]
    fn passes_walk_the_pool_past_excluded_draws() {
        assert!(EXCLUDED.windows(2).all(|w| w[0] < w[1]));
        assert!(EXCLUDED.iter().all(|&c| c < POOL));
        for seed in 0..64 {
            let seeds: Vec<u64> = (0..16).map(|k| pass_seed(seed, k)).collect();
            for (k, s) in seeds.iter().enumerate() {
                assert!(!seeds[..k].contains(s), "seed {seed} repeats a draw");
                assert!(EXCLUDED.iter().all(|&c| draw_seed(c) != *s));
            }
        }
    }

    #[test]
    fn grid_covers_three_slices() {
        let cells = build(1, 1, &mut Vec::new());
        for slice in [Slice::Dense, Slice::Flow, Slice::Exact] {
            assert!(cells.iter().any(|c| c.slice == slice), "{}", slice.name());
        }
        for c in &cells {
            assert!(policy::names().contains(&c.policy), "{}", c.policy);
        }
    }
}
