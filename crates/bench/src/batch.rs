//! Batch policy evaluation: fan a `(source × seed × policy)` grid across
//! threads and emit one unified metrics record per cell.
//!
//! Before this engine, every experiment binary hand-wired its own loop
//! over generators, algorithms and metric plumbing; now a sweep is a
//! *declaration* — instance sources (workload [`Spec`]s or custom
//! closures), a seed batch, and policies named from the
//! [`malleable_core::policy`] registry (or custom closures for one-off
//! algorithms like the exhaustive best-greedy). Every record carries the
//! same fields: weighted cost, ratios to the squashed-area/height lower
//! bounds, optional ratio to the exact optimum (brute-force, gated by
//! `n`), the policy's own certificate ratio when it carries one,
//! makespan, preemption count, Jain fairness and wall time.
//!
//! Work is distributed with [`crate::parallel::par_map`] at instance
//! granularity (one cell = one generated instance, all policies run on
//! it), so the expensive optional baseline is computed once per instance.

use crate::csvout;
use crate::jsonin::json_string;
use crate::parallel::par_map;
use crate::table::{fnum, Table};
use malleable_core::algos::waterfill::allocation_changes;
use malleable_core::bounds::{arrival_height_bound, height_bound, squashed_area_bound};
use malleable_core::policy;
use malleable_core::{ColumnSchedule, Instance, ScheduleError};
use malleable_opt::brute::optimal_schedule;
use malleable_sim::metrics::jain_fairness;
use malleable_workloads::{generate, Spec};
use numkit::Tolerance;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Seeded instance factory.
pub type MakeInstance = Arc<dyn Fn(u64) -> Instance + Send + Sync>;

/// Custom policy body: instance in, schedule out.
pub type RunPolicy = Arc<dyn Fn(&Instance) -> Result<ColumnSchedule, ScheduleError> + Send + Sync>;

/// A labelled family of seeded instances.
#[derive(Clone)]
pub struct InstanceSource {
    /// Family label (the `family` column of every record).
    pub label: String,
    make: MakeInstance,
}

impl InstanceSource {
    /// A source from a custom seeded generator.
    pub fn new(
        label: impl Into<String>,
        make: impl Fn(u64) -> Instance + Send + Sync + 'static,
    ) -> Self {
        InstanceSource {
            label: label.into(),
            make: Arc::new(make),
        }
    }

    /// A source from a workload [`Spec`] (labelled by the spec).
    pub fn spec(spec: Spec) -> Self {
        let label = spec.label().to_string();
        InstanceSource {
            label,
            make: Arc::new(move |seed| generate(&spec, seed)),
        }
    }
}

/// One policy column of the grid.
#[derive(Clone)]
pub enum GridPolicy {
    /// A policy from the [`malleable_core::policy`] registry, by name.
    Named(String),
    /// A custom algorithm not (or not yet) in the registry.
    Custom {
        /// Label for the `policy` column.
        name: String,
        /// The algorithm body.
        run: RunPolicy,
    },
}

impl GridPolicy {
    /// A registry policy by name.
    pub fn named(name: impl Into<String>) -> Self {
        GridPolicy::Named(name.into())
    }

    /// A custom policy from a closure.
    pub fn custom(
        name: impl Into<String>,
        run: impl Fn(&Instance) -> Result<ColumnSchedule, ScheduleError> + Send + Sync + 'static,
    ) -> Self {
        GridPolicy::Custom {
            name: name.into(),
            run: Arc::new(run),
        }
    }

    /// The record label.
    pub fn name(&self) -> &str {
        match self {
            GridPolicy::Named(n) => n,
            GridPolicy::Custom { name, .. } => name,
        }
    }
}

/// One `(family, seed, policy)` evaluation.
#[derive(Debug, Clone)]
pub struct EvalRecord {
    /// Instance family label.
    pub family: String,
    /// Policy name.
    pub policy: String,
    /// Number of tasks.
    pub n: usize,
    /// Generator seed.
    pub seed: u64,
    /// Weighted completion cost `Σ wᵢCᵢ`.
    pub cost: f64,
    /// Squashed-area lower bound `A(I)`.
    pub area_bound: f64,
    /// Height lower bound `H(I)`.
    pub height_bound: f64,
    /// `cost / max(A, H)` — ratio to the combined lower bound (≥ 1).
    pub bound_ratio: f64,
    /// `cost / OPT` when the brute-force baseline ran on this instance.
    pub opt_ratio: Option<f64>,
    /// `cost / certified lower bound` when the policy carries a
    /// certificate (WDEQ's Lemma-2 bound: ≤ 2 by Theorem 4).
    pub cert_ratio: Option<f64>,
    /// Schedule makespan.
    pub makespan: f64,
    /// Allocation changes across positive-length columns (preemption
    /// proxy, the strict count of E4).
    pub preemptions: usize,
    /// Jain fairness index of the per-task stretches.
    pub fairness: f64,
    /// Policy wall time in microseconds.
    pub wall_us: f64,
}

/// A grid policy resolved for execution (registry lookups done once per
/// sweep, not once per cell).
enum Resolved {
    Registry(Box<dyn malleable_core::SchedulingPolicy<f64>>),
    Custom(RunPolicy),
}

/// Declarative `(source × seed × policy)` sweep.
#[derive(Clone, Default)]
pub struct BatchGrid {
    sources: Vec<InstanceSource>,
    seeds: Vec<u64>,
    policies: Vec<GridPolicy>,
    opt_baseline_max_n: usize,
}

impl BatchGrid {
    /// An empty grid.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an instance source.
    #[must_use]
    pub fn source(mut self, source: InstanceSource) -> Self {
        self.sources.push(source);
        self
    }

    /// Add a workload spec as a source.
    #[must_use]
    pub fn spec(self, spec: Spec) -> Self {
        self.source(InstanceSource::spec(spec))
    }

    /// Set the seed batch (shared by every source).
    #[must_use]
    pub fn seeds(mut self, seeds: Vec<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Add one policy.
    #[must_use]
    pub fn policy(mut self, policy: GridPolicy) -> Self {
        self.policies.push(policy);
        self
    }

    /// Add registry policies by name.
    #[must_use]
    pub fn named_policies<'a>(mut self, names: impl IntoIterator<Item = &'a str>) -> Self {
        self.policies
            .extend(names.into_iter().map(GridPolicy::named));
        self
    }

    /// Also compute the exact optimum (brute force over `n!` completion
    /// orders) on instances with `n ≤ max_n`, populating
    /// [`EvalRecord::opt_ratio`].
    #[must_use]
    pub fn opt_baseline(mut self, max_n: usize) -> Self {
        self.opt_baseline_max_n = max_n;
        self
    }

    /// Run the sweep across all cores. Records are ordered by
    /// `(source, seed, policy)` declaration order, deterministically.
    ///
    /// # Panics
    /// Panics when a named policy is not in the registry or a policy fails
    /// on a generated instance — grid sweeps assert success by design (a
    /// policy that cannot schedule a workload family is an experiment bug,
    /// not data).
    pub fn run(&self) -> Vec<EvalRecord> {
        // Resolve named policies once up front (policies are stateless and
        // `Send + Sync`, so the boxes are shared by every worker thread).
        let resolved: Vec<(&str, Resolved)> = self
            .policies
            .iter()
            .map(|gp| {
                let r = match gp {
                    GridPolicy::Named(name) => {
                        Resolved::Registry(policy::by_name::<f64>(name).unwrap_or_else(|| {
                            panic!(
                                "unknown policy {name:?}; registry has {:?}",
                                policy::names()
                            )
                        }))
                    }
                    GridPolicy::Custom { run, .. } => Resolved::Custom(run.clone()),
                };
                (gp.name(), r)
            })
            .collect();
        let cells: Vec<(usize, u64)> = self
            .sources
            .iter()
            .enumerate()
            .flat_map(|(si, _)| self.seeds.iter().map(move |&seed| (si, seed)))
            .collect();
        malleable_trace::gauge("batch.cells", cells.len() as u64);
        let rows = par_map(cells, |(si, seed)| self.eval_cell(si, seed, &resolved));
        rows.into_iter().flatten().collect()
    }

    fn eval_cell(
        &self,
        source_idx: usize,
        seed: u64,
        resolved: &[(&str, Resolved)],
    ) -> Vec<EvalRecord> {
        let source = &self.sources[source_idx];
        // One span per grid cell. Worker threads are spawned fresh per
        // grid by `par_map`, so the per-thread buffers merge at the flush
        // below (and again via TLS teardown when the scope joins).
        let mut cell_sp =
            malleable_trace::span_labeled("batch.cell", || format!("{} seed={seed}", source.label));
        let instance = (source.make)(seed);
        cell_sp.arg("n", instance.n() as u64);
        cell_sp.arg("seed", seed);
        let area = squashed_area_bound(&instance);
        let height = height_bound(&instance);
        // On streaming instances, refine the combined bound with the
        // release-time term Σ wᵢ(rᵢ + hᵢ): bound_ratio then reads as the
        // empirical competitive ratio of an online policy.
        let bound = if instance.has_arrivals() {
            area.max(height).max(arrival_height_bound(&instance))
        } else {
            area.max(height)
        };
        let opt_cost = (instance.n() <= self.opt_baseline_max_n).then(|| {
            optimal_schedule(&instance)
                .unwrap_or_else(|e| panic!("opt baseline failed on seed {seed}: {e}"))
                .cost
        });
        let tol = Tolerance::for_instance(instance.n());
        let records = resolved
            .iter()
            .map(|(name, rp)| {
                let mut policy_sp =
                    malleable_trace::span_labeled("batch.policy", || (*name).to_string());
                let start = Instant::now();
                let (schedule, certificate) = match rp {
                    Resolved::Registry(p) => {
                        let run = p.run(&instance).unwrap_or_else(|e| {
                            panic!("{name} failed on {}/{seed}: {e}", source.label)
                        });
                        (run.schedule, run.certificate)
                    }
                    Resolved::Custom(run) => {
                        let s = run(&instance).unwrap_or_else(|e| {
                            panic!("{name} failed on {}/{seed}: {e}", source.label)
                        });
                        (s, None)
                    }
                };
                let wall_us = start.elapsed().as_secs_f64() * 1e6;
                policy_sp.arg("wall_us", wall_us as u64);
                let cost = schedule.weighted_completion_cost(&instance);
                EvalRecord {
                    family: source.label.clone(),
                    policy: name.to_string(),
                    n: instance.n(),
                    seed,
                    cost,
                    area_bound: area,
                    height_bound: height,
                    bound_ratio: if bound > 0.0 { cost / bound } else { 1.0 },
                    opt_ratio: opt_cost.map(|o| cost / o),
                    cert_ratio: certificate.map(|c| c.ratio(cost)),
                    makespan: schedule.makespan(),
                    preemptions: allocation_changes(&schedule, instance.n(), tol),
                    fairness: jain_fairness(&instance, &schedule),
                    wall_us,
                }
            })
            .collect();
        drop(cell_sp);
        // Merge this worker's buffer into the session trace at the cell
        // boundary — cheap when tracing is off, and it keeps long grids
        // from holding megabytes of events per thread.
        malleable_trace::flush_thread();
        records
    }
}

/// Group records by `(family, policy)`, preserving first-seen order.
pub fn group_records(records: &[EvalRecord]) -> Vec<((&str, &str), Vec<&EvalRecord>)> {
    let mut order: Vec<(&str, &str)> = Vec::new();
    let mut groups: BTreeMap<(&str, &str), Vec<&EvalRecord>> = BTreeMap::new();
    for r in records {
        let key = (r.family.as_str(), r.policy.as_str());
        if !groups.contains_key(&key) {
            order.push(key);
        }
        groups.entry(key).or_default().push(r);
    }
    order
        .into_iter()
        .map(|k| (k, groups.remove(&k).expect("keyed by order")))
        .collect()
}

/// Per-seed cost ratios of every policy against `baseline` within each
/// family: `(family, policy) → cost / baseline cost`, aligned by seed.
///
/// # Panics
/// Panics when the baseline policy is missing from a family that has other
/// records (a grid without its comparison anchor is an experiment bug).
pub fn cost_ratios_vs(records: &[EvalRecord], baseline: &str) -> Vec<((String, String), Vec<f64>)> {
    let mut base: BTreeMap<(&str, u64), f64> = BTreeMap::new();
    for r in records {
        if r.policy == baseline {
            base.insert((r.family.as_str(), r.seed), r.cost);
        }
    }
    let mut order: Vec<(&str, &str)> = Vec::new();
    let mut ratios: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for r in records {
        if r.policy == baseline {
            continue;
        }
        let b = base
            .get(&(r.family.as_str(), r.seed))
            .unwrap_or_else(|| panic!("no {baseline} record for {}/{}", r.family, r.seed));
        let key = (r.family.as_str(), r.policy.as_str());
        if !ratios.contains_key(&key) {
            order.push(key);
        }
        ratios.entry(key).or_default().push(r.cost / b);
    }
    order
        .into_iter()
        .map(|k| {
            (
                (k.0.to_string(), k.1.to_string()),
                ratios.remove(&k).expect("keyed by order"),
            )
        })
        .collect()
}

/// CSV headers of [`write_records_csv`].
pub const RECORD_HEADERS: [&str; 14] = [
    "family",
    "policy",
    "n",
    "seed",
    "cost",
    "area_bound",
    "height_bound",
    "bound_ratio",
    "opt_ratio",
    "cert_ratio",
    "makespan",
    "preemptions",
    "fairness",
    "wall_us",
];

/// Serialize records to `results/<name>.csv` in the unified format.
///
/// # Errors
/// Propagates I/O errors.
pub fn write_records_csv(name: &str, records: &[EvalRecord]) -> std::io::Result<PathBuf> {
    let opt = |v: Option<f64>| v.map_or(String::new(), |x| format!("{x:.6}"));
    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            vec![
                r.family.clone(),
                r.policy.clone(),
                r.n.to_string(),
                r.seed.to_string(),
                format!("{:.6}", r.cost),
                format!("{:.6}", r.area_bound),
                format!("{:.6}", r.height_bound),
                format!("{:.6}", r.bound_ratio),
                opt(r.opt_ratio),
                opt(r.cert_ratio),
                format!("{:.6}", r.makespan),
                r.preemptions.to_string(),
                format!("{:.4}", r.fairness),
                format!("{:.1}", r.wall_us),
            ]
        })
        .collect();
    csvout::write_csv(name, &RECORD_HEADERS, &rows)
}

/// One per-policy aggregate of [`write_batch_json`] — the machine-
/// readable summary the perf trajectory is tracked with across PRs.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyAggregate {
    /// Policy name.
    pub policy: String,
    /// Number of `(family, seed)` cells the policy ran on.
    pub runs: usize,
    /// Mean weighted completion cost.
    pub mean_cost: f64,
    /// Mean `cost / max(A, H)` ratio.
    pub mean_bound_ratio: f64,
    /// Worst `cost / max(A, H)` ratio.
    pub max_bound_ratio: f64,
    /// Mean policy wall time in microseconds.
    pub mean_wall_us: f64,
}

/// Aggregate records per policy (declaration order preserved).
pub fn policy_aggregates(records: &[EvalRecord]) -> Vec<PolicyAggregate> {
    let mut order: Vec<&str> = Vec::new();
    let mut buckets: BTreeMap<&str, Vec<&EvalRecord>> = BTreeMap::new();
    for r in records {
        let key = r.policy.as_str();
        if !buckets.contains_key(key) {
            order.push(key);
        }
        buckets.entry(key).or_default().push(r);
    }
    order
        .into_iter()
        .map(|policy| {
            let rs = &buckets[policy];
            let n = rs.len() as f64;
            PolicyAggregate {
                policy: policy.to_string(),
                runs: rs.len(),
                mean_cost: rs.iter().map(|r| r.cost).sum::<f64>() / n,
                mean_bound_ratio: rs.iter().map(|r| r.bound_ratio).sum::<f64>() / n,
                max_bound_ratio: rs.iter().map(|r| r.bound_ratio).fold(0.0, f64::max),
                mean_wall_us: rs.iter().map(|r| r.wall_us).sum::<f64>() / n,
            }
        })
        .collect()
}

/// Serialize the per-policy aggregates (plus run metadata) as JSON to
/// `results/<name>.json`, so the performance trajectory is
/// machine-readable across PRs (no serde in the offline build — the
/// format is hand-rolled and stable).
///
/// # Errors
/// Propagates I/O errors.
pub fn write_batch_json(name: &str, records: &[EvalRecord]) -> std::io::Result<PathBuf> {
    use std::io::Write as _;
    let dir = csvout::results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    let mut f = std::fs::File::create(&path)?;
    let families: Vec<&str> = {
        let mut seen = Vec::new();
        for r in records {
            if !seen.contains(&r.family.as_str()) {
                seen.push(r.family.as_str());
            }
        }
        seen
    };
    writeln!(f, "{{")?;
    writeln!(f, "  \"records\": {},", records.len())?;
    writeln!(
        f,
        "  \"families\": [{}],",
        families
            .iter()
            .map(|s| json_string(s))
            .collect::<Vec<_>>()
            .join(", ")
    )?;
    writeln!(f, "  \"policies\": [")?;
    let aggs = policy_aggregates(records);
    for (i, a) in aggs.iter().enumerate() {
        writeln!(
            f,
            "    {{\"policy\": {}, \"runs\": {}, \"mean_cost\": {:.6}, \"mean_bound_ratio\": {:.6}, \"max_bound_ratio\": {:.6}, \"mean_wall_us\": {:.1}}}{}",
            json_string(&a.policy),
            a.runs,
            a.mean_cost,
            a.mean_bound_ratio,
            a.max_bound_ratio,
            a.mean_wall_us,
            if i + 1 < aggs.len() { "," } else { "" }
        )?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    Ok(path)
}

/// Render the standard per-`(family, policy)` summary table (mean/max
/// bound ratio, certificate ratio, preemptions, wall time).
pub fn summary_table(records: &[EvalRecord]) -> Table {
    let mut table = Table::new(&[
        "family",
        "policy",
        "runs",
        "bound ratio mean",
        "bound ratio max",
        "cert ratio max",
        "preempt mean",
        "wall µs mean",
    ]);
    for ((family, policy), rs) in group_records(records) {
        let nn = rs.len() as f64;
        let mean = |f: &dyn Fn(&EvalRecord) -> f64| rs.iter().map(|r| f(r)).sum::<f64>() / nn;
        let bmax = rs.iter().map(|r| r.bound_ratio).fold(0.0, f64::max);
        let cmax = rs
            .iter()
            .filter_map(|r| r.cert_ratio)
            .fold(f64::NAN, f64::max);
        table.row(vec![
            family.to_string(),
            policy.to_string(),
            rs.len().to_string(),
            fnum(mean(&|r| r.bound_ratio)),
            fnum(bmax),
            if cmax.is_nan() {
                "—".to_string()
            } else {
                fnum(cmax)
            },
            fnum(mean(&|r| r.preemptions as f64)),
            fnum(mean(&|r| r.wall_us)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleable_workloads::seed_batch;

    fn tiny_grid() -> BatchGrid {
        BatchGrid::new()
            .spec(Spec::PaperUniform { n: 4 })
            .spec(Spec::IntegerUniform { n: 4, p: 4 })
            .seeds(seed_batch(7, 3))
            .named_policies(["wdeq", "greedy-smith", "makespan"])
    }

    #[test]
    fn grid_is_deterministic_and_complete() {
        let a = tiny_grid().run();
        let b = tiny_grid().run();
        assert_eq!(a.len(), 2 * 3 * 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (&x.family, &x.policy, x.seed),
                (&y.family, &y.policy, y.seed)
            );
            assert_eq!(x.cost, y.cost);
        }
        // Every record respects the combined lower bound.
        for r in &a {
            assert!(
                r.bound_ratio >= 1.0 - 1e-9,
                "{}: {}",
                r.policy,
                r.bound_ratio
            );
            assert!(r.fairness > 0.0 && r.fairness <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn wdeq_records_carry_the_certificate() {
        let records = tiny_grid().run();
        for r in records.iter().filter(|r| r.policy == "wdeq") {
            let c = r.cert_ratio.expect("wdeq has a certificate");
            assert!(c <= 2.0 + 1e-6, "Theorem 4 violated: {c}");
        }
        assert!(records
            .iter()
            .filter(|r| r.policy == "makespan")
            .all(|r| r.cert_ratio.is_none()));
    }

    #[test]
    fn opt_baseline_populates_ratios_when_n_allows() {
        let records = BatchGrid::new()
            .spec(Spec::PaperUniform { n: 3 })
            .seeds(seed_batch(11, 2))
            .named_policies(["wdeq"])
            .opt_baseline(4)
            .run();
        for r in &records {
            let ratio = r.opt_ratio.expect("baseline ran at n = 3");
            assert!((1.0 - 1e-6..=2.0 + 1e-6).contains(&ratio), "ratio {ratio}");
        }
    }

    #[test]
    fn custom_policies_and_ratio_pivot() {
        let records = BatchGrid::new()
            .spec(Spec::PaperUniform { n: 4 })
            .seeds(seed_batch(13, 3))
            .named_policies(["wdeq"])
            .policy(GridPolicy::custom("wdeq-twin", |inst| {
                Ok(malleable_core::algos::wdeq::wdeq_schedule(inst))
            }))
            .run();
        let pivots = cost_ratios_vs(&records, "wdeq");
        assert_eq!(pivots.len(), 1);
        let ((_, policy), ratios) = &pivots[0];
        assert_eq!(policy, "wdeq-twin");
        for r in ratios {
            assert!((r - 1.0).abs() < 1e-9, "twin should tie wdeq, got {r}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown policy")]
    fn unknown_named_policy_is_rejected_up_front() {
        let _ = BatchGrid::new()
            .spec(Spec::PaperUniform { n: 2 })
            .seeds(vec![1])
            .named_policies(["no-such-policy"])
            .run();
    }

    #[test]
    fn related_machine_cells_flow_through_the_grid() {
        let records = BatchGrid::new()
            .spec(Spec::TwoTierCluster {
                n: 4,
                fast: 1,
                slow: 3,
                speedup: 4.0,
            })
            .seeds(seed_batch(5, 2))
            .named_policies(["wdeq-related", "lmax-parametric-related"])
            .run();
        assert_eq!(records.len(), 4);
        for r in &records {
            assert!(r.cost.is_finite() && r.bound_ratio >= 1.0 - 1e-9);
            assert_eq!(r.family, "two-tier[1x4+3x1]");
        }
    }

    #[test]
    fn batch_json_has_per_policy_aggregates() {
        let records = tiny_grid().run();
        let aggs = policy_aggregates(&records);
        assert_eq!(aggs.len(), 3);
        for a in &aggs {
            assert_eq!(a.runs, 6); // 2 families × 3 seeds
            assert!(a.mean_bound_ratio >= 1.0 - 1e-9);
            assert!(a.max_bound_ratio >= a.mean_bound_ratio - 1e-12);
        }
        let p = write_batch_json("unit-test-batch-json", &records).unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        assert!(text.contains("\"policies\""));
        assert!(text.contains("\"wdeq\""));
        assert!(text.contains("\"records\": 18"));
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn csv_roundtrip_shape() {
        let records = tiny_grid().seeds(vec![1]).run();
        let p = write_records_csv("unit-test-batch", &records).unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), records.len() + 1);
        assert_eq!(lines[0].split(',').count(), RECORD_HEADERS.len());
        let _ = std::fs::remove_file(p);
    }
}
