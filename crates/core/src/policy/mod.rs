//! First-class scheduling policies: one object-safe trait, one named
//! registry, every algorithm in the stack behind it.
//!
//! The paper's value is the *comparison* between WDEQ, Water-Filling and
//! Greedy(σ) against the lower bounds; this module makes that comparison a
//! data-driven sweep instead of N hand-wired call sites. A
//! [`SchedulingPolicy`] turns an [`Instance`] into a
//! [`ColumnSchedule`] (plus an optional per-run approximation
//! certificate), and the registry ([`all`], [`by_name`], [`names`])
//! enumerates every implementation by stable string key — so experiment
//! binaries, the `msched` CLI and the batch-evaluation engine all select
//! algorithms by name.
//!
//! Adding a new algorithm = implementing the trait and appending one line
//! to [`all`]; every consumer (CLI flags, sweeps, property tests) picks it
//! up automatically.
//!
//! The whole module is generic over the scalar: `by_name::<f64>` gives the
//! production policy, `by_name::<bigratio::Rational>` the *same* policy in
//! exact arithmetic.

pub mod registry;
pub mod rules;

pub use registry::{all, by_name, capable_for, names, related_capable};
pub use rules::{ActiveTask, AllocationRule};

use crate::algos::greedy::{best_heuristic_greedy, greedy_schedule};
use crate::algos::makespan::makespan_schedule;
use crate::algos::orders;
use crate::algos::parametric::{frontier, Objective, ProbeSession};
use crate::algos::related::{flow_witness, greedy_related};
use crate::algos::waterfill::water_filling;
use crate::algos::waterfill_fast::wf_feasible_grouped;
use crate::algos::wdeq::{certificate_of, wdeq_run};
use crate::bounds::{combined_lower_bound, mixed_bound};
use crate::error::ScheduleError;
use crate::instance::{Instance, TaskId};
use crate::schedule::column::ColumnSchedule;
use crate::schedule::convert::step_to_column;
use numkit::{Scalar, Tolerance};
use std::fmt;

/// What a policy is allowed to know about the tasks it schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Clairvoyance {
    /// Volumes `Vᵢ` are hidden; only weights, caps and observed progress
    /// are available (the online model of Algorithm 1).
    NonClairvoyant,
    /// Full instance knowledge, volumes included.
    Clairvoyant,
}

impl fmt::Display for Clairvoyance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Clairvoyance::NonClairvoyant => "non-clairvoyant",
            Clairvoyance::Clairvoyant => "clairvoyant",
        })
    }
}

/// A per-run approximation certificate: `lower_bound ≤ OPT(I)` and the
/// policy's cost is guaranteed `≤ factor · OPT(I)`.
#[derive(Debug, Clone)]
pub struct PolicyCertificate<S = f64> {
    /// A machine-checked lower bound on the optimal objective.
    pub lower_bound: S,
    /// The proven approximation factor of the policy.
    pub factor: S,
}

impl<S: Scalar> PolicyCertificate<S> {
    /// The certified ratio `cost / lower_bound` (≤ `factor` when the
    /// guarantee holds; exactly so in exact arithmetic).
    pub fn ratio(&self, cost: S) -> S {
        if self.lower_bound.is_positive() {
            cost / self.lower_bound.clone()
        } else {
            S::one()
        }
    }
}

/// Outcome of one policy run.
#[derive(Debug, Clone)]
pub struct PolicyRun<S = f64> {
    /// The produced schedule.
    pub schedule: ColumnSchedule<S>,
    /// A per-run certificate, when the policy carries one (WDEQ's Lemma-2
    /// bound; most policies return `None`).
    pub certificate: Option<PolicyCertificate<S>>,
}

/// An algorithm that schedules a whole instance. Object-safe, so
/// registries and CLI dispatch can hold `Box<dyn SchedulingPolicy<S>>`;
/// `Send + Sync` so batch engines can share resolved policies across
/// worker threads (every policy here is stateless).
pub trait SchedulingPolicy<S: Scalar>: Send + Sync {
    /// Stable registry key (also the experiment-table label).
    fn name(&self) -> &'static str;

    /// One-line human description for `--list-policies` output.
    fn description(&self) -> &'static str;

    /// The information model the policy operates under.
    fn clairvoyance(&self) -> Clairvoyance;

    /// Run the policy.
    ///
    /// # Errors
    /// Propagates instance validation and algorithm failures
    /// ([`ScheduleError`]). A policy that ignores release times returns
    /// [`ScheduleError::InvalidInstance`] on an instance with arrivals
    /// ([`Instance::require_offline`]).
    fn run(&self, instance: &Instance<S>) -> Result<PolicyRun<S>, ScheduleError>;

    /// Just the schedule.
    ///
    /// # Errors
    /// Same as [`SchedulingPolicy::run`].
    fn schedule(&self, instance: &Instance<S>) -> Result<ColumnSchedule<S>, ScheduleError> {
        self.run(instance).map(|r| r.schedule)
    }
}

fn plain<S: Scalar>(schedule: ColumnSchedule<S>) -> PolicyRun<S> {
    PolicyRun {
        schedule,
        certificate: None,
    }
}

/// **WDEQ** (Algorithm 1): the non-clairvoyant 2-approximation, carrying
/// its Lemma-2 certificate on every run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Wdeq;

impl<S: Scalar> SchedulingPolicy<S> for Wdeq {
    fn name(&self) -> &'static str {
        "wdeq"
    }

    fn description(&self) -> &'static str {
        "weighted dynamic equipartition (Algorithm 1, certified 2-approximation)"
    }

    fn clairvoyance(&self) -> Clairvoyance {
        Clairvoyance::NonClairvoyant
    }

    fn run(&self, instance: &Instance<S>) -> Result<PolicyRun<S>, ScheduleError> {
        instance.require_offline(SchedulingPolicy::<S>::name(self))?;
        let run = wdeq_run(instance)?;
        let cert = certificate_of(instance, &run);
        Ok(PolicyRun {
            schedule: run.schedule,
            certificate: Some(PolicyCertificate {
                lower_bound: cert.value(),
                factor: S::from_int(2),
            }),
        })
    }
}

/// A rule-driven online policy replayed to completion (DEQ and the
/// WDEQ ablations).
#[derive(Debug, Clone, Copy)]
pub struct RulePolicy<R> {
    rule: R,
    description: &'static str,
}

impl<R> RulePolicy<R> {
    /// Wrap an allocation rule.
    pub fn new(rule: R, description: &'static str) -> Self {
        RulePolicy { rule, description }
    }
}

impl<S: Scalar, R: AllocationRule<S> + Send + Sync> SchedulingPolicy<S> for RulePolicy<R> {
    fn name(&self) -> &'static str {
        self.rule.name()
    }

    fn description(&self) -> &'static str {
        self.description
    }

    fn clairvoyance(&self) -> Clairvoyance {
        Clairvoyance::NonClairvoyant
    }

    fn run(&self, instance: &Instance<S>) -> Result<PolicyRun<S>, ScheduleError> {
        rules::replay(instance, &self.rule).map(plain)
    }
}

/// Water-Filling normal form (Algorithm 2) of the WDEQ completion times:
/// same completions, ≤ n allocation changes (Lemma 5). The `fast` variant
/// routes feasibility through the grouped O(n log n)-style oracle first,
/// exercising both code paths of Theorem 8.
#[derive(Debug, Default, Clone, Copy)]
pub struct WaterFillNormalForm {
    /// Pre-verify feasibility with the grouped oracle before
    /// materializing the allocation.
    pub fast: bool,
}

impl<S: Scalar> SchedulingPolicy<S> for WaterFillNormalForm {
    fn name(&self) -> &'static str {
        if self.fast {
            "wf-fast"
        } else {
            "wf"
        }
    }

    fn description(&self) -> &'static str {
        if self.fast {
            "Water-Filling normal form of WDEQ times (grouped feasibility oracle first)"
        } else {
            "Water-Filling normal form of the WDEQ completion times (Algorithm 2)"
        }
    }

    fn clairvoyance(&self) -> Clairvoyance {
        Clairvoyance::Clairvoyant
    }

    fn run(&self, instance: &Instance<S>) -> Result<PolicyRun<S>, ScheduleError> {
        instance.require_offline(SchedulingPolicy::<S>::name(self))?;
        let completions = wdeq_run(instance)?.schedule.completions;
        if self.fast && !wf_feasible_grouped(instance, &completions)? {
            // WDEQ times are feasible by construction; a grouped verdict to
            // the contrary would be a bug, not bad input.
            return Err(ScheduleError::InvalidInstance {
                reason: "grouped oracle rejected WDEQ completion times".into(),
            });
        }
        water_filling(instance, &completions).map(plain)
    }
}

/// The task-ordering rules of `algos::orders`, as data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderRule {
    /// Smith's rule: `Vᵢ/wᵢ` non-decreasing.
    Smith,
    /// Caps descending.
    DeltaDescending,
    /// Caps ascending.
    DeltaAscending,
    /// Heights `Vᵢ/δᵢ` descending.
    HeightDescending,
    /// Weighted height `wᵢ·min(δᵢ,P)/Vᵢ` descending.
    WeightedHeightDescending,
    /// Input order (the identity permutation).
    Input,
}

impl OrderRule {
    /// Every ordering rule, in registry order.
    pub const ALL: [OrderRule; 6] = [
        OrderRule::Smith,
        OrderRule::DeltaDescending,
        OrderRule::DeltaAscending,
        OrderRule::HeightDescending,
        OrderRule::WeightedHeightDescending,
        OrderRule::Input,
    ];

    /// Compute the task order on an instance.
    pub fn order<S: Scalar>(&self, instance: &Instance<S>) -> Vec<TaskId> {
        match self {
            OrderRule::Smith => orders::smith_order(instance),
            OrderRule::DeltaDescending => orders::delta_descending(instance),
            OrderRule::DeltaAscending => orders::delta_ascending(instance),
            OrderRule::HeightDescending => orders::height_descending(instance),
            OrderRule::WeightedHeightDescending => orders::weighted_height_descending(instance),
            OrderRule::Input => (0..instance.n()).map(TaskId).collect(),
        }
    }
}

/// **Greedy(σ)** (Algorithm 3) under a fixed ordering rule.
#[derive(Debug, Clone, Copy)]
pub struct GreedyPolicy {
    /// The ordering rule σ.
    pub order: OrderRule,
}

impl<S: Scalar> SchedulingPolicy<S> for GreedyPolicy {
    fn name(&self) -> &'static str {
        match self.order {
            OrderRule::Smith => "greedy-smith",
            OrderRule::DeltaDescending => "greedy-delta-desc",
            OrderRule::DeltaAscending => "greedy-delta-asc",
            OrderRule::HeightDescending => "greedy-height-desc",
            OrderRule::WeightedHeightDescending => "greedy-wheight-desc",
            OrderRule::Input => "greedy-input",
        }
    }

    fn description(&self) -> &'static str {
        match self.order {
            OrderRule::Smith => "greedy schedule in Smith order, V/w ascending (Algorithm 3)",
            OrderRule::DeltaDescending => "greedy schedule, caps descending",
            OrderRule::DeltaAscending => "greedy schedule, caps ascending",
            OrderRule::HeightDescending => "greedy schedule, heights V/δ descending",
            OrderRule::WeightedHeightDescending => "greedy schedule, weighted height descending",
            OrderRule::Input => "greedy schedule in input order",
        }
    }

    fn clairvoyance(&self) -> Clairvoyance {
        Clairvoyance::Clairvoyant
    }

    fn run(&self, instance: &Instance<S>) -> Result<PolicyRun<S>, ScheduleError> {
        instance.require_offline(SchedulingPolicy::<S>::name(self))?;
        let tol = Tolerance::<S>::for_instance(instance.n());
        let step = greedy_schedule(instance, &self.order.order(instance))?;
        Ok(plain(step_to_column(&step, tol)))
    }
}

/// The best greedy schedule over all heuristic orders of
/// [`orders::heuristic_orders`].
#[derive(Debug, Default, Clone, Copy)]
pub struct BestHeuristicGreedy;

impl<S: Scalar> SchedulingPolicy<S> for BestHeuristicGreedy {
    fn name(&self) -> &'static str {
        "best-greedy"
    }

    fn description(&self) -> &'static str {
        "minimum-cost greedy schedule over the heuristic orders"
    }

    fn clairvoyance(&self) -> Clairvoyance {
        Clairvoyance::Clairvoyant
    }

    fn run(&self, instance: &Instance<S>) -> Result<PolicyRun<S>, ScheduleError> {
        instance.require_offline(SchedulingPolicy::<S>::name(self))?;
        let tol = Tolerance::<S>::for_instance(instance.n());
        let (_, order, _) = best_heuristic_greedy(instance)?;
        let step = greedy_schedule(instance, &order)?;
        Ok(plain(step_to_column(&step, tol)))
    }
}

/// The `Cmax`-optimal schedule: every task finishes together at the
/// two-term optimum `C* = max(ΣV/P, max V/min(δ,P))`.
#[derive(Debug, Default, Clone, Copy)]
pub struct MakespanOptimal;

impl<S: Scalar> SchedulingPolicy<S> for MakespanOptimal {
    fn name(&self) -> &'static str {
        "makespan"
    }

    fn description(&self) -> &'static str {
        "Cmax-optimal schedule (all tasks finish at C*)"
    }

    fn clairvoyance(&self) -> Clairvoyance {
        Clairvoyance::Clairvoyant
    }

    fn run(&self, instance: &Instance<S>) -> Result<PolicyRun<S>, ScheduleError> {
        instance.require_offline(SchedulingPolicy::<S>::name(self))?;
        makespan_schedule(instance).map(plain)
    }
}

/// The `Lmax`-derived scheduler: every task is due at its own height
/// `hᵢ = Vᵢ/min(δᵢ, P)` (its minimal running time) and the maximum
/// lateness is minimized exactly by the parametric Water-Filling search.
/// Short tasks finish early; the uniform slack `L*` spreads the machine
/// contention evenly.
#[derive(Debug, Default, Clone, Copy)]
pub struct LmaxHeightDue;

impl<S: Scalar> SchedulingPolicy<S> for LmaxHeightDue {
    fn name(&self) -> &'static str {
        "lmax-height"
    }

    fn description(&self) -> &'static str {
        "exact minimum max-lateness schedule against per-task height due dates"
    }

    fn clairvoyance(&self) -> Clairvoyance {
        Clairvoyance::Clairvoyant
    }

    fn run(&self, instance: &Instance<S>) -> Result<PolicyRun<S>, ScheduleError> {
        instance.require_offline(SchedulingPolicy::<S>::name(self))?;
        let due: Vec<S> = instance
            .iter()
            .map(|(id, t)| t.volume.clone() / instance.effective_delta(id))
            .collect();
        let lateness = Objective::Lateness { due: &due };
        let (_, schedule) = frontier(instance, lateness, &mut ProbeSession::new())?;
        Ok(plain(schedule))
    }
}

/// Exact min-`Lmax` against **Smith-ratio due dates** `dᵢ = Vᵢ/wᵢ`
/// (weightless tasks fall back to their height): heavier tasks are due
/// earlier, so minimizing the worst lateness pushes priority work to the
/// front while the parametric search keeps the optimum exact. Registered
/// so the batch engine and `msched --policy` exercise the parametric
/// `Lmax` path on every sweep.
#[derive(Debug, Default, Clone, Copy)]
pub struct LmaxParametric;

impl<S: Scalar> SchedulingPolicy<S> for LmaxParametric {
    fn name(&self) -> &'static str {
        "lmax-parametric"
    }

    fn description(&self) -> &'static str {
        "exact min-Lmax against Smith-ratio due dates (parametric frontier search)"
    }

    fn clairvoyance(&self) -> Clairvoyance {
        Clairvoyance::Clairvoyant
    }

    fn run(&self, instance: &Instance<S>) -> Result<PolicyRun<S>, ScheduleError> {
        instance.require_offline(SchedulingPolicy::<S>::name(self))?;
        let due: Vec<S> = smith_ratio_dues(instance);
        let lateness = Objective::Lateness { due: &due };
        let (_, schedule) = frontier(instance, lateness, &mut ProbeSession::new())?;
        Ok(plain(schedule))
    }
}

/// Smith-ratio due dates `dᵢ = Vᵢ/wᵢ` (weightless tasks fall back to
/// their height) — shared by the two parametric `Lmax` policies.
fn smith_ratio_dues<S: Scalar>(instance: &Instance<S>) -> Vec<S> {
    instance
        .iter()
        .map(|(id, t)| {
            if t.weight.is_positive() {
                t.volume.clone() / t.weight.clone()
            } else {
                t.volume.clone() / instance.effective_delta(id)
            }
        })
        .collect()
}

/// The release-date `Cmax` solver run at zero releases: the exact optimal
/// makespan reached through the transportation-flow frontier search (the
/// same value as [`MakespanOptimal`]'s closed form, via the entirely
/// different parametric machinery — keeping the two agreeing on every
/// sweep is a standing cross-check). The flow witness may finish
/// individual tasks before `C*`, so its `Σ wᵢCᵢ` can differ.
#[derive(Debug, Default, Clone, Copy)]
pub struct MakespanParametric;

impl<S: Scalar> SchedulingPolicy<S> for MakespanParametric {
    fn name(&self) -> &'static str {
        "makespan-parametric"
    }

    fn description(&self) -> &'static str {
        "exact Cmax via the release-date parametric flow search (zero releases)"
    }

    fn clairvoyance(&self) -> Clairvoyance {
        Clairvoyance::Clairvoyant
    }

    fn run(&self, instance: &Instance<S>) -> Result<PolicyRun<S>, ScheduleError> {
        instance.require_offline(SchedulingPolicy::<S>::name(self))?;
        let releases = vec![S::zero(); instance.n()];
        let makespan = Objective::Makespan {
            releases: &releases,
        };
        let (_, schedule) = frontier(instance, makespan, &mut ProbeSession::new())?;
        Ok(plain(schedule))
    }
}

/// **Fastest-machines-first WDEQ** — the related-machines entry of the
/// heterogeneous policy family: weighted equipartition of *machine
/// counts* (the same fixpoint as Algorithm 1), realized by handing the
/// fastest machines to the heaviest active tasks. On identical machines
/// this coincides with WDEQ (machine counts are rates there); on related
/// machines it is feasible by construction because the allocation is an
/// actual machine assignment.
///
/// Every run carries a Lemma-2-style certificate: the replay records which
/// volume each task processed while *capacity-limited* (its share met its
/// rate cap) and feeds that split into the Lemma-1 mixed bound
/// `A(I[V¹]) + H(I[V²]) ≤ OPT` — any split is a sound lower bound, so the
/// certificate is machine-checked on heterogeneous models too. The factor
/// 2 is the Theorem-4 guarantee (proved on identical machines, where this
/// policy *is* WDEQ; observed on the related/submodular/restricted sweeps).
#[derive(Debug, Default, Clone, Copy)]
pub struct WdeqRelated;

impl<S: Scalar> SchedulingPolicy<S> for WdeqRelated {
    fn name(&self) -> &'static str {
        "wdeq-related"
    }

    fn description(&self) -> &'static str {
        "weighted equipartition of machine counts, fastest machines to heaviest tasks"
    }

    fn clairvoyance(&self) -> Clairvoyance {
        Clairvoyance::NonClairvoyant
    }

    fn run(&self, instance: &Instance<S>) -> Result<PolicyRun<S>, ScheduleError> {
        let (schedule, limited) = rules::replay_with_split(instance, &rules::WdeqRule)?;
        let lower_bound = mixed_bound(instance, &limited).max_of(combined_lower_bound(instance));
        Ok(PolicyRun {
            schedule,
            certificate: Some(PolicyCertificate {
                lower_bound,
                factor: S::from_int(2),
            }),
        })
    }
}

/// **Speed-scaled Water-Filling** — the related-machines normal form:
/// take the fastest-first WDEQ completion times and materialize them
/// through the transportation flow over the speed levels (the witness
/// role Water-Filling plays on identical machines, Theorem 8).
#[derive(Debug, Default, Clone, Copy)]
pub struct WaterFillRelated;

impl<S: Scalar> SchedulingPolicy<S> for WaterFillRelated {
    fn name(&self) -> &'static str {
        "wf-related"
    }

    fn description(&self) -> &'static str {
        "speed-scaled normal form: WDEQ-related completion times via the level flow"
    }

    fn clairvoyance(&self) -> Clairvoyance {
        Clairvoyance::Clairvoyant
    }

    fn run(&self, instance: &Instance<S>) -> Result<PolicyRun<S>, ScheduleError> {
        instance.require_offline(SchedulingPolicy::<S>::name(self))?;
        let completions = rules::replay(instance, &rules::WdeqRule)?.completions;
        flow_witness(instance, None, &completions, &mut ProbeSession::new()).map(plain)
    }
}

/// **Greedy(Smith) on related machines**: tasks in Smith order, each
/// receiving the earliest completion time that keeps the prefix
/// transport-feasible (the completion-time formulation of Algorithm 3's
/// greedy principle, sound on any speed profile).
#[derive(Debug, Default, Clone, Copy)]
pub struct GreedySmithRelated;

impl<S: Scalar> SchedulingPolicy<S> for GreedySmithRelated {
    fn name(&self) -> &'static str {
        "greedy-smith-related"
    }

    fn description(&self) -> &'static str {
        "greedy earliest-feasible completions in Smith order over the speed profile"
    }

    fn clairvoyance(&self) -> Clairvoyance {
        Clairvoyance::Clairvoyant
    }

    fn run(&self, instance: &Instance<S>) -> Result<PolicyRun<S>, ScheduleError> {
        instance.require_offline(SchedulingPolicy::<S>::name(self))?;
        greedy_related(instance, &orders::smith_order(instance)).map(plain)
    }
}

/// **Greedy(LPT) on related machines**: the volume-descending analogue of
/// [`GreedySmithRelated`] — the largest task claims the earliest feasible
/// completion first, so big jobs anchor the frontier and small ones slot
/// into the slack. Sound on every capacity model (identical, related,
/// submodular, restricted).
#[derive(Debug, Default, Clone, Copy)]
pub struct GreedyLptRelated;

impl<S: Scalar> SchedulingPolicy<S> for GreedyLptRelated {
    fn name(&self) -> &'static str {
        "greedy-lpt-related"
    }

    fn description(&self) -> &'static str {
        "greedy earliest-feasible completions, largest volume first, any capacity model"
    }

    fn clairvoyance(&self) -> Clairvoyance {
        Clairvoyance::Clairvoyant
    }

    fn run(&self, instance: &Instance<S>) -> Result<PolicyRun<S>, ScheduleError> {
        instance.require_offline(SchedulingPolicy::<S>::name(self))?;
        greedy_related(instance, &orders::volume_descending(instance)).map(plain)
    }
}

/// **Greedy most-constrained-first**: tasks in ascending effective
/// machine-count cap `min(δᵢ, f({i}))`, ties by id. On restricted
/// assignment the tasks with the fewest eligible machines commit first,
/// before flexible tasks soak up their capacity; on uniform models it
/// degenerates to caps-ascending.
#[derive(Debug, Default, Clone, Copy)]
pub struct GreedyEligibilityRelated;

impl<S: Scalar> SchedulingPolicy<S> for GreedyEligibilityRelated {
    fn name(&self) -> &'static str {
        "greedy-eligibility-related"
    }

    fn description(&self) -> &'static str {
        "greedy earliest-feasible completions, most-constrained task first"
    }

    fn clairvoyance(&self) -> Clairvoyance {
        Clairvoyance::Clairvoyant
    }

    fn run(&self, instance: &Instance<S>) -> Result<PolicyRun<S>, ScheduleError> {
        instance.require_offline(SchedulingPolicy::<S>::name(self))?;
        greedy_related(instance, &orders::count_cap_ascending(instance)).map(plain)
    }
}

/// Exact min-`Lmax` against Smith-ratio due dates with the transportation
/// flow as oracle *and* witness — the related-machines sibling of
/// [`LmaxParametric`]. Runs the flow path on every machine model (on
/// identical machines it cross-checks the Water-Filling path: same
/// optimal `L*`, different witness).
#[derive(Debug, Default, Clone, Copy)]
pub struct LmaxParametricRelated;

impl<S: Scalar> SchedulingPolicy<S> for LmaxParametricRelated {
    fn name(&self) -> &'static str {
        "lmax-parametric-related"
    }

    fn description(&self) -> &'static str {
        "exact min-Lmax on the speed profile (parametric level-flow search)"
    }

    fn clairvoyance(&self) -> Clairvoyance {
        Clairvoyance::Clairvoyant
    }

    fn run(&self, instance: &Instance<S>) -> Result<PolicyRun<S>, ScheduleError> {
        instance.require_offline(SchedulingPolicy::<S>::name(self))?;
        let due = smith_ratio_dues(instance);
        let lateness = Objective::FlowLateness { due: &due };
        let (_, schedule) = frontier(instance, lateness, &mut ProbeSession::new())?;
        Ok(plain(schedule))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::combined_lower_bound;

    fn inst() -> Instance {
        Instance::builder(4.0)
            .task(8.0, 1.0, 2.0)
            .task(4.0, 2.0, 4.0)
            .task(2.0, 4.0, 1.0)
            .build()
            .unwrap()
    }

    #[test]
    fn every_registered_policy_schedules_the_fixture() {
        let i = inst();
        let bound = combined_lower_bound(&i);
        for p in all::<f64>() {
            let run = p
                .run(&i)
                .unwrap_or_else(|e| panic!("{} failed: {e}", p.name()));
            run.schedule
                .validate(&i)
                .unwrap_or_else(|e| panic!("{} invalid: {e}", p.name()));
            let cost = run.schedule.weighted_completion_cost(&i);
            assert!(
                cost >= bound - 1e-9,
                "{} beat the lower bound: {cost} < {bound}",
                p.name()
            );
            if let Some(cert) = run.certificate {
                assert!(cert.lower_bound <= cost + 1e-9, "{}", p.name());
                assert!(cert.ratio(cost) <= cert.factor + 1e-6, "{}", p.name());
            }
        }
    }

    #[test]
    fn wdeq_certificate_is_the_lemma2_bound() {
        let i = inst();
        let run = SchedulingPolicy::<f64>::run(&Wdeq, &i).unwrap();
        let cert = run.certificate.expect("wdeq carries a certificate");
        let direct = crate::algos::wdeq::wdeq_certificate(&i);
        assert!((cert.lower_bound - direct.value()).abs() < 1e-12);
        assert_eq!(cert.factor, 2.0);
    }

    #[test]
    fn normal_form_variants_agree_and_keep_wdeq_completions() {
        let i = inst();
        let wdeq = SchedulingPolicy::<f64>::schedule(&Wdeq, &i).unwrap();
        let full =
            SchedulingPolicy::<f64>::schedule(&WaterFillNormalForm { fast: false }, &i).unwrap();
        let fast =
            SchedulingPolicy::<f64>::schedule(&WaterFillNormalForm { fast: true }, &i).unwrap();
        assert_eq!(full.completions, wdeq.completions);
        assert_eq!(full.completions, fast.completions);
    }

    #[test]
    fn greedy_policies_cover_every_order_rule() {
        let i = inst();
        for order in OrderRule::ALL {
            let p = GreedyPolicy { order };
            let s = SchedulingPolicy::<f64>::schedule(&p, &i).unwrap();
            s.validate(&i).unwrap();
        }
    }

    #[test]
    fn lmax_height_finishes_short_tasks_before_makespan_does() {
        // Under `makespan` everything ends at C*; lmax-height lets the
        // short task out earlier.
        let i = Instance::builder(2.0)
            .task(8.0, 1.0, 2.0)
            .task(0.5, 1.0, 2.0)
            .build()
            .unwrap();
        let mk = SchedulingPolicy::<f64>::schedule(&MakespanOptimal, &i).unwrap();
        let lx = SchedulingPolicy::<f64>::schedule(&LmaxHeightDue, &i).unwrap();
        assert!(lx.completions[1] < mk.completions[1] - 1e-9);
    }

    #[test]
    fn exact_instantiation_runs_the_same_registry() {
        use bigratio::Rational;
        let q = Rational::from_f64_exact;
        let i = Instance::<Rational>::builder(q(2.0))
            .task(q(2.0), q(1.0), q(1.0))
            .task(q(1.0), q(2.0), q(2.0))
            .build()
            .unwrap();
        for p in all::<Rational>() {
            let s = p
                .schedule(&i)
                .unwrap_or_else(|e| panic!("{} failed exactly: {e}", p.name()));
            // Every policy — the parametric Lmax/Cmax solvers included —
            // now validates under the zero tolerance: there is no
            // bisection bracket left anywhere in the registry.
            s.validate(&i)
                .unwrap_or_else(|e| panic!("{} not exact: {e}", p.name()));
        }
    }

    #[test]
    fn parametric_makespan_agrees_with_the_closed_form() {
        // Two entirely different derivations of C* — the closed-form
        // two-term bound and the parametric flow search — must agree
        // exactly, in both fields.
        let i = inst();
        let closed = crate::algos::makespan::optimal_makespan(&i);
        let via_flow = SchedulingPolicy::<f64>::schedule(&MakespanParametric, &i).unwrap();
        assert_eq!(via_flow.makespan(), closed);

        use bigratio::Rational;
        let q = Rational::from_f64_exact;
        let e = Instance::<Rational>::builder(q(4.0))
            .task(q(8.0), q(1.0), q(2.0))
            .task(q(4.0), q(2.0), q(4.0))
            .task(q(2.0), q(4.0), q(1.0))
            .build()
            .unwrap();
        let closed = crate::algos::makespan::optimal_makespan(&e);
        let via_flow = SchedulingPolicy::<Rational>::schedule(&MakespanParametric, &e).unwrap();
        assert_eq!(via_flow.makespan(), closed);
    }

    #[test]
    fn heterogeneous_capable_policies_schedule_every_capacity_model() {
        use crate::machine::MachineModel;
        let tasks = [(6.0, 1.0, 2.0), (4.0, 2.0, 3.0), (2.0, 4.0, 1.0)];
        let machines = vec![
            MachineModel::related(vec![2.0, 1.0, 1.0]).unwrap(),
            MachineModel::submodular(vec![3.0, 5.0, 6.0]).unwrap(),
            MachineModel::restricted(3, vec![vec![0, 1], vec![1, 2], vec![0]]).unwrap(),
        ];
        for machine in machines {
            let mut b = Instance::builder(1.0);
            for (v, w, d) in tasks {
                b = b.task(v, w, d);
            }
            let i = b.build().unwrap().with_machine(machine).unwrap();
            for name in registry::capable_for(&i.machine) {
                let p = by_name::<f64>(name).unwrap();
                let run = p
                    .run(&i)
                    .unwrap_or_else(|e| panic!("{name} failed on {}: {e}", i.machine));
                run.schedule
                    .validate(&i)
                    .unwrap_or_else(|e| panic!("{name} invalid on {}: {e}", i.machine));
                if let Some(cert) = run.certificate {
                    let cost = run.schedule.weighted_completion_cost(&i);
                    assert!(
                        cert.lower_bound <= cost + 1e-9,
                        "{name}: bound {} above cost {cost}",
                        cert.lower_bound
                    );
                }
            }
        }
    }

    #[test]
    fn wdeq_related_certificate_is_sound_and_matches_wdeq_on_identical() {
        let i = inst();
        let run = SchedulingPolicy::<f64>::run(&WdeqRelated, &i).unwrap();
        let cert = run.certificate.expect("wdeq-related carries a certificate");
        let cost = run.schedule.weighted_completion_cost(&i);
        assert!(cert.lower_bound <= cost + 1e-9);
        assert!(cert.lower_bound >= combined_lower_bound(&i) - 1e-9);
        assert!(cert.ratio(cost) <= cert.factor + 1e-6);
        assert_eq!(cert.factor, 2.0);
    }

    #[test]
    fn lmax_parametric_handles_zero_weights() {
        // Smith-ratio due dates fall back to heights for weightless tasks
        // instead of dividing by zero.
        let i = Instance::builder(2.0)
            .task(2.0, 0.0, 1.0)
            .task(1.0, 1.0, 2.0)
            .build()
            .unwrap();
        let s = SchedulingPolicy::<f64>::schedule(&LmaxParametric, &i).unwrap();
        s.validate(&i).unwrap();
    }
}
