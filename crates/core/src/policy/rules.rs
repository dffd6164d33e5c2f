//! Instantaneous allocation rules and the one event loop that runs them.
//!
//! A rule maps the *observable* state of the released, unfinished tasks
//! (identity, weight, cap, work already done — never the remaining
//! volume) to a share vector. [`run_rule`] is the event loop: it owns the
//! remaining volumes, asks the rule for shares at every completion and
//! every arrival, checks them, and steps to the next event. Its callers:
//!
//! * [`replay`] and [`run_rule`] itself — the
//!   [`SchedulingPolicy`](crate::policy::SchedulingPolicy) registry's
//!   DEQ, WDEQ ablations and related-machines WDEQ (which also reads the
//!   Lemma-2 volume split, [`RuleRun::limited`]);
//! * `malleable-sim`'s `simulate` — the online engine (uniform machines
//!   only) behind the daemon's streaming tenants;
//! * the tests, where `run_rule(&WdeqRule)` is the quadratic executable
//!   specification of Algorithm 1 that the event-driven
//!   [`wdeq_run`](crate::algos::wdeq::wdeq_run) must reproduce
//!   bit-for-bit at `Rational`.
//!
//! Keeping the rules here (generic over the scalar) means the paper's
//! Algorithm 1 and its ablations exist exactly once in the workspace, and
//! this is the workspace's one per-event recompute loop.

use crate::error::ScheduleError;
use crate::instance::{Instance, TaskId};
use crate::schedule::column::{Column, ColumnSchedule};
use numkit::{Scalar, Tolerance};
use std::borrow::Cow;
use std::fmt;

/// Observable state of one unfinished task, as exposed to a rule.
#[derive(Debug, Clone)]
pub struct ActiveTask<S = f64> {
    /// Task identity (stable across events).
    pub id: TaskId,
    /// Weight `wᵢ`.
    pub weight: S,
    /// Effective *machine-count* cap `min(δᵢ, count)`. On identical
    /// machines this equals the rate cap `min(δᵢ, P)`; on related
    /// machines the counts a rule hands out are realized into rates by
    /// the fastest-machines-first layout (see [`replay`]).
    pub cap: S,
    /// Volume processed so far.
    pub processed: S,
}

/// An instantaneous allocation rule: observable task state in, machine
/// shares out.
///
/// Shares are indexed like `active` and must satisfy `0 ≤ shareₖ ≤ capₖ`
/// and `Σ shareₖ ≤ p` (the rules below guarantee this by construction;
/// [`run_rule`] checks it at every event). On identical machines a
/// share *is* a processing rate; on related machines it is a fractional
/// machine count, converted to a rate by the speed profile.
pub trait AllocationRule<S: Scalar> {
    /// Stable name (used in experiment tables and the policy registry).
    fn name(&self) -> &'static str;

    /// Choose machine shares for the active tasks (`p` is the total
    /// machine count — the capacity `P` on identical machines).
    fn rates(&self, active: &[ActiveTask<S>], p: &S) -> Vec<S>;
}

/// Algorithm 1 — **WDEQ**: weighted proportional share with cap clamping
/// and surplus redistribution (delegates to
/// [`wdeq_allocation`](crate::algos::wdeq::wdeq_allocation)).
#[derive(Debug, Default, Clone, Copy)]
pub struct WdeqRule;

impl<S: Scalar> AllocationRule<S> for WdeqRule {
    fn name(&self) -> &'static str {
        "wdeq"
    }

    fn rates(&self, active: &[ActiveTask<S>], p: &S) -> Vec<S> {
        let entries: Vec<(S, S)> = active
            .iter()
            .map(|t| (t.weight.clone(), t.cap.clone()))
            .collect();
        crate::algos::wdeq::wdeq_allocation(&entries, p.clone())
    }
}

/// **DEQ** (Deng et al.): dynamic equipartition ignoring weights — WDEQ on
/// unit weights.
#[derive(Debug, Default, Clone, Copy)]
pub struct DeqRule;

impl<S: Scalar> AllocationRule<S> for DeqRule {
    fn name(&self) -> &'static str {
        "deq"
    }

    fn rates(&self, active: &[ActiveTask<S>], p: &S) -> Vec<S> {
        let entries: Vec<(S, S)> = active.iter().map(|t| (S::one(), t.cap.clone())).collect();
        crate::algos::wdeq::wdeq_allocation(&entries, p.clone())
    }
}

/// Proportional weighted share clamped at the cap, **without**
/// redistributing the clamped surplus — the ablation showing Algorithm 1's
/// while-loop matters. Wastes capacity whenever a cap binds.
#[derive(Debug, Default, Clone, Copy)]
pub struct ShareNoRedistributionRule;

impl<S: Scalar> AllocationRule<S> for ShareNoRedistributionRule {
    fn name(&self) -> &'static str {
        "share-no-redistribution"
    }

    fn rates(&self, active: &[ActiveTask<S>], p: &S) -> Vec<S> {
        let w = S::sum(active.iter().map(|t| t.weight.clone()));
        if !w.is_positive() {
            return vec![S::zero(); active.len()];
        }
        active
            .iter()
            .map(|t| (t.weight.clone() * p.clone() / w.clone()).min_of(t.cap.clone()))
            .collect()
    }
}

/// Weight-priority list allocation: active tasks sorted by weight
/// (descending, ties by id), each takes `min(cap, remaining capacity)`.
/// A natural but non-fair baseline with no worst-case guarantee.
#[derive(Debug, Default, Clone, Copy)]
pub struct PriorityRule;

impl<S: Scalar> AllocationRule<S> for PriorityRule {
    fn name(&self) -> &'static str {
        "priority"
    }

    fn rates(&self, active: &[ActiveTask<S>], p: &S) -> Vec<S> {
        let mut idx: Vec<usize> = (0..active.len()).collect();
        idx.sort_by(|&a, &b| {
            active[b]
                .weight
                .total_cmp_s(&active[a].weight)
                .then(active[a].id.0.cmp(&active[b].id.0))
        });
        let mut rates = vec![S::zero(); active.len()];
        let mut left = p.clone();
        for i in idx {
            if !left.is_positive() {
                break;
            }
            let r = active[i].cap.clone().min_of(left.clone());
            left = left - r.clone();
            rates[i] = r;
        }
        rates
    }
}

/// One event-driven run of an allocation rule (see [`run_rule`]).
#[derive(Debug, Clone)]
pub struct RuleRun<S = f64> {
    /// The executed schedule (columns = inter-event intervals).
    pub schedule: ColumnSchedule<S>,
    /// The Lemma-2 volume split `V¹`: for each task, how much of its
    /// volume was processed while the rule allocated it **less than its
    /// cap** (the task was *limited* — capacity was the binding
    /// resource). It satisfies `0 ≤ V¹ᵢ ≤ Vᵢ`, and by Lemma 1 any such
    /// split yields the sound lower bound `OPT ≥ A(I[V¹]) + H(I[V − V¹])`
    /// ([`crate::bounds::mixed_bound`]) — the per-run certificate the
    /// related-machines WDEQ policy reports.
    pub limited: Vec<S>,
    /// Number of allocation events (rule invocations).
    pub events: usize,
}

/// Why [`run_rule`] stopped before every task completed.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleError {
    /// The instance is malformed.
    Instance(ScheduleError),
    /// The rule returned an invalid share vector.
    Violation {
        /// Which rule misbehaved.
        rule: &'static str,
        /// What it did wrong.
        reason: String,
    },
    /// No active task progresses and nothing further arrives.
    Stalled {
        /// Which rule stalled.
        rule: &'static str,
        /// Time at which progress stopped (approximate for exact
        /// scalars; diagnostics only).
        at: f64,
        /// Number of unfinished released tasks at that time.
        active: usize,
    },
}

impl From<RuleError> for ScheduleError {
    fn from(e: RuleError) -> Self {
        let reason = match e {
            RuleError::Instance(e) => return e,
            RuleError::Violation { rule, reason } => {
                format!("allocation rule '{rule}' returned invalid shares: {reason}")
            }
            RuleError::Stalled { rule, at, active } => {
                format!("allocation rule '{rule}' stalled at t = {at} with {active} tasks active")
            }
        };
        ScheduleError::InvalidInstance { reason }
    }
}

/// The text of the [`ScheduleError`] conversion, so both read alike.
impl fmt::Display for RuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        ScheduleError::from(self.clone()).fmt(f)
    }
}

impl std::error::Error for RuleError {}

/// Replay of an allocation rule to completion: recompute shares at every
/// event, jump to the next one, repeat. The columns of the result are
/// the inter-event intervals (exactly the granularity the paper's model
/// works at — between events any constant allocation with the same
/// column totals is equivalent, Theorem 3).
///
/// **Machine awareness.** The rule is consulted in machine-count space
/// (caps `min(δᵢ, count)`, budget = total machine count); the resulting
/// shares are realized into processing rates by laying the active tasks
/// onto the machines **fastest first, heaviest task first** (ties by task
/// id). On identical machines this realization is the identity — counts
/// are rates; on related machines it is the fastest-machines-first WDEQ
/// family of Gupta–Kumar–Singla-style heterogeneous policies, and the
/// produced columns are feasible by construction (they are an actual
/// machine assignment).
///
/// **Release times.** When the instance carries them, a task becomes
/// visible to the rule only at its arrival and every arrival cuts a new
/// column (an empty one while nothing is released), so the schedule
/// never allocates a task before it exists.
///
/// # Errors
/// [`ScheduleError::InvalidInstance`] when the instance is malformed,
/// the rule returns invalid shares, or it stops making progress (e.g.
/// proportional share over an all-zero-weight active set).
pub fn replay<S: Scalar>(
    instance: &Instance<S>,
    rule: &dyn AllocationRule<S>,
) -> Result<ColumnSchedule<S>, ScheduleError> {
    Ok(run_rule(instance, rule)?.schedule)
}

/// The event loop behind [`replay`] and `malleable-sim`'s `simulate`.
/// Each event releases the due arrivals, asks the rule for shares,
/// checks them (arity; finite, non-negative and within each cap; total
/// within the machine count — all up to the instance tolerance),
/// realizes them as rates, and steps to the earlier of the next
/// completion and the next arrival. The rule only ever sees observable
/// state: remaining volumes stay inside the loop.
///
/// # Errors
/// [`RuleError::Instance`] for a malformed instance,
/// [`RuleError::Violation`] for an invalid share vector, and
/// [`RuleError::Stalled`] when no task progresses and nothing further
/// arrives.
pub fn run_rule<S: Scalar>(
    instance: &Instance<S>,
    rule: &dyn AllocationRule<S>,
) -> Result<RuleRun<S>, RuleError> {
    instance.validate().map_err(RuleError::Instance)?;
    let tol = Tolerance::<S>::for_instance(instance.n());
    let n = instance.n();
    let count = instance.machine.count();
    let unit_speeds = instance.machine.unit_speeds();
    let caps: Vec<S> = (0..n).map(|i| instance.count_cap(TaskId(i))).collect();
    let arrivals: Vec<S> = (0..n).map(|i| instance.arrival(TaskId(i))).collect();
    let mut remaining: Vec<S> = instance.tasks.iter().map(|t| t.volume.clone()).collect();
    let mut processed = vec![S::zero(); n];
    let mut limited = vec![S::zero(); n];
    let mut finished = vec![false; n];
    // Tasks released at t = 0 start active; the rest wait in `pending`,
    // kept pop-friendly (latest arrival first, ties by id).
    let mut active: Vec<usize> = (0..n).filter(|&i| !arrivals[i].is_positive()).collect();
    let mut pending: Vec<usize> = (0..n).filter(|&i| arrivals[i].is_positive()).collect();
    pending.sort_by(|&a, &b| arrivals[b].total_cmp_s(&arrivals[a]).then(b.cmp(&a)));
    let mut completions = vec![S::zero(); n];
    let mut columns = Vec::with_capacity(n);
    let mut now = S::zero();
    let mut events = 0usize;
    // Reused across events: at n = 10⁵+ the per-event view rebuild
    // dominates allocator traffic if each iteration starts afresh.
    let mut views: Vec<ActiveTask<S>> = Vec::with_capacity(n);

    while !active.is_empty() || !pending.is_empty() {
        // Release everything that has arrived by `now`.
        while let Some(&j) = pending.last() {
            if arrivals[j] <= now {
                active.push(pending.pop().expect("peeked"));
            } else {
                break;
            }
        }
        // Nothing runnable: idle forward to the next arrival with an
        // empty column (columns must stay contiguous from t = 0).
        if active.is_empty() {
            let j = *pending.last().expect("outer loop guarantees work left");
            columns.push(Column {
                start: now.clone(),
                end: arrivals[j].clone(),
                rates: vec![],
            });
            now = arrivals[j].clone();
            continue;
        }
        views.clear();
        views.extend(active.iter().map(|&i| ActiveTask {
            id: TaskId(i),
            weight: instance.tasks[i].weight.clone(),
            cap: caps[i].clone(),
            processed: processed[i].clone(),
        }));
        let shares = rule.rates(&views, &count);
        events += 1;
        check_shares(rule.name(), &shares, &views, &count, &tol)?;
        // Realize machine shares as rates: fastest machines to the
        // heaviest tasks (deterministic; the identity on unit speeds).
        let rates: Cow<'_, [S]> = if unit_speeds {
            Cow::Borrowed(&shares)
        } else {
            Cow::Owned(realize_shares(instance, &active, &shares))
        };

        // Time to the next completion among tasks that progress.
        let mut dt: Option<S> = None;
        for (k, &i) in active.iter().enumerate() {
            if rates[k].is_positive() {
                let t_i = remaining[i].clone() / rates[k].clone();
                dt = Some(match dt {
                    Some(d) => d.min_of(t_i),
                    None => t_i,
                });
            }
        }
        let dt = dt.filter(|d| d.is_finite() && d.is_positive());
        // The column ends at the earlier of the next completion and the
        // next arrival; with neither in sight, the run is stalled. (After
        // the release pass, any pending arrival is strictly in the
        // future, so `step` is always positive.)
        let next_arrival = pending.last().map(|&j| arrivals[j].clone());
        let (step, end) = match (dt, next_arrival) {
            (Some(d), Some(na)) if na < now.clone() + d.clone() => (na.clone() - now.clone(), na),
            (Some(d), _) => (d.clone(), now.clone() + d),
            (None, Some(na)) => (na.clone() - now.clone(), na),
            (None, None) => {
                return Err(RuleError::Stalled {
                    rule: rule.name(),
                    at: now.to_f64(),
                    active: active.len(),
                })
            }
        };

        columns.push(Column {
            start: now.clone(),
            end: end.clone(),
            rates: active
                .iter()
                .zip(rates.iter())
                .filter(|(_, r)| r.is_positive())
                .map(|(&i, r)| (TaskId(i), r.clone()))
                .collect(),
        });

        for (k, &i) in active.iter().enumerate() {
            let inc = rates[k].clone() * step.clone();
            // Volume processed while the share sat strictly below the
            // cap is attributed to the "limited" side of the split.
            if tol.lt(shares[k].clone(), views[k].cap.clone()) {
                limited[i] = limited[i].clone() + inc.clone();
            }
            processed[i] = processed[i].clone() + inc.clone();
            remaining[i] = remaining[i].clone() - inc;
            if remaining[i] <= tol.rel.clone() * instance.tasks[i].volume.clone() {
                remaining[i] = S::zero();
                completions[i] = end.clone();
                finished[i] = true;
            }
        }
        active.retain(|&i| !finished[i]);
        now = end;
    }

    // Clamp the split into [0, Vᵢ] so f64 accumulation drift can never
    // push `mixed_bound` outside its admissible range (exact scalars are
    // already exact).
    for (l, t) in limited.iter_mut().zip(&instance.tasks) {
        *l = l.clone().max_of(S::zero()).min_of(t.volume.clone());
    }
    Ok(RuleRun {
        schedule: ColumnSchedule {
            p: instance.p.clone(),
            completions,
            columns,
        },
        limited,
        events,
    })
}

/// The per-event share check of [`run_rule`]: one share per view, each
/// finite, `≥ −abs` and `≤ cap`, their total `≤ count` (up to `tol`).
fn check_shares<S: Scalar>(
    rule: &'static str,
    shares: &[S],
    views: &[ActiveTask<S>],
    count: &S,
    tol: &Tolerance<S>,
) -> Result<(), RuleError> {
    let violation = |reason: String| Err(RuleError::Violation { rule, reason });
    if shares.len() != views.len() {
        return violation(format!("{} rates for {} tasks", shares.len(), views.len()));
    }
    let mut total = S::zero();
    for (r, v) in shares.iter().zip(views) {
        if !r.is_finite() || *r < -tol.abs.clone() {
            return violation(format!("rate {:?} for task {} is negative/NaN", r, v.id));
        }
        if !tol.le(r.clone(), v.cap.clone()) {
            return violation(format!(
                "rate {:?} exceeds δ = {:?} for task {}",
                r, v.cap, v.id
            ));
        }
        total = total + r.clone();
    }
    if !tol.le(total.clone(), count.clone()) {
        return violation(format!("total rate {:?} exceeds P = {:?}", total, count));
    }
    Ok(())
}

/// Convert machine-count shares into processing rates on a machine that
/// is not unit-speed: lay the active tasks out on the speed profile
/// fastest-first, heaviest task first (ties by id). On restricted
/// assignment the same priority order drives the polymatroid greedy
/// [`MachineModel::realize_assign`]
/// (crate::machine::MachineModel::realize_assign): each task's rate is
/// its marginal routable flow given the higher-priority tasks — feasible
/// by construction, and the top task always progresses.
fn realize_shares<S: Scalar>(instance: &Instance<S>, active: &[usize], shares: &[S]) -> Vec<S> {
    let mut pos: Vec<usize> = (0..active.len()).collect();
    pos.sort_by(|&a, &b| {
        instance.tasks[active[b]]
            .weight
            .total_cmp_s(&instance.tasks[active[a]].weight)
            .then(active[a].cmp(&active[b]))
    });
    let mut rates = vec![S::zero(); active.len()];
    if instance.machine.restriction().is_some() {
        // Eligibility sets are task-indexed: hand the original ids along
        // with the shares, in priority order.
        let entries: Vec<(usize, S)> = pos
            .iter()
            .map(|&k| (active[k], shares[k].clone()))
            .collect();
        let realized = instance.machine.realize_assign(&entries);
        for (slot, &k) in pos.iter().enumerate() {
            rates[k] = realized[slot].clone();
        }
        return rates;
    }
    let ordered: Vec<S> = pos.iter().map(|&k| shares[k].clone()).collect();
    let realized = instance.machine.realize(&ordered);
    for (slot, &k) in pos.iter().enumerate() {
        rates[k] = realized[slot].clone();
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::wdeq::wdeq_schedule;

    fn inst() -> Instance {
        Instance::builder(4.0)
            .task(8.0, 1.0, 2.0)
            .task(4.0, 2.0, 4.0)
            .task(2.0, 4.0, 1.0)
            .build()
            .unwrap()
    }

    #[test]
    fn wdeq_replay_matches_closed_form_run() {
        let i = inst();
        let via_rule = replay(&i, &WdeqRule).unwrap();
        let direct = wdeq_schedule(&i);
        for (a, b) in via_rule.completions.iter().zip(&direct.completions) {
            assert!((a - b).abs() < 1e-9, "rule {a} vs direct {b}");
        }
    }

    #[test]
    fn all_rules_produce_valid_schedules() {
        let i = inst();
        let rules: Vec<Box<dyn AllocationRule<f64>>> = vec![
            Box::new(WdeqRule),
            Box::new(DeqRule),
            Box::new(ShareNoRedistributionRule),
            Box::new(PriorityRule),
        ];
        for r in rules {
            let s = replay(&i, r.as_ref()).unwrap();
            s.validate(&i)
                .unwrap_or_else(|e| panic!("{}: {e}", r.name()));
        }
    }

    #[test]
    fn priority_serves_heaviest_first() {
        let i = Instance::builder(1.0)
            .task(1.0, 1.0, 1.0)
            .task(1.0, 5.0, 1.0)
            .build()
            .unwrap();
        let s = replay(&i, &PriorityRule).unwrap();
        assert!((s.completions[1] - 1.0).abs() < 1e-9);
        assert!((s.completions[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn share_without_redistribution_wastes_capacity() {
        let i = Instance::builder(10.0)
            .task(1.0, 9.0, 1.0) // heavy but capped at 1
            .task(9.0, 1.0, 10.0)
            .build()
            .unwrap();
        let wdeq = replay(&i, &WdeqRule).unwrap().weighted_completion_cost(&i);
        let naive = replay(&i, &ShareNoRedistributionRule)
            .unwrap()
            .weighted_completion_cost(&i);
        assert!(wdeq < naive - 1e-9, "wdeq {wdeq} vs naive {naive}");
    }

    #[test]
    fn zero_weight_stall_is_an_error() {
        let i = Instance::builder(1.0).task(1.0, 0.0, 1.0).build().unwrap();
        assert!(matches!(
            replay(&i, &ShareNoRedistributionRule),
            Err(ScheduleError::InvalidInstance { .. })
        ));
    }

    #[test]
    fn restricted_replay_validates_and_respects_eligibility() {
        // Tasks 0, 1 contend for machine 0; task 2 owns {1, 2}.
        let i = Instance::builder(0.0)
            .task(2.0, 1.0, 1.0)
            .task(1.0, 1.0, 1.0)
            .task(4.0, 1.0, 3.0)
            .restricted(3, vec![vec![0], vec![0], vec![1, 2]])
            .build()
            .unwrap();
        let rules: Vec<Box<dyn AllocationRule<f64>>> = vec![
            Box::new(WdeqRule),
            Box::new(DeqRule),
            Box::new(PriorityRule),
        ];
        for r in rules {
            let s = replay(&i, r.as_ref()).unwrap();
            s.validate(&i)
                .unwrap_or_else(|e| panic!("{}: {e}", r.name()));
        }
    }

    #[test]
    fn restricted_replay_exact_with_zero_tolerance() {
        use bigratio::Rational;
        let q = Rational::from_f64_exact;
        let i = Instance::<Rational>::builder(q(0.0))
            .task(q(2.0), q(1.0), q(1.0))
            .task(q(1.0), q(2.0), q(1.0))
            .task(q(4.0), q(1.0), q(2.0))
            .restricted(3, vec![vec![0], vec![0], vec![1, 2]])
            .build()
            .unwrap();
        let s = replay(&i, &WdeqRule).unwrap();
        s.validate(&i).unwrap(); // zero tolerance, eligibility included
    }

    #[test]
    fn replay_split_partitions_each_volume() {
        let i = inst();
        let run = run_rule(&i, &WdeqRule).unwrap();
        for (l, t) in run.limited.iter().zip(&i.tasks) {
            assert!(*l >= 0.0 && *l <= t.volume + 1e-12, "split out of range");
        }
        // The mixed bound over the tracked split is a sound lower bound.
        let lb = crate::bounds::mixed_bound(&i, &run.limited);
        let cost = run.schedule.weighted_completion_cost(&i);
        assert!(lb <= cost + 1e-9, "mixed bound {lb} above cost {cost}");
    }

    #[test]
    fn exact_replay_validates_with_zero_tolerance() {
        use bigratio::Rational;
        let q = Rational::from_f64_exact;
        let i = Instance::<Rational>::builder(q(4.0))
            .task(q(8.0), q(1.0), q(2.0))
            .task(q(4.0), q(2.0), q(4.0))
            .build()
            .unwrap();
        for rule in [&WdeqRule as &dyn AllocationRule<Rational>, &DeqRule] {
            let s = replay(&i, rule).unwrap();
            s.validate(&i).unwrap(); // zero tolerance
        }
    }
}
