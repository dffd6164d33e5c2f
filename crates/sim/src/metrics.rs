//! Schedule quality metrics beyond the paper's objective.
//!
//! `Σ wᵢCᵢ` is what the theory optimizes, but operators of a malleable
//! runtime also watch utilization, per-task *stretch* (slowdown relative
//! to running alone at full parallelism) and allocation fairness. These
//! metrics make the experiment tables comparable with systems-style
//! evaluations.
//!
//! Generic over [`numkit::Scalar`] (f64 default): exact schedules get
//! exact metrics, so e.g. a certified run's utilization of `1` really is
//! the rational number one.

use malleable_core::instance::Instance;
use malleable_core::schedule::column::ColumnSchedule;
use numkit::Scalar;

/// Machine utilization: busy area / (P × makespan). 1.0 means no idling
/// before the last completion.
pub fn utilization<S: Scalar>(schedule: &ColumnSchedule<S>) -> S {
    let span = schedule.makespan();
    if !span.is_positive() {
        return S::zero();
    }
    let busy = S::sum(
        schedule
            .columns
            .iter()
            .map(|col| col.total_rate() * col.len()),
    );
    busy / (schedule.p.clone() * span)
}

/// Per-task stretch `Cᵢ / hᵢ` where `hᵢ = Vᵢ/min(δᵢ,P)` is the task's
/// running time on an otherwise empty machine. Always ≥ 1.
pub fn stretches<S: Scalar>(instance: &Instance<S>, schedule: &ColumnSchedule<S>) -> Vec<S> {
    instance
        .iter()
        .map(|(id, t)| {
            let alone = t.volume.clone() / t.delta.clone().min_of(instance.p.clone());
            schedule.completion(id) / alone
        })
        .collect()
}

/// Maximum stretch (the "worst slowdown" metric).
pub fn max_stretch<S: Scalar>(instance: &Instance<S>, schedule: &ColumnSchedule<S>) -> S {
    stretches(instance, schedule)
        .into_iter()
        .fold(S::one(), S::max_of)
}

/// Jain's fairness index over weighted inverse stretches
/// `xᵢ = wᵢ·hᵢ/Cᵢ`: 1.0 = perfectly proportional service, `1/n` =
/// maximally unfair. Standard measure for fair-sharing schedulers, which
/// is what WDEQ is. Tasks with zero completion time (possible only on
/// degenerate schedules) are scored as receiving full service, so the
/// index stays finite.
pub fn jain_fairness<S: Scalar>(instance: &Instance<S>, schedule: &ColumnSchedule<S>) -> S {
    let xs: Vec<S> = instance
        .iter()
        .map(|(id, t)| {
            let alone = t.volume.clone() / t.delta.clone().min_of(instance.p.clone());
            let c = schedule.completion(id);
            if c.is_positive() {
                t.weight.clone() * alone / c
            } else {
                t.weight.clone()
            }
        })
        .collect();
    let n = xs.len();
    if n == 0 {
        return S::one();
    }
    let sum = S::sum(xs.iter().cloned());
    let sq = S::sum(xs.iter().map(|x| x.clone() * x.clone()));
    if !sq.is_positive() {
        return S::one();
    }
    sum.clone() * sum / (S::from_int(n as i64) * sq)
}

/// Everything at once, for experiment tables.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleMetrics<S = f64> {
    /// `Σ wᵢCᵢ`.
    pub weighted_completion: S,
    /// `max Cᵢ`.
    pub makespan: S,
    /// Busy fraction of the machine until the makespan.
    pub utilization: S,
    /// Worst task slowdown.
    pub max_stretch: S,
    /// Jain index of weighted service.
    pub jain_fairness: S,
}

/// Compute [`ScheduleMetrics`] for a schedule.
pub fn metrics<S: Scalar>(
    instance: &Instance<S>,
    schedule: &ColumnSchedule<S>,
) -> ScheduleMetrics<S> {
    ScheduleMetrics {
        weighted_completion: schedule.weighted_completion_cost(instance),
        makespan: schedule.makespan(),
        utilization: utilization(schedule),
        max_stretch: max_stretch(instance, schedule),
        jain_fairness: jain_fairness(instance, schedule),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use malleable_core::instance::Instance;
    use malleable_core::policy::rules::{PriorityRule, WdeqRule};

    fn inst() -> Instance {
        Instance::builder(2.0)
            .task(2.0, 1.0, 1.0)
            .task(2.0, 1.0, 1.0)
            .build()
            .unwrap()
    }

    #[test]
    fn perfect_packing_has_unit_utilization() {
        let r = simulate(&inst(), &WdeqRule).unwrap();
        let u = utilization(&r.schedule);
        assert!((u - 1.0).abs() < 1e-9, "two δ=1 tasks fill P=2: {u}");
    }

    #[test]
    fn stretch_is_one_on_an_empty_machine() {
        let single = Instance::builder(4.0).task(2.0, 1.0, 2.0).build().unwrap();
        let r = simulate(&single, &WdeqRule).unwrap();
        assert!((max_stretch(&single, &r.schedule) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fair_sharing_scores_higher_fairness_than_priority() {
        // Symmetric wide tasks (δ = P): WDEQ splits the machine evenly
        // (Jain = 1); priority gives everything to one task first.
        let i = Instance::builder(2.0)
            .task(2.0, 1.0, 2.0)
            .task(2.0, 1.0, 2.0)
            .build()
            .unwrap();
        let fair = simulate(&i, &WdeqRule).unwrap();
        let unfair = simulate(&i, &PriorityRule).unwrap();
        let jf = jain_fairness(&i, &fair.schedule);
        let ju = jain_fairness(&i, &unfair.schedule);
        assert!(jf > 0.999, "symmetric WDEQ should be perfectly fair: {jf}");
        assert!(ju < jf, "priority must be less fair: {ju} vs {jf}");
    }

    #[test]
    fn metrics_bundle_consistent() {
        let i = inst();
        let r = simulate(&i, &WdeqRule).unwrap();
        let m = metrics(&i, &r.schedule);
        assert_eq!(
            m.weighted_completion,
            r.schedule.weighted_completion_cost(&i)
        );
        assert_eq!(m.makespan, r.schedule.makespan());
        assert!(m.max_stretch >= 1.0);
        assert!(m.jain_fairness <= 1.0 + 1e-12);
    }

    #[test]
    fn exact_metrics_are_exact() {
        // A perfectly packed exact schedule scores utilization and Jain
        // index of exactly one — the rational number, not 1 ± ε.
        use bigratio::Rational;
        let q = Rational::from_f64_exact;
        let i = Instance::<Rational>::builder(q(2.0))
            .task(q(2.0), q(1.0), q(1.0))
            .task(q(2.0), q(1.0), q(1.0))
            .build()
            .unwrap();
        let r = simulate(&i, &WdeqRule).unwrap();
        let m = metrics(&i, &r.schedule);
        assert_eq!(m.utilization, Rational::from_int(1));
        assert_eq!(m.jain_fairness, Rational::from_int(1));
        assert_eq!(m.makespan, Rational::from_int(2));
    }

    #[test]
    fn empty_schedule_metrics_are_sane() {
        let empty = ColumnSchedule {
            p: 2.0,
            completions: vec![],
            columns: vec![],
        };
        assert_eq!(utilization(&empty), 0.0);
        let no_tasks = Instance::identical(2.0, vec![]);
        assert_eq!(jain_fairness(&no_tasks, &empty), 1.0);
        let m = metrics(&no_tasks, &empty);
        assert_eq!(m.weighted_completion, 0.0);
    }
}
