//! The non-clairvoyant online engine.
//!
//! [`simulate`] runs an [`AllocationRule`] through the one event loop of
//! the workspace, [`malleable_core::policy::rules::run_rule`]: the loop
//! owns the ground truth (remaining volumes) and shows the rule only
//! observable state — task identity, weight, cap and the volume *already
//! processed*. Allocation is recomputed at every event — task
//! completions, and (when the instance carries release times) task
//! *arrivals* — the granularity the paper's malleable model works at
//! (between events, any constant allocation is equivalent to any other
//! with the same per-column totals, by Theorem 3).
//!
//! Streaming arrivals: an [`Instance`] with `arrivals` set releases each
//! task at its `rᵢ`; the rule only ever sees released, unfinished tasks,
//! and every release cuts a fresh column (so the executed schedule never
//! allocates a task before it exists — validated by
//! `ColumnSchedule::validate` against the same instance). Every share
//! vector is checked against the caps and the machine count before it
//! runs.
//!
//! Like the core algorithm stack, the engine is generic over
//! [`numkit::Scalar`] with `f64` as the default; an exact instantiation
//! replays the same event loop in certified arithmetic (every comparison
//! at the zero tolerance).

use malleable_core::instance::Instance;
use malleable_core::policy::rules::{run_rule, AllocationRule, RuleError, RuleRun};
use numkit::Scalar;

/// Run `rule` on `instance` until all tasks complete, honoring release
/// times when the instance carries them (tasks become visible to the
/// rule only once arrived; every arrival cuts a new column).
///
/// The engine accepts identical and uniform-speed machines only: the
/// rule shares machine counts (per-task cap, `Σ ≤` machine count) and
/// each count runs at the one machine speed. Heterogeneous machines run
/// through the `malleable_core::policy` registry instead. Past that
/// guard this is [`run_rule`], and the result is its [`RuleRun`].
///
/// # Errors
/// [`RuleError::Instance`] for malformed or heterogeneous instances,
/// [`RuleError::Violation`] when the rule emits out-of-range shares, and
/// [`RuleError::Stalled`] when no task progresses and nothing further
/// arrives.
pub fn simulate<S: Scalar>(
    instance: &Instance<S>,
    rule: &dyn AllocationRule<S>,
) -> Result<RuleRun<S>, RuleError> {
    instance
        .require_uniform_machine("the online simulation engine")
        .map_err(RuleError::Instance)?;
    run_rule(instance, rule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleable_core::policy::rules::ActiveTask;
    use std::cell::RefCell;

    /// Gives everything to the first active task (capped), rest zero.
    struct FirstFit;
    impl AllocationRule<f64> for FirstFit {
        fn name(&self) -> &'static str {
            "first-fit"
        }
        fn rates(&self, active: &[ActiveTask], p: &f64) -> Vec<f64> {
            let mut left = *p;
            active
                .iter()
                .map(|v| {
                    let r = v.cap.min(left);
                    left -= r;
                    r
                })
                .collect()
        }
    }

    struct BadLength;
    impl AllocationRule<f64> for BadLength {
        fn name(&self) -> &'static str {
            "bad-length"
        }
        fn rates(&self, _: &[ActiveTask], _: &f64) -> Vec<f64> {
            vec![]
        }
    }

    struct OverCap;
    impl AllocationRule<f64> for OverCap {
        fn name(&self) -> &'static str {
            "over-cap"
        }
        fn rates(&self, active: &[ActiveTask], _: &f64) -> Vec<f64> {
            active.iter().map(|v| v.cap * 2.0).collect()
        }
    }

    struct Lazy;
    impl AllocationRule<f64> for Lazy {
        fn name(&self) -> &'static str {
            "lazy"
        }
        fn rates(&self, active: &[ActiveTask], _: &f64) -> Vec<f64> {
            vec![0.0; active.len()]
        }
    }

    fn inst() -> Instance {
        Instance::builder(2.0)
            .task(2.0, 1.0, 1.0)
            .task(1.0, 1.0, 2.0)
            .build()
            .unwrap()
    }

    #[test]
    fn first_fit_runs_to_completion() {
        let r = simulate(&inst(), &FirstFit).unwrap();
        r.schedule.validate(&inst()).unwrap();
        // T0 at rate 1 [0,2]; T1 at rate 1 [0,1]. Both events recorded.
        assert_eq!(r.schedule.completions, vec![2.0, 1.0]);
        assert_eq!(r.events, 2);
        assert!((r.schedule.weighted_completion_cost(&inst()) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn policy_violations_detected() {
        assert!(matches!(
            simulate(&inst(), &BadLength),
            Err(RuleError::Violation { .. })
        ));
        assert!(matches!(
            simulate(&inst(), &OverCap),
            Err(RuleError::Violation { .. })
        ));
    }

    #[test]
    fn stall_detected() {
        assert!(matches!(
            simulate(&inst(), &Lazy),
            Err(RuleError::Stalled { .. })
        ));
    }

    #[test]
    fn empty_instance_completes_with_zero_cost() {
        // n = 0: the loop never runs and the schedule is empty.
        let empty = Instance::new(2.0, vec![]).unwrap();
        let r = simulate(&empty, &FirstFit).unwrap();
        assert_eq!(r.events, 0);
        assert_eq!(r.schedule.weighted_completion_cost(&empty), 0.0);
    }

    #[test]
    fn heterogeneous_machines_are_refused() {
        let related = Instance::builder(0.0)
            .task(2.0, 1.0, 1.0)
            .speeds(vec![2.0, 1.0])
            .build()
            .unwrap();
        assert!(matches!(
            simulate(&related, &FirstFit),
            Err(RuleError::Instance(_))
        ));
    }

    #[test]
    fn exact_simulation_validates_at_zero_tolerance() {
        use bigratio::Rational;
        let q = Rational::from_f64_exact;
        struct Even;
        impl AllocationRule<Rational> for Even {
            fn name(&self) -> &'static str {
                "even"
            }
            fn rates(&self, active: &[ActiveTask<Rational>], p: &Rational) -> Vec<Rational> {
                let share = p.clone() / Rational::from_int(active.len() as i64);
                active
                    .iter()
                    .map(|v| v.cap.clone().min_of(share.clone()))
                    .collect()
            }
        }
        let i = Instance::<Rational>::builder(q(3.0))
            .task(q(2.0), q(1.0), q(1.0))
            .task(q(1.0), q(2.0), q(3.0))
            .build()
            .unwrap();
        let r = simulate(&i, &Even).unwrap();
        r.schedule.validate(&i).unwrap(); // zero tolerance
    }

    #[test]
    fn arrivals_delay_visibility_and_cut_columns() {
        // T0 (V=2, δ=1) at t = 0; T1 (V=1, δ=2) arrives at t = 1.
        let timed = inst().with_arrivals(vec![0.0, 1.0]).unwrap();
        let r = simulate(&timed, &FirstFit).unwrap();
        r.schedule.validate(&timed).unwrap(); // includes the arrival check
                                              // T0 runs alone on [0,1] (arrival cut), then both to completion:
                                              // T0 finishes at 2, T1 (rate 1, the leftover capacity) at 2.
        assert_eq!(r.schedule.completions, vec![2.0, 2.0]);
        assert!(r.schedule.columns.len() >= 2);
        assert_eq!(r.schedule.columns[0].end, 1.0);
        assert_eq!(r.schedule.columns[0].rates.len(), 1);
        // Offline solve of the same instance without arrivals differs:
        // FirstFit would finish T1 at t = 0.5. The arrival delayed it.
        let offline = simulate(&inst(), &FirstFit).unwrap();
        assert_eq!(offline.schedule.completions, vec![2.0, 1.0]);
    }

    #[test]
    fn idle_gap_before_late_arrival_is_an_empty_column() {
        // Single task arriving at t = 3: the engine idles [0,3], then runs
        // it to completion at 5.
        let late = Instance::builder(2.0)
            .task(2.0, 1.0, 1.0)
            .arrivals(vec![3.0])
            .build()
            .unwrap();
        let r = simulate(&late, &FirstFit).unwrap();
        r.schedule.validate(&late).unwrap();
        assert_eq!(r.schedule.completions, vec![5.0]);
        assert_eq!(r.schedule.columns[0].rates.len(), 0);
        assert_eq!(r.schedule.columns[0].end, 3.0);
    }

    #[test]
    fn stall_after_last_arrival_detected() {
        let timed = inst().with_arrivals(vec![0.0, 1.0]).unwrap();
        assert!(matches!(
            simulate(&timed, &Lazy),
            Err(RuleError::Stalled { at, .. }) if at >= 1.0
        ));
    }

    #[test]
    fn zero_arrivals_match_the_offline_path_bitwise() {
        let zeroed = inst().with_arrivals(vec![0.0, 0.0]).unwrap();
        let a = simulate(&inst(), &FirstFit).unwrap();
        let b = simulate(&zeroed, &FirstFit).unwrap();
        assert_eq!(a.schedule.completions, b.schedule.completions);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn exact_arrival_simulation_validates_at_zero_tolerance() {
        use bigratio::Rational;
        let q = Rational::from_f64_exact;
        struct Even;
        impl AllocationRule<Rational> for Even {
            fn name(&self) -> &'static str {
                "even"
            }
            fn rates(&self, active: &[ActiveTask<Rational>], p: &Rational) -> Vec<Rational> {
                let share = p.clone() / Rational::from_int(active.len() as i64);
                active
                    .iter()
                    .map(|v| v.cap.clone().min_of(share.clone()))
                    .collect()
            }
        }
        let i = Instance::<Rational>::builder(q(3.0))
            .task(q(2.0), q(1.0), q(1.0))
            .task(q(1.0), q(2.0), q(3.0))
            .arrivals(vec![q(0.0), q(0.5)])
            .build()
            .unwrap();
        let r = simulate(&i, &Even).unwrap();
        r.schedule.validate(&i).unwrap(); // zero tolerance, incl. arrivals
    }

    #[test]
    fn views_hide_remaining_volume() {
        // Structural guarantee: ActiveTask has no remaining-volume field.
        // Verify the observable `processed` increases across events.
        struct Recorder {
            seen: RefCell<Vec<f64>>,
        }
        impl AllocationRule<f64> for Recorder {
            fn name(&self) -> &'static str {
                "recorder"
            }
            fn rates(&self, active: &[ActiveTask], p: &f64) -> Vec<f64> {
                self.seen.borrow_mut().push(active[0].processed);
                let share = p / active.len() as f64;
                active.iter().map(|v| v.cap.min(share)).collect()
            }
        }
        let rec = Recorder {
            seen: RefCell::new(vec![]),
        };
        simulate(&inst(), &rec).unwrap();
        let seen = rec.seen.into_inner();
        assert!(seen.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(seen[0], 0.0);
    }
}
