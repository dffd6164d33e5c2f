//! The online-capable allocation rules, by name.
//!
//! The rules themselves — Algorithm 1's equipartition, its ablations, the
//! priority baseline — live once, in [`malleable_core::policy::rules`],
//! and [`crate::engine::simulate`] runs them directly. This module only
//! names the ones that can run against streaming arrivals:
//!
//! * `wdeq` — [`WdeqRule`], Algorithm 1, the paper's 2-approximation;
//! * `deq` — [`DeqRule`], the unweighted special case (Deng et al.);
//! * `share-no-redistribution` — [`ShareNoRedistributionRule`],
//!   proportional share *without* surplus redistribution (ablation);
//! * `priority` — [`PriorityRule`], heaviest-first list allocation
//!   (unfair baseline).

use malleable_core::policy::rules::{
    AllocationRule, DeqRule, PriorityRule, ShareNoRedistributionRule, WdeqRule,
};
use numkit::Scalar;

/// Names of every online-capable policy, in registry order. These are the
/// policies that can run under [`crate::engine::simulate`] against
/// streaming arrivals (the batch registry in `malleable_core::policy`
/// also contains clairvoyant solvers that cannot).
pub const ONLINE_POLICY_NAMES: &[&str] = &["wdeq", "deq", "share-no-redistribution", "priority"];

/// Look up an online allocation rule by name. Returns `None` for names
/// not in [`ONLINE_POLICY_NAMES`].
pub fn by_name<S: Scalar>(name: &str) -> Option<Box<dyn AllocationRule<S>>> {
    match name {
        "wdeq" => Some(Box::new(WdeqRule)),
        "deq" => Some(Box::new(DeqRule)),
        "share-no-redistribution" => Some(Box::new(ShareNoRedistributionRule)),
        "priority" => Some(Box::new(PriorityRule)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use bigratio::Rational;
    use malleable_core::algos::wdeq::wdeq_schedule;
    use malleable_core::instance::Instance;
    use malleable_core::policy::rules::replay;
    use malleable_workloads::{generate, Spec};

    fn inst() -> Instance {
        Instance::builder(4.0)
            .task(8.0, 1.0, 2.0)
            .task(4.0, 2.0, 4.0)
            .task(2.0, 4.0, 1.0)
            .build()
            .unwrap()
    }

    #[test]
    fn online_wdeq_matches_clairvoyant_replay() {
        let i = inst();
        let online = simulate(&i, &WdeqRule).unwrap();
        let offline = wdeq_schedule(&i);
        for (a, b) in online.schedule.completions.iter().zip(&offline.completions) {
            assert!((a - b).abs() < 1e-9, "online {a} vs offline {b}");
        }
    }

    #[test]
    fn all_policies_produce_valid_schedules() {
        let i = inst();
        for name in ONLINE_POLICY_NAMES {
            let rule = by_name::<f64>(name).unwrap();
            let r = simulate(&i, rule.as_ref()).unwrap();
            r.schedule
                .validate(&i)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    /// `simulate` and the registry's `replay` of one rule produce the
    /// same schedule, column for column and bit for bit.
    fn assert_online_equals_replay<S: Scalar>(instance: &Instance<S>, label: &str) {
        for name in ONLINE_POLICY_NAMES {
            let rule = by_name::<S>(name).unwrap();
            let online = simulate(instance, rule.as_ref()).unwrap();
            online
                .schedule
                .validate(instance)
                .unwrap_or_else(|e| panic!("{name} on {label}: {e}"));
            let core = replay(instance, rule.as_ref()).unwrap();
            assert_eq!(online.schedule, core, "{name} on {label}");
        }
    }

    #[test]
    fn online_engine_equals_the_replay_exactly() {
        for spec in [
            Spec::PaperUniform { n: 40 },
            Spec::PoissonArrivals { n: 40, rate: 4.0 },
            Spec::ArrivalWaves {
                n: 40,
                waves: 4,
                gap: 1.0,
            },
        ] {
            for seed in 1..=2 {
                let i = generate(&spec, seed);
                let label = format!("{} seed {seed}", spec.label());
                assert_online_equals_replay(&i, &label);
                assert_online_equals_replay(&i.to_scalar::<Rational>(), &label);
            }
        }
        // Uniform non-unit speeds: the engine shares machine counts and
        // realizes them through the speed profile, like the registry.
        let related = Instance::builder(0.0)
            .task(8.0, 1.0, 2.0)
            .task(4.0, 2.0, 3.0)
            .task(2.0, 4.0, 1.0)
            .speeds(vec![2.0; 3])
            .arrivals(vec![0.0, 0.5, 1.0])
            .build()
            .unwrap();
        assert_online_equals_replay(&related, "uniform speed 2");
        assert_online_equals_replay(&related.to_scalar::<Rational>(), "uniform speed 2");
    }

    #[test]
    fn exact_online_run_matches_exact_replay() {
        // The rules are generic: the same WDEQ rule, run under the exact
        // engine, reproduces the exact clairvoyant replay — with `==`,
        // not a tolerance.
        let q = Rational::from_f64_exact;
        let i = Instance::<Rational>::builder(q(4.0))
            .task(q(8.0), q(1.0), q(2.0))
            .task(q(4.0), q(2.0), q(4.0))
            .task(q(2.0), q(4.0), q(1.0))
            .build()
            .unwrap();
        let online = simulate(&i, &WdeqRule).unwrap();
        online.schedule.validate(&i).unwrap(); // zero tolerance
        let offline = replay(&i, &WdeqRule).unwrap();
        assert_eq!(online.schedule.completions, offline.completions);
    }

    #[test]
    fn registry_resolves_every_listed_name() {
        for name in ONLINE_POLICY_NAMES {
            let p = by_name::<f64>(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(p.name(), *name);
        }
        assert!(by_name::<f64>("optimal").is_none());
    }

    #[test]
    fn deq_ignores_weights() {
        // Same caps/volumes, very different weights: DEQ treats them alike.
        let i = Instance::builder(2.0)
            .task(1.0, 100.0, 1.0)
            .task(1.0, 0.01, 1.0)
            .build()
            .unwrap();
        let r = simulate(&i, &DeqRule).unwrap();
        assert!((r.schedule.completions[0] - r.schedule.completions[1]).abs() < 1e-9);
    }

    #[test]
    fn redistribution_beats_naive_share() {
        // T0's cap binds hard; WDEQ hands the surplus to T1, the naive
        // share wastes it.
        let i = Instance::builder(10.0)
            .task(1.0, 9.0, 1.0) // heavy but capped at 1
            .task(9.0, 1.0, 10.0)
            .build()
            .unwrap();
        let wdeq = simulate(&i, &WdeqRule)
            .unwrap()
            .schedule
            .weighted_completion_cost(&i);
        let naive = simulate(&i, &ShareNoRedistributionRule)
            .unwrap()
            .schedule
            .weighted_completion_cost(&i);
        assert!(
            wdeq < naive - 1e-9,
            "redistribution should help: wdeq {wdeq} vs naive {naive}"
        );
    }

    #[test]
    fn priority_serves_heaviest_first() {
        let i = Instance::builder(1.0)
            .task(1.0, 1.0, 1.0)
            .task(1.0, 5.0, 1.0)
            .build()
            .unwrap();
        let r = simulate(&i, &PriorityRule).unwrap();
        assert!((r.schedule.completions[1] - 1.0).abs() < 1e-9);
        assert!((r.schedule.completions[0] - 2.0).abs() < 1e-9);
    }
}
