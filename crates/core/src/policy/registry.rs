//! The named policy registry: policies are data, not code.
//!
//! Every consumer that used to hand-wire algorithm calls (the `msched`
//! CLI, the experiment binaries, the batch-evaluation engine) selects
//! policies from here by stable string key. Adding an algorithm to the
//! workspace means appending one constructor to [`all`].

use super::{
    BestHeuristicGreedy, GreedyEligibilityRelated, GreedyLptRelated, GreedyPolicy,
    GreedySmithRelated, LmaxHeightDue, LmaxParametric, LmaxParametricRelated, MakespanOptimal,
    MakespanParametric, OrderRule, RulePolicy, SchedulingPolicy, WaterFillNormalForm,
    WaterFillRelated, Wdeq, WdeqRelated,
};
use crate::machine::MachineModel;
use crate::policy::rules::{DeqRule, PriorityRule, ShareNoRedistributionRule};
use numkit::Scalar;

/// Every registered policy, in stable display order.
pub fn all<S: Scalar>() -> Vec<Box<dyn SchedulingPolicy<S>>> {
    let mut v: Vec<Box<dyn SchedulingPolicy<S>>> = vec![
        Box::new(Wdeq),
        Box::new(RulePolicy::new(
            DeqRule,
            "dynamic equipartition ignoring weights (Deng et al.)",
        )),
        Box::new(RulePolicy::new(
            ShareNoRedistributionRule,
            "weighted share without surplus redistribution (ablation)",
        )),
        Box::new(RulePolicy::new(
            PriorityRule,
            "heaviest-first list allocation (unfair baseline)",
        )),
        Box::new(WaterFillNormalForm { name: "wf" }),
        Box::new(WaterFillNormalForm { name: "wf-fast" }),
    ];
    v.extend(
        OrderRule::ALL
            .into_iter()
            .map(|order| Box::new(GreedyPolicy { order }) as Box<dyn SchedulingPolicy<S>>),
    );
    v.push(Box::new(BestHeuristicGreedy));
    v.push(Box::new(MakespanOptimal));
    v.push(Box::new(MakespanParametric));
    v.push(Box::new(LmaxHeightDue));
    v.push(Box::new(LmaxParametric));
    // The related-machines (heterogeneous speed) family — these four run
    // on any machine model; the rate-space policies above require
    // identical/uniform speeds (they error, loudly, on heterogeneous
    // instances).
    v.push(Box::new(WdeqRelated));
    v.push(Box::new(WaterFillRelated));
    v.push(Box::new(GreedySmithRelated));
    v.push(Box::new(GreedyLptRelated));
    v.push(Box::new(GreedyEligibilityRelated));
    v.push(Box::new(LmaxParametricRelated));
    v
}

/// The policies that run on **every** machine model, related machines
/// included (the rate-space identical-machine policies reject
/// heterogeneous instances). Grid sweeps over heterogeneous workloads
/// select from this list.
pub fn related_capable() -> Vec<&'static str> {
    vec![
        "deq",
        "share-no-redistribution",
        "priority",
        "makespan-parametric",
        "lmax-height",
        "lmax-parametric",
        "wdeq-related",
        "wf-related",
        "greedy-smith-related",
        "greedy-lpt-related",
        "greedy-eligibility-related",
        "lmax-parametric-related",
    ]
}

/// The registry subset that can schedule instances on `machine`: every
/// policy on uniform (identical-speed) models, the heterogeneous-capable
/// family ([`related_capable`]) on related, submodular and
/// restricted-assignment models. `msched --list-policies` and the grid
/// sweeps use this to pair policies with instances.
pub fn capable_for<S: Scalar>(machine: &MachineModel<S>) -> Vec<&'static str> {
    if machine.uniform() {
        names()
    } else {
        related_capable()
    }
}

/// Look a policy up by its stable name, or `None` for unknown keys.
pub fn by_name<S: Scalar>(name: &str) -> Option<Box<dyn SchedulingPolicy<S>>> {
    all::<S>().into_iter().find(|p| p.name() == name)
}

/// The registered names, in the same order as [`all`].
pub fn names() -> Vec<&'static str> {
    all::<f64>().iter().map(|p| p.name()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_at_least_twenty_distinct_policies() {
        let names = names();
        assert!(names.len() >= 20, "only {} policies", names.len());
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate policy names");
    }

    #[test]
    fn related_capable_names_are_registered() {
        let names = names();
        for name in related_capable() {
            assert!(names.contains(&name), "{name} not in the registry");
        }
        for name in [
            "wdeq-related",
            "wf-related",
            "greedy-smith-related",
            "greedy-lpt-related",
            "greedy-eligibility-related",
            "lmax-parametric-related",
        ] {
            assert!(related_capable().contains(&name));
        }
    }

    #[test]
    fn capable_for_matches_machine_uniformity() {
        let identical = MachineModel::<f64>::identical(4.0);
        assert_eq!(capable_for(&identical), names());
        let related = MachineModel::related(vec![2.0, 1.0]).unwrap();
        assert_eq!(capable_for(&related), related_capable());
        let restricted = MachineModel::<f64>::restricted(2, vec![vec![0], vec![0, 1]]).unwrap();
        assert_eq!(capable_for(&restricted), related_capable());
        // Complete eligibility is uniform: the whole registry applies.
        let complete = MachineModel::<f64>::restricted(2, vec![vec![0, 1], vec![0, 1]]).unwrap();
        assert_eq!(capable_for(&complete), names());
    }

    #[test]
    fn by_name_round_trips_every_registered_name() {
        for name in names() {
            let p = by_name::<f64>(name).unwrap_or_else(|| panic!("{name} not found"));
            assert_eq!(p.name(), name);
            assert!(!p.description().is_empty());
        }
        assert!(by_name::<f64>("no-such-policy").is_none());
    }

    #[test]
    fn registry_is_scalar_agnostic() {
        use bigratio::Rational;
        let f: Vec<_> = all::<f64>().iter().map(|p| p.name()).collect();
        let r: Vec<_> = all::<Rational>().iter().map(|p| p.name()).collect();
        assert_eq!(f, r);
    }
}
