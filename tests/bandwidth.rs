//! The Figure-1 reduction as an integration test: throughput maximization
//! and weighted-completion minimization are the same problem.

use malleable::core::policy::rules::{PriorityRule, ShareNoRedistributionRule};
use malleable::prelude::*;
use malleable::sim::bandwidth::{BandwidthScenario, Worker};
use malleable::workloads::seed_batch;

fn fleet(seed: u64, n: usize) -> BandwidthScenario {
    let inst = generate(
        &Spec::BandwidthFleet {
            n,
            server_bandwidth: 80.0,
        },
        seed,
    );
    BandwidthScenario {
        server_bandwidth: inst.p,
        workers: inst
            .tasks
            .iter()
            .map(|t| Worker {
                code_size: t.volume,
                processing_rate: t.weight,
                link_capacity: t.delta,
            })
            .collect(),
    }
}

#[test]
fn throughput_identity_holds_for_every_policy() {
    for seed in seed_batch(1, 5) {
        let sc = fleet(seed, 12);
        let inst = sc.to_instance();
        let horizon = optimal_makespan(&inst) * 20.0;
        let total = sc.total_rate();
        let rules: [&dyn AllocationRule<f64>; 4] = [
            &WdeqRule,
            &DeqRule,
            &ShareNoRedistributionRule,
            &PriorityRule,
        ];
        for rule in rules {
            let rep = sc.run_policy(rule, horizon).expect("run");
            let identity = horizon * total - rep.weighted_completion;
            assert!(
                (rep.throughput - identity).abs() <= 1e-6 * (1.0 + identity.abs()),
                "identity violated for {}",
                rep.policy
            );
        }
    }
}

#[test]
fn policy_rankings_by_cost_and_throughput_are_mirrored() {
    for seed in seed_batch(9, 5) {
        let sc = fleet(seed, 10);
        let inst = sc.to_instance();
        let horizon = optimal_makespan(&inst) * 20.0;
        let mut results: Vec<(f64, f64)> = Vec::new();
        let rules: [&dyn AllocationRule<f64>; 4] = [
            &WdeqRule,
            &DeqRule,
            &ShareNoRedistributionRule,
            &PriorityRule,
        ];
        for rule in rules {
            let rep = sc.run_policy(rule, horizon).expect("run");
            results.push((rep.weighted_completion, rep.throughput));
        }
        // Sort by cost ascending ⇒ throughput must be descending.
        results.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in results.windows(2) {
            assert!(
                w[0].1 >= w[1].1 - 1e-6 * (1.0 + w[0].1.abs()),
                "cheaper schedule must process at least as much"
            );
        }
    }
}

#[test]
fn clairvoyant_optimum_dominates_online_policies() {
    for seed in seed_batch(17, 3) {
        let sc = fleet(seed, 5); // small enough for brute force
        let inst = sc.to_instance();
        let horizon = optimal_makespan(&inst) * 10.0;
        let opt = optimal_schedule(&inst).expect("brute");
        let opt_rep = sc.report("opt", &opt.schedule, &inst, horizon);
        let online = sc.run_policy(&WdeqRule, horizon).expect("run");
        assert!(online.throughput <= opt_rep.throughput + 1e-6);
        // …and WDEQ is within its factor-2 guarantee on the cost side.
        assert!(online.weighted_completion <= 2.0 * opt_rep.weighted_completion + 1e-6);
    }
}

#[test]
fn horizon_before_any_completion_gives_zero_throughput() {
    let sc = fleet(3, 6);
    let rep = sc.run_policy(&WdeqRule, 0.0).expect("run");
    assert_eq!(rep.throughput, 0.0);
}
