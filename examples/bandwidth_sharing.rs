//! The paper's Figure-1 application: a master server distributing code to
//! a heterogeneous worker fleet over shared outgoing bandwidth.
//!
//! Maximizing the number of tasks the fleet processes by a horizon `T` is
//! *exactly* minimizing `Σ wᵢCᵢ` over malleable transfer schedules — this
//! example makes the reduction tangible by reporting both metrics for
//! several transfer policies.
//!
//! ```sh
//! cargo run --example bandwidth_sharing
//! ```

use malleable::core::policy::rules::{PriorityRule, ShareNoRedistributionRule};
use malleable::prelude::*;
use malleable::sim::bandwidth::{BandwidthScenario, Worker};

fn main() {
    // A 1 Gbit/s server feeding five workers. Each worker: code size (MB),
    // processing rate (tasks/s once code arrives), link capacity (MB/s).
    let scenario = BandwidthScenario {
        server_bandwidth: 125.0, // MB/s
        workers: vec![
            Worker {
                code_size: 80.0,
                processing_rate: 9.0,
                link_capacity: 40.0,
            },
            Worker {
                code_size: 120.0,
                processing_rate: 6.0,
                link_capacity: 60.0,
            },
            Worker {
                code_size: 30.0,
                processing_rate: 14.0,
                link_capacity: 12.0,
            },
            Worker {
                code_size: 200.0,
                processing_rate: 2.0,
                link_capacity: 100.0,
            },
            Worker {
                code_size: 55.0,
                processing_rate: 11.0,
                link_capacity: 25.0,
            },
        ],
    };
    let horizon = 30.0; // seconds
    let instance = scenario.to_instance();

    println!(
        "fleet of {} workers, server bandwidth {} MB/s, horizon T = {horizon}s",
        scenario.workers.len(),
        scenario.server_bandwidth
    );
    println!(
        "equivalence: throughput(T) = T·Σwᵢ − Σ wᵢCᵢ = {:.1} − Σ wᵢCᵢ\n",
        horizon * scenario.total_rate()
    );

    let rules: [&dyn AllocationRule<f64>; 4] = [
        &WdeqRule,
        &DeqRule,
        &ShareNoRedistributionRule,
        &PriorityRule,
    ];
    println!(
        "{:<28} {:>12} {:>16}",
        "transfer policy", "Σ wᵢCᵢ", "tasks done by T"
    );
    let mut best: Option<(String, f64)> = None;
    for rule in rules {
        let rep = scenario.run_policy(rule, horizon).expect("policy run");
        println!(
            "{:<28} {:>12.3} {:>16.3}",
            rep.policy, rep.weighted_completion, rep.throughput
        );
        if best.as_ref().is_none_or(|(_, t)| rep.throughput > *t) {
            best = Some((rep.policy.to_string(), rep.throughput));
        }
    }

    // Clairvoyant reference: exact optimum over all completion orders
    // (the fleet is small enough for brute force).
    let opt = optimal_schedule(&instance).expect("brute-force optimum");
    let rep = scenario.report("optimal (offline LP)", &opt.schedule, &instance, horizon);
    println!(
        "{:<28} {:>12.3} {:>16.3}",
        rep.policy, rep.weighted_completion, rep.throughput
    );

    let (name, thr) = best.expect("some policy ran");
    println!(
        "\nbest online policy: {name} ({thr:.3} tasks) — within {:.2}% of the \
         clairvoyant optimum",
        100.0 * (rep.throughput - thr) / rep.throughput
    );
}
