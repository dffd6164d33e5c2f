//! **E6 — Figure 1**: the bandwidth-sharing application.
//!
//! A server with outgoing bandwidth `P` distributes codes of size `Vᵢ` to
//! workers with link capacity `δᵢ` and processing rate `wᵢ`; workers
//! process from code arrival until the horizon `T`. The paper's reduction:
//! maximizing total work processed ⇔ minimizing `Σ wᵢCᵢ` of the malleable
//! transfer schedule.
//!
//! The sweep compares transfer policies (WDEQ and baselines) on random
//! fleets, reporting both the scheduling objective and the application
//! metric, and verifies the identity `throughput = T·Σw − ΣwC` whenever
//! every transfer completes before the horizon.

#![allow(clippy::unusual_byte_groupings)] // seeds are labels, not numbers

use malleable_bench::parallel::par_map;
use malleable_bench::stats::summarize;
use malleable_bench::table::{fnum, Table};
use malleable_bench::{csvout, instance_count};
use malleable_core::algos::greedy::greedy_schedule;
use malleable_core::algos::makespan::optimal_makespan;
use malleable_core::algos::orders::smith_order;
use malleable_core::policy::rules::{
    AllocationRule, DeqRule, PriorityRule, ShareNoRedistributionRule, WdeqRule,
};
use malleable_core::schedule::convert::step_to_column;
use malleable_sim::bandwidth::{BandwidthScenario, Worker};
use malleable_workloads::{generate, seed_batch, Spec};

fn scenario_from_seed(n: usize, seed: u64) -> BandwidthScenario {
    let inst = generate(
        &Spec::BandwidthFleet {
            n,
            server_bandwidth: 100.0,
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

fn main() {
    let instances = instance_count(100, 1_000);
    println!("E6: bandwidth sharing (Figure 1), {instances} fleets per size\n");

    let mut table = Table::new(&[
        "fleet size",
        "policy",
        "ΣwC (mean)",
        "throughput@T (mean)",
        "identity max err",
        "wins vs all",
    ]);
    let mut csv_rows = Vec::new();

    for &n in &[5usize, 20, 50] {
        let seeds = seed_batch(0xE6_0 + n as u64, instances);
        // Results per policy: (ΣwC, throughput, identity error, won).
        #[derive(Clone)]
        struct Acc {
            cost: Vec<f64>,
            thr: Vec<f64>,
            iderr: Vec<f64>,
            wins: usize,
        }
        let names = [
            "wdeq",
            "deq",
            "share-no-redistribution",
            "priority",
            "offline greedy(smith)",
        ];
        let per_seed: Vec<Vec<(f64, f64, f64)>> = par_map(seeds, |seed| {
            let sc = scenario_from_seed(n, seed);
            let inst = sc.to_instance();
            // Horizon: generous enough that all transfers finish under any
            // policy (identity regime): worst makespan is ≤ n × optimal.
            let horizon = optimal_makespan(&inst) * (n as f64 + 2.0);
            let total_rate = sc.total_rate();
            let mut out = Vec::new();
            let rules: [&dyn AllocationRule<f64>; 4] = [
                &WdeqRule,
                &DeqRule,
                &ShareNoRedistributionRule,
                &PriorityRule,
            ];
            for rule in rules {
                let rep = sc.run_policy(rule, horizon).expect("policy run");
                let ident = (rep.throughput - (horizon * total_rate - rep.weighted_completion))
                    .abs()
                    / (1.0 + rep.throughput.abs());
                out.push((rep.weighted_completion, rep.throughput, ident));
            }
            // Offline clairvoyant baseline: greedy with Smith's order.
            let gs = greedy_schedule(&inst, &smith_order(&inst)).expect("greedy");
            let cs = step_to_column(&gs);
            let rep = sc.report("offline", &cs, &inst, horizon);
            let ident = (rep.throughput - (horizon * total_rate - rep.weighted_completion)).abs()
                / (1.0 + rep.throughput.abs());
            out.push((rep.weighted_completion, rep.throughput, ident));
            out
        });

        let mut accs: Vec<Acc> = names
            .iter()
            .map(|_| Acc {
                cost: Vec::new(),
                thr: Vec::new(),
                iderr: Vec::new(),
                wins: 0,
            })
            .collect();
        for run in &per_seed {
            let best = run.iter().map(|r| r.1).fold(f64::NEG_INFINITY, f64::max);
            for (k, &(c, t, e)) in run.iter().enumerate() {
                accs[k].cost.push(c);
                accs[k].thr.push(t);
                accs[k].iderr.push(e);
                if (t - best).abs() <= 1e-9 * (1.0 + best.abs()) {
                    accs[k].wins += 1;
                }
            }
        }
        for (k, name) in names.iter().enumerate() {
            let sc_ = summarize(&accs[k].cost);
            let st = summarize(&accs[k].thr);
            let se = summarize(&accs[k].iderr);
            assert!(
                se.max < 1e-6,
                "throughput identity violated for {name}: {}",
                se.max
            );
            table.row(vec![
                n.to_string(),
                name.to_string(),
                fnum(sc_.mean),
                fnum(st.mean),
                fnum(se.max),
                format!("{}/{}", accs[k].wins, instances),
            ]);
            csv_rows.push(vec![
                n.to_string(),
                name.to_string(),
                format!("{:.4}", sc_.mean),
                format!("{:.4}", st.mean),
                format!("{:.3e}", se.max),
                accs[k].wins.to_string(),
            ]);
        }
    }

    table.print();
    match csvout::write_csv(
        "e6_bandwidth",
        &[
            "fleet",
            "policy",
            "mean_cost",
            "mean_throughput",
            "identity_err",
            "wins",
        ],
        &csv_rows,
    ) {
        Ok(p) => println!("\nwrote {}", p.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
    println!(
        "\nFigure-1 reduction reproduced iff the identity error is ≈ 0 everywhere\n\
         (asserted) and policy rankings by ΣwC and by throughput are mirror images."
    );
}
