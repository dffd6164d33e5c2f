//! **E2 — Section V-A**: best greedy schedule vs exact optimum.
//!
//! The paper: "We have considered instances composed of 2, 3, 4 and 5
//! uniform random tasks (uniform among tasks such that δᵢ < P, wᵢ < 1 and
//! Vᵢ < 1). For each set size, we generated 10,000 instances and for each
//! instance the best greedy schedule was numerically indistinguishable
//! from the optimal. We have also successfully performed the same
//! experiments on constant weight instances and on constant weight and
//! constant volume instances."
//!
//! The campaign is a grid declaration: the exhaustive best greedy (all
//! `n!` orders through Algorithm 3) is a custom grid policy, and the exact
//! optimum (min over all `n!` completion orders of the Corollary-1 LP) is
//! the engine's built-in brute-force baseline — the per-record `opt_ratio`
//! *is* Conjecture 12's gap, plus one. Default scale is 500
//! instances/cell for a fast run; `--full` selects the paper's 10,000.
//!
//! Expected shape: max relative gap ≈ 0 (within LP tolerance) in every
//! cell — the evidence behind Conjecture 12.

#![allow(clippy::unusual_byte_groupings)] // seeds are labels, not numbers

use malleable_bench::batch::{BatchGrid, GridPolicy, InstanceSource};
use malleable_bench::stats::summarize;
use malleable_bench::table::{fnum, Table};
use malleable_bench::{csvout, instance_count};
use malleable_core::algos::greedy::greedy_schedule;
use malleable_core::schedule::convert::step_to_column;
use malleable_opt::brute::best_greedy_exhaustive;
use malleable_workloads::{generate, seed_batch, Spec};

fn main() {
    let instances = instance_count(500, 10_000);
    println!("E2: best-greedy vs optimal (Section V-A), {instances} instances per cell");
    println!("    (paper scale: --full = 10,000 per cell)\n");

    type SpecMaker = fn(usize) -> Spec;
    let specs: Vec<(&str, SpecMaker)> = vec![
        ("uniform (δ,w,V < 1)", |n| Spec::PaperUniform { n }),
        ("constant weight", |n| Spec::ConstantWeight { n }),
        ("constant w and V", |n| Spec::ConstantWeightVolume { n }),
    ];

    let best_greedy = GridPolicy::custom("best-greedy-exhaustive", |inst| {
        let (_, order) = best_greedy_exhaustive(inst).map_err(|e| {
            malleable_core::ScheduleError::InvalidInstance {
                reason: format!("exhaustive greedy failed: {e}"),
            }
        })?;
        let step = greedy_schedule(inst, &order)?;
        Ok(step_to_column(&step))
    });

    let mut table = Table::new(&[
        "instance class",
        "n",
        "instances",
        "mean gap",
        "max gap",
        "gaps > 1e-6",
    ]);
    let mut csv_rows = Vec::new();

    // n = 2..5 is the paper's campaign; n = 6 is this repository's
    // extension (720 orders × LP per instance, so fewer instances).
    for n in 2..=6usize {
        let count = if n == 6 { instances / 10 } else { instances };
        let mut grid = BatchGrid::new()
            .seeds(seed_batch(0xE2 + n as u64, count))
            .policy(best_greedy.clone())
            .opt_baseline(n);
        for (label, make) in &specs {
            let spec = make(n);
            grid = grid.source(InstanceSource::new(*label, move |seed| {
                generate(&spec, seed)
            }));
        }
        let records = grid.run();
        for (label, _) in &specs {
            let gaps: Vec<f64> = records
                .iter()
                .filter(|r| r.family == *label)
                .map(|r| (r.opt_ratio.expect("baseline always runs") - 1.0).max(0.0))
                .collect();
            assert_eq!(gaps.len(), count, "sweep incomplete");
            let label = if n == 6 {
                format!("{label} (extension)")
            } else {
                label.to_string()
            };
            let over = gaps.iter().filter(|&&g| g > 1e-6).count();
            let s = summarize(&gaps);
            table.row(vec![
                label.clone(),
                n.to_string(),
                s.n.to_string(),
                fnum(s.mean),
                fnum(s.max),
                over.to_string(),
            ]);
            csv_rows.push(vec![
                label,
                n.to_string(),
                s.n.to_string(),
                format!("{:.3e}", s.mean),
                format!("{:.3e}", s.max),
                over.to_string(),
            ]);
        }
    }

    table.print();
    match csvout::write_csv(
        "e2_greedy_vs_opt",
        &[
            "class",
            "n",
            "instances",
            "mean_gap",
            "max_gap",
            "gaps_gt_1e6",
        ],
        &csv_rows,
    ) {
        Ok(p) => println!("\nwrote {}", p.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
    println!(
        "\nPaper's claim reproduced iff every 'max gap' is ≈ 0 (LP tolerance) \
         and 'gaps > 1e-6' is 0."
    );
}
