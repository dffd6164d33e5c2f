//! **E5 — Theorem 8**: the Water-Filling normal form reconstructs any
//! valid schedule from its completion times alone, and powers the
//! `Cmax`/`Lmax` solvers.
//!
//! For schedules produced by three different schedulers (WDEQ, greedy
//! with Smith's order, and the LP optimum on small instances), the grid
//! re-derives the allocation from the completion-time vector via WF as a
//! custom `<source>→wf` policy that *asserts* completion preservation,
//! validity and the Lemma-3 staircase inside the run; the summary table
//! then reads the cost deviation between each source record and its
//! normalized twin straight off the unified records. A second table
//! exercises the Lmax solver against randomized due dates, verifying
//! optimality by ε-probing.

#![allow(clippy::unusual_byte_groupings)] // seeds are labels, not numbers

use malleable_bench::batch::{BatchGrid, GridPolicy};
use malleable_bench::parallel::par_map;
use malleable_bench::stats::summarize;
use malleable_bench::table::{fnum, Table};
use malleable_bench::{csvout, instance_count};
use malleable_core::algos::greedy::greedy_schedule;
use malleable_core::algos::orders::smith_order;
use malleable_core::algos::parametric::{frontier, Objective, ProbeSession};
use malleable_core::algos::waterfill::{water_filling, wf_feasible};
use malleable_core::algos::wdeq::wdeq_schedule;
use malleable_core::instance::Instance;
use malleable_core::schedule::column::ColumnSchedule;
use malleable_core::ScheduleError;
use malleable_opt::brute::optimal_schedule;
use malleable_workloads::{generate, seed_batch, Spec};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Normalize `completions` through WF, asserting Theorem 8's contract:
/// the result is valid and moves no completion time.
fn renormalize(inst: &Instance, completions: &[f64]) -> Result<ColumnSchedule, ScheduleError> {
    let wf = water_filling(inst, completions)?;
    wf.validate(inst).expect("WF output must validate");
    let dev = completions
        .iter()
        .zip(wf.completion_times())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    assert!(dev < 1e-6, "normal form moved completions by {dev}");
    Ok(wf)
}

/// Exact cache key for an instance: the raw bit patterns of every
/// parameter (no hashing collisions to reason about).
fn instance_key(inst: &Instance) -> Vec<u64> {
    let mut key = Vec::with_capacity(1 + 3 * inst.n());
    key.push(inst.p.to_bits());
    for t in &inst.tasks {
        key.extend([t.volume.to_bits(), t.weight.to_bits(), t.delta.to_bits()]);
    }
    key
}

/// `(source policy, source→wf policy)` pairs for the grid.
fn source_and_normalized() -> Vec<(GridPolicy, GridPolicy)> {
    vec![
        (
            GridPolicy::named("wdeq"),
            GridPolicy::custom("wdeq→wf", |inst| {
                renormalize(inst, wdeq_schedule(inst).completion_times())
            }),
        ),
        (
            GridPolicy::named("greedy-smith"),
            GridPolicy::custom("greedy-smith→wf", |inst| {
                let src = greedy_schedule(inst, &smith_order(inst))?;
                renormalize(inst, &src.completion_times())
            }),
        ),
    ]
}

fn main() {
    let instances = instance_count(200, 2_000);
    println!("E5: Water-Filling normal form & Lmax (Theorem 8), {instances} instances per cell\n");

    let mut table = Table::new(&[
        "source schedule",
        "n",
        "instances",
        "max |Δcost|",
        "all valid",
    ]);
    let mut csv_rows = Vec::new();

    for &n in &[3usize, 5, 20, 100] {
        let mut grid = BatchGrid::new()
            .spec(Spec::PaperUniform { n })
            .seeds(seed_batch(0xE5_0 + n as u64, instances));
        let mut pairs: Vec<(String, String)> = Vec::new();
        for (src, wf) in source_and_normalized() {
            pairs.push((src.name().to_string(), wf.name().to_string()));
            grid = grid.policy(src).policy(wf);
        }
        // LP-optimal source (small n only: brute force). The engine runs
        // both policies back-to-back on the same instance inside one grid
        // cell, so a shared instance-keyed cache lets the →wf twin reuse
        // the n!-order search instead of paying for it twice.
        if n <= 5 {
            let cache: Arc<Mutex<HashMap<Vec<u64>, ColumnSchedule>>> =
                Arc::new(Mutex::new(HashMap::new()));
            let lp_schedule = move |inst: &Instance| -> Result<ColumnSchedule, ScheduleError> {
                let key = instance_key(inst);
                if let Some(s) = cache.lock().get(&key) {
                    return Ok(s.clone());
                }
                let opt = optimal_schedule(inst)
                    .map_err(|e| ScheduleError::InvalidInstance {
                        reason: format!("brute force failed: {e}"),
                    })?
                    .schedule;
                cache.lock().insert(key, opt.clone());
                Ok(opt)
            };
            let lp_src = lp_schedule.clone();
            grid = grid
                .policy(GridPolicy::custom("lp-optimal", move |inst| lp_src(inst)))
                .policy(GridPolicy::custom("lp-optimal→wf", move |inst| {
                    let opt = lp_schedule(inst)?;
                    renormalize(inst, opt.completion_times())
                }));
            pairs.push(("lp-optimal".into(), "lp-optimal→wf".into()));
        }
        let records = grid.run();
        // Reaching here means every in-run assertion (validity, exact
        // completion preservation) held; the table reports the residual
        // cost deviation between each source and its normalized twin.
        let costs: HashMap<(&str, u64), f64> = records
            .iter()
            .map(|r| ((r.policy.as_str(), r.seed), r.cost))
            .collect();
        for (src, wf) in pairs {
            let devs: Vec<f64> = records
                .iter()
                .filter(|r| r.policy == src)
                .map(|r| {
                    let twin = costs
                        .get(&(wf.as_str(), r.seed))
                        .expect("grid covers every cell");
                    (r.cost - twin).abs()
                })
                .collect();
            let s = summarize(&devs);
            assert!(s.max < 1e-5, "{src}: normalization moved cost by {}", s.max);
            table.row(vec![
                src.clone(),
                n.to_string(),
                s.n.to_string(),
                fnum(s.max),
                "yes".to_string(),
            ]);
            csv_rows.push(vec![
                src,
                n.to_string(),
                s.n.to_string(),
                format!("{:.3e}", s.max),
            ]);
        }
    }
    table.print();

    // ---- Lmax solver (Table I row: Lmax polynomial). ----
    println!("\nLmax solver against randomized due dates (optimality by ε-probe):");
    let mut t2 = Table::new(&["n", "instances", "max ε-gap", "probe failures"]);
    let mut t2_rows = Vec::new();
    for &n in &[4usize, 16, 64] {
        let seeds = seed_batch(0xE5_1 + n as u64, instances.min(200));
        let gaps: Vec<f64> = par_map(seeds, |seed| {
            let inst = generate(&Spec::PaperUniform { n }, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xDD);
            let due: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..2.0)).collect();
            let lateness = Objective::Lateness { due: &due };
            let (l, cs) = frontier(&inst, lateness, &mut ProbeSession::new()).expect("lmax");
            cs.validate(&inst).expect("lmax schedule valid");
            // ε-probe: L − ε must be infeasible.
            let eps = 1e-4 * (1.0 + l.abs());
            let probe: Vec<f64> = inst
                .tasks
                .iter()
                .zip(&due)
                .map(|(t, &d)| (d + l - eps).max(t.volume / t.delta.min(inst.p) - eps))
                .collect();
            if wf_feasible(&inst, &probe) {
                f64::INFINITY // not actually optimal
            } else {
                eps
            }
        });
        let fails = gaps.iter().filter(|g| !g.is_finite()).count();
        assert_eq!(fails, 0, "Lmax ε-probe failed: solver not optimal");
        let s = summarize(&gaps);
        t2.row(vec![
            n.to_string(),
            s.n.to_string(),
            fnum(s.max),
            fails.to_string(),
        ]);
        t2_rows.push(vec![
            n.to_string(),
            s.n.to_string(),
            format!("{:.3e}", s.max),
            fails.to_string(),
        ]);
    }
    t2.print();

    csv_rows.extend(t2_rows);
    match csvout::write_csv(
        "e5_normal_form",
        &[
            "source_or_n",
            "n_or_instances",
            "instances_or_gap",
            "deviation_or_fails",
        ],
        &csv_rows,
    ) {
        Ok(p) => println!("\nwrote {}", p.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
    println!("\nTheorem 8 reproduced iff every normalization preserves completion times exactly\nand every Lmax ε-probe is infeasible (both asserted).");
}
