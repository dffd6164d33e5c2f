//! **B0 — the batch-evaluation pipeline as a standalone tool.**
//!
//! Fans a `(workload × seed × policy)` grid across all cores and writes
//! the unified metrics records (weighted cost, bound ratios, certificate
//! ratio, preemptions, fairness, wall time) to `results/batch_eval.csv`,
//! plus the machine-readable per-policy aggregates to
//! `results/BENCH_batch.json` (the cross-PR perf trajectory), printing
//! the per-(family, policy) summary table.
//!
//! Four grids run back to back: the identical-machine families over the
//! full registry, the **related-machines** families (power-law speeds,
//! two-tier cluster, single-fast adversary) over the related-capable
//! policy subset, the **capacity-oracle** families (restricted
//! assignment, submodular coverage) over the same heterogeneous-capable
//! subset, and the **streaming-arrivals** families (Poisson releases,
//! arrival waves) over the online-capable rules run through
//! `malleable_sim`'s event-driven engine — their `bound_ratio` column is
//! the empirical competitive ratio against the arrival-aware lower
//! bound `max(A(I), H(I), Σ wᵢ(rᵢ+hᵢ))`, reported per policy as
//! `<rule>@online`.
//!
//! ```text
//! exp_batch [--smoke] [--exact] [--instances N] [--n N] [--policies a,b,c]
//!           [--seed S] [--time-budget-s T] [--trace]
//!   --smoke          tiny CI grid (identical + related cells)
//!   --exact          additionally re-run the grid at bigratio::Rational
//!                    and fail on any exact certificate violation
//!                    (zero-tolerance validation, exact lower bounds,
//!                    exact Lemma-2 factors)
//!   --instances      seeds per family (default 50, --full 500)
//!   --n              tasks per instance (default 20)
//!   --policies       comma-separated registry names (default: all;
//!                    identical grid only)
//!   --seed           base seed (default 0xB0)
//!   --time-budget-s  wall-clock gate for --smoke (default 300; the run
//!                    fails if it exceeds the budget — the coarse CI
//!                    perf-regression tripwire)
//!   --trace          record a structured trace of the whole grid (one
//!                    span per cell, nested per-policy and solver spans,
//!                    per-thread buffers merged at flush) to
//!                    results/TRACE_batch.json (Chrome trace format) and
//!                    print the flamegraph summary
//! ```
//!
//! Every record is re-checked against the squashed-area/height lower
//! bounds on the way out — the sweep doubles as a soundness sweep for the
//! whole registry, and a green smoke run doubles as the no-`Unconverged`
//! assertion for the parametric solvers (on both machine models).

use malleable_bench::batch::{
    summary_table, write_batch_json, write_records_csv, BatchGrid, GridPolicy,
};
use malleable_bench::certify::exact_certification;
use malleable_bench::{arg_value, instance_count};
use malleable_core::policy;
use malleable_workloads::{seed_batch, Spec};
use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let exact = std::env::args().any(|a| a == "--exact");
    let n: usize = arg_value("--n").and_then(|v| v.parse().ok()).unwrap_or(20);
    let base: u64 = arg_value("--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xB0);
    // The wall-clock gate only means something with a positive budget: a
    // zero/negative/unparseable value is rejected loudly instead of
    // silently disabling (or trivially failing) the CI tripwire.
    let time_budget_s: u64 = match arg_value("--time-budget-s") {
        None => 300,
        Some(v) => match v.parse::<i64>() {
            Ok(b) if b > 0 => b as u64,
            Ok(b) => {
                eprintln!(
                    "error: --time-budget-s must be a positive number of seconds, got {b} \
                     (the smoke wall-clock gate cannot be disabled by zeroing it)"
                );
                std::process::exit(2);
            }
            Err(_) => {
                eprintln!("error: --time-budget-s must be a positive integer, got {v:?}");
                std::process::exit(2);
            }
        },
    };
    let policies: Vec<String> = arg_value("--policies")
        .map(|v| v.split(',').map(str::to_string).collect())
        .unwrap_or_else(|| policy::names().iter().map(|s| s.to_string()).collect());
    // Start tracing before the grids spawn their worker threads: a thread
    // snapshots the enabled flag when its buffer initializes, so the
    // session must be live first.
    let trace_session = std::env::args()
        .any(|a| a == "--trace")
        .then(malleable_trace::Session::start);
    let instances = if smoke { 2 } else { instance_count(50, 500) };
    let seeds = seed_batch(base, instances);

    // Identical-machine grid: full registry (or --policies).
    let identical_specs: Vec<Spec> = if smoke {
        vec![
            Spec::PaperUniform { n: 4 },
            Spec::IntegerUniform { n: 4, p: 4 },
        ]
    } else {
        vec![
            Spec::PaperUniform { n },
            Spec::ConstantWeight { n },
            Spec::HomogeneousHalfCap { n },
            Spec::IntegerUniform { n, p: 8 },
            Spec::ZipfWeights { n, p: 8.0, s: 1.1 },
            Spec::BimodalVolumes {
                n,
                p: 8.0,
                heavy_fraction: 0.1,
            },
            Spec::Stairs {
                n: n.min(12),
                p: 16.0,
            },
            Spec::BandwidthFleet {
                n,
                server_bandwidth: 100.0,
            },
        ]
    };
    let identical_names: Vec<&str> = if smoke {
        // The CI grid deliberately includes the two parametric policies:
        // any `Unconverged` escape from the threshold search panics the
        // sweep (BatchGrid asserts policy success), so a green smoke run
        // doubles as the no-Unconverged assertion.
        vec![
            "wdeq",
            "greedy-smith",
            "makespan",
            "makespan-parametric",
            "lmax-parametric",
        ]
    } else {
        policies.iter().map(String::as_str).collect()
    };

    // Related-machines grid: heterogeneous speed profiles over the
    // policies that handle them (the rate-space policies reject such
    // instances by design).
    let related_specs: Vec<Spec> = if smoke {
        vec![Spec::TwoTierCluster {
            n: 4,
            fast: 1,
            slow: 3,
            speedup: 4.0,
        }]
    } else {
        vec![
            Spec::PowerLawSpeeds {
                n,
                machines: 8,
                alpha: 1.0,
            },
            Spec::TwoTierCluster {
                n,
                fast: 2,
                slow: 6,
                speedup: 4.0,
            },
            Spec::SingleFastMachine { n, machines: 8 },
        ]
    };
    let related_names: Vec<&str> = if smoke {
        vec![
            "wdeq-related",
            "wf-related",
            "greedy-smith-related",
            "lmax-parametric-related",
            "makespan-parametric",
        ]
    } else {
        policy::related_capable()
    };

    // Capacity-oracle grid: non-uniform rank functions beyond speed
    // profiles — restricted assignment (bipartite matching rank) and
    // submodular coverage (concave rank table) — over the same
    // heterogeneous-capable policy subset.
    let capacity_specs: Vec<Spec> = if smoke {
        vec![
            Spec::RestrictedAssignment {
                n: 4,
                machines: 3,
                min_eligible: 1,
            },
            Spec::SubmodularCoverage { n: 4, machines: 3 },
        ]
    } else {
        vec![
            Spec::RestrictedAssignment {
                n,
                machines: 8,
                min_eligible: 2,
            },
            Spec::SubmodularCoverage { n, machines: 8 },
        ]
    };
    let capacity_names: Vec<&str> = if smoke {
        vec![
            "wdeq-related",
            "greedy-lpt-related",
            "greedy-eligibility-related",
            "lmax-parametric-related",
            "makespan-parametric",
        ]
    } else {
        policy::related_capable()
    };

    // Streaming-arrivals grid: release-time families over the
    // online-capable rules, solved by the genuinely non-clairvoyant
    // event-driven engine (tasks invisible before their release). The
    // engine validates arrivals (check 6) on every run; `bound_ratio`
    // against the arrival-aware bound is the empirical competitive ratio.
    let streaming_specs: Vec<Spec> = if smoke {
        vec![
            Spec::PoissonArrivals { n: 6, rate: 1.0 },
            Spec::ArrivalWaves {
                n: 6,
                waves: 3,
                gap: 1.0,
            },
        ]
    } else {
        vec![
            Spec::PoissonArrivals { n, rate: 1.0 },
            Spec::PoissonArrivals { n, rate: 0.25 },
            Spec::ArrivalWaves {
                n,
                waves: 4,
                gap: 2.0,
            },
        ]
    };
    let online_names: Vec<String> = malleable_sim::policies::ONLINE_POLICY_NAMES
        .iter()
        .map(|name| format!("{name}@online"))
        .collect();

    let mut identical_grid = BatchGrid::new().seeds(seeds.clone());
    for spec in &identical_specs {
        identical_grid = identical_grid.spec(spec.clone());
    }
    let identical_grid = identical_grid.named_policies(identical_names.iter().copied());

    let mut related_grid = BatchGrid::new().seeds(seeds.clone());
    for spec in &related_specs {
        related_grid = related_grid.spec(spec.clone());
    }
    let related_grid = related_grid.named_policies(related_names.iter().copied());

    let mut capacity_grid = BatchGrid::new().seeds(seeds.clone());
    for spec in &capacity_specs {
        capacity_grid = capacity_grid.spec(spec.clone());
    }
    let capacity_grid = capacity_grid.named_policies(capacity_names.iter().copied());

    let mut streaming_grid = BatchGrid::new().seeds(seeds);
    for spec in &streaming_specs {
        streaming_grid = streaming_grid.spec(spec.clone());
    }
    for &name in malleable_sim::policies::ONLINE_POLICY_NAMES {
        streaming_grid =
            streaming_grid.policy(GridPolicy::custom(format!("{name}@online"), move |inst| {
                let rule = malleable_sim::policies::by_name::<f64>(name)
                    .expect("every registry name resolves");
                malleable_sim::simulate(inst, rule.as_ref())
                    .map(|run| run.schedule)
                    .map_err(Into::into)
            }));
    }

    println!(
        "B0: batch evaluation — {} identical policies × {} families + {} related policies × {} families + {} capacity policies × {} families + {} online policies × {} streaming families, {instances} seeds each\n",
        identical_names.len(),
        identical_specs.len(),
        related_names.len(),
        related_specs.len(),
        capacity_names.len(),
        capacity_specs.len(),
        online_names.len(),
        streaming_specs.len(),
    );
    let mut records = identical_grid.run();
    records.extend(related_grid.run());
    records.extend(capacity_grid.run());
    records.extend(streaming_grid.run());

    // Soundness: nothing beats the combined lower bound, every
    // certificate holds, and every record is a finite, converged result
    // (an `Unconverged` parametric solve would already have panicked the
    // grid; the finiteness check guards the aggregates on top). The
    // related cells run the same assertions — heterogeneous speeds
    // included.
    let mut related_records = 0usize;
    let mut capacity_records = 0usize;
    let mut streaming_families = std::collections::BTreeSet::new();
    for r in &records {
        assert!(
            r.cost.is_finite() && r.makespan.is_finite(),
            "{}/{} seed {}: non-finite record",
            r.family,
            r.policy,
            r.seed
        );
        assert!(
            r.bound_ratio >= 1.0 - 1e-6,
            "{}/{} seed {} beat the lower bound: {}",
            r.family,
            r.policy,
            r.seed,
            r.bound_ratio
        );
        if let Some(c) = r.cert_ratio {
            assert!(c <= 2.0 + 1e-6, "certificate violated: {c}");
        }
        if r.policy.ends_with("-related") {
            related_records += 1;
        }
        if r.family.starts_with("restricted") || r.family.starts_with("submodular") {
            capacity_records += 1;
        }
        if r.policy.ends_with("@online") {
            streaming_families.insert(r.family.clone());
        }
    }
    assert!(
        related_records > 0,
        "the sweep must include related-machines cells"
    );
    assert!(
        capacity_records > 0,
        "the sweep must include restricted-assignment/submodular capacity cells"
    );
    // The finiteness and bound_ratio ≥ 1 checks above already ran on the
    // online records, so this pins the coverage: at least two distinct
    // arrival-time families produced finite empirical competitive ratios.
    assert!(
        streaming_families.len() >= 2,
        "the sweep must include ≥ 2 streaming-arrival families, got {streaming_families:?}"
    );

    // Exact certification pass: the same cells at bigratio::Rational,
    // every guarantee checked with zero tolerance. Infeasible before the
    // fixed-limb fast path made the exact lane ~10× faster.
    if exact {
        let exact_seeds: Vec<u64> = seed_batch(base ^ 0xE0, if smoke { 2 } else { 3 });
        let (exact_records, violations) =
            exact_certification(&identical_specs, &identical_names, &exact_seeds);
        let (rel_records, rel_violations) =
            exact_certification(&related_specs, &related_names, &exact_seeds);
        let (cap_records, cap_violations) =
            exact_certification(&capacity_specs, &capacity_names, &exact_seeds);
        let total = exact_records.len() + rel_records.len() + cap_records.len();
        let n_violations = violations.len() + rel_violations.len() + cap_violations.len();
        println!(
            "\nexact certification: {} cells at Rational, {} violations",
            total, n_violations
        );
        for v in violations
            .iter()
            .chain(&rel_violations)
            .chain(&cap_violations)
        {
            eprintln!("  EXACT VIOLATION {}: {}", v.cell, v.what);
        }
        assert!(
            n_violations == 0,
            "exact certification failed on {n_violations} cell(s)"
        );
        let exact_wall: f64 = exact_records
            .iter()
            .chain(&rel_records)
            .chain(&cap_records)
            .map(|r| r.wall_us)
            .sum();
        println!("  exact lane wall time: {:.1} ms", exact_wall / 1e3);
    }

    summary_table(&records).print();
    match write_records_csv("batch_eval", &records) {
        Ok(p) => println!("\nwrote {} ({} records)", p.display(), records.len()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
    match write_batch_json("BENCH_batch", &records) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("json write failed: {e}"),
    }

    if let Some(session) = trace_session {
        let trace = session.finish();
        if let Err(e) = trace.validate() {
            eprintln!("trace validation failed: {e}");
            std::process::exit(2);
        }
        let path = malleable_bench::csvout::results_dir().join("TRACE_batch.json");
        match std::fs::write(&path, malleable_trace::chrome::to_chrome_json(&trace)) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("trace write failed: {e}");
                std::process::exit(2);
            }
        }
        println!("\n{}", malleable_trace::flame::render_summary(&trace, 10));
    }

    // Coarse timing gate (smoke only): the first step toward the
    // ROADMAP's bench-regression threshold. The budget is generous — it
    // catches order-of-magnitude regressions (e.g. a parametric search
    // degrading to its iteration cap), not noise.
    let elapsed = t0.elapsed();
    println!("elapsed: {:.2}s", elapsed.as_secs_f64());
    if smoke {
        assert!(
            elapsed.as_secs() < time_budget_s,
            "smoke grid exceeded its {time_budget_s}s wall-clock budget: {:.1}s",
            elapsed.as_secs_f64()
        );
    }
}
