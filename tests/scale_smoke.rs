//! Release-mode large-`n` smoke: the event-driven schedulers must chew
//! through `n = 10⁴` inside a hard wall-clock budget. Ignored under
//! debug builds (unoptimized exact arithmetic and debug asserts make the
//! budget meaningless there); CI runs it with
//! `cargo test -q --release --test scale_smoke`.
//!
//! The budgets are deliberately loose (release-mode measurements sit two
//! orders of magnitude below them) — this is a tripwire for accidental
//! quadratic regressions, not a benchmark; the fitted-exponent gate in
//! `exp_perf`/`bench_gate --scaling` owns the fine-grained curve.

use malleable::core::algos::waterfill::wf_feasible_with_work;
use malleable::core::algos::wdeq::wdeq_completions;
use malleable::prelude::*;
use std::time::{Duration, Instant};

const N: usize = 10_000;

#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock budget only meaningful in release builds"
)]
#[test]
fn event_driven_lanes_handle_ten_thousand_tasks_in_budget() {
    for spec in [
        Spec::PaperUniform { n: N },
        Spec::PowerLawVolumes { n: N, alpha: 1.5 },
    ] {
        let instance = generate(&spec, 42);

        let start = Instant::now();
        let run = wdeq_completions(&instance).unwrap();
        let wdeq_wall = start.elapsed();
        assert!(
            wdeq_wall < Duration::from_secs(1),
            "{}: WDEQ took {wdeq_wall:?} for n = {N} — event lane regressed",
            spec.label()
        );
        // One completion event finishes ≥ 1 task, and simultaneous
        // finishes merge events.
        assert!(run.events <= N, "{}: {} events", spec.label(), run.events);
        assert!(run.completions.iter().all(|c| *c > 0.0));

        let start = Instant::now();
        let (feasible, work) = wf_feasible_with_work(&instance, &run.completions).unwrap();
        let wf_wall = start.elapsed();
        assert!(
            wf_wall < Duration::from_secs(5),
            "{}: WF feasibility took {wf_wall:?} for n = {N}",
            spec.label()
        );
        assert!(
            feasible,
            "{}: WDEQ's own completion times must be WF-feasible",
            spec.label()
        );
        assert!(work > 0, "{}: work counter must move", spec.label());
    }
}

/// Validation is one pass over the rate entries: a dense WDEQ column
/// schedule at n = 2000 (every task alive in every column up to its
/// completion, ~2·10⁶ entries) must validate well inside a second; a
/// validator that rescans the columns per task takes seconds at this size.
#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock budget only meaningful in release builds"
)]
#[test]
fn dense_wdeq_schedule_validates_in_budget() {
    let instance = generate(&Spec::PaperUniform { n: 2000 }, 42);
    let schedule = wdeq_schedule(&instance);
    let entries: usize = schedule.columns.iter().map(|c| c.rates.len()).sum();
    assert!(entries > 1_000_000, "only {entries} entries");

    let start = Instant::now();
    let verdict = schedule.validate(&instance);
    let wall = start.elapsed();
    verdict.expect("the f64 WDEQ lane returned an invalid schedule at n = 2000");
    assert!(
        wall < Duration::from_secs(1),
        "validating {entries} entries took {wall:?} — the validator regressed"
    );
}

/// Restricted-assignment replay realizes each event's shares with one
/// rank-oracle augmentation per task. The replay policies and `priority`
/// at n = 300 must each return a valid schedule well inside a second; a
/// realization that rebuilds one cold flow per priority prefix (O(n) max
/// flows per event) takes seconds at this size.
#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock budget only meaningful in release builds"
)]
#[test]
fn restricted_replay_lanes_handle_three_hundred_tasks_in_budget() {
    let spec = Spec::RestrictedAssignment {
        n: 300,
        machines: 8,
        min_eligible: 2,
    };
    let instance = generate(&spec, 42);
    for name in ["wdeq-related", "wf-related", "priority"] {
        let policy = policy::by_name::<f64>(name).expect("registered policy");
        let start = Instant::now();
        let schedule = policy
            .schedule(&instance)
            .unwrap_or_else(|e| panic!("{name} on {}: {e}", spec.label()));
        let wall = start.elapsed();
        schedule
            .validate(&instance)
            .unwrap_or_else(|e| panic!("{name} on {}: invalid schedule: {e}", spec.label()));
        assert!(
            wall < Duration::from_secs(1),
            "{name} on {}: took {wall:?} — restricted realization regressed",
            spec.label()
        );
    }
}

/// Every float Greedy(σ) policy validates at n = 2000 on the paper's
/// §V-A family and on constant weights. The availability profile once
/// merged "equal within ε" neighbours, and the drift put most answers at
/// this size over capacity.
#[cfg_attr(
    debug_assertions,
    ignore = "n = 2000 greedy sweep only runs in release builds"
)]
#[test]
fn float_greedy_policies_validate_at_two_thousand_tasks() {
    const GREEDY: &[&str] = &[
        "greedy-smith",
        "greedy-delta-desc",
        "greedy-delta-asc",
        "greedy-height-desc",
        "greedy-wheight-desc",
        "greedy-input",
        "best-greedy",
    ];
    for spec in [
        Spec::PaperUniform { n: 2000 },
        Spec::ConstantWeight { n: 2000 },
    ] {
        for seed in 1..=3 {
            let instance = generate(&spec, seed);
            for name in GREEDY {
                let policy = policy::by_name::<f64>(name).expect("registered policy");
                let schedule = policy
                    .schedule(&instance)
                    .unwrap_or_else(|e| panic!("{name} on {}/{seed}: {e}", spec.label()));
                schedule.validate(&instance).unwrap_or_else(|e| {
                    panic!("{name} on {}/{seed}: invalid schedule: {e}", spec.label())
                });
            }
        }
    }
}

/// `wf`, `wf-fast` and `lmax-parametric` validate at n = 3000 on the
/// paper's §V-A family. Two Water-Filling pours with different tolerance
/// rules once disagreed here: the witness pour rejected deadlines the
/// feasibility oracle had just accepted, and the normal form fell short
/// of task volumes.
#[cfg_attr(
    debug_assertions,
    ignore = "n = 3000 Water-Filling sweep only runs in release builds"
)]
#[test]
fn float_water_filling_policies_validate_at_three_thousand_tasks() {
    for seed in 1..=3 {
        let instance = generate(&Spec::PaperUniform { n: 3000 }, seed);
        for name in ["wf", "wf-fast", "lmax-parametric"] {
            let policy = policy::by_name::<f64>(name).expect("registered policy");
            let schedule = policy
                .schedule(&instance)
                .unwrap_or_else(|e| panic!("{name} on seed {seed}: {e}"));
            schedule
                .validate(&instance)
                .unwrap_or_else(|e| panic!("{name} on seed {seed}: invalid schedule: {e}"));
        }
    }
}
