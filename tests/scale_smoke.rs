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

use malleable::core::algos::waterfill_fast::wf_feasible_grouped_with_work;
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
        let (feasible, work) = wf_feasible_grouped_with_work(&instance, &run.completions).unwrap();
        let wf_wall = start.elapsed();
        assert!(
            wf_wall < Duration::from_secs(5),
            "{}: grouped WF took {wf_wall:?} for n = {N}",
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
