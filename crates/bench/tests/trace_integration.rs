//! End-to-end tracing through the real solver stack: a traced batch grid
//! must produce one merged, balanced trace covering every instrumented
//! layer — batch cells, scheduler lanes, probe sessions, and the flow
//! network — and the min-of-N timing helper must attribute **every**
//! repetition, not just the min-wall survivor it reports.
//!
//! Sessions are process-global (serialized by the recorder), so each test
//! opens and closes its own; the harness's parallel test threads simply
//! queue on the session lock.

use malleable_bench::batch::BatchGrid;
use malleable_bench::perf::min_wall_attributed;
use malleable_core::algos::parametric::{
    frontier, Objective, ProbeSession, ProbeTelemetry, SolveMode,
};
use malleable_core::algos::waterfill::wf_feasible_with_work;
use malleable_core::algos::wdeq::wdeq_completions;
use malleable_core::machine::RankOracle;
use malleable_workloads::{generate, seed_batch, Spec};
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests in this binary. The recorder already queues
/// concurrent sessions, but these tests also run instrumented solvers
/// *outside* any session; without this lock such a solve could execute
/// while a sibling test's session is live and leak spans into it.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner())
}

/// The acceptance criterion of the tracing PR, asserted: a traced batch
/// run covers at least four instrumented layers with balanced spans.
#[test]
fn batch_grid_trace_covers_four_layers_balanced() {
    let _x = exclusive();
    let session = malleable_trace::Session::start();
    let records = BatchGrid::new()
        .spec(Spec::PaperUniform { n: 6 })
        .seeds(seed_batch(0xB0, 3))
        .named_policies(["wdeq", "lmax-parametric"])
        .run();
    let trace = session.finish();
    assert!(!records.is_empty());

    let stats = trace.validate().expect("merged trace must be balanced");
    assert!(stats.spans > 0);
    let names = trace.span_names();
    // One span name per instrumented layer, bottom of the stack to top.
    for layer in [
        "flow.solve",   // flow network
        "probe.solve",  // probe session
        "solve.lmax",   // parametric scheduler lane
        "wdeq.drive",   // event-driven scheduler lane
        "batch.cell",   // batch engine
        "batch.policy", // batch engine, per-policy
    ] {
        assert!(names.contains(&layer), "missing layer {layer}: {names:?}");
    }
    // The unified counter registry saw all three former telemetry homes.
    let totals = trace.counter_totals();
    for counter in ["flow.phases", "probe.probes", "wdeq.events"] {
        assert!(
            totals.get(counter).copied().unwrap_or(0) > 0,
            "counter {counter} never incremented: {totals:?}"
        );
    }
    assert_eq!(trace.gauge_finals().get("batch.cells"), Some(&3));

    // The Chrome export of the same run must survive its own validator.
    let json = malleable_trace::chrome::to_chrome_json(&trace);
    let cs = malleable_trace::chrome::validate_chrome_json(&json).expect("valid chrome JSON");
    assert_eq!(cs.begins, stats.spans);
    assert_eq!(cs.begins, cs.ends);
}

/// A parallel batch run (one worker per cell) merges per-thread buffers
/// into one trace with no orphaned or interleaved spans: every worker's
/// events validate independently and the cell count survives the merge.
#[test]
fn parallel_batch_run_merges_without_orphans() {
    let _x = exclusive();
    let session = malleable_trace::Session::start();
    let n_cells = 8;
    let records = BatchGrid::new()
        .spec(Spec::PaperUniform { n: 5 })
        .seeds(seed_batch(0xC0, n_cells))
        .named_policies(["wdeq"])
        .run();
    let trace = session.finish();
    assert_eq!(records.len(), n_cells);

    let stats = trace.validate().expect("parallel merge must stay balanced");
    let per_thread = trace.events_per_thread();
    assert_eq!(stats.threads, per_thread.len());
    // Each cell span lives wholly on one thread: counting them per thread
    // must reproduce the grid size exactly — no split or doubled cells.
    let cells: usize = per_thread
        .values()
        .map(|events| {
            events
                .iter()
                .filter(|e| matches!(e, malleable_trace::Event::Begin { name, .. } if *name == "batch.cell"))
                .count()
        })
        .sum();
    assert_eq!(cells, n_cells);
}

/// The min-of-N regression fix: all repetitions — the untimed warmup and
/// the min-wall losers included — appear in the trace as `perf.rep`
/// spans, while the returned record still carries the minimum wall time.
#[test]
fn min_wall_attributed_traces_every_repetition() {
    let _x = exclusive();
    const REPS: usize = 3;
    // Related machines force the frontier search through the transport
    // oracle on every probe — identical-machine cells this small can
    // legitimately need zero probes, which would leave nothing to attribute.
    let instance = generate(
        &Spec::PowerLawSpeeds {
            n: 8,
            machines: 4,
            alpha: 1.0,
        },
        42,
    );
    let due: Vec<f64> = (0..8).map(|i| 0.5 + i as f64 * 0.3).collect();

    let session = malleable_trace::Session::start();
    let mut walls = Vec::new();
    let (value, telemetry, wall_us) = min_wall_attributed("itest", REPS, || {
        let mut s = ProbeSession::with_mode(SolveMode::Auto);
        let t0 = std::time::Instant::now();
        let lateness = Objective::Lateness { due: &due };
        let (lmax, _) = frontier(&instance, lateness, &mut s).expect("solvable");
        let wall = t0.elapsed().as_secs_f64() * 1e6;
        walls.push(wall);
        (lmax, s.telemetry(), wall)
    });
    let trace = session.finish();

    assert!(value.is_finite());
    assert!(telemetry.probes > 0);
    // Min over the timed repetitions only — the warmup (walls[0]) never wins.
    let timed_min = walls[1..].iter().copied().fold(f64::INFINITY, f64::min);
    assert_eq!(wall_us, timed_min, "record must keep the min timed wall");

    trace.validate().expect("balanced");
    let reps: Vec<_> = trace
        .chunks
        .iter()
        .flat_map(|c| &c.events)
        .filter(|e| matches!(e, malleable_trace::Event::End { name, .. } if *name == "perf.rep"))
        .collect();
    assert_eq!(
        reps.len(),
        REPS + 1,
        "every repetition (warmup included) must be attributed"
    );
    // Each attributed repetition carries the full telemetry, so the two
    // discarded runs are no longer silent: their probe counts are in the
    // trace args even though only one record reaches the JSON.
    for e in reps {
        let malleable_trace::Event::End { args, .. } = e else {
            unreachable!()
        };
        for field in ["rep", "warmup", "wall_us", "probe.probes", "flow.phases"] {
            assert!(
                args.iter().any(|(k, _)| *k == field),
                "perf.rep span missing arg {field}: {args:?}"
            );
        }
    }
}

/// Driving each solver lane directly under one session produces the
/// advertised per-lane spans and counters (the taxonomy the README
/// documents), independent of the batch engine.
#[test]
fn solver_lane_spans_and_counters_match_taxonomy() {
    let _x = exclusive();
    let instance = generate(&Spec::PaperUniform { n: 8 }, 7);
    let session = malleable_trace::Session::start();
    let outcome = wdeq_completions(&instance).expect("wdeq runs");
    let (feasible, work) = wf_feasible_with_work(&instance, &outcome.completions).expect("wf runs");
    let trace = session.finish();
    assert!(feasible);

    let stats = trace.validate().expect("balanced");
    assert_eq!(stats.threads, 1, "single-threaded drive stays one chunk");
    let names = trace.span_names();
    assert!(names.contains(&"wdeq.drive"));
    assert!(names.contains(&"wf.feasible"));
    let totals = trace.counter_totals();
    assert_eq!(
        totals.get("wdeq.events").copied(),
        Some(outcome.events as u64),
        "aggregate counter must equal the outcome's event count"
    );
    assert_eq!(totals.get("wf.tree_visits").copied(), Some(work));
}

/// With no session open, instrumented solvers run with tracing fully
/// disabled and a later session does not inherit stale events from them.
#[test]
fn solvers_outside_a_session_leave_no_trace() {
    let _x = exclusive();
    let instance = generate(
        &Spec::PowerLawSpeeds {
            n: 8,
            machines: 4,
            alpha: 1.0,
        },
        3,
    );
    let mut s = ProbeSession::with_mode(SolveMode::Auto);
    let due: Vec<f64> = (0..8).map(|i| 0.4 + i as f64 * 0.2).collect();
    let _ = frontier(&instance, Objective::Lateness { due: &due }, &mut s).expect("solvable");
    let t: ProbeTelemetry = s.telemetry();
    assert!(t.probes > 0, "the untraced solve still ran");

    let session = malleable_trace::Session::start();
    let trace = session.finish();
    assert!(
        trace.is_empty(),
        "untraced work must not leak into the next session"
    );
}

/// Restricted-assignment rank queries are metered under their own
/// counter: realizing a replay event and adding/removing oracle tasks
/// open no span and leave the `flow.*` counters to transport probes,
/// while every augmenting push lands in `rank.augmentations`.
#[test]
fn rank_oracle_work_counts_under_its_own_counter() {
    let _x = exclusive();
    let instance = generate(
        &Spec::RestrictedAssignment {
            n: 12,
            machines: 4,
            min_eligible: 1,
        },
        7,
    );
    assert!(!instance.machine.unit_speeds(), "eligibility must bite");
    let entries: Vec<(usize, f64)> = instance
        .tasks
        .iter()
        .enumerate()
        .map(|(i, t)| (i, t.delta))
        .collect();

    let session = malleable_trace::Session::start();
    let rates = instance.machine.realize_assign(&entries);
    let mut oracle = RankOracle::for_machine(&instance.machine);
    for (i, t) in instance.tasks.iter().enumerate() {
        oracle.add_task(i, &t.delta);
    }
    for (i, t) in instance.tasks.iter().enumerate().take(4) {
        oracle.sub_task(i, &t.delta);
    }
    let trace = session.finish();

    assert!(rates[0] > 0.0, "the top task always progresses");
    assert!(oracle.rate() > 0.0);
    trace.validate().expect("balanced");
    assert!(
        trace.span_names().is_empty(),
        "rank-oracle updates open no span: {:?}",
        trace.span_names()
    );
    let totals = trace.counter_totals();
    assert!(
        totals.get("rank.augmentations").copied().unwrap_or(0) > 0,
        "rank pushes must be counted: {totals:?}"
    );
    assert!(
        totals.keys().all(|name| !name.starts_with("flow.")),
        "rank work leaked into the transport counters: {totals:?}"
    );
}
