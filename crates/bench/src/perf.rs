//! Warm-vs-cold parametric solver telemetry: the record type behind
//! `results/BENCH_parametric.json` (written by the `exp_perf` binary) and
//! its hand-rolled JSON emission — same no-serde convention as
//! [`crate::batch::write_batch_json`].
//!
//! One [`ProbeRecord`] is one parametric solve (an `Lmax` or release-date
//! `Cmax` search on one instance) run under one
//! [`SolveMode`](malleable_core::algos::parametric::SolveMode), carrying
//! the probe-session counters: probes, warm/cold split, Dinic phases
//! (augmentation passes), augmenting paths, repair paths, and wall time.
//! The headline comparison — warm-started probe sequences must do fewer
//! total augmentation passes than cold restarts — is computed by
//! [`total_phases`] and asserted by `exp_perf` itself, so regenerating
//! the JSON re-proves the speedup.

use crate::csvout::results_dir;
use malleable_core::algos::parametric::ProbeTelemetry;
use malleable_trace::MetricSet;
use std::path::PathBuf;
use std::time::Instant;

/// Telemetry of one parametric solve under one solve mode.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeRecord {
    /// Solver label, e.g. `lmax/paper-uniform[n=32]`.
    pub solver: String,
    /// `"warm"` or `"cold"`.
    pub mode: &'static str,
    /// Transportation probes solved by the session.
    pub probes: u64,
    /// Probes answered by residual repair + warm augmentation.
    pub warm_solves: u64,
    /// Probes that rebuilt the network from scratch.
    pub cold_rebuilds: u64,
    /// Dinic phases (BFS level graphs — the augmentation-pass count).
    pub phases: u64,
    /// Successful augmenting-path pushes.
    pub augmentations: u64,
    /// Decomposition paths cancelled while repairing capacity cuts.
    pub repair_paths: u64,
    /// Wall time of the whole solve, microseconds.
    pub wall_us: f64,
    /// The optimum the solve returned (warm and cold must agree).
    pub value: f64,
}

impl ProbeRecord {
    /// Build a record from a session's telemetry plus run metadata.
    pub fn from_telemetry(
        solver: impl Into<String>,
        mode: &'static str,
        t: ProbeTelemetry,
        wall_us: f64,
        value: f64,
    ) -> Self {
        ProbeRecord {
            solver: solver.into(),
            mode,
            probes: t.probes,
            warm_solves: t.warm_solves,
            cold_rebuilds: t.cold_rebuilds,
            phases: t.flow.phases,
            augmentations: t.flow.augmentations,
            repair_paths: t.flow.repair_paths,
            wall_us,
            value,
        }
    }
}

/// One point on an event-driven scaling curve: `family` at size `n` took
/// `wall_us` and processed `events` completion/pour events. A ladder of
/// these (log-spaced `n`) is what [`crate::regression::fit_loglog_slope`]
/// fits to police the asymptotic exponent in CI.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingRecord {
    /// Curve label, e.g. `wdeq/paper-uniform` or `wf/powerlaw-volumes`.
    pub family: String,
    /// Instance size.
    pub n: usize,
    /// Wall time of one run, microseconds (min over repetitions).
    pub wall_us: f64,
    /// Completion events (WDEQ) or pour-work units (water-filling).
    pub events: u64,
}

/// Min-of-N timing with full attribution: run `1 + reps` repetitions of
/// one measurement (the first is an untimed warmup for allocator growth
/// and first-touch faults), wrapping **every** repetition in a `perf.rep`
/// span carrying its rep index, warmup flag, wall time, and the session's
/// complete [`ProbeTelemetry`]. Returns the min-wall *timed* repetition
/// for the JSON record.
///
/// This replaces the old inline min-of-N loops, which silently discarded
/// the telemetry of the unselected runs — the record still keeps min-wall
/// (counters are deterministic, only the clock varies), but the trace now
/// attributes all of them.
pub fn min_wall_attributed<T>(
    label: &str,
    reps: usize,
    mut run: impl FnMut() -> (T, ProbeTelemetry, f64),
) -> (T, ProbeTelemetry, f64) {
    let [best] = min_wall_interleaved([label], reps, |_| run());
    best
}

/// [`min_wall_attributed`] over `K` arms measured **interleaved**: each
/// round runs every arm once in order (`run(0)`, `run(1)`, …), the first
/// round is the untimed warmup, and each arm keeps its own min-wall
/// timed repetition. Host drift (a noisy neighbour, a frequency step)
/// then lands on all arms alike instead of on whichever ran second — the
/// arms of a wall-clock comparison are only comparable when measured
/// side by side.
pub fn min_wall_interleaved<T, const K: usize>(
    labels: [&str; K],
    reps: usize,
    mut run: impl FnMut(usize) -> (T, ProbeTelemetry, f64),
) -> [(T, ProbeTelemetry, f64); K] {
    let mut best: [Option<(T, ProbeTelemetry, f64)>; K] = std::array::from_fn(|_| None);
    for rep in 0..=reps {
        for (arm, label) in labels.iter().enumerate() {
            let mut sp = malleable_trace::span_labeled("perf.rep", || label.to_string());
            let (value, telemetry, wall_us) = run(arm);
            sp.arg("rep", rep as u64);
            sp.arg("warmup", u64::from(rep == 0));
            sp.arg("wall_us", wall_us as u64);
            telemetry.attach(&mut sp);
            drop(sp);
            if rep == 0 {
                continue; // warmup round — never selected
            }
            best[arm] = Some(match best[arm].take() {
                Some(b) if b.2 <= wall_us => b,
                _ => (value, telemetry, wall_us),
            });
        }
    }
    best.map(|b| b.expect("reps ≥ 1"))
}

/// A scaling-curve point to measure: family, size, and the run returning
/// its event/work counter.
pub type ScaleRun<'a> = (String, usize, Box<dyn FnMut() -> u64 + 'a>);

/// Scaling-curve points measured **interleaved**: `reps` rounds, each
/// running every point once in order, each point keeping its min-wall
/// repetition and the event/work counter its run reports. A burst of
/// host noise then costs one repetition of several points instead of all
/// repetitions of one, so it cannot bend a fitted curve at a single rung.
/// Every repetition is attributed as a `perf.rep` span (rep index, wall,
/// events), mirroring [`min_wall_attributed`] for the probe lanes.
pub fn scale_points(mut points: Vec<ScaleRun<'_>>, reps: usize) -> Vec<ScalingRecord> {
    let mut out: Vec<ScalingRecord> = points
        .iter()
        .map(|(family, n, _)| ScalingRecord {
            family: family.clone(),
            n: *n,
            wall_us: f64::INFINITY,
            events: 0,
        })
        .collect();
    for rep in 0..reps {
        for ((family, n, run), rec) in points.iter_mut().zip(&mut out) {
            let mut sp = malleable_trace::span_labeled("perf.rep", || format!("{family} n={n}"));
            let start = Instant::now();
            rec.events = run();
            let rep_wall = start.elapsed().as_secs_f64() * 1e6;
            sp.arg("rep", rep as u64);
            sp.arg("wall_us", rep_wall as u64);
            sp.arg("events", rec.events);
            rec.wall_us = rec.wall_us.min(rep_wall);
        }
    }
    out
}

/// Total Dinic phases across all records of one mode.
pub fn total_phases(records: &[ProbeRecord], mode: &str) -> u64 {
    records
        .iter()
        .filter(|r| r.mode == mode)
        .map(|r| r.phases)
        .sum()
}

/// Total augmenting paths across all records of one mode.
pub fn total_augmentations(records: &[ProbeRecord], mode: &str) -> u64 {
    records
        .iter()
        .filter(|r| r.mode == mode)
        .map(|r| r.augmentations)
        .sum()
}

/// Serialize the per-solver records plus the warm/cold totals as JSON to
/// `results/<name>.json`. Equivalent to
/// [`write_parametric_json_with_scaling`] with an empty scaling ladder.
///
/// # Errors
/// Propagates I/O errors.
pub fn write_parametric_json(name: &str, records: &[ProbeRecord]) -> std::io::Result<PathBuf> {
    write_parametric_json_with_scaling(name, records, &[])
}

/// Serialize probe records, warm/cold totals, and the event-driven
/// scaling ladder (a `"scaling"` array, one object per `(family, n)`
/// point) as JSON to `results/<name>.json`.
///
/// # Errors
/// Propagates I/O errors.
pub fn write_parametric_json_with_scaling(
    name: &str,
    records: &[ProbeRecord],
    scaling: &[ScalingRecord],
) -> std::io::Result<PathBuf> {
    use std::io::Write as _;
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"solvers\": [")?;
    for (i, r) in records.iter().enumerate() {
        writeln!(
            f,
            "    {{\"solver\": {}, \"mode\": {}, \"probes\": {}, \"warm_solves\": {}, \"cold_rebuilds\": {}, \"phases\": {}, \"augmentations\": {}, \"repair_paths\": {}, \"wall_us\": {:.1}, \"value\": {:.9}}}{}",
            crate::jsonin::json_string(&r.solver),
            crate::jsonin::json_string(r.mode),
            r.probes,
            r.warm_solves,
            r.cold_rebuilds,
            r.phases,
            r.augmentations,
            r.repair_paths,
            r.wall_us,
            r.value,
            if i + 1 < records.len() { "," } else { "" }
        )?;
    }
    writeln!(f, "  ],")?;
    writeln!(f, "  \"scaling\": [")?;
    for (i, s) in scaling.iter().enumerate() {
        writeln!(
            f,
            "    {{\"family\": {}, \"n\": {}, \"wall_us\": {:.1}, \"events\": {}}}{}",
            crate::jsonin::json_string(&s.family),
            s.n,
            s.wall_us,
            s.events,
            if i + 1 < scaling.len() { "," } else { "" }
        )?;
    }
    writeln!(f, "  ],")?;
    writeln!(
        f,
        "  \"totals\": {{\"warm_phases\": {}, \"cold_phases\": {}, \"warm_augmentations\": {}, \"cold_augmentations\": {}}}",
        total_phases(records, "warm"),
        total_phases(records, "cold"),
        total_augmentations(records, "warm"),
        total_augmentations(records, "cold"),
    )?;
    writeln!(f, "}}")?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(mode: &'static str, phases: u64) -> ProbeRecord {
        ProbeRecord {
            solver: "lmax/test".into(),
            mode,
            probes: 3,
            warm_solves: if mode == "warm" { 2 } else { 0 },
            cold_rebuilds: if mode == "warm" { 1 } else { 3 },
            phases,
            augmentations: phases,
            repair_paths: 0,
            wall_us: 1.0,
            value: 2.5,
        }
    }

    #[test]
    fn totals_split_by_mode() {
        let rs = vec![
            rec("warm", 4),
            rec("cold", 9),
            rec("warm", 2),
            rec("cold", 7),
        ];
        assert_eq!(total_phases(&rs, "warm"), 6);
        assert_eq!(total_phases(&rs, "cold"), 16);
        assert_eq!(total_augmentations(&rs, "warm"), 6);
    }

    #[test]
    fn interleaved_arms_alternate_and_keep_their_own_minimum() {
        // Walls per (arm, call): the warmup round is the fastest of all
        // and must never be selected; each arm keeps its own minimum.
        let walls = [[0.5, 9.0, 4.0, 7.0], [0.1, 3.0, 8.0, 2.0]];
        let mut calls: Vec<usize> = Vec::new();
        let mut seen = [0usize; 2];
        let [a, b] = min_wall_interleaved(["a", "b"], 3, |arm| {
            calls.push(arm);
            let wall = walls[arm][seen[arm]];
            seen[arm] += 1;
            (arm, ProbeTelemetry::default(), wall)
        });
        assert_eq!(calls, vec![0, 1, 0, 1, 0, 1, 0, 1]);
        assert_eq!((a.0, a.2), (0, 4.0));
        assert_eq!((b.0, b.2), (1, 2.0));
    }

    #[test]
    fn json_roundtrip_shape() {
        let rs = vec![rec("warm", 4), rec("cold", 9)];
        let sc = vec![
            ScalingRecord {
                family: "wdeq/paper-uniform".into(),
                n: 100,
                wall_us: 42.0,
                events: 100,
            },
            ScalingRecord {
                family: "wdeq/paper-uniform".into(),
                n: 1000,
                wall_us: 500.5,
                events: 1000,
            },
        ];
        let p = write_parametric_json_with_scaling("unit-test-parametric", &rs, &sc).unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        assert!(text.contains("\"solvers\""));
        assert!(text.contains("\"warm_phases\": 4"));
        assert!(text.contains("\"cold_phases\": 9"));
        // Valid JSON per the in-house reader.
        let v = crate::jsonin::parse(&text).unwrap();
        assert_eq!(
            v.get("totals")
                .and_then(|t| t.get("warm_phases"))
                .and_then(|x| x.as_f64()),
            Some(4.0)
        );
        let points = v.get("scaling").and_then(|s| s.as_array()).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[1].get("n").and_then(|x| x.as_f64()), Some(1000.0));
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn empty_scaling_section_is_valid_json() {
        let p = write_parametric_json("unit-test-parametric-empty", &[rec("warm", 1)]).unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        let v = crate::jsonin::parse(&text).unwrap();
        assert_eq!(
            v.get("scaling").and_then(|s| s.as_array()).map(|a| a.len()),
            Some(0)
        );
        let _ = std::fs::remove_file(p);
    }
}
