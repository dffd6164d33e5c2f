//! **P0 — warm-started vs cold-restarted parametric frontier searches.**
//!
//! Runs the same solver configurations as the `lmax/parametric` and
//! `releases/cmax` criterion groups twice — once with the
//! [`ProbeSession`] warm-start (repair the previous residual in place,
//! re-augment) and
//! once with forced cold restarts — and writes the per-solver telemetry
//! (probe counts, Dinic phases, augmenting paths, repairs, wall time) to
//! `results/BENCH_parametric.json`.
//!
//! The run **asserts** the warm-start contract on the way out:
//!
//! * warm and cold return the same optimum on every configuration (the
//!   trajectory-level agreement the exactness property tests prove
//!   bit-exactly at `Rational`);
//! * warm-started probe sequences do strictly fewer total augmentation
//!   passes (Dinic phases) than cold restarts — the headline speedup the
//!   JSON records;
//! * **wall-clock parity**: no configuration where the default
//!   (`SolveMode::Auto`) arm is slower than the cold arm by more than 10%
//!   plus a small absolute grace — the size gate must never lose. The two
//!   arms are timed interleaved (warm, cold, warm, cold, …, min-of-N per
//!   arm), so drift of a shared host lands on both alike.
//!
//! The binary also runs the **event-driven scaling ladder**: log-spaced
//! instance sizes up to `n = 10⁵` (`10⁶` behind `--full`) through
//! [`wdeq_completions`] and [`wf_feasible_with_work`], recording
//! per-`n` wall time and event counts as the `"scaling"` section of
//! `results/BENCH_parametric.json`. The fitted log–log wall-time exponent
//! of every family must stay ≤ 1.2 (`bench_gate --scaling` re-checks the
//! same bound in CI), and `n = 10⁵` must finish in under five seconds.
//! The repeated rungs (float and exact) are timed round-robin across the
//! ladder (min-of-N per rung), like the warm and cold arms above.
//!
//! The ladder also carries **exact-arithmetic rungs** (families tagged
//! `-exact`, capped at `n ≤ 1000` by default): the same WDEQ sweep at
//! `bigratio::Rational` on both a losslessly lifted `f64` instance and a
//! quantized instance whose parameters are multiples of `1/64` (the
//! realistic exact workload — small denominators throughout). Exact rungs
//! get their own, looser exponent ceiling: per-operation cost grows with
//! operand bit-length, so the curve legitimately sits above the float
//! band (≈ 1.2 with the fixed-limb fast path, well above 1.5 on the old
//! all-heap lane).
//!
//! ```text
//! exp_perf [--n-max N] [--scale-max N] [--scale-max-exact N] [--full] [--trace]
//!   --n-max            drop probe configurations with n > N (default: all)
//!   --scale-max        cap the scaling ladder at n ≤ N (default 100000)
//!   --scale-max-exact  cap the Rational rungs at n ≤ N (default 1000;
//!                      0 skips the exact rungs entirely)
//!   --full             extend the ladder to n = 10⁶
//!   --trace            record a structured trace of the whole run
//!                      (every repetition attributed, not just min-wall)
//!                      to results/TRACE_perf.json (Chrome trace format)
//! ```

use bigratio::Rational;
use malleable_bench::arg_value;
use malleable_bench::perf::{
    min_wall_interleaved, scale_points, total_phases, write_parametric_json_with_scaling,
    ProbeRecord, ScaleRun, ScalingRecord,
};
use malleable_bench::regression::{asymptotic_curve, fit_loglog_slope, EXACT_FAMILY_TAG};
use malleable_core::algos::parametric::{frontier, Objective, ProbeSession, SolveMode};
use malleable_core::algos::waterfill::wf_feasible_with_work;
use malleable_core::algos::wdeq::wdeq_completions;
use malleable_core::instance::Instance;
use malleable_workloads::{generate, Spec};
use std::time::Instant;

/// Per-(config, mode) timing repetitions; the recorded wall time is the
/// minimum (the counters are deterministic, so only the clock varies).
const TIMING_REPS: usize = 3;

/// Absolute wall-clock grace for the warm-vs-cold parity assertion, µs —
/// scheduler jitter floor on sub-millisecond rows.
const PARITY_GRACE_US: f64 = 50.0;

/// One solver configuration: a labelled instance plus the search to run.
struct Config {
    label: String,
    instance: Instance,
    kind: Kind,
}

enum Kind {
    Lmax { due: Vec<f64> },
    ReleaseCmax { releases: Vec<f64> },
}

/// The due-date formula of the `lmax/parametric` criterion group: a
/// staggered fraction of each task's height.
fn staggered_dues(instance: &Instance) -> Vec<f64> {
    instance
        .tasks
        .iter()
        .enumerate()
        .map(|(i, t)| {
            (t.volume / instance.machine.rate_cap_for(i, t.delta)) * (0.2 + (i % 4) as f64 * 0.4)
        })
        .collect()
}

fn configs(n_max: usize) -> Vec<Config> {
    let mut out = Vec::new();
    for n in [8usize, 32, 128] {
        if n > n_max {
            continue;
        }
        let instance = generate(&Spec::PaperUniform { n }, 42);
        let due = staggered_dues(&instance);
        out.push(Config {
            label: format!("lmax/paper-uniform[n={n}]"),
            instance,
            kind: Kind::Lmax { due },
        });
    }
    for n in [8usize, 32] {
        if n > n_max {
            continue;
        }
        let instance = generate(
            &Spec::PowerLawSpeeds {
                n,
                machines: 8,
                alpha: 1.0,
            },
            42,
        );
        let due = staggered_dues(&instance);
        out.push(Config {
            label: format!("lmax/powerlaw-speeds[n={n}]"),
            instance,
            kind: Kind::Lmax { due },
        });
    }
    // Adversarial staircase (the PR-3 regression family) on a two-tier
    // speed profile: the flow is the oracle for *every* probe on related
    // machines, so the whole Newton trajectory runs through the warm
    // residual.
    for n in [16usize, 48] {
        if n > n_max {
            continue;
        }
        let mut speeds = vec![2.0];
        speeds.resize(4, 1.0);
        let instance = Instance::builder(0.0)
            .tasks((0..n).map(|_| (1.0, 1.0, 1.0)))
            .speeds(speeds)
            .build()
            .expect("valid staircase instance");
        let due: Vec<f64> = (0..n).map(|i| i as f64 / 3.0).collect();
        out.push(Config {
            label: format!("lmax/staircase-related[n={n}]"),
            instance,
            kind: Kind::Lmax { due },
        });
    }
    // The non-uniform capacity oracles: restricted assignment (gate-node
    // transport network) and submodular coverage (gains-as-virtual-speeds
    // levels). Both keep the network topology fixed across probes, so the
    // warm residual must keep paying off on them exactly as on speed
    // profiles — the parity assertion below enforces it.
    for n in [8usize, 32] {
        if n > n_max {
            continue;
        }
        let instance = generate(
            &Spec::RestrictedAssignment {
                n,
                machines: 6,
                min_eligible: 2,
            },
            42,
        );
        let due = staggered_dues(&instance);
        out.push(Config {
            label: format!("lmax/restricted[n={n}]"),
            instance,
            kind: Kind::Lmax { due },
        });
    }
    for n in [8usize, 32] {
        if n > n_max {
            continue;
        }
        let instance = generate(&Spec::SubmodularCoverage { n, machines: 6 }, 42);
        let due = staggered_dues(&instance);
        out.push(Config {
            label: format!("lmax/submodular[n={n}]"),
            instance,
            kind: Kind::Lmax { due },
        });
    }
    for n in [8usize, 32, 128] {
        if n > n_max {
            continue;
        }
        let instance = generate(&Spec::PaperUniform { n }, 42);
        let releases: Vec<f64> = (0..n).map(|i| (i % 7) as f64 * 0.1).collect();
        out.push(Config {
            label: format!("cmax/paper-uniform[n={n}]"),
            instance,
            kind: Kind::ReleaseCmax { releases },
        });
    }
    // Release waves on a power-law speed profile: later clusters keep
    // invalidating the accepted deadline, and every probe is a flow
    // solve — the release-date analogue of the related Lmax stress.
    for n in [16usize, 64] {
        if n > n_max {
            continue;
        }
        let instance = generate(
            &Spec::PowerLawSpeeds {
                n,
                machines: 6,
                alpha: 1.0,
            },
            42,
        );
        let horizon = instance.total_volume() / instance.p;
        let releases: Vec<f64> = (0..n).map(|i| (i % 4) as f64 * horizon * 0.5).collect();
        out.push(Config {
            label: format!("cmax/release-waves-related[n={n}]"),
            instance,
            kind: Kind::ReleaseCmax { releases },
        });
    }
    out
}

/// Measure one configuration in both solve modes: the warm arm
/// (`SolveMode::Auto` — it picks warm whenever the network is big enough
/// to amortize the repair pass, cold otherwise) and the forced cold arm.
fn run_pair(config: &Config) -> [ProbeRecord; 2] {
    const ARMS: [(SolveMode, &str); 2] =
        [(SolveMode::Auto, "warm"), (SolveMode::ColdRestart, "cold")];
    // Min-of-N per arm with a leading untimed warmup round (the first
    // solve of a fresh process pays allocator growth and first-touch page
    // faults), the two arms alternating repetition by repetition so host
    // drift cannot land on one of them. Every repetition — warmups and
    // losers included — is attributed in the trace as a `perf.rep` span;
    // only the JSON record keeps min-wall.
    let labels = ARMS.map(|(_, mode)| format!("{} {mode}", config.label));
    let runs = min_wall_interleaved(
        [labels[0].as_str(), labels[1].as_str()],
        TIMING_REPS,
        |arm| {
            let mut session = ProbeSession::with_mode(ARMS[arm].0);
            let start = Instant::now();
            let objective = match &config.kind {
                Kind::Lmax { due } => Objective::Lateness { due },
                Kind::ReleaseCmax { releases } => Objective::Makespan { releases },
            };
            let (value, _) = frontier(&config.instance, objective, &mut session)
                .unwrap_or_else(|e| panic!("{}: {e}", config.label));
            let wall_us = start.elapsed().as_secs_f64() * 1e6;
            (value, session.telemetry(), wall_us)
        },
    );
    let [(wv, wt, ww), (cv, ct, cw)] = runs;
    [
        ProbeRecord::from_telemetry(&config.label, ARMS[0].1, wt, ww, wv),
        ProbeRecord::from_telemetry(&config.label, ARMS[1].1, ct, cw, cv),
    ]
}

/// Run the event-driven scaling ladder up to `scale_max` tasks and assert
/// its acceptance bounds (n = 10⁵ under five seconds when reached; every
/// family's fitted log–log exponent ≤ 1.2).
fn scaling_ladder(scale_max: usize) -> Vec<ScalingRecord> {
    let sizes: Vec<usize> = [
        100usize, 316, 1000, 3162, 10_000, 31_623, 100_000, 1_000_000,
    ]
    .into_iter()
    .filter(|&n| n <= scale_max)
    .collect();
    // Rungs up to 10⁴ are cheap: TIMING_REPS repetitions each, measured
    // interleaved across the group (round-robin, min-of-N per rung), so
    // host drift cannot bend the fitted curve at one rung. One pass is
    // already stable at ≥ 10⁵ events; those rungs run once, one at a time.
    let (cheap, large): (Vec<usize>, Vec<usize>) = sizes.iter().partition(|&&n| n <= 10_000);
    let mut groups = vec![(cheap, TIMING_REPS)];
    groups.extend(large.into_iter().map(|n| (vec![n], 1)));
    let mut out = Vec::new();
    for (group, reps) in groups {
        let rungs: Vec<(&str, usize, Instance, Vec<f64>)> = group
            .iter()
            .flat_map(|&n| {
                [
                    ("paper-uniform", Spec::PaperUniform { n }),
                    ("powerlaw-volumes", Spec::PowerLawVolumes { n, alpha: 1.5 }),
                ]
                .map(|(tag, spec)| {
                    let instance = generate(&spec, 42);
                    // The water-filling feasibility oracle replays the
                    // deadlines WDEQ meets, so the same instance exercises
                    // both lanes (and doubles as a cross-algorithm sanity
                    // check).
                    let deadlines = wdeq_completions(&instance)
                        .unwrap_or_else(|e| panic!("wdeq/{tag}[n={n}]: {e}"))
                        .completions;
                    (tag, n, instance, deadlines)
                })
            })
            .collect();
        let mut points: Vec<ScaleRun<'_>> = Vec::with_capacity(2 * rungs.len());
        for (tag, n, instance, deadlines) in &rungs {
            let (tag, n) = (*tag, *n);
            points.push((
                format!("wdeq/{tag}"),
                n,
                Box::new(move || {
                    wdeq_completions(instance)
                        .unwrap_or_else(|e| panic!("wdeq/{tag}[n={n}]: {e}"))
                        .events as u64
                }),
            ));
            points.push((
                format!("wf/{tag}"),
                n,
                Box::new(move || {
                    let (ok, work) = wf_feasible_with_work(instance, deadlines)
                        .unwrap_or_else(|e| panic!("wf/{tag}[n={n}]: {e}"));
                    assert!(ok, "wf/{tag}[n={n}]: WDEQ completions must be WF-feasible");
                    work
                }),
            ));
        }
        for r in scale_points(points, reps) {
            println!(
                "{:<26} {:>9} {:>12.1} {:>12}",
                r.family, r.n, r.wall_us, r.events
            );
            if r.n >= 100_000 {
                assert!(
                    r.wall_us < 5e6,
                    "{}[n={}]: {:.1}µs breaks the five-second budget",
                    r.family,
                    r.n,
                    r.wall_us
                );
            }
            out.push(r);
        }
    }
    out
}

/// Quantize a generated `f64` instance onto the `1/64` grid at
/// `Rational` — the realistic exact workload: every parameter is a small
/// dyadic rational, so the fixed-limb fast path carries the whole run.
fn quantized_instance(instance: &Instance) -> Instance<Rational> {
    let q = |x: f64| Rational::new(((x * 64.0).round() as i64).max(1), 64);
    Instance::builder(q(instance.p))
        .tasks(
            instance
                .tasks
                .iter()
                .map(|t| (q(t.volume), q(t.weight), q(t.delta))),
        )
        .build()
        .expect("quantized parameters stay positive")
}

/// The exact-arithmetic rungs of the scaling ladder: WDEQ at
/// `bigratio::Rational` on the lifted and the quantized instance, capped
/// at `exact_max` tasks. Families are tagged `-exact` so `bench_gate
/// --scaling` holds them to the looser exact exponent ceiling.
fn exact_scaling_rungs(exact_max: usize) -> Vec<ScalingRecord> {
    let rungs: Vec<(&str, usize, Instance<Rational>)> = [100usize, 316, 1000, 3162]
        .into_iter()
        .filter(|&n| n <= exact_max)
        .flat_map(|n| {
            let float_inst = generate(&Spec::PaperUniform { n }, 42);
            [
                ("f64-lift", n, float_inst.to_scalar()),
                ("quantized-64", n, quantized_instance(&float_inst)),
            ]
        })
        .collect();
    let points: Vec<ScaleRun<'_>> = rungs
        .iter()
        .map(|(tag, n, exact)| -> ScaleRun<'_> {
            let (tag, n) = (*tag, *n);
            (
                format!("wdeq-exact/{tag}"),
                n,
                Box::new(move || {
                    wdeq_completions(exact)
                        .unwrap_or_else(|e| panic!("wdeq-exact/{tag}[n={n}]: {e}"))
                        .events as u64
                }),
            )
        })
        .collect();
    let out = scale_points(points, TIMING_REPS);
    for rec in &out {
        println!(
            "{:<26} {:>9} {:>12.1} {:>12}",
            rec.family, rec.n, rec.wall_us, rec.events
        );
    }
    out
}

fn main() {
    let n_max: usize = arg_value("--n-max")
        .and_then(|v| v.parse().ok())
        .unwrap_or(usize::MAX);
    let scale_max: usize = if std::env::args().any(|a| a == "--full") {
        1_000_000
    } else {
        arg_value("--scale-max")
            .and_then(|v| v.parse().ok())
            .unwrap_or(100_000)
    };
    let scale_max_exact: usize = arg_value("--scale-max-exact")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);
    // Tracing must be live before the first solve so every `perf.rep`
    // repetition — warmups and min-wall losers included — is attributed.
    let trace_session = std::env::args()
        .any(|a| a == "--trace")
        .then(malleable_trace::Session::start);
    let configs = configs(n_max);
    println!(
        "P0: parametric warm-start telemetry — {} configurations × 2 solve modes\n",
        configs.len()
    );
    println!(
        "{:<30} {:>5} {:>6}/{:<6} {:>7} {:>7} {:>7} {:>9}",
        "solver", "mode", "warm", "cold", "probes", "phases", "paths", "wall µs"
    );
    let mut records: Vec<ProbeRecord> = Vec::with_capacity(configs.len() * 2);
    for config in &configs {
        let [warm, cold] = run_pair(config);
        // Same trajectory, same optimum: the f64 instantiations must agree
        // to float noise (the Rational property tests pin this bit-exactly).
        assert!(
            (warm.value - cold.value).abs() <= 1e-9 * (1.0 + cold.value.abs()),
            "{}: warm optimum {} vs cold {}",
            config.label,
            warm.value,
            cold.value
        );
        assert_eq!(
            warm.probes, cold.probes,
            "{}: warm and cold must walk the same probe sequence",
            config.label
        );
        // Wall-clock parity: the mode-selection heuristic must never lose
        // to a forced cold restart by more than noise.
        assert!(
            warm.wall_us <= cold.wall_us * 1.10 + PARITY_GRACE_US,
            "{}: warm arm {:.1}µs vs cold {:.1}µs — the Auto size gate lost",
            config.label,
            warm.wall_us,
            cold.wall_us
        );
        for r in [&warm, &cold] {
            println!(
                "{:<30} {:>5} {:>6}/{:<6} {:>7} {:>7} {:>7} {:>9.1}",
                r.solver,
                r.mode,
                r.warm_solves,
                r.cold_rebuilds,
                r.probes,
                r.phases,
                r.augmentations,
                r.wall_us
            );
        }
        records.push(warm);
        records.push(cold);
    }

    let warm_phases = total_phases(&records, "warm");
    let cold_phases = total_phases(&records, "cold");
    println!("\ntotal augmentation passes: warm {warm_phases} vs cold {cold_phases}");
    // The headline acceptance assertion: warm-started probe sequences do
    // strictly fewer total augmentation passes than cold restarts.
    assert!(
        warm_phases < cold_phases,
        "warm start must save augmentation passes ({warm_phases} vs {cold_phases})"
    );
    assert!(
        records
            .iter()
            .any(|r| r.mode == "warm" && r.warm_solves > 0),
        "at least one configuration must actually exercise the warm path"
    );

    println!(
        "\nscaling ladder (n ≤ {scale_max}):\n{:<26} {:>9} {:>12} {:>12}",
        "family", "n", "wall µs", "events"
    );
    let mut scaling = scaling_ladder(scale_max);
    scaling.extend(exact_scaling_rungs(scale_max_exact));
    let mut families: Vec<&str> = scaling.iter().map(|s| s.family.as_str()).collect();
    families.sort_unstable();
    families.dedup();
    for family in families {
        // Exact-rational rungs pay per-operation cost that grows with
        // operand size; they get the same looser ceiling `bench_gate
        // --scaling` applies (`--scaling-exponent-max-exact`).
        let ceiling = if family.contains(EXACT_FAMILY_TAG) {
            1.7
        } else {
            1.2
        };
        let curve: Vec<(f64, f64)> = scaling
            .iter()
            .filter(|s| s.family == family)
            .map(|s| (s.n as f64, s.wall_us))
            .collect();
        if curve.len() < 3 {
            continue; // a truncated ladder (--scale-max) fits nothing
        }
        // Fit on the asymptotic sub-curve (constant-overhead rows under
        // the wall floor drop out) — the same filter bench_gate applies.
        let b = fit_loglog_slope(&asymptotic_curve(&curve)).expect("≥3 distinct sizes");
        println!("{family}: fitted wall-time exponent {b:.3}");
        assert!(
            b <= ceiling,
            "{family}: exponent {b:.3} > {ceiling} — the curve bent"
        );
    }

    match write_parametric_json_with_scaling("BENCH_parametric", &records, &scaling) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => {
            eprintln!("json write failed: {e}");
            std::process::exit(2);
        }
    }

    if let Some(session) = trace_session {
        let trace = session.finish();
        if let Err(e) = trace.validate() {
            eprintln!("trace validation failed: {e}");
            std::process::exit(2);
        }
        let path = malleable_bench::csvout::results_dir().join("TRACE_perf.json");
        if let Err(e) = std::fs::write(&path, malleable_trace::chrome::to_chrome_json(&trace)) {
            eprintln!("trace write failed: {e}");
            std::process::exit(2);
        }
        println!("wrote {}", path.display());
        println!("\n{}", malleable_trace::flame::render_summary(&trace, 10));
    }
}
