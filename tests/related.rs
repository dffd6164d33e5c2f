//! Related-machines subsystem properties.
//!
//! * **Reduction**: `Related { speeds: [1; m] }` must reproduce the
//!   identical-machine results **bit-exactly** (Rational, zero tolerance)
//!   for every registry policy — the speed-profile machinery degenerates
//!   to the paper's model when all speeds are one.
//! * **Exactness**: the parametric `Lmax`/`Cmax` solvers run end-to-end
//!   over heterogeneous speeds with exact Rational witnesses validating
//!   at zero tolerance, and ε-probes below the optimum are exactly
//!   infeasible.
//! * **Soundness**: the polymatroid validation rejects rate vectors that
//!   over-concentrate on the fast machines, and every related-capable
//!   policy produces schedules that survive it.

use malleable::core::algos::parametric::feasible_with_releases;
use malleable::core::algos::related::{flow_witness, greedy_related};
use malleable::core::bounds::{height_bound, squashed_area_bound};
use malleable::core::policy;
use malleable::core::schedule::column::{Column, ColumnSchedule};
use malleable::prelude::*;
use malleable::workloads::seed_batch;
use proptest::prelude::*;

fn q(v: f64) -> Rational {
    Rational::from_f64_exact(v)
}

/// The same tasks on `Identical { m }` and on `Related { [1; m] }`.
fn twin_instances(m: i64, tasks: &[(f64, f64, f64)]) -> (Instance<Rational>, Instance<Rational>) {
    let identical = Instance::<Rational>::builder(Rational::from_int(m))
        .tasks(tasks.iter().map(|&(v, w, d)| (q(v), q(w), q(d))))
        .build()
        .unwrap();
    let related = Instance::<Rational>::builder(Rational::from_int(0))
        .tasks(tasks.iter().map(|&(v, w, d)| (q(v), q(w), q(d))))
        .speeds(vec![Rational::from_int(1); m as usize])
        .build()
        .unwrap();
    (identical, related)
}

#[test]
fn unit_speed_reduction_is_bit_exact_for_every_registry_policy() {
    // Several shapes: caps binding, capacity binding, δ > P clamping,
    // weightless task (skipping wdeq-family restrictions where needed).
    type Fixture = (i64, Vec<(f64, f64, f64)>);
    let fixtures: Vec<Fixture> = vec![
        (4, vec![(8.0, 1.0, 2.0), (4.0, 2.0, 4.0), (2.0, 4.0, 1.0)]),
        (2, vec![(2.0, 1.0, 1.0), (1.0, 2.0, 2.0), (1.5, 0.5, 3.0)]),
        (3, vec![(1.0, 3.0, 1.0), (5.0, 1.0, 2.0)]),
    ];
    for (m, tasks) in fixtures {
        let (identical, related) = twin_instances(m, &tasks);
        for p in policy::all::<Rational>() {
            let a = p
                .run(&identical)
                .unwrap_or_else(|e| panic!("{} failed on identical: {e}", p.name()));
            let b = p
                .run(&related)
                .unwrap_or_else(|e| panic!("{} failed on unit-speed related: {e}", p.name()));
            // Zero-tolerance validation on both machine models (the
            // related side includes the polymatroid flow check).
            a.schedule.validate(&identical).unwrap();
            b.schedule.validate(&related).unwrap();
            // Bit-exact agreement: completion times, hence costs.
            assert_eq!(
                a.schedule.completions,
                b.schedule.completions,
                "{}: unit-speed related drifted from identical",
                p.name()
            );
            assert_eq!(
                a.schedule.weighted_completion_cost(&identical),
                b.schedule.weighted_completion_cost(&related),
                "{}: cost drift",
                p.name()
            );
        }
        // The lower bounds agree exactly, too.
        assert_eq!(
            squashed_area_bound(&identical),
            squashed_area_bound(&related)
        );
        assert_eq!(height_bound(&identical), height_bound(&related));
    }
}

#[test]
fn submodular_prefix_rank_reduction_is_bit_exact_for_every_registry_policy() {
    // A concave rank table that is exactly the prefix sums of a speed
    // profile must behave **bit-identically** to `Related { speeds }`:
    // the oracle stores the marginal gains as virtual speeds, so every
    // policy, bound, and validator walks the same numbers. Rejections
    // must match too (rate-space policies refuse both models).
    type Fixture = (Vec<f64>, Vec<(f64, f64, f64)>);
    let fixtures: Vec<Fixture> = vec![
        (
            vec![2.0, 1.0, 1.0],
            vec![(8.0, 1.0, 2.0), (4.0, 2.0, 3.0), (2.0, 4.0, 1.0)],
        ),
        (
            vec![4.0, 2.0, 1.0, 0.5],
            vec![(2.0, 1.0, 1.0), (1.0, 2.0, 2.0), (1.5, 0.5, 4.0)],
        ),
        (vec![3.0, 1.0], vec![(1.0, 3.0, 1.0), (5.0, 1.0, 2.0)]),
    ];
    for (speeds, tasks) in fixtures {
        let related = Instance::<Rational>::builder(Rational::from_int(0))
            .tasks(tasks.iter().map(|&(v, w, d)| (q(v), q(w), q(d))))
            .speeds(speeds.iter().map(|&s| q(s)).collect())
            .build()
            .unwrap();
        let mut prefix = Rational::from_int(0);
        let ranks: Vec<Rational> = speeds
            .iter()
            .map(|&s| {
                prefix = prefix.clone() + q(s);
                prefix.clone()
            })
            .collect();
        let submodular = Instance::<Rational>::builder(Rational::from_int(0))
            .tasks(tasks.iter().map(|&(v, w, d)| (q(v), q(w), q(d))))
            .ranks(ranks)
            .build()
            .unwrap();
        assert_eq!(related.p, submodular.p, "total capacity must agree");
        for p in policy::all::<Rational>() {
            match (p.run(&related), p.run(&submodular)) {
                (Ok(a), Ok(b)) => {
                    a.schedule.validate(&related).unwrap();
                    b.schedule.validate(&submodular).unwrap(); // zero tolerance
                    assert_eq!(
                        a.schedule.completions,
                        b.schedule.completions,
                        "{}: submodular prefix-rank drifted from related",
                        p.name()
                    );
                    assert_eq!(
                        a.schedule.weighted_completion_cost(&related),
                        b.schedule.weighted_completion_cost(&submodular),
                        "{}: cost drift",
                        p.name()
                    );
                    match (a.certificate, b.certificate) {
                        (Some(ca), Some(cb)) => {
                            assert_eq!(ca.lower_bound, cb.lower_bound, "{}", p.name());
                            assert_eq!(ca.factor, cb.factor, "{}", p.name());
                        }
                        (None, None) => {}
                        _ => panic!("{}: certificate presence diverged", p.name()),
                    }
                }
                (Err(_), Err(_)) => {} // rate-space policies refuse both
                (a, b) => panic!(
                    "{}: outcome diverged — related ok={}, submodular ok={}",
                    p.name(),
                    a.is_ok(),
                    b.is_ok()
                ),
            }
        }
        assert_eq!(
            squashed_area_bound(&related),
            squashed_area_bound(&submodular)
        );
        assert_eq!(height_bound(&related), height_bound(&submodular));
    }
}

#[test]
fn complete_eligibility_restriction_is_bit_exact_to_identical() {
    // `RestrictedAssignment` where every task may use every machine has
    // the uniform rank `f(A) = |A|` — the oracle must degenerate to
    // `Identical { m }` bit-exactly for every registry policy, identical-
    // only ones included (complete eligibility *is* the uniform model).
    type Fixture = (i64, Vec<(f64, f64, f64)>);
    let fixtures: Vec<Fixture> = vec![
        (4, vec![(8.0, 1.0, 2.0), (4.0, 2.0, 4.0), (2.0, 4.0, 1.0)]),
        (2, vec![(2.0, 1.0, 1.0), (1.0, 2.0, 2.0), (1.5, 0.5, 3.0)]),
        (3, vec![(1.0, 3.0, 1.0), (5.0, 1.0, 2.0)]),
    ];
    for (m, tasks) in fixtures {
        let (identical, _) = twin_instances(m, &tasks);
        let everyone: Vec<usize> = (0..m as usize).collect();
        let restricted = Instance::<Rational>::builder(Rational::from_int(0))
            .tasks(tasks.iter().map(|&(v, w, d)| (q(v), q(w), q(d))))
            .restricted(m as usize, vec![everyone; tasks.len()])
            .build()
            .unwrap();
        assert!(
            restricted.machine.uniform(),
            "complete eligibility is uniform"
        );
        assert_eq!(identical.p, restricted.p);
        for p in policy::all::<Rational>() {
            let a = p
                .run(&identical)
                .unwrap_or_else(|e| panic!("{} failed on identical: {e}", p.name()));
            let b = p.run(&restricted).unwrap_or_else(|e| {
                panic!(
                    "{} failed on complete-eligibility restricted: {e}",
                    p.name()
                )
            });
            a.schedule.validate(&identical).unwrap();
            b.schedule.validate(&restricted).unwrap(); // zero tolerance
            assert_eq!(
                a.schedule.completions,
                b.schedule.completions,
                "{}: complete-eligibility restricted drifted from identical",
                p.name()
            );
            assert_eq!(
                a.schedule.weighted_completion_cost(&identical),
                b.schedule.weighted_completion_cost(&restricted),
                "{}: cost drift",
                p.name()
            );
        }
        assert_eq!(
            squashed_area_bound(&identical),
            squashed_area_bound(&restricted)
        );
        assert_eq!(height_bound(&identical), height_bound(&restricted));
    }
}

#[test]
fn related_parametric_lmax_is_exact_with_zero_tolerance_witness() {
    // speeds (2, 1, 1): two δ = 1 tasks of volume 3 have pair-rank 3.
    let inst = Instance::<Rational>::builder(Rational::from_int(0))
        .tasks([
            (q(3.0), q(1.0), q(1.0)),
            (q(3.0), q(1.0), q(1.0)),
            (q(2.0), q(2.0), q(3.0)),
        ])
        .speeds(vec![q(2.0), q(1.0), q(1.0)])
        .build()
        .unwrap();
    let due = [
        Rational::from_int(0),
        Rational::from_int(0),
        Rational::from_int(1),
    ];
    // Lateness routes heterogeneous instances through the flow path.
    let lateness = Objective::Lateness { due: &due };
    let (l, cs) = frontier(&inst, lateness, &mut ProbeSession::new()).unwrap();
    cs.validate(&inst).unwrap(); // zero tolerance, polymatroid included
    let flow_lateness = Objective::FlowLateness { due: &due };
    let (l2, cs2) = frontier(&inst, flow_lateness, &mut ProbeSession::new()).unwrap();
    cs2.validate(&inst).unwrap();
    assert_eq!(l, l2, "route and direct flow solver agree");
    // Optimality certificate: deadlines ε below the optimum are exactly
    // infeasible (flow_witness surfaces the violated-set certificate).
    let eps = Rational::new(1, 1 << 20);
    let heights: Vec<Rational> = (0..inst.n())
        .map(|i| inst.tasks[i].volume.clone() / inst.machine.rate_cap(inst.tasks[i].delta.clone()))
        .collect();
    let tight: Vec<Rational> = due
        .iter()
        .zip(&heights)
        .map(|(d, h)| (d.clone() + l.clone() - eps.clone()).max_of(h.clone()))
        .collect();
    assert!(
        flow_witness(&inst, None, &tight, &mut ProbeSession::new()).is_err(),
        "ε below L* must be exactly infeasible"
    );
}

#[test]
fn related_parametric_cmax_beats_the_capacity_relaxation() {
    // speeds (2, 1, 1): three δ = 1 tasks with volumes (2, 2, 0.1). The
    // capacity relaxation says C* = max(4.1/4, 1) = 1.025, but the two
    // heavy tasks can only share rank 3: the true optimum is higher.
    let inst = Instance::<Rational>::builder(Rational::from_int(0))
        .tasks([
            (q(2.0), q(1.0), q(1.0)),
            (q(2.0), q(1.0), q(1.0)),
            (q(0.1), q(1.0), q(1.0)),
        ])
        .speeds(vec![q(2.0), q(1.0), q(1.0)])
        .build()
        .unwrap();
    let releases = vec![Rational::from_int(0); 3];
    let makespan = Objective::Makespan {
        releases: &releases,
    };
    let (c, schedule) = frontier(&inst, makespan, &mut ProbeSession::new()).unwrap();
    schedule.validate(&inst).unwrap(); // zero tolerance
                                       // Exact optimum: the pair {T0, T1} needs 4/3; the triple needs
                                       // 4.1/4 = 1.025 < 4/3; singletons need 1. So Cmax = 4/3.
    assert_eq!(c, Rational::new(4, 3));
    // And it is exactly tight: ε below is infeasible.
    let eps = Rational::new(1, 1 << 20);
    assert!(!feasible_with_releases(&inst, &releases, c.clone() - eps).unwrap());
    assert!(feasible_with_releases(&inst, &releases, c).unwrap());
}

#[test]
fn polymatroid_validation_rejects_fast_machine_over_concentration() {
    // Hand-built schedule putting both δ = 1 tasks at rate 2 — inside the
    // per-task caps and Σ ≤ P, outside the speed profile.
    let inst = Instance::builder(0.0)
        .tasks([(2.0, 1.0, 1.0), (2.0, 1.0, 1.0)])
        .speeds(vec![2.0, 1.0, 1.0])
        .build()
        .unwrap();
    let cheat = ColumnSchedule {
        p: 4.0,
        completions: vec![1.0, 1.0],
        columns: vec![Column {
            start: 0.0,
            end: 1.0,
            rates: vec![(TaskId(0), 2.0), (TaskId(1), 2.0)],
        }],
    };
    match cheat.validate(&inst) {
        Err(malleable::core::ScheduleError::SpeedProfileExceeded { .. }) => {}
        other => panic!("expected SpeedProfileExceeded, got {other:?}"),
    }
    // The honest layout (2, 1) with the remainder later is fine.
    let honest = ColumnSchedule {
        p: 4.0,
        completions: vec![1.0, 2.0],
        columns: vec![
            Column {
                start: 0.0,
                end: 1.0,
                rates: vec![(TaskId(0), 2.0), (TaskId(1), 1.0)],
            },
            Column {
                start: 1.0,
                end: 2.0,
                rates: vec![(TaskId(1), 1.0)],
            },
        ],
    };
    honest.validate(&inst).unwrap();
}

#[test]
fn related_capable_policies_schedule_every_heterogeneous_family() {
    let specs = [
        Spec::PowerLawSpeeds {
            n: 6,
            machines: 4,
            alpha: 1.0,
        },
        Spec::TwoTierCluster {
            n: 6,
            fast: 1,
            slow: 3,
            speedup: 4.0,
        },
        Spec::SingleFastMachine { n: 6, machines: 4 },
    ];
    for spec in &specs {
        for seed in seed_batch(0xAE, 3) {
            let inst = generate(spec, seed);
            let bound = squashed_area_bound(&inst).max(height_bound(&inst));
            for name in policy::related_capable() {
                let p = policy::by_name::<f64>(name).unwrap();
                let run = p
                    .run(&inst)
                    .unwrap_or_else(|e| panic!("{name} failed on {}/{seed}: {e}", spec.label()));
                run.schedule
                    .validate(&inst)
                    .unwrap_or_else(|e| panic!("{name} invalid on {}/{seed}: {e}", spec.label()));
                let cost = run.schedule.weighted_completion_cost(&inst);
                assert!(
                    cost >= bound - 1e-6 * (1.0 + cost),
                    "{name} beat the lower bound on {}/{seed}: {cost} < {bound}",
                    spec.label()
                );
            }
        }
    }
}

#[test]
fn identical_only_policies_reject_heterogeneous_instances_loudly() {
    let inst = generate(
        &Spec::TwoTierCluster {
            n: 4,
            fast: 1,
            slow: 2,
            speedup: 3.0,
        },
        1,
    );
    for name in [
        "wdeq",
        "wf",
        "wf-fast",
        "greedy-smith",
        "best-greedy",
        "makespan",
    ] {
        let p = policy::by_name::<f64>(name).unwrap();
        let err = p.run(&inst).expect_err("rate-space policy must refuse");
        assert!(
            err.to_string().contains("identical"),
            "{name}: unhelpful error {err}"
        );
    }
}

#[test]
fn greedy_related_dominated_by_serial_execution() {
    // Sanity: greedy completion promises are never worse than running the
    // prefix serially on the whole machine.
    let inst = Instance::builder(0.0)
        .tasks([(4.0, 1.0, 2.0), (2.0, 1.0, 1.0), (1.0, 1.0, 3.0)])
        .speeds(vec![2.0, 1.0, 1.0])
        .build()
        .unwrap();
    let order: Vec<TaskId> = (0..3).map(TaskId).collect();
    let s = greedy_related(&inst, &order).unwrap();
    s.validate(&inst).unwrap();
    let serial_bound: f64 = inst.total_volume() / 1.0; // ≥ any reasonable completion
    for c in &s.completions {
        assert!(*c <= serial_bound + 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// f64 and Rational runs of the related-capable policies agree to
    /// float precision on power-law speed profiles.
    #[test]
    fn f64_and_rational_agree_on_power_law_speeds(
        seed in 0u64..1u64 << 40,
        n in 2usize..7,
        machines in 2usize..5,
    ) {
        let spec = Spec::PowerLawSpeeds { n, machines, alpha: 1.0 };
        let inst = generate(&spec, seed);
        let exact: Instance<Rational> = inst.to_scalar();
        prop_assert!(exact.machine.is_related());
        for name in policy::related_capable() {
            let pf = policy::by_name::<f64>(name).unwrap();
            let pr = policy::by_name::<Rational>(name).unwrap();
            let sf = pf.schedule(&inst).unwrap();
            let sr = pr.schedule(&exact).unwrap();
            sf.validate(&inst).unwrap();
            sr.validate(&exact).unwrap(); // zero tolerance
            let cf = sf.weighted_completion_cost(&inst);
            let cr = sr.weighted_completion_cost(&exact).approx_f64();
            prop_assert!(
                (cf - cr).abs() <= 1e-6 * (1.0 + cf.abs()),
                "{name} seed {seed}: f64 {cf} vs exact {cr}"
            );
        }
    }

    /// The speed-aware height bound uses the true per-task rate cap
    /// (`prefix(δ)` — which *exceeds* `min(δ, P)` when fast machines
    /// exist, so the naive identical formula would not even be a valid
    /// bound here) and remains a sound lower bound for every
    /// related-capable policy.
    #[test]
    fn related_height_bound_is_sound(
        seed in 0u64..1u64 << 40,
        n in 2usize..7,
    ) {
        let spec = Spec::SingleFastMachine { n, machines: 4 };
        let inst = generate(&spec, seed);
        let h = height_bound(&inst);
        // The speed-aware heights never exceed the naive clamped ones:
        // a task on δ machines runs at prefix(δ) ≥ min(δ, P)… per machine
        // speeds ≥ 1 here, so its minimal running time only shrinks.
        let naive: f64 = inst
            .tasks
            .iter()
            .map(|t| t.weight * t.volume / t.delta.min(inst.p))
            .sum();
        prop_assert!(h <= naive + 1e-9, "speed-aware {h} vs naive {naive}");
        for name in ["wdeq-related", "greedy-smith-related"] {
            let p = policy::by_name::<f64>(name).unwrap();
            let cost = p
                .schedule(&inst)
                .unwrap()
                .weighted_completion_cost(&inst);
            prop_assert!(cost >= h - 1e-6 * (1.0 + cost), "{name}: {cost} < {h}");
        }
    }
}
