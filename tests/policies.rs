//! Registry-wide policy properties: every policy in
//! `malleable_core::policy::all()` × every workload family must produce a
//! schedule that validates at the scalar's tolerance and never beats the
//! squashed-area/height lower bounds (which bound OPT from below, hence
//! every feasible schedule too).

use malleable::core::bounds::{combined_lower_bound, height_bound, squashed_area_bound};
use malleable::core::error::ScheduleError;
use malleable::core::policy;
use malleable::prelude::*;
use malleable::workloads::seed_batch;
use proptest::prelude::*;

/// Every workload family, at a size small enough to sweep the whole
/// registry (best-greedy runs 6 heuristic greedy passes per instance).
fn every_spec(n: usize) -> Vec<Spec> {
    vec![
        Spec::PaperUniform { n },
        Spec::ConstantWeight { n },
        Spec::ConstantWeightVolume { n },
        Spec::HomogeneousHalfCap { n },
        Spec::Theorem11 { n, p: 4.0 },
        Spec::IntegerUniform { n, p: 8 },
        Spec::ZipfWeights { n, p: 4.0, s: 1.1 },
        Spec::BimodalVolumes {
            n,
            p: 4.0,
            heavy_fraction: 0.2,
        },
        Spec::Stairs { n, p: 16.0 },
        Spec::BandwidthFleet {
            n,
            server_bandwidth: 100.0,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_policy_validates_and_respects_lower_bounds_on_every_spec(
        seed in 0u64..1u64 << 48,
        n in 2usize..10,
    ) {
        for spec in every_spec(n) {
            let inst = generate(&spec, seed);
            let tol = numkit::Tolerance::<f64>::for_instance(n);
            let area = squashed_area_bound(&inst);
            let height = height_bound(&inst);
            let bound = area.max(height);
            for p in policy::all::<f64>() {
                let run = p.run(&inst).unwrap_or_else(|e| {
                    panic!("{} failed on {}/{seed}: {e}", p.name(), spec.label())
                });
                run.schedule.validate(&inst).unwrap_or_else(|e| {
                    panic!("{} invalid on {}/{seed}: {e}", p.name(), spec.label())
                });
                let cost = run.schedule.weighted_completion_cost(&inst);
                // No schedule beats a lower bound on OPT.
                prop_assert!(
                    cost >= bound - tol.slack(cost, bound),
                    "{} beat the lower bound on {}/{seed}: {cost} < {bound}",
                    p.name(),
                    spec.label()
                );
                // A certificate is itself a lower bound and its factor a
                // guarantee (Theorem 4 for WDEQ).
                if let Some(cert) = run.certificate {
                    prop_assert!(cert.lower_bound <= cost + tol.slack(cost, cert.lower_bound));
                    prop_assert!(
                        cert.ratio(cost) <= cert.factor + 1e-6,
                        "{} certificate violated on {}/{seed}",
                        p.name(),
                        spec.label()
                    );
                }
            }
        }
    }
}

#[test]
fn registry_names_resolve_and_stay_stable() {
    let names = policy::names();
    assert!(names.len() >= 8);
    for name in &names {
        assert!(policy::by_name::<f64>(name).is_some(), "{name} missing");
    }
    // The documented core set must stay addressable (msched --policy
    // contract).
    for name in [
        "wdeq",
        "deq",
        "wf",
        "wf-fast",
        "greedy-smith",
        "best-greedy",
        "makespan",
        "makespan-parametric",
        "lmax-height",
        "lmax-parametric",
        "wdeq-related",
        "wf-related",
        "greedy-smith-related",
        "lmax-parametric-related",
    ] {
        assert!(names.contains(&name), "{name} left the registry");
    }
    // The ROADMAP's related-machines milestone: ≥ 20 named policies.
    assert!(names.len() >= 20, "registry shrank to {}", names.len());
}

/// Float greedy answers on the paper's §V-A family that used to be
/// invalid: tolerance merges in the availability profile let capacity
/// drift past `P`, and a tolerance dedup of completions in
/// `step_to_column` moved a task's last sliver after its completion.
#[test]
fn float_greedy_regressions_validate() {
    for (name, seed) in [("greedy-smith", 2), ("greedy-height-desc", 1)] {
        let inst = generate(&Spec::PaperUniform { n: 1000 }, seed);
        let run = policy::by_name::<f64>(name)
            .expect("registered")
            .run(&inst)
            .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
        run.schedule
            .validate(&inst)
            .unwrap_or_else(|e| panic!("{name} seed {seed}: invalid schedule: {e}"));
    }
}

/// Float Water-Filling answers on the paper's §V-A family that used to be
/// invalid: the dense pour dropped columns and rates below the tolerance,
/// so a task's area fell short of its volume.
#[test]
fn float_water_filling_regressions_validate() {
    for name in ["wf", "wf-fast"] {
        for seed in [2, 3, 5] {
            let inst = generate(&Spec::PaperUniform { n: 1000 }, seed);
            let run = policy::by_name::<f64>(name)
                .expect("registered")
                .run(&inst)
                .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
            run.schedule
                .validate(&inst)
                .unwrap_or_else(|e| panic!("{name} seed {seed}: invalid schedule: {e}"));
        }
    }
}

#[test]
fn exact_registry_matches_float_costs() {
    // The same policy at f64 and Rational must agree to float precision
    // (the exactness contract extended to the whole registry).
    for seed in seed_batch(0x90, 3) {
        let inst = generate(&Spec::PaperUniform { n: 5 }, seed);
        let exact: Instance<Rational> = inst.to_scalar();
        // Every policy participates: the Lmax solvers are parametric and
        // exact now, so there is no bisection-bracket exemption left.
        for name in policy::names() {
            let pf = policy::by_name::<f64>(name).unwrap();
            let pr = policy::by_name::<Rational>(name).unwrap();
            let cf = pf.schedule(&inst).unwrap().weighted_completion_cost(&inst);
            let cr = pr
                .schedule(&exact)
                .unwrap()
                .weighted_completion_cost(&exact);
            assert!(
                (cf - cr.approx_f64()).abs() <= 1e-6 * (1.0 + cf),
                "{name} seed {seed}: f64 {cf} vs exact {}",
                cr.approx_f64()
            );
        }
    }
}

#[test]
fn lower_bound_helper_agrees_with_parts() {
    let inst = generate(&Spec::PaperUniform { n: 6 }, 42);
    let combined = combined_lower_bound(&inst);
    assert_eq!(
        combined,
        squashed_area_bound(&inst).max(height_bound(&inst))
    );
}

#[test]
fn rule_replays_honour_release_times() {
    // The registry's rule replays share the online engine's event loop:
    // a task is never allocated before its arrival, and an idle gap
    // before a late arrival is an empty column.
    let late = Instance::builder(2.0)
        .task(2.0, 1.0, 1.0)
        .task(1.0, 1.0, 2.0)
        .task(1.0, 3.0, 2.0)
        .arrivals(vec![0.0, 1.0, 5.0])
        .build()
        .unwrap();
    let mut instances = vec![late];
    for spec in [
        Spec::PoissonArrivals { n: 30, rate: 2.0 },
        Spec::ArrivalWaves {
            n: 30,
            waves: 3,
            gap: 2.0,
        },
    ] {
        for seed in seed_batch(0x7e1, 3) {
            instances.push(generate(&spec, seed));
        }
    }
    for inst in &instances {
        for name in ["deq", "priority", "share-no-redistribution"] {
            let schedule = policy::by_name::<f64>(name)
                .unwrap()
                .schedule(inst)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            schedule
                .validate(inst)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            for (i, t) in schedule.completions.iter().enumerate() {
                assert!(*t > inst.arrival(TaskId(i)), "{name}: T{i} done at {t}");
            }
        }
    }
}

#[test]
fn policies_that_ignore_release_times_refuse_arrivals() {
    // Every registry policy on a streaming instance either honours the
    // release times (its schedule validates, arrival check included) or
    // refuses the instance outright — never a schedule that runs a task
    // before it arrives.
    let specs = [
        Spec::PoissonArrivals { n: 30, rate: 2.0 },
        Spec::ArrivalWaves {
            n: 30,
            waves: 3,
            gap: 2.0,
        },
    ];
    let mut refused = 0;
    for spec in &specs {
        for seed in 1..=3 {
            let inst = generate(spec, seed);
            assert!(inst.has_arrivals(), "{}/{seed}", spec.label());
            for p in policy::all::<f64>() {
                let name = p.name();
                match p.schedule(&inst) {
                    Ok(schedule) => schedule.validate(&inst).unwrap_or_else(|e| {
                        panic!("{name} on {}/{seed}: invalid schedule: {e}", spec.label())
                    }),
                    Err(ScheduleError::InvalidInstance { .. }) => refused += 1,
                    Err(e) => panic!("{name} on {}/{seed}: {e}", spec.label()),
                }
            }
        }
    }
    // The offline policies are the ones refusing: 19 of them, every time.
    assert_eq!(refused, 19 * specs.len() * 3);
}
