//! Cross-crate pipeline tests: workloads → scheduling → normal form →
//! integer conversion → processor assignment, with every paper invariant
//! checked along the way.

use malleable::core::algos::waterfill::{allocation_changes, lemma5_changes, water_filling};
use malleable::core::algos::waterfill_int::water_filling_integer;
use malleable::core::algos::wdeq::{wdeq_run, wdeq_schedule};
use malleable::core::schedule::convert::{
    assign_processors_stable, column_to_gantt, step_to_column,
};
use malleable::prelude::*;
use malleable::workloads::seed_batch;

#[test]
fn online_engine_matches_clairvoyant_replay_across_workloads() {
    for spec in [
        Spec::PaperUniform { n: 12 },
        Spec::ZipfWeights {
            n: 10,
            p: 4.0,
            s: 1.0,
        },
        Spec::IntegerUniform { n: 15, p: 8 },
        Spec::BandwidthFleet {
            n: 8,
            server_bandwidth: 50.0,
        },
    ] {
        for seed in seed_batch(1, 5) {
            let inst = generate(&spec, seed);
            let online = simulate(&inst, &WdeqRule).expect("engine run");
            let offline = wdeq_schedule(&inst);
            for (a, b) in online
                .schedule
                .completion_times()
                .iter()
                .zip(offline.completion_times())
            {
                assert!(
                    (a - b).abs() <= 1e-7 * (1.0 + b.abs()),
                    "{}: online {a} vs offline {b}",
                    spec.label()
                );
            }
        }
    }
}

#[test]
fn full_theorem10_pipeline_on_integer_machines() {
    for seed in seed_batch(7, 10) {
        let inst = generate(&Spec::IntegerUniform { n: 40, p: 8 }, seed);
        let tol = Tolerance::for_instance(inst.n());

        // Schedule non-clairvoyantly, then normalize.
        let run = wdeq_run(&inst).expect("wdeq");
        run.schedule.validate(&inst).expect("wdeq schedule valid");
        let completions = run.schedule.completion_times().to_vec();

        let wf = water_filling(&inst, &completions).expect("Theorem 8: feasible");
        wf.validate(&inst).expect("normal form valid");

        // Lemma 5 / strict counts.
        assert!(lemma5_changes(&wf, &inst, tol) <= inst.n());
        assert!(allocation_changes(&wf, inst.n(), tol) <= 2 * inst.n());

        // Integer water-filling + stable assignment (Theorem 10).
        let step = water_filling_integer(&inst, &completions).expect("integer WF");
        step.validate(&inst).expect("integer schedule valid");
        let gantt = assign_processors_stable(&step, tol).expect("fits machine");
        gantt.validate(tol).expect("gantt valid");
        assert!(
            gantt.preemption_count(inst.n(), tol) <= 3 * inst.n(),
            "Theorem 10 violated"
        );

        // Integer completion times never exceed the fractional ones.
        for (a, b) in step.completion_times().iter().zip(&completions) {
            assert!(*a <= b + 1e-6);
        }
    }
}

#[test]
fn theorem3_roundtrip_preserves_validity_and_cost_direction() {
    for seed in seed_batch(21, 10) {
        let inst = generate(&Spec::IntegerUniform { n: 12, p: 6 }, seed);
        let tol = Tolerance::for_instance(inst.n());
        let cs = wdeq_schedule(&inst);

        // Fractional → integer Gantt (Figure 2) → step → columns again.
        let gantt = column_to_gantt(&cs, &inst, tol).expect("integer instance");
        gantt.validate(tol).expect("gantt valid");
        let step = malleable::core::schedule::convert::gantt_to_step(&gantt, inst.p, inst.n(), tol);
        step.validate(&inst).expect("step valid");
        let back = step_to_column(&step);
        back.validate(&inst).expect("roundtrip valid");

        // Completion times can only improve through the conversion.
        let before = cs.weighted_completion_cost(&inst);
        let after = back.weighted_completion_cost(&inst);
        assert!(
            after <= before + 1e-6 * (1.0 + before),
            "conversion worsened cost: {after} > {before}"
        );
    }
}

#[test]
fn wdeq_certificate_bounds_cost_on_every_workload_family() {
    let specs = [
        Spec::PaperUniform { n: 30 },
        Spec::ConstantWeight { n: 30 },
        Spec::ConstantWeightVolume { n: 30 },
        Spec::HomogeneousHalfCap { n: 30 },
        Spec::Theorem11 { n: 30, p: 6.0 },
        Spec::IntegerUniform { n: 30, p: 8 },
        Spec::ZipfWeights {
            n: 30,
            p: 8.0,
            s: 1.5,
        },
        Spec::BimodalVolumes {
            n: 30,
            p: 8.0,
            heavy_fraction: 0.1,
        },
        Spec::Stairs { n: 16, p: 1024.0 },
        Spec::BandwidthFleet {
            n: 30,
            server_bandwidth: 200.0,
        },
    ];
    for spec in specs {
        for seed in seed_batch(3, 5) {
            let inst = generate(&spec, seed);
            let cert = wdeq_certificate(&inst);
            assert!(
                cert.ratio() <= 2.0 + 1e-6,
                "{}: certified ratio {} > 2",
                spec.label(),
                cert.ratio()
            );
        }
    }
}

#[test]
fn makespan_schedule_is_the_feasibility_frontier() {
    for seed in seed_batch(11, 10) {
        let inst = generate(&Spec::PaperUniform { n: 25 }, seed);
        let c = optimal_makespan(&inst);
        let feasible = malleable::core::algos::waterfill::wf_feasible(&inst, &vec![c; inst.n()]);
        let below = malleable::core::algos::waterfill::wf_feasible(
            &inst,
            &vec![c * (1.0 - 1e-3); inst.n()],
        );
        assert!(feasible && !below, "C* must be the exact frontier");
    }
}

#[test]
fn lmax_never_beats_individual_height_bound() {
    for seed in seed_batch(13, 5) {
        let inst = generate(&Spec::PaperUniform { n: 10 }, seed);
        let due = vec![0.5; inst.n()];
        let lateness = Objective::Lateness { due: &due };
        let (l, cs) = frontier(&inst, lateness, &mut ProbeSession::new()).expect("lmax");
        cs.validate(&inst).expect("valid");
        let hmax = inst
            .tasks
            .iter()
            .map(|t| t.volume / t.delta.min(inst.p) - 0.5)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(l >= hmax - 1e-6, "Lmax {l} below height bound {hmax}");
    }
}
