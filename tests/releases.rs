//! Release-date makespan (Table I row `P|var;δᵢ,rᵢ|Cmax`) cross-checked
//! against the zero-release water-filling solvers.

use malleable::core::algos::parametric::{
    feasible_with_releases, frontier, Objective, ProbeSession,
};
use malleable::core::machine::MachineModel;
use malleable::prelude::*;
use malleable::workloads::seed_batch;
use proptest::prelude::*;

/// The exact release-date `Cmax` and its witness.
fn cmax<S: Scalar>(inst: &Instance<S>, releases: &[S]) -> (S, ColumnSchedule<S>) {
    let makespan = Objective::Makespan { releases };
    frontier(inst, makespan, &mut ProbeSession::new()).expect("solvable")
}

#[test]
fn zero_releases_reduce_to_plain_makespan() {
    for seed in seed_batch(71, 10) {
        let inst = generate(&Spec::PaperUniform { n: 12 }, seed);
        let zero = vec![0.0; inst.n()];
        let (c, schedule) = cmax(&inst, &zero);
        let plain = optimal_makespan(&inst);
        assert!(
            (c - plain).abs() <= 1e-5 * (1.0 + plain),
            "flow-based {c} vs closed-form {plain}"
        );
        schedule.validate(&inst).expect("witness valid");
    }
}

#[test]
fn releases_only_delay_the_makespan() {
    for seed in seed_batch(73, 10) {
        let inst = generate(&Spec::PaperUniform { n: 10 }, seed);
        let zero = vec![0.0; inst.n()];
        let base = cmax(&inst, &zero).0;
        let staggered: Vec<f64> = (0..inst.n()).map(|i| i as f64 * 0.05).collect();
        let delayed = cmax(&inst, &staggered).0;
        assert!(delayed >= base - 1e-9, "releases cannot shorten Cmax");
    }
}

#[test]
fn witness_respects_release_dates() {
    for seed in seed_batch(79, 10) {
        let inst = generate(&Spec::IntegerUniform { n: 8, p: 4 }, seed);
        let releases: Vec<f64> = (0..inst.n()).map(|i| (i % 3) as f64).collect();
        let (_, schedule) = cmax(&inst, &releases);
        schedule.validate(&inst).expect("witness valid");
        for col in &schedule.columns {
            for (id, _) in &col.rates {
                assert!(col.start >= releases[id.0] - 1e-9);
            }
        }
    }
}

#[test]
fn exact_witness_is_a_column_schedule_finishing_at_cmax_on_every_capacity_model() {
    // The witness is read straight off the accepted flow, so at Rational
    // it validates with zero slack, and its latest completion is the
    // optimum itself: were every task done earlier, that earlier common
    // deadline would be feasible, contradicting minimality.
    let tasks = [
        (6.0, 1.0, 2.0),
        (2.0, 1.0, 3.0),
        (5.0, 2.0, 1.0),
        (1.0, 1.0, 1.0),
        (3.0, 1.0, 2.0),
    ];
    let models = [
        MachineModel::identical(3.0),
        MachineModel::related(vec![4.0, 2.0, 1.0]).unwrap(),
        MachineModel::submodular(vec![3.0, 4.5, 5.0]).unwrap(),
        MachineModel::restricted(
            3,
            vec![vec![0, 1], vec![1, 2], vec![2], vec![0, 1, 2], vec![0]],
        )
        .unwrap(),
    ];
    for model in models {
        let label = format!("{model:?}");
        let inst = Instance::builder(0.0)
            .tasks(tasks)
            .machine(model)
            .build()
            .unwrap();
        let exact: Instance<Rational> = inst.to_scalar();
        for stagger in [0, 1, 3] {
            let releases: Vec<Rational> = (0..exact.n())
                .map(|i| Rational::new((i as i64 * stagger) % 5, 2))
                .collect();
            let (c, schedule) = cmax(&exact, &releases);
            schedule
                .validate_with(&exact, Tolerance::<Rational>::exact())
                .unwrap_or_else(|e| panic!("{label} stagger {stagger}: {e}"));
            assert_eq!(schedule.makespan(), c, "{label} stagger {stagger}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn optimal_cmax_is_the_feasibility_frontier(
        seed in 0u64..500,
        stagger in 0.0f64..1.0
    ) {
        let inst = generate(&Spec::PaperUniform { n: 6 }, seed);
        let releases: Vec<f64> = (0..inst.n()).map(|i| i as f64 * stagger * 0.2).collect();
        let (c, _) = cmax(&inst, &releases);
        prop_assert!(feasible_with_releases(&inst, &releases, c * 1.001).unwrap());
        // Below the optimum must be infeasible — except in the degenerate
        // case where the optimum equals a single task's hard lower bound
        // rᵢ + hᵢ exactly (then shrinking by 2% probes only that task).
        let below_infeasible = !feasible_with_releases(&inst, &releases, c * 0.98).unwrap();
        let task_bound = inst
            .tasks
            .iter()
            .zip(&releases)
            .map(|(t, &rel)| rel + t.volume / t.delta.min(inst.p))
            .fold(0.0f64, f64::max);
        let pinned_to_task_bound = c <= task_bound + 1e-6;
        prop_assert!(below_infeasible || pinned_to_task_bound);
    }
}
