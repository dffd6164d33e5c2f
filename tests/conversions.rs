//! Property-based tests for the Theorem-3 conversions and schedule
//! validity, driven by random instances.

use malleable::core::schedule::column::Column;
use malleable::core::schedule::convert::{
    assign_processors_stable, column_to_gantt, gantt_to_step, step_to_column,
};
use malleable::core::schedule::gantt::GanttSegment;
use malleable::prelude::*;
use proptest::prelude::*;

/// Random integer instance as a proptest strategy.
fn integer_instance_strategy() -> impl Strategy<Value = Instance> {
    (2usize..=10, 2u32..=8).prop_flat_map(|(n, p)| {
        proptest::collection::vec(
            (0.1f64..4.0, 0.1f64..2.0, 1u32..=8).prop_map(move |(v, w, d)| (v, w, d.min(p) as f64)),
            n..=n,
        )
        .prop_map(move |tasks| {
            Instance::builder(p as f64)
                .tasks(tasks)
                .build()
                .expect("valid")
        })
    })
}

/// The averaging direction as a direct transcription: every task's every
/// segment clipped against every column, with exact comparisons.
/// `step_to_column` must match it bit for bit.
fn step_to_column_reference(ss: &StepSchedule) -> ColumnSchedule {
    let completions = ss.completion_times();
    let mut bounds: Vec<f64> = completions.iter().filter(|c| **c > 0.0).cloned().collect();
    bounds.sort_by(f64::total_cmp);
    bounds.dedup();
    let mut columns = Vec::new();
    let mut prev = 0.0;
    for &b in &bounds {
        let l = b - prev;
        let mut rates = Vec::new();
        for (i, segs) in ss.allocs.iter().enumerate() {
            let mut area = 0.0;
            for s in segs {
                let (lo, hi) = (s.start.max_of(prev), s.end.min_of(b));
                if hi > lo {
                    area += s.procs * (hi - lo);
                }
            }
            if area > 0.0 {
                rates.push((TaskId(i), area / l));
            }
        }
        columns.push(Column {
            start: prev,
            end: b,
            rates,
        });
        prev = b;
    }
    ColumnSchedule {
        p: ss.p,
        completions,
        columns,
    }
}

/// The Lemma-6/10 stable assignment as a direct transcription: every
/// task's count re-read with `rate_at` at every event. The cursor-based
/// `assign_processors_stable` must match it bit for bit.
fn assign_processors_stable_reference(ss: &StepSchedule, tol: Tolerance) -> Gantt {
    let n_procs = ss.p.round() as usize;
    let n = ss.n();
    let events = ss.event_times(tol);
    let mut gantt = Gantt::empty(n_procs);
    let mut owned: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut free: Vec<usize> = (0..n_procs).rev().collect();
    let mut lane_open: Vec<Option<(TaskId, f64)>> = vec![None; n_procs];
    for w in events.windows(2) {
        let (t0, t1) = (w[0], w[1]);
        if t1 - t0 <= tol.abs {
            continue;
        }
        let mid = 0.5 * (t0 + t1);
        let required: Vec<usize> = (0..n)
            .map(|i| ss.rate_at(TaskId(i), mid).round() as usize)
            .collect();
        for i in 0..n {
            while owned[i].len() > required[i] {
                let p = owned[i].pop().unwrap();
                if let Some((task, since)) = lane_open[p].take() {
                    gantt.lanes[p].push(GanttSegment {
                        start: since,
                        end: t0,
                        task,
                    });
                }
                free.push(p);
            }
        }
        free.sort_unstable_by(|a, b| b.cmp(a));
        for i in 0..n {
            while owned[i].len() < required[i] {
                let p = free.pop().expect("fits");
                owned[i].push(p);
                lane_open[p] = Some((TaskId(i), t0));
            }
        }
    }
    let end = events.last().copied().unwrap_or(0.0);
    for (p, open) in lane_open.iter_mut().enumerate() {
        if let Some((task, since)) = open.take() {
            gantt.lanes[p].push(GanttSegment {
                start: since,
                end,
                task,
            });
        }
    }
    gantt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn averaging_direction_is_bit_identical_to_the_reference(
        inst in integer_instance_strategy()
    ) {
        let tol = Tolerance::for_instance(inst.n());
        let greedy = greedy_schedule(&inst, &smith_order(&inst)).expect("greedy");
        let wrapped = column_to_step(&wdeq_schedule(&inst), &inst, tol).expect("integer instance");
        for step in [greedy, wrapped] {
            // `{:?}` prints every f64 losslessly, so equal strings are equal bits.
            prop_assert_eq!(
                format!("{:?}", step_to_column(&step)),
                format!("{:?}", step_to_column_reference(&step))
            );
        }
    }

    #[test]
    fn stable_assignment_is_bit_identical_to_the_reference(
        inst in integer_instance_strategy()
    ) {
        use malleable::core::algos::waterfill_int::water_filling_integer;
        let tol = Tolerance::for_instance(inst.n());
        let cs = wdeq_schedule(&inst);
        let int_wf = water_filling_integer(&inst, cs.completion_times()).expect("int WF");
        let wrapped = column_to_step(&cs, &inst, tol).expect("integer instance");
        for step in [int_wf, wrapped] {
            prop_assert_eq!(
                format!("{:?}", assign_processors_stable(&step, tol).expect("fits")),
                format!("{:?}", assign_processors_stable_reference(&step, tol))
            );
        }
    }

    #[test]
    fn wdeq_schedules_always_validate(inst in integer_instance_strategy()) {
        let s = wdeq_schedule(&inst);
        prop_assert!(s.validate(&inst).is_ok());
    }

    #[test]
    fn water_filling_reconstructs_any_wdeq_schedule(inst in integer_instance_strategy()) {
        let s = wdeq_schedule(&inst);
        let wf = water_filling(&inst, s.completion_times());
        prop_assert!(wf.is_ok());
        let wf = wf.unwrap();
        prop_assert!(wf.validate(&inst).is_ok());
        for (a, b) in wf.completion_times().iter().zip(s.completion_times()) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn figure2_wrap_preserves_volume_and_respects_integrality(
        inst in integer_instance_strategy()
    ) {
        let tol = Tolerance::for_instance(inst.n());
        let cs = wdeq_schedule(&inst);
        let gantt = column_to_gantt(&cs, &inst, tol).expect("integer instance");
        prop_assert!(gantt.validate(tol).is_ok());
        let step = gantt_to_step(&gantt, inst.p, inst.n(), tol);
        prop_assert!(step.validate(&inst).is_ok());
        for segs in &step.allocs {
            for s in segs {
                prop_assert!((s.procs - s.procs.round()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn averaging_direction_keeps_costs(inst in integer_instance_strategy()) {
        let order = smith_order(&inst);
        let step = greedy_schedule(&inst, &order).expect("greedy");
        let cs = step_to_column(&step);
        prop_assert!(cs.validate(&inst).is_ok());
        let a = step.weighted_completion_cost(&inst);
        let b = cs.weighted_completion_cost(&inst);
        prop_assert!((a - b).abs() <= 1e-6 * (1.0 + a.abs()));
    }

    #[test]
    fn stable_assignment_preemptions_equal_resource_changes(
        inst in integer_instance_strategy()
    ) {
        use malleable::core::algos::waterfill_int::water_filling_integer;
        let tol = Tolerance::for_instance(inst.n());
        let cs = wdeq_schedule(&inst);
        let step = water_filling_integer(&inst, cs.completion_times()).expect("int WF");
        let gantt = assign_processors_stable(&step, tol).expect("fits");
        // Lemma 10: preemptions == resource changes for the stable rule.
        let changes = step.resource_changes(tol);
        let preemptions = gantt.preemption_count(inst.n(), tol);
        prop_assert_eq!(preemptions, changes);
    }

    #[test]
    fn greedy_valid_for_arbitrary_orders(
        inst in integer_instance_strategy(),
        seed in 0u64..1000
    ) {
        // Derive a pseudo-random order from the seed.
        let n = inst.n();
        let mut order: Vec<TaskId> = (0..n).map(TaskId).collect();
        let mut s = seed;
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let sched = greedy_schedule(&inst, &order).expect("greedy");
        prop_assert!(sched.validate(&inst).is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn bounds_are_below_wdeq_cost(inst in integer_instance_strategy()) {
        // A(I), H(I) ≤ OPT ≤ WDEQ cost.
        let cost = wdeq_schedule(&inst).weighted_completion_cost(&inst);
        prop_assert!(squashed_area_bound(&inst) <= cost + 1e-6);
        prop_assert!(height_bound(&inst) <= cost + 1e-6);
    }

    #[test]
    fn infeasible_completions_rejected_feasible_accepted(
        inst in integer_instance_strategy(),
        shrink in 0.2f64..0.95
    ) {
        use malleable::core::algos::waterfill::wf_feasible;
        let c = optimal_makespan(&inst);
        // Common deadline below the optimal makespan is always infeasible.
        prop_assert!(!wf_feasible(&inst, &vec![c * shrink; inst.n()]));
        prop_assert!(wf_feasible(&inst, &vec![c * 1.001; inst.n()]));
    }
}
