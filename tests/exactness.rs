//! The f64/Rational agreement contract of the `Scalar` genericization.
//!
//! Every algorithm in `malleable-core` is one generic source instantiated
//! twice. These properties pin the contract down on random instances:
//!
//! * the `f64` and `Rational` instantiations agree (feasibility verdicts
//!   match; costs match within float tolerance);
//! * the exact path needs **no epsilon**: exact schedules satisfy their
//!   definitions under the zero tolerance, volumes are conserved with
//!   `==`, and the Lemma-2 certificate inequality holds exactly.

use bigratio::Rational;
use malleable::core::algos::parametric::{
    feasible_with_releases, frontier, Objective, ProbeSession, SolveMode,
};
use malleable::core::algos::related::flow_witness;
use malleable::core::algos::waterfill::wf_feasible;
use malleable::core::algos::wdeq::{certificate_of, wdeq_completions, wdeq_run};
use malleable::core::error::ScheduleError;
use malleable::core::policy::rules::run_rule;
use malleable::prelude::*;
use malleable::workloads::seed_batch;
use numkit::{Scalar, Tolerance};

/// Exactly lift a float instance into rationals (every finite `f64` is a
/// binary rational, so nothing is lost).
fn lift(inst: &Instance) -> Instance<Rational> {
    inst.to_scalar()
}

/// The transportation-flow verdict on completion times (Fotakis et al.):
/// an exact feasibility oracle that shares no code with Water-Filling.
/// An infeasible vector must be rejected as infeasible, not as malformed.
fn flow_feasible(inst: &Instance<Rational>, completions: &[Rational]) -> bool {
    match flow_witness(inst, None, completions, &mut ProbeSession::new()) {
        Ok(_) => true,
        Err(ScheduleError::InfeasibleCompletionTimes { .. }) => false,
        Err(e) => panic!("flow oracle rejected the input: {e}"),
    }
}

/// Scale a completion vector by a float factor, in both fields at once so
/// the two stay the *same* numbers.
fn scaled_completions(cs: &[f64], factor: f64) -> (Vec<f64>, Vec<Rational>) {
    let f: Vec<f64> = cs.iter().map(|c| c * factor).collect();
    let r: Vec<Rational> = f.iter().map(|&c| Rational::from_f64_exact(c)).collect();
    (f, r)
}

#[test]
fn water_filling_feasibility_agrees_between_f64_and_rational() {
    // Random instances; completion vectors swept from clearly infeasible
    // to clearly feasible. Away from the feasibility threshold the two
    // instantiations must agree outright; near it (the WDEQ completion
    // vector is exactly tight, so factors ≈ 1 sit on the boundary) a float
    // flip is legitimate only if the exact verdict actually changes within
    // the float tolerance band — which is re-checked by nudging.
    for n in [2usize, 4, 7] {
        for seed in seed_batch(1000 + n as u64, 6) {
            let inst = generate(&Spec::PaperUniform { n }, seed);
            let exact = lift(&inst);
            let wdeq = wdeq_schedule(&inst);
            for factor in [0.5, 0.9, 0.99, 1.0, 1.01, 1.5] {
                let (cf, cr) = scaled_completions(wdeq.completion_times(), factor);
                let feasible_f = wf_feasible(&inst, &cf);
                let feasible_r = wf_feasible(&exact, &cr);
                let near_threshold = (0.99..=1.01).contains(&factor);
                if feasible_f != feasible_r {
                    assert!(
                        near_threshold,
                        "n={n} seed={seed} factor={factor}: f64 {feasible_f} vs \
                         exact {feasible_r} far from the feasibility threshold"
                    );
                    // Float may flip only at the threshold: nudging by the
                    // float tolerance must flip the exact verdict too.
                    let eps = 1e-6;
                    let (_, up) = scaled_completions(&cf, 1.0 + eps);
                    let (_, down) = scaled_completions(&cf, 1.0 - eps);
                    assert!(
                        wf_feasible(&exact, &up) != wf_feasible(&exact, &down),
                        "n={n} seed={seed} factor={factor}: f64 {feasible_f} vs \
                         exact {feasible_r} away from the feasibility threshold"
                    );
                }
                // The exact verdict is Theorem 8's: the transportation
                // flow agrees with it.
                assert_eq!(
                    flow_feasible(&exact, &cr),
                    feasible_r,
                    "n={n} seed={seed} factor={factor}: WF and flow verdicts differ"
                );
            }
        }
    }
}

#[test]
fn wdeq_cost_agrees_between_f64_and_rational() {
    for n in [2usize, 5, 8] {
        for seed in seed_batch(2000 + n as u64, 8) {
            let inst = generate(&Spec::PaperUniform { n }, seed);
            let exact = lift(&inst);
            let sf = wdeq_schedule(&inst);
            let sr = wdeq_schedule(&exact);
            let cost_f = sf.weighted_completion_cost(&inst);
            let cost_r = sr.weighted_completion_cost(&exact).approx_f64();
            assert!(
                (cost_f - cost_r).abs() <= 1e-6 * (1.0 + cost_f.abs()),
                "n={n} seed={seed}: f64 cost {cost_f} vs exact {cost_r}"
            );
            // Completion times agree pointwise, too.
            for (a, b) in sf.completions.iter().zip(&sr.completions) {
                assert!(
                    (a - b.approx_f64()).abs() <= 1e-6 * (1.0 + a.abs()),
                    "n={n} seed={seed}: completions {a} vs {}",
                    b.approx_f64()
                );
            }
        }
    }
}

#[test]
fn exact_path_needs_no_epsilon() {
    // The heart of the refactor: on the Rational instantiation, schedule
    // invariants hold under the ZERO tolerance — there is no epsilon left
    // to tune.
    for n in [2usize, 4, 6] {
        for seed in seed_batch(3000 + n as u64, 6) {
            let inst = generate(&Spec::PaperUniform { n }, seed);
            let exact = lift(&inst);
            let zero = Tolerance::<Rational>::exact();
            assert!(zero.is_exact());

            // WDEQ: exact validation, exact volume split, exact Lemma 2.
            let run = wdeq_run(&exact).unwrap();
            run.schedule.validate_with(&exact, zero.clone()).unwrap();
            for (i, t) in exact.tasks.iter().enumerate() {
                assert_eq!(
                    run.full_volumes[i].clone() + run.limited_volumes[i].clone(),
                    t.volume,
                    "volume split must be exact"
                );
            }
            let cert = certificate_of(&exact, &run);
            assert!(
                cert.wdeq_cost <= Rational::from_int(2) * cert.value(),
                "Lemma-2 certificate must hold with zero slack"
            );

            // Water-Filling on WDEQ's completion times: exact normal form.
            let wf = water_filling(&exact, run.schedule.completion_times()).unwrap();
            wf.validate_with(&exact, zero.clone()).unwrap();
            for (id, t) in exact.iter() {
                assert_eq!(
                    wf.allocated_area(id),
                    t.volume,
                    "WF conserves volume exactly"
                );
            }

            // Greedy in Smith order: exact step schedule.
            let gs = greedy_schedule(&exact, &smith_order(&exact)).unwrap();
            gs.validate_with(&exact, zero.clone()).unwrap();
        }
    }
}

#[test]
fn parametric_lmax_agrees_between_f64_and_rational_and_is_optimal() {
    // The parametric min-Lmax contract: the f64 and Rational
    // instantiations agree to float precision, the exact witness
    // validates under the ZERO tolerance, and the exact optimum carries
    // an optimality certificate — shrinking L by any ε flips the exact
    // feasibility verdict.
    for n in [2usize, 5, 8] {
        for seed in seed_batch(5000 + n as u64, 6) {
            let inst = generate(&Spec::PaperUniform { n }, seed);
            let exact = lift(&inst);
            // Heterogeneous due dates derived deterministically from the
            // instance (a fraction of each task's height, staggered).
            let due_f: Vec<f64> = inst
                .tasks
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let h = t.volume / t.delta.min(inst.p);
                    h * (0.2 + (i % 4) as f64 * 0.4)
                })
                .collect();
            let due_r: Vec<Rational> = due_f.iter().map(|&d| Rational::from_f64_exact(d)).collect();

            let lateness = Objective::Lateness { due: &due_f };
            let (lf, csf) = frontier(&inst, lateness, &mut ProbeSession::new()).unwrap();
            csf.validate(&inst).unwrap();
            let lateness = Objective::Lateness { due: &due_r };
            let (lr, csr) = frontier(&exact, lateness, &mut ProbeSession::new()).unwrap();
            csr.validate_with(&exact, Tolerance::<Rational>::exact())
                .unwrap();
            let lr_f = lr.approx_f64();
            assert!(
                (lf - lr_f).abs() <= 1e-6 * (1.0 + lf.abs()),
                "n={n} seed={seed}: f64 Lmax {lf} vs exact {lr_f}"
            );

            // Optimality certificate at zero tolerance: deadlines at
            // L* − ε are infeasible, exactly. (ε is kept below every
            // deadline so the probe stays a valid completion vector.)
            let deadlines: Vec<Rational> = due_r.iter().map(|d| d.clone() + lr.clone()).collect();
            let min_deadline = deadlines.iter().cloned().reduce(Scalar::min_of).unwrap();
            let eps = Rational::new(1, 1_000_000).min_of(min_deadline / Rational::from_int(2));
            assert!(eps.is_positive(), "probe epsilon must stay positive");
            let probe: Vec<Rational> = deadlines.iter().map(|d| d.clone() - eps.clone()).collect();
            assert!(
                !wf_feasible(&exact, &probe),
                "n={n} seed={seed}: L* − ε must be exactly infeasible"
            );
        }
    }
}

#[test]
fn parametric_release_cmax_agrees_between_f64_and_rational_and_is_optimal() {
    for n in [2usize, 4, 7] {
        for seed in seed_batch(6000 + n as u64, 6) {
            let inst = generate(&Spec::PaperUniform { n }, seed);
            let exact = lift(&inst);
            let rel_f: Vec<f64> = (0..n).map(|i| (i % 3) as f64 * 0.7).collect();
            let rel_r: Vec<Rational> = rel_f.iter().map(|&r| Rational::from_f64_exact(r)).collect();

            let makespan = Objective::Makespan { releases: &rel_f };
            let (cf, csf) = frontier(&inst, makespan, &mut ProbeSession::new()).unwrap();
            csf.validate(&inst).unwrap();
            let makespan = Objective::Makespan { releases: &rel_r };
            let (cr_exact, csr) = frontier(&exact, makespan, &mut ProbeSession::new()).unwrap();
            csr.validate_with(&exact, Tolerance::<Rational>::exact())
                .unwrap();
            let cr = cr_exact.approx_f64();
            assert!(
                (cf - cr).abs() <= 1e-6 * (1.0 + cf.abs()),
                "n={n} seed={seed}: f64 Cmax {cf} vs exact {cr}"
            );
            // Exact optimality certificate: any earlier deadline is
            // infeasible, with zero slack.
            let eps = Rational::new(1, 1_000_000);
            let below = cr_exact.clone() - eps;
            assert!(
                !feasible_with_releases(&exact, &rel_r, below).unwrap(),
                "n={n} seed={seed}: Cmax − ε must be exactly infeasible"
            );
        }
    }
}

/// Instances the warm-start properties sweep: every capacity model —
/// identical machines, a heterogeneous related profile, restricted
/// assignment (gated transport topology), and a submodular rank table —
/// lifted exactly into rationals.
fn warm_start_instances(seed: u64) -> Vec<(&'static str, Instance<Rational>)> {
    let identical = generate(&Spec::PaperUniform { n: 6 }, seed);
    let related = generate(
        &Spec::PowerLawSpeeds {
            n: 6,
            machines: 4,
            alpha: 1.0,
        },
        seed,
    );
    let restricted = generate(
        &Spec::RestrictedAssignment {
            n: 6,
            machines: 4,
            min_eligible: 2,
        },
        seed,
    );
    let submodular = generate(&Spec::SubmodularCoverage { n: 6, machines: 4 }, seed);
    vec![
        ("identical", identical.to_scalar()),
        ("related", related.to_scalar()),
        ("restricted", restricted.to_scalar()),
        ("submodular", submodular.to_scalar()),
    ]
}

#[test]
fn warm_and_cold_flow_probes_agree_bit_exactly_at_rational() {
    // Drive a warm-starting and a cold-restarting session through the
    // same monotone-then-shrinking deadline sequence. At Rational with
    // zero tolerance, every max-flow value and every min-cut source side
    // must agree bit-exactly — the repaired residual is a different
    // maximum flow, but the minimal min cut is unique, so the extracted
    // violated sets cannot drift.
    for seed in seed_batch(7000, 4) {
        for (label, exact) in warm_start_instances(seed) {
            let n = exact.n();
            let base: Vec<Rational> = exact
                .iter()
                .map(|(id, t)| t.volume.clone() / exact.effective_delta(id))
                .collect();
            let mut warm = ProbeSession::<Rational>::with_mode(SolveMode::WarmStart);
            let mut cold = ProbeSession::<Rational>::with_mode(SolveMode::ColdRestart);
            for num in [1i64, 2, 3, 5, 2, 1] {
                let factor = Rational::new(num, 2);
                let deadlines: Vec<Rational> =
                    base.iter().map(|d| d.clone() * factor.clone()).collect();
                let vw = warm.solve(&exact, None, &deadlines);
                let vc = cold.solve(&exact, None, &deadlines);
                assert_eq!(
                    vw, vc,
                    "{label} seed={seed} ×{num}/2: warm flow value must equal cold"
                );
                assert_eq!(
                    warm.min_cut_tasks(n),
                    cold.min_cut_tasks(n),
                    "{label} seed={seed} ×{num}/2: min-cut source sides must agree"
                );
            }
            let t = warm.telemetry();
            assert!(
                t.warm_solves > 0,
                "{label} seed={seed}: the sequence must exercise the warm path \
                 ({t:?})"
            );
            assert_eq!(cold.telemetry().warm_solves, 0, "cold mode never warms");
        }
    }
}

#[test]
fn warm_and_cold_lmax_optima_agree_bit_exactly_at_rational() {
    // The end-to-end contract on both machine models: the warm-started
    // and cold-restarted parametric Lmax searches return the *same
    // rational* (not merely close), and both witnesses validate at zero
    // tolerance.
    for seed in seed_batch(7100, 4) {
        for (label, exact) in warm_start_instances(seed) {
            let due: Vec<Rational> = exact
                .iter()
                .enumerate()
                .map(|(i, (id, t))| {
                    let h = t.volume.clone() / exact.effective_delta(id);
                    h * Rational::new(1 + (i as i64 % 4) * 2, 5)
                })
                .collect();
            let mut warm = ProbeSession::with_mode(SolveMode::WarmStart);
            let mut cold = ProbeSession::with_mode(SolveMode::ColdRestart);
            let lateness = Objective::Lateness { due: &due };
            let (lw, csw) = frontier(&exact, lateness, &mut warm).unwrap();
            let (lc, csc) = frontier(&exact, lateness, &mut cold).unwrap();
            assert_eq!(lw, lc, "{label} seed={seed}: warm Lmax must equal cold");
            csw.validate_with(&exact, Tolerance::<Rational>::exact())
                .unwrap();
            csc.validate_with(&exact, Tolerance::<Rational>::exact())
                .unwrap();
            assert_eq!(
                warm.telemetry().probes,
                cold.telemetry().probes,
                "{label} seed={seed}: identical trajectories probe identically"
            );
        }
    }
}

#[test]
fn warm_and_cold_release_cmax_agree_bit_exactly_at_rational() {
    for seed in seed_batch(7200, 4) {
        for (label, exact) in warm_start_instances(seed) {
            let releases: Vec<Rational> = (0..exact.n())
                .map(|i| Rational::new(7 * (i as i64 % 3), 10))
                .collect();
            let mut warm = ProbeSession::with_mode(SolveMode::WarmStart);
            let mut cold = ProbeSession::with_mode(SolveMode::ColdRestart);
            let makespan = Objective::Makespan {
                releases: &releases,
            };
            let (cw, csw) = frontier(&exact, makespan, &mut warm).unwrap();
            let (cc, csc) = frontier(&exact, makespan, &mut cold).unwrap();
            assert_eq!(cw, cc, "{label} seed={seed}: warm Cmax must equal cold");
            csw.validate_with(&exact, Tolerance::<Rational>::exact())
                .unwrap();
            csc.validate_with(&exact, Tolerance::<Rational>::exact())
                .unwrap();
        }
    }
}

/// Assert the event-driven WDEQ lane reproduces the quadratic reference
/// — the per-event recompute loop `run_rule(&WdeqRule)` — **bit-for-bit**
/// at `Rational`: full schedule (column starts, ends, and per-task rates),
/// completion times, and the Lemma-2 volume split (`V − limited` is the
/// full-allocation side) — not just costs. The completions-only lane must
/// match the full run, too.
fn assert_wdeq_lanes_bit_equal(exact: &Instance<Rational>, ctx: &str) {
    let fast = wdeq_run(exact).unwrap_or_else(|e| panic!("{ctx}: fast lane {e}"));
    let slow = run_rule(exact, &WdeqRule).unwrap_or_else(|e| panic!("{ctx}: reference {e}"));
    assert_eq!(
        fast.schedule.completions, slow.schedule.completions,
        "{ctx}: completion times diverge"
    );
    let full: Vec<Rational> = exact
        .tasks
        .iter()
        .zip(&slow.limited)
        .map(|(t, l)| t.volume.clone() - l.clone())
        .collect();
    assert_eq!(
        fast.full_volumes, full,
        "{ctx}: saturated volume split diverges"
    );
    assert_eq!(
        fast.limited_volumes, slow.limited,
        "{ctx}: limited volume split diverges"
    );
    assert_eq!(
        fast.schedule.columns.len(),
        slow.schedule.columns.len(),
        "{ctx}: event counts diverge"
    );
    for (k, (a, b)) in fast
        .schedule
        .columns
        .iter()
        .zip(&slow.schedule.columns)
        .enumerate()
    {
        assert_eq!(a.start, b.start, "{ctx}: column {k} start");
        assert_eq!(a.end, b.end, "{ctx}: column {k} end");
        assert_eq!(a.rates, b.rates, "{ctx}: column {k} rates");
    }
    let lane = wdeq_completions(exact).unwrap();
    assert_eq!(lane.completions, fast.schedule.completions, "{ctx}: lanes");
    assert_eq!(lane.full_volumes, fast.full_volumes, "{ctx}: lane split");
    assert_eq!(lane.events, fast.schedule.columns.len(), "{ctx}: events");
}

#[test]
fn event_driven_wdeq_is_bit_exact_to_reference_at_rational() {
    // Random identical-machine and heavy-tailed (power-law volume)
    // instances: the event engine and the quadratic reference must be the
    // same function at Rational.
    for n in [2usize, 5, 9] {
        for seed in seed_batch(7000 + n as u64, 5) {
            for spec in [
                Spec::PaperUniform { n },
                Spec::PowerLawVolumes { n, alpha: 1.5 },
            ] {
                let exact = lift(&generate(&spec, seed));
                assert_wdeq_lanes_bit_equal(&exact, &format!("{} seed={seed}", spec.label()));
            }
        }
    }
}

#[test]
fn wdeq_duplicate_finish_times_stay_bit_exact() {
    let q = Rational::from_f64_exact;
    // Four clones: equal V/w keys, all limited, one event completes all of
    // them — the heap's id tie-break must walk the same order the
    // reference's rescan does.
    let clones = Instance::<Rational>::builder(q(1.0))
        .tasks((0..4).map(|_| (q(1.0), q(1.0), q(0.4))))
        .build()
        .unwrap();
    assert_wdeq_lanes_bit_equal(&clones, "four-clones");
    let run = wdeq_run(&clones).unwrap();
    assert!(
        run.schedule.completions.windows(2).all(|w| w[0] == w[1]),
        "clones must finish together"
    );

    // A saturated and a limited completion at the same instant, plus a
    // straggler: collisions across the two event queues.
    let collide = Instance::<Rational>::builder(q(3.0))
        .task(q(2.0), q(1.0), q(1.0))
        .task(q(4.0), q(2.0), q(3.0))
        .task(q(2.0), q(1.0), q(1.0))
        .task(q(6.0), q(1.0), q(2.0))
        .build()
        .unwrap();
    assert_wdeq_lanes_bit_equal(&collide, "cross-queue-collision");

    // Duplicate completion times feed Water-Filling tied columns: its
    // verdict matches the transportation flow on the tied WDEQ deadlines
    // and on a squeezed copy of them.
    for inst in [&clones, &collide] {
        let cs = wdeq_run(inst).unwrap().schedule.completions;
        let squeezed: Vec<Rational> = cs.iter().map(|c| c.clone() * q(0.875)).collect();
        assert!(wf_feasible(inst, &cs) && flow_feasible(inst, &cs));
        assert_eq!(
            wf_feasible(inst, &squeezed),
            flow_feasible(inst, &squeezed),
            "WF and flow verdicts diverge on tied deadlines"
        );
    }
}

#[test]
fn wdeq_zero_weight_rejected_identically_by_both_lanes() {
    let q = Rational::from_f64_exact;
    let inst = Instance::<Rational>::builder(q(1.0))
        .task(q(1.0), q(0.0), q(0.5))
        .task(q(1.0), q(1.0), q(0.5))
        .build()
        .unwrap();
    let fast = wdeq_run(&inst);
    let lane = wdeq_completions(&inst);
    // Both event-driven lanes refuse a weightless task (it would starve
    // forever under equipartition), with the same error.
    assert_eq!(format!("{:?}", fast), format!("{:?}", lane));
    assert!(fast.is_err(), "zero weight must be rejected");
}

#[test]
fn exact_instance_flows_construct_waterfill_validate_lp() {
    // The acceptance pipeline: construct → water_filling → validate →
    // lp_schedule_for_order, all on Instance<Rational>, no f64 round-trip.
    for seed in seed_batch(4000, 4) {
        let inst = generate(&Spec::PaperUniform { n: 3 }, seed);
        let exact = lift(&inst);
        let zero = Tolerance::<Rational>::exact();

        let wdeq = wdeq_schedule(&exact);
        let wf = water_filling(&exact, wdeq.completion_times()).unwrap();
        wf.validate_with(&exact, zero.clone()).unwrap();

        let (lp_cost, lp_sched) = lp_schedule_for_order(&exact, &wf.completion_order()).unwrap();
        lp_sched.validate_with(&exact, zero.clone()).unwrap();
        // The LP optimizes over all schedules with that completion order,
        // so it is ≤ WDEQ's cost — exactly.
        assert!(
            lp_cost <= wdeq.weighted_completion_cost(&exact),
            "seed {seed}: exact LP must not exceed the WDEQ cost"
        );
        // And it agrees with the float pipeline within tolerance.
        let wdeq_f = wdeq_schedule(&inst);
        let (lp_cost_f, _) = lp_schedule_for_order(&inst, &wdeq_f.completion_order()).unwrap();
        assert!(
            (lp_cost_f - lp_cost.approx_f64()).abs() <= 1e-6 * (1.0 + lp_cost_f.abs()),
            "seed {seed}: float LP {lp_cost_f} vs exact {}",
            lp_cost.approx_f64()
        );
    }
}
