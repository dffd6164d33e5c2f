//! Restricted-assignment subsystem properties.
//!
//! * **Exactness**: at small `n` the flow-based makespan optimum must
//!   equal the brute-force polymatroid bound `max_A V(A) / g(A)` where
//!   `g(A) = min_{B ⊆ A} (|N(B)| + Σ_{i ∈ A∖B} δᵢ)` is the effective
//!   rank of the rate polytope (eligibility rank `|N(B)|` intersected
//!   with the per-task caps) — computed by exhaustive subset/submask
//!   enumeration at `Rational`, compared with zero tolerance.
//! * **Rejection**: infeasible eligibility (empty sets, out-of-range
//!   machine indices, misaligned list counts) is a pointed
//!   [`ScheduleError`], never a silently wrong schedule.

use malleable::core::algos::parametric::feasible_with_releases;
use malleable::core::machine::MachineModel;
use malleable::prelude::*;
use malleable::workloads::seed_batch;

fn q(v: f64) -> Rational {
    Rational::from_f64_exact(v)
}

/// `Cmax* = max_{∅ ≠ A} V(A) / g(A)` by exhaustive enumeration: a
/// constant-rate schedule `xᵢ = Vᵢ/C` exists iff every subset satisfies
/// `V(A) ≤ C · g(A)`, and any feasible schedule averages to such a rate
/// vector — so this is the exact optimum, not just a lower bound.
fn brute_force_cmax(inst: &Instance<Rational>) -> Rational {
    let (m, eligible) = inst
        .machine
        .restriction()
        .expect("brute force needs a restricted-assignment instance");
    let n = inst.n();
    assert!(n <= 16, "exhaustive enumeration is exponential in n");
    // Per-task eligibility as machine bitmasks.
    let masks: Vec<u32> = eligible
        .iter()
        .map(|set| set.iter().fold(0u32, |acc, &j| acc | (1 << j)))
        .collect();
    assert!(m <= 32);
    let mut best = Rational::from_int(0);
    for a in 1u32..(1 << n) {
        // g(A) = min over submasks B of |N(B)| + Σ_{i ∈ A∖B} δᵢ.
        let mut g: Option<Rational> = None;
        let mut b = a;
        loop {
            let mut nb = 0u32;
            let mut slack = Rational::from_int(0);
            for (i, mask) in masks.iter().enumerate() {
                if b & (1 << i) != 0 {
                    nb |= mask;
                } else if a & (1 << i) != 0 {
                    slack = slack + inst.tasks[i].delta.clone();
                }
            }
            let cand = Rational::from_int(nb.count_ones() as i64) + slack;
            g = Some(match g {
                Some(cur) => cur.min_of(cand),
                None => cand,
            });
            if b == 0 {
                break;
            }
            b = (b - 1) & a;
        }
        let g = g.unwrap();
        let volume: Rational = (0..n)
            .filter(|i| a & (1 << i) != 0)
            .map(|i| inst.tasks[i].volume.clone())
            .fold(Rational::from_int(0), |acc, v| acc + v);
        best = best.max_of(volume / g);
    }
    best
}

#[test]
fn flow_makespan_matches_the_brute_force_polymatroid_optimum() {
    // Hand-picked shapes: a bottleneck machine shared by two tasks (the
    // neighborhood term binds), a fractional δ (the slack term binds),
    // and a near-complete instance (the whole-set term binds).
    type Fixture = (usize, Vec<Vec<usize>>, Vec<(f64, f64, f64)>);
    let fixtures: Vec<Fixture> = vec![
        (
            3,
            vec![vec![0], vec![0], vec![1, 2]],
            vec![(2.0, 1.0, 1.0), (2.0, 1.0, 1.0), (3.0, 1.0, 2.0)],
        ),
        (
            2,
            vec![vec![0, 1], vec![1]],
            vec![(3.0, 1.0, 1.5), (1.0, 2.0, 1.0)],
        ),
        (
            3,
            vec![vec![0, 1], vec![1, 2], vec![0, 2], vec![0, 1, 2]],
            vec![
                (2.0, 1.0, 2.0),
                (1.0, 1.0, 1.0),
                (4.0, 2.0, 2.0),
                (0.5, 1.0, 3.0),
            ],
        ),
    ];
    let eps = Rational::new(1, 1 << 20);
    let check = |inst: &Instance<Rational>, what: &str| {
        let releases = vec![Rational::from_int(0); inst.n()];
        let makespan = Objective::Makespan {
            releases: &releases,
        };
        let (c, schedule) = frontier(inst, makespan, &mut ProbeSession::new())
            .unwrap_or_else(|e| panic!("{what}: flow solver failed: {e}"));
        // The witness is a column schedule valid at zero tolerance whose
        // latest completion is the optimum itself.
        schedule
            .validate_with(inst, Tolerance::<Rational>::exact())
            .unwrap();
        assert_eq!(schedule.makespan(), c, "{what}: witness ends at C*");
        let brute = brute_force_cmax(inst);
        assert_eq!(c, brute, "{what}: flow vs brute-force optimum");
        // Exactly tight: ε below the optimum is infeasible, the optimum
        // itself feasible.
        assert!(
            !feasible_with_releases(inst, &releases, c.clone() - eps.clone()).unwrap(),
            "{what}: ε below C* must be infeasible"
        );
        assert!(feasible_with_releases(inst, &releases, c).unwrap());
    };
    for (m, eligible, tasks) in fixtures {
        let inst = Instance::<Rational>::builder(Rational::from_int(0))
            .tasks(tasks.iter().map(|&(v, w, d)| (q(v), q(w), q(d))))
            .restricted(m, eligible)
            .build()
            .unwrap();
        check(&inst, "fixture");
    }
    // Generated instances, n ≤ 6 and m = 3, lifted exactly to Rational.
    let spec = Spec::RestrictedAssignment {
        n: 5,
        machines: 3,
        min_eligible: 1,
    };
    for seed in seed_batch(0xBF, 4) {
        let exact: Instance<Rational> = generate(&spec, seed).to_scalar();
        check(&exact, &format!("{}/{seed}", spec.label()));
    }
}

#[test]
fn infeasible_eligibility_is_a_clear_schedule_error() {
    // An empty eligibility set: that task could never run.
    let err = MachineModel::<f64>::restricted(2, vec![vec![0], vec![]]).unwrap_err();
    assert!(
        err.to_string().contains("empty eligibility"),
        "unhelpful error: {err}"
    );
    // A machine index past the fleet.
    let err = MachineModel::<f64>::restricted(2, vec![vec![0], vec![3]]).unwrap_err();
    assert!(
        err.to_string().contains("out of range"),
        "unhelpful error: {err}"
    );
    // Eligibility lists misaligned with the task vector: caught at
    // instance build, naming both counts.
    let err = Instance::<f64>::builder(0.0)
        .tasks([(1.0, 1.0, 1.0), (2.0, 1.0, 1.0)])
        .restricted(2, vec![vec![0]])
        .build()
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("1 eligibility sets") && msg.contains("2 tasks"),
        "unhelpful error: {msg}"
    );
}
