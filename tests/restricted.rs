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
//! * **Incremental rank oracle**: the persistent bipartite flow of
//!   [`RankOracle`] tracks the same brute-force rank under random
//!   add/remove sequences, clones are independent, and
//!   `realize_assign` equals the cold prefix-flow definition — all at
//!   `Rational`, compared with `==`.

use malleable::core::algos::flow::FlowNetwork;
use malleable::core::algos::parametric::feasible_with_releases;
use malleable::core::machine::{MachineModel, RankOracle};
use malleable::prelude::*;
use malleable::workloads::seed_batch;

fn q(v: f64) -> Rational {
    Rational::from_f64_exact(v)
}

/// The restricted rank of `(task, demand)` entries by exhaustive submask
/// enumeration: `min_{B ⊆ T} |N(B)| + Σ_{i ∈ T∖B} dᵢ` (every entry of
/// `B` is routed through its eligible machines, every other entry is
/// capped by its demand). `masks[i]` is task `i`'s eligibility bitmask.
fn brute_rank(masks: &[u32], entries: &[(usize, Rational)]) -> Rational {
    let k = entries.len();
    assert!(k <= 16, "exhaustive enumeration is exponential in |T|");
    let full = (1u32 << k) - 1;
    let mut best: Option<Rational> = None;
    let mut b = full;
    loop {
        let mut nb = 0u32;
        let mut slack = Rational::from_int(0);
        for (pos, (i, demand)) in entries.iter().enumerate() {
            if b & (1 << pos) != 0 {
                nb |= masks[*i];
            } else {
                slack = slack + demand.clone();
            }
        }
        let cand = Rational::from_int(nb.count_ones() as i64) + slack;
        best = Some(match best {
            Some(cur) => cur.min_of(cand),
            None => cand,
        });
        if b == 0 {
            break;
        }
        b = (b - 1) & full;
    }
    best.expect("the empty submask is always a candidate")
}

/// Per-task eligibility as machine bitmasks.
fn eligibility_masks(eligible: &[Vec<usize>]) -> Vec<u32> {
    eligible
        .iter()
        .map(|set| set.iter().fold(0u32, |acc, &j| acc | (1 << j)))
        .collect()
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
    let masks = eligibility_masks(eligible);
    assert!(m <= 32);
    let mut best = Rational::from_int(0);
    for a in 1u32..(1 << n) {
        // g(A) = min over submasks B of |N(B)| + Σ_{i ∈ A∖B} δᵢ.
        let members: Vec<(usize, Rational)> = (0..n)
            .filter(|i| a & (1 << i) != 0)
            .map(|i| (i, inst.tasks[i].delta.clone()))
            .collect();
        let g = brute_rank(&masks, &members);
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

/// Deterministic LCG for the randomized oracle tests.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as usize
    }

    /// A random restricted machine: `m ≤ 5` machines, `n ≤ 10` tasks with
    /// non-empty eligibility sets.
    fn machine(&mut self) -> MachineModel<Rational> {
        let m = 1 + self.below(5);
        let n = 1 + self.below(10);
        let eligible = (0..n)
            .map(|_| {
                let mask = 1 + self.below((1 << m) - 1);
                (0..m).filter(|k| mask & (1 << k) != 0).collect()
            })
            .collect();
        MachineModel::restricted(m, eligible).unwrap()
    }

    /// A demand on the quarter grid in `[0, 3]` (zero included: such an
    /// entry routes nothing).
    fn demand(&mut self) -> Rational {
        Rational::new(self.below(13) as i64, 4)
    }
}

#[test]
fn incremental_rank_oracle_tracks_the_brute_force_rank() {
    let mut rng = Lcg(0x5EED_0AC1E);
    for trial in 0..300 {
        let machine = rng.machine();
        let (_, eligible) = machine.restriction().unwrap();
        let masks = eligibility_masks(eligible);
        let n = eligible.len();
        let demands: Vec<Rational> = (0..n).map(|_| rng.demand()).collect();
        let entries_of = |active: &[usize]| -> Vec<(usize, Rational)> {
            active.iter().map(|&i| (i, demands[i].clone())).collect()
        };
        let mut oracle = RankOracle::for_machine(&machine);
        let mut active: Vec<usize> = Vec::new();
        for step in 0..3 * n {
            // Add an inactive task, or remove an active one.
            if !active.is_empty() && (active.len() == n || rng.below(3) == 0) {
                let i = active.swap_remove(rng.below(active.len()));
                oracle.sub_task(i, &demands[i]);
            } else {
                let inactive: Vec<usize> = (0..n).filter(|i| !active.contains(i)).collect();
                let i = inactive[rng.below(inactive.len())];
                oracle.add_task(i, &demands[i]);
                active.push(i);
            }
            let want = brute_rank(&masks, &entries_of(&active));
            assert_eq!(oracle.rate(), want, "trial {trial} step {step}: {active:?}");
            // A clone is an independent oracle: mutating it leaves the
            // original's network (checked again next step) untouched.
            if step % 2 == 0 {
                let mut copy = oracle.clone();
                let mut copy_active = active.clone();
                if let Some(&i) = copy_active.first() {
                    copy.sub_task(i, &demands[i]);
                    copy_active.remove(0);
                }
                if let Some(i) = (0..n).find(|i| !copy_active.contains(i)) {
                    copy.add_task(i, &demands[i]);
                    copy_active.push(i);
                }
                let copy_want = brute_rank(&masks, &entries_of(&copy_active));
                assert_eq!(copy.rate(), copy_want, "trial {trial} step {step}: clone");
                assert_eq!(
                    oracle.rate(),
                    want,
                    "trial {trial} step {step}: original moved"
                );
            }
        }
    }
}

/// The old definition of the restricted realization, kept here as the
/// reference: rate `k` is `F_k − F_{k−1}`, each `F_k` a cold max flow of
/// the first `k` entries (source cap = share, unit arcs to eligible
/// machines and to the sink).
fn reference_realize(
    machine: &MachineModel<Rational>,
    entries: &[(usize, Rational)],
) -> Vec<Rational> {
    if machine.unit_speeds() {
        return entries.iter().map(|(_, c)| c.clone()).collect();
    }
    let (m, eligible) = machine.restriction().unwrap();
    let cold_flow = |prefix: &[(usize, Rational)]| -> Rational {
        let n = prefix.len();
        let (s, t) = (n + m, n + m + 1);
        let mut g = FlowNetwork::new(n + m + 2, Rational::from_int(0));
        for (pos, (i, share)) in prefix.iter().enumerate() {
            if share.is_positive() {
                g.add_edge(s, pos, share.clone());
                for &k in &eligible[*i] {
                    g.add_edge(pos, n + k, Rational::from_int(1));
                }
            }
        }
        for k in 0..m {
            g.add_edge(n + k, t, Rational::from_int(1));
        }
        g.max_flow(s, t)
    };
    let mut prev = Rational::from_int(0);
    (1..=entries.len())
        .map(|k| {
            let flow = cold_flow(&entries[..k]);
            let rate = (flow.clone() - prev.clone()).max_of(Rational::from_int(0));
            prev = flow;
            rate
        })
        .collect()
}

#[test]
fn realize_assign_equals_the_cold_prefix_flow_definition() {
    let mut rng = Lcg(0xF10_55E7);
    for trial in 0..300 {
        let machine = rng.machine();
        let n = machine.restriction().unwrap().1.len();
        // A random priority order over a random subset, random shares.
        let mut tasks: Vec<usize> = (0..n).collect();
        for k in (1..n).rev() {
            tasks.swap(k, rng.below(k + 1));
        }
        tasks.truncate(1 + rng.below(n));
        let entries: Vec<(usize, Rational)> = tasks.iter().map(|&i| (i, rng.demand())).collect();
        let got = machine.realize_assign(&entries);
        assert_eq!(
            got,
            reference_realize(&machine, &entries),
            "trial {trial}: {entries:?}"
        );
        // Off the complete-eligibility shortcut (shares pass through
        // unchanged there), the realized vector routes exactly the rank
        // of the shares.
        if !machine.unit_speeds() {
            let total = got.iter().fold(Rational::from_int(0), |a, r| a + r.clone());
            assert_eq!(total, machine.restricted_rank(&entries), "trial {trial}");
        }
    }
}
