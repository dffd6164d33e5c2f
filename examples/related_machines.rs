//! Related-machines quickstart: heterogeneous speed profiles end to end.
//!
//! ```sh
//! cargo run --example related_machines
//! ```
//!
//! Builds a small cluster with one fast and three slow machines, runs the
//! heterogeneous policy family on it, shows the exact `Lmax`/`Cmax`
//! solvers over the speed profile, and demonstrates the unit-speed
//! reduction back to the paper's identical-machine model.

use malleable::core::machine::MachineModel;
use malleable::core::policy;
use malleable::prelude::*;

fn main() {
    // A two-tier cluster: one speed-4 machine plus three unit-speed
    // machines (P = Σ speeds = 7). Tasks cap their parallelism in
    // *machine counts*: δ = 2 means "at most two machines at once", and
    // the fastest two deliver rate 4 + 1 = 5.
    let cluster = Instance::builder(0.0) // capacity derived from the speeds
        .task(8.0, 1.0, 2.0) // volume, weight, machine cap δ
        .task(4.0, 2.0, 4.0)
        .task(2.0, 4.0, 1.0)
        .speeds(vec![4.0, 1.0, 1.0, 1.0])
        .build()
        .expect("valid related instance");
    println!("{cluster}");
    println!(
        "rate caps: δ=1 → {}, δ=2 → {}, δ=4 → {}\n",
        cluster.machine.rate_cap(1.0),
        cluster.machine.rate_cap(2.0),
        cluster.machine.rate_cap(4.0),
    );

    // The related-capable policy family (the identical-machine rate-space
    // policies reject heterogeneous profiles — loudly, not wrongly).
    println!("policy                     Σ wᵢCᵢ      makespan");
    for name in policy::related_capable() {
        let p = policy::by_name::<f64>(name).expect("registered");
        let schedule = p.schedule(&cluster).expect("related-capable");
        schedule.validate(&cluster).expect("polymatroid-valid");
        println!(
            "{name:<26} {:>8.4}   {:>8.4}",
            schedule.weighted_completion_cost(&cluster),
            schedule.makespan()
        );
    }

    // Exact parametric solvers run unchanged over the speed profile.
    // One session carries the warm flow arena across both searches.
    let mut session = ProbeSession::new();
    let releases = vec![0.0; cluster.n()];
    let makespan = Objective::Makespan {
        releases: &releases,
    };
    let (cmax, _) = frontier(&cluster, makespan, &mut session).expect("flow Cmax");
    let due: Vec<f64> = cluster.tasks.iter().map(|t| t.volume / t.weight).collect();
    let lateness = Objective::FlowLateness { due: &due };
    let (lmax, _) = frontier(&cluster, lateness, &mut session).expect("flow Lmax");
    println!("\nexact Cmax over the profile: {cmax:.6}");
    println!("exact min-Lmax (Smith dues): {lmax:.6}");

    // Unit speeds reduce to the paper's identical machines, bit-exactly:
    // the same tasks on `Related {{ speeds: [1; 4] }}` and on
    // `Identical {{ m: 4 }}` produce identical schedules for every
    // registry policy.
    let tasks = [(8.0, 1.0, 2.0), (4.0, 2.0, 4.0), (2.0, 4.0, 1.0)];
    let identical = Instance::builder(4.0).tasks(tasks).build().unwrap();
    let unit_related = Instance::builder(0.0)
        .tasks(tasks)
        .machine(MachineModel::related(vec![1.0; 4]).unwrap())
        .build()
        .unwrap();
    let a = wdeq_schedule(&identical).weighted_completion_cost(&identical);
    let b = policy::by_name::<f64>("wdeq")
        .unwrap()
        .schedule(&unit_related)
        .unwrap()
        .weighted_completion_cost(&unit_related);
    assert_eq!(a, b, "unit-speed related must reduce bit-exactly");
    println!("\nunit-speed reduction: wdeq cost {a} on both machine models ✓");
}
