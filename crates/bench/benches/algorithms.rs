//! **B1–B3** — scaling of the paper's three scheduling algorithms.
//!
//! * WDEQ (Algorithm 1): O(n² log n) total over all events;
//! * Water-Filling (Algorithm 2): one segment-tree pour per task,
//!   O(log² n) each — `feasible` is the pours alone (the paper's
//!   O(n log n) Lmax oracle), `normal-form` also emits every rate;
//! * Greedy (Algorithm 3): O(n²) profile maintenance.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use malleable_core::algos::greedy::greedy_schedule;
use malleable_core::algos::orders::smith_order;
use malleable_core::algos::parametric::{frontier, Objective, ProbeSession};
use malleable_core::algos::waterfill::{water_filling, wf_feasible};
use malleable_core::algos::wdeq::wdeq_run;
use malleable_core::instance::Instance;
use malleable_workloads::{generate, Spec};
use std::hint::black_box;

const SIZES: [usize; 4] = [16, 64, 256, 1024];

fn bench_wdeq(c: &mut Criterion) {
    let mut g = c.benchmark_group("wdeq");
    g.sample_size(20);
    for n in SIZES {
        let inst = generate(&Spec::PaperUniform { n }, 42);
        g.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| black_box(wdeq_run(black_box(inst)).unwrap().schedule.makespan()))
        });
    }
    g.finish();
}

fn bench_waterfill(c: &mut Criterion) {
    let mut g = c.benchmark_group("waterfill");
    g.sample_size(20);
    for n in SIZES {
        let inst = generate(&Spec::PaperUniform { n }, 42);
        let completions = wdeq_run(&inst).unwrap().schedule.completions;
        g.bench_with_input(
            BenchmarkId::new("normal-form", n),
            &(&inst, &completions),
            |b, (inst, cs)| b.iter(|| black_box(water_filling(inst, cs).unwrap().makespan())),
        );
        g.bench_with_input(
            BenchmarkId::new("feasible", n),
            &(&inst, &completions),
            |b, (inst, cs)| b.iter(|| black_box(wf_feasible(inst, cs))),
        );
    }
    g.finish();
}

fn bench_release_makespan(c: &mut Criterion) {
    let mut g = c.benchmark_group("releases/cmax");
    g.sample_size(20);
    for n in [8usize, 32, 128] {
        let inst = generate(&Spec::PaperUniform { n }, 42);
        let releases: Vec<f64> = (0..n).map(|i| (i % 7) as f64 * 0.1).collect();
        g.bench_with_input(
            BenchmarkId::from_parameter(n),
            &(&inst, &releases),
            |b, (inst, releases)| {
                b.iter(|| {
                    let makespan = Objective::Makespan { releases };
                    black_box(
                        frontier(inst, makespan, &mut ProbeSession::new())
                            .unwrap()
                            .0,
                    )
                })
            },
        );
    }
    g.finish();
}

fn bench_parametric_lmax(c: &mut Criterion) {
    // The parametric frontier search that replaced the 100-step
    // bisection: typical convergence is a handful of cut iterations, so
    // the solve should sit near a couple of feasibility probes' cost.
    let lmax = |inst: &Instance, due: &[f64]| {
        let lateness = Objective::Lateness { due };
        frontier(inst, lateness, &mut ProbeSession::new())
            .unwrap()
            .0
    };
    let mut g = c.benchmark_group("lmax/parametric");
    g.sample_size(20);
    for n in [8usize, 32, 128] {
        let inst = generate(&Spec::PaperUniform { n }, 42);
        let due: Vec<f64> = inst
            .tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (t.volume / t.delta.min(inst.p)) * (0.2 + (i % 4) as f64 * 0.4))
            .collect();
        g.bench_with_input(
            BenchmarkId::from_parameter(n),
            &(&inst, &due),
            |b, (inst, due)| b.iter(|| black_box(lmax(inst, due))),
        );
    }
    // Comparison points for the related-machines flow path: the same
    // search over a heterogeneous speed profile (per-level arcs, warm-
    // started flow arena), so the cost of the level generalization is
    // tracked next to the identical-machine solve.
    for n in [8usize, 32] {
        let inst = generate(
            &Spec::PowerLawSpeeds {
                n,
                machines: 8,
                alpha: 1.0,
            },
            42,
        );
        let due: Vec<f64> = inst
            .tasks
            .iter()
            .enumerate()
            .map(|(i, t)| {
                (t.volume / inst.machine.rate_cap(t.delta)) * (0.2 + (i % 4) as f64 * 0.4)
            })
            .collect();
        g.bench_with_input(
            BenchmarkId::new("related", n),
            &(&inst, &due),
            |b, (inst, due)| b.iter(|| black_box(lmax(inst, due))),
        );
    }
    g.finish();
}

fn bench_greedy(c: &mut Criterion) {
    let mut g = c.benchmark_group("greedy");
    g.sample_size(20);
    for n in SIZES {
        let inst = generate(&Spec::PaperUniform { n }, 42);
        let order = smith_order(&inst);
        g.bench_with_input(
            BenchmarkId::new("smith", n),
            &(&inst, &order),
            |b, (inst, order)| {
                b.iter(|| black_box(greedy_schedule(inst, order).unwrap().makespan()))
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_wdeq,
    bench_waterfill,
    bench_greedy,
    bench_release_makespan,
    bench_parametric_lmax
);
criterion_main!(benches);
