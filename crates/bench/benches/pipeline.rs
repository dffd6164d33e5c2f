//! **B6** — end-to-end pipelines: what a scheduler deployment would run
//! per batch.
//!
//! * `online`: WDEQ simulation through the non-clairvoyant engine;
//! * `normalize+integerize`: completion times → integer water-filling →
//!   stable processor assignment → preemption count (the full Theorem-10
//!   pipeline);
//! * `bandwidth`: Figure-1 fleet evaluation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use malleable_core::algos::waterfill_int::water_filling_integer;
use malleable_core::algos::wdeq::wdeq_schedule;
use malleable_core::policy::rules::WdeqRule;
use malleable_core::schedule::convert::assign_processors_stable;
use malleable_sim::bandwidth::{BandwidthScenario, Worker};
use malleable_sim::engine::simulate;
use malleable_workloads::{generate, Spec};
use numkit::Tolerance;
use std::hint::black_box;

fn bench_online_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline/online-wdeq");
    g.sample_size(20);
    for n in [16usize, 64, 256] {
        let inst = generate(&Spec::PaperUniform { n }, 11);
        g.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| black_box(simulate(inst, &WdeqRule).unwrap().schedule.makespan()))
        });
    }
    g.finish();
}

fn bench_theorem10_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline/integerize");
    g.sample_size(20);
    for n in [16usize, 64, 256] {
        let inst = generate(&Spec::IntegerUniform { n, p: 16 }, 11);
        let completions = wdeq_schedule(&inst).completions;
        let tol = Tolerance::for_instance(n);
        g.bench_with_input(
            BenchmarkId::from_parameter(n),
            &(&inst, &completions),
            |b, (inst, cs)| {
                b.iter(|| {
                    let step = water_filling_integer(inst, cs).unwrap();
                    let gantt = assign_processors_stable(&step, tol).unwrap();
                    black_box(gantt.preemption_count(inst.n(), tol))
                })
            },
        );
    }
    g.finish();
}

fn bench_bandwidth(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline/bandwidth");
    g.sample_size(20);
    for n in [16usize, 64] {
        let inst = generate(
            &Spec::BandwidthFleet {
                n,
                server_bandwidth: 100.0,
            },
            5,
        );
        let sc = BandwidthScenario {
            server_bandwidth: inst.p,
            workers: inst
                .tasks
                .iter()
                .map(|t| Worker {
                    code_size: t.volume,
                    processing_rate: t.weight,
                    link_capacity: t.delta,
                })
                .collect(),
        };
        g.bench_with_input(BenchmarkId::from_parameter(n), &sc, |b, sc| {
            b.iter(|| black_box(sc.run_policy(&WdeqRule, 1e4).unwrap().throughput))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_online_engine,
    bench_theorem10_pipeline,
    bench_bandwidth
);
criterion_main!(benches);
