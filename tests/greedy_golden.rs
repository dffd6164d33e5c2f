//! Golden digests of the exact Greedy(σ) and integer Water-Filling
//! lanes.
//!
//! Every heuristic order's `StepSchedule`, its averaged `ColumnSchedule`
//! (`step_to_column`), the `best-greedy` policy answer and, on integral
//! instances, the Theorem-10 schedule over the WDEQ completions are
//! computed at `Rational` on 1/64-quantized fixtures and hashed through
//! their exact decimal text. A change to the availability staircase or
//! the averaging conversion that moves any exact breakpoint, rate or
//! segment split changes a digest.

use malleable::core::algos::orders::heuristic_orders;
use malleable::core::algos::waterfill_int::water_filling_integer;
use malleable::prelude::*;

/// FNV-1a over a sequence of text fragments.
#[derive(Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn text(&mut self, s: &str) {
        for b in s.bytes().chain([0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn step(&mut self, s: &StepSchedule<Rational>) {
        for (i, segs) in s.allocs.iter().enumerate() {
            self.text(&format!("task {i}"));
            for seg in segs {
                self.text(&format!("{} {} {}", seg.start, seg.end, seg.procs));
            }
        }
    }

    fn columns(&mut self, s: &ColumnSchedule<Rational>) {
        for c in s.completion_times() {
            self.text(&c.to_string());
        }
        for col in &s.columns {
            self.text(&format!("col {} {}", col.start, col.end));
            for (t, r) in &col.rates {
                self.text(&format!("{} {r}", t.0));
            }
        }
    }
}

/// Round onto the 1/64 grid (at least one grid step), so every value is
/// dyadic and the exact lane stays in small rationals.
fn q64(x: f64) -> f64 {
    ((x * 64.0).round() / 64.0).max(1.0 / 64.0)
}

/// `(label, quantized exact instance, integral)` fixtures.
fn fixtures() -> Vec<(String, Instance<Rational>, bool)> {
    let specs = [
        (Spec::PaperUniform { n: 12 }, 1, false),
        (Spec::ConstantWeight { n: 20 }, 2, false),
        (Spec::IntegerUniform { n: 16, p: 4 }, 3, true),
        (Spec::Stairs { n: 10, p: 16.0 }, 4, true),
        (
            Spec::BimodalVolumes {
                n: 24,
                p: 2.0,
                heavy_fraction: 0.25,
            },
            5,
            false,
        ),
        (
            Spec::ZipfWeights {
                n: 40,
                p: 3.0,
                s: 1.1,
            },
            6,
            false,
        ),
        (Spec::PaperUniform { n: 120 }, 7, false),
        (Spec::IntegerUniform { n: 60, p: 16 }, 8, true),
    ];
    specs
        .into_iter()
        .map(|(spec, seed, integral)| {
            let f = generate(&spec, seed);
            let inst = Instance::builder(f.p)
                .tasks(
                    f.tasks
                        .iter()
                        .map(|t| (q64(t.volume), q64(t.weight), q64(t.delta))),
                )
                .build()
                .expect("quantized fixture is valid");
            (
                format!("{}/{seed}", spec.label()),
                inst.to_scalar(),
                integral,
            )
        })
        .collect()
}

fn digest_fixture(inst: &Instance<Rational>, integral: bool) -> u64 {
    let mut d = Digest::new();
    for (name, order) in heuristic_orders(inst) {
        d.text(name);
        let step = greedy_schedule(inst, &order).expect("greedy runs");
        step.validate(inst).expect("exact greedy validates");
        d.step(&step);
        let cols = step_to_column(&step);
        cols.validate(inst).expect("averaged greedy validates");
        d.columns(&cols);
    }
    let best = policy::by_name::<Rational>("best-greedy")
        .expect("registered")
        .run(inst)
        .expect("best-greedy runs");
    d.columns(&best.schedule);
    if integral {
        let wdeq = wdeq_schedule(inst);
        let int = water_filling_integer(inst, wdeq.completion_times()).expect("integer WF runs");
        int.validate(inst).expect("integer WF validates");
        d.step(&int);
    }
    d.0
}

/// Digests captured before the availability profile became one exact
/// walk; the exact lane must reproduce them bit for bit.
const GOLDEN: &[(&str, u64)] = &[
    ("paper-uniform/1", 0x1b730d1d825fe764),
    ("const-weight/2", 0x3156882c64f232e3),
    ("integer-uniform/3", 0x556b3c42b80ab942),
    ("stairs/4", 0x1f1c8e385583ef21),
    ("bimodal-volumes/5", 0x0e4b3881b623ef13),
    ("zipf-weights/6", 0xc870c1ebc2a4da6d),
    ("paper-uniform/7", 0xd3637d7946f30803),
    ("integer-uniform/8", 0x1b1969e62df286d8),
];

#[test]
fn exact_greedy_and_integer_water_filling_match_golden_digests() {
    let got: Vec<(String, u64)> = fixtures()
        .into_iter()
        .map(|(label, inst, integral)| (label, digest_fixture(&inst, integral)))
        .collect();
    let want: Vec<(String, u64)> = GOLDEN.iter().map(|(l, d)| (l.to_string(), *d)).collect();
    assert_eq!(got, want, "exact greedy / integer WF digests moved");
}
