//! Golden digests of the exact Water-Filling lane (Algorithm 2).
//!
//! `water_filling_full`'s columns and levels are computed at `Rational`
//! on 1/64-quantized fixtures, over the WDEQ completions (feasible), over
//! squeezed copies of them (often infeasible) and over a common deadline
//! just at and just below the optimal makespan, and hashed through their
//! exact decimal text; an infeasible vector hashes its certificate (task
//! and placeable volume). The registry answers that pour Water-Filling —
//! `wf`, `wf-fast`, `makespan`, `lmax-height` and `lmax-parametric` — are
//! hashed too. A change to the pour that moves any exact level, column
//! bound or rate, or any feasibility verdict, changes a digest.

use malleable::core::algos::waterfill::water_filling_full;
use malleable::core::error::ScheduleError;
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

    /// One Water-Filling run: its columns and levels, or its certificate.
    fn pour(&mut self, inst: &Instance<Rational>, completions: &[Rational]) {
        match water_filling_full(inst, completions) {
            Ok(out) => {
                out.schedule.validate(inst).expect("exact WF validates");
                self.columns(&out.schedule);
                for l in &out.levels {
                    self.text(&l.to_string());
                }
            }
            Err(ScheduleError::InfeasibleCompletionTimes {
                task,
                placeable,
                required,
            }) => self.text(&format!("infeasible {} {placeable:e} {required:e}", task.0)),
            Err(e) => panic!("unexpected Water-Filling error: {e}"),
        }
    }
}

/// Round onto the 1/64 grid (at least one grid step), so every value is
/// dyadic and the exact lane stays in small rationals.
fn q64(x: f64) -> f64 {
    ((x * 64.0).round() / 64.0).max(1.0 / 64.0)
}

/// `(label, quantized exact instance)` fixtures.
fn fixtures() -> Vec<(String, Instance<Rational>)> {
    let specs = [
        (Spec::PaperUniform { n: 12 }, 1),
        (Spec::ConstantWeight { n: 20 }, 2),
        (Spec::IntegerUniform { n: 16, p: 4 }, 3),
        (Spec::Stairs { n: 10, p: 16.0 }, 4),
        (
            Spec::BimodalVolumes {
                n: 24,
                p: 2.0,
                heavy_fraction: 0.25,
            },
            5,
        ),
        (
            Spec::ZipfWeights {
                n: 40,
                p: 3.0,
                s: 1.1,
            },
            6,
        ),
        (Spec::PowerLawVolumes { n: 30, alpha: 1.5 }, 7),
        (Spec::PaperUniform { n: 80 }, 8),
    ];
    specs
        .into_iter()
        .map(|(spec, seed)| {
            let f = generate(&spec, seed);
            let inst = Instance::builder(f.p)
                .tasks(
                    f.tasks
                        .iter()
                        .map(|t| (q64(t.volume), q64(t.weight), q64(t.delta))),
                )
                .build()
                .expect("quantized fixture is valid");
            (format!("{}/{seed}", spec.label()), inst.to_scalar())
        })
        .collect()
}

fn digest_fixture(inst: &Instance<Rational>) -> u64 {
    let mut d = Digest::new();
    let wdeq = wdeq_schedule(inst).completions;
    d.text("wdeq");
    d.pour(inst, &wdeq);
    // Squeezed copies: every completion scaled by a factor from a fixed
    // cycle starting at `base`/64, some feasible and some not.
    for (k, base) in [(1u32, 48i64), (3, 52), (5, 56), (7, 60)] {
        let squeezed: Vec<Rational> = wdeq
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let num = base + ((i as u32 * k) % 17) as i64;
                c.clone() * Rational::new(num, 64)
            })
            .collect();
        d.text(&format!("squeeze {k} {base}"));
        d.pour(inst, &squeezed);
    }
    let c = optimal_makespan(inst);
    for num in [64i64, 63] {
        d.text(&format!("common {num}"));
        d.pour(inst, &vec![c.clone() * Rational::new(num, 64); inst.n()]);
    }
    for name in [
        "wf",
        "wf-fast",
        "makespan",
        "lmax-height",
        "lmax-parametric",
    ] {
        d.text(name);
        let run = policy::by_name::<Rational>(name)
            .expect("registered")
            .run(inst)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        run.schedule.validate(inst).expect("exact answer validates");
        d.columns(&run.schedule);
    }
    d.0
}

/// Digests captured before the dense breakpoint walk and the grouped
/// oracle became one pour; the exact lane must reproduce them bit for bit.
const GOLDEN: &[(&str, u64)] = &[
    ("paper-uniform/1", 0xae04a36b33f2ee05),
    ("const-weight/2", 0xf2156d0d4420752c),
    ("integer-uniform/3", 0xb82d92a51d5ddf29),
    ("stairs/4", 0x30e8ad1dcdf0bde8),
    ("bimodal-volumes/5", 0xa2135374abf3a91d),
    ("zipf-weights/6", 0x16360af0482255a1),
    ("powerlaw-volumes[a=1.5]/7", 0xc04a32f6f108826b),
    ("paper-uniform/8", 0x21b4b94114b678c2),
];

#[test]
fn exact_water_filling_matches_golden_digests() {
    let got: Vec<(String, u64)> = fixtures()
        .into_iter()
        .map(|(label, inst)| (label, digest_fixture(&inst)))
        .collect();
    let want: Vec<(String, u64)> = GOLDEN.iter().map(|(l, d)| (l.to_string(), *d)).collect();
    assert_eq!(got, want, "exact Water-Filling digests moved");
}
