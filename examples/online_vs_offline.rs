//! Non-clairvoyant vs clairvoyant scheduling on the same workload: how
//! much does not knowing task volumes cost?
//!
//! Runs the online engine (policies see weights and caps but never
//! volumes) against clairvoyant baselines, and shows the Lemma-2
//! certificate bounding WDEQ's regret instance-by-instance.
//!
//! ```sh
//! cargo run --example online_vs_offline
//! ```

use malleable::core::policy::rules::{PriorityRule, ShareNoRedistributionRule};
use malleable::prelude::*;

fn main() {
    let specs = [
        ("uniform", Spec::PaperUniform { n: 6 }),
        (
            "zipf weights",
            Spec::ZipfWeights {
                n: 6,
                p: 4.0,
                s: 1.2,
            },
        ),
        ("theorem-11 class", Spec::Theorem11 { n: 6, p: 4.0 }),
    ];

    for (label, spec) in specs {
        let instance = generate(&spec, 2024);
        println!("── workload: {label} (n = {}) ──", instance.n());

        // Clairvoyant references.
        let opt = optimal_schedule(&instance).expect("brute-force optimum");
        let smith = greedy_cost(&instance, &smith_order(&instance)).expect("greedy");

        // Non-clairvoyant policies through the honest engine.
        let mut rows: Vec<(String, f64)> = Vec::new();
        let rules: [&dyn AllocationRule<f64>; 4] = [
            &WdeqRule,
            &DeqRule,
            &ShareNoRedistributionRule,
            &PriorityRule,
        ];
        for rule in rules {
            let name = rule.name().to_string();
            let r = simulate(&instance, rule).expect("policy run");
            r.schedule.validate(&instance).expect("engine output valid");
            rows.push((name, r.schedule.weighted_completion_cost(&instance)));
        }

        println!("  clairvoyant optimum        : {:.4}", opt.cost);
        println!("  clairvoyant greedy(Smith)  : {smith:.4}");
        for (name, cost) in &rows {
            println!(
                "  online {name:<20}: {cost:.4}  (×{:.3} of optimal)",
                cost / opt.cost
            );
        }

        // The certificate: WDEQ is provably within 2× on *this* instance,
        // without knowing the optimum.
        let cert = wdeq_certificate(&instance);
        println!(
            "  WDEQ certificate: cost {:.4} ≤ 2 × {:.4}  (certified ratio {:.3})\n",
            cert.wdeq_cost,
            cert.value(),
            cert.ratio()
        );
        assert!(cert.ratio() <= 2.0 + 1e-9, "Theorem 4 must hold");
    }
}
