//! The paper's motivating application (Section I, Figure 1): bandwidth
//! sharing for code distribution in a master/worker platform.
//!
//! A server with outgoing bandwidth `P` must send a code of size `Vᵢ` to
//! each worker `Pᵢ`, whose incoming link caps the transfer rate at `δᵢ`.
//! Once its code is fully received (at time `Cᵢ`), worker `i` processes
//! tasks at rate `wᵢ` until the horizon `T`. Total work processed is
//!
//! ```text
//! Σᵢ wᵢ·max(0, T − Cᵢ)  =  T·Σwᵢ − Σ wᵢCᵢ      (when all Cᵢ ≤ T)
//! ```
//!
//! so *maximizing throughput is exactly minimizing the weighted sum of
//! completion times* of the malleable transfer schedule — the reduction
//! this module makes executable.

use crate::engine::simulate;
use malleable_core::instance::{Instance, Task};
use malleable_core::policy::rules::RuleError;
use malleable_core::policy::AllocationRule;
use malleable_core::schedule::column::ColumnSchedule;
use numkit::KahanSum;

/// One worker node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Worker {
    /// Size of the code to download (the task volume `Vᵢ`).
    pub code_size: f64,
    /// Task-processing rate once the code has arrived (the weight `wᵢ`).
    pub processing_rate: f64,
    /// Incoming link capacity (the parallelism cap `δᵢ`).
    pub link_capacity: f64,
}

/// A complete code-distribution scenario.
#[derive(Debug, Clone)]
pub struct BandwidthScenario {
    /// Server outgoing bandwidth (the machine capacity `P`).
    pub server_bandwidth: f64,
    /// The worker fleet.
    pub workers: Vec<Worker>,
}

/// Outcome of running a transfer schedule against a horizon.
#[derive(Debug, Clone)]
pub struct BandwidthReport {
    /// Name of the policy that produced the schedule.
    pub policy: &'static str,
    /// Completion time of each worker's download.
    pub completions: Vec<f64>,
    /// `Σ wᵢCᵢ` — the scheduling objective.
    pub weighted_completion: f64,
    /// `Σ wᵢ·max(0, T − Cᵢ)` — work units processed by the horizon.
    pub throughput: f64,
}

impl BandwidthScenario {
    /// The equivalent malleable instance: `V = code size`, `w = processing
    /// rate`, `δ = link capacity`.
    pub fn to_instance(&self) -> Instance {
        Instance::identical(
            self.server_bandwidth,
            self.workers
                .iter()
                .map(|w| Task::new(w.code_size, w.processing_rate, w.link_capacity))
                .collect(),
        )
    }

    /// Work processed by time `horizon` given download completion times.
    ///
    /// # Panics
    /// Panics when `completions` is not worker-aligned.
    pub fn throughput(&self, completions: &[f64], horizon: f64) -> f64 {
        assert_eq!(completions.len(), self.workers.len(), "worker count");
        let mut s = KahanSum::new();
        for (w, &c) in self.workers.iter().zip(completions) {
            s.add(w.processing_rate * (horizon - c).max(0.0));
        }
        s.value()
    }

    /// Distribute codes with an online allocation rule and evaluate at
    /// `horizon`.
    ///
    /// # Errors
    /// Propagates [`RuleError`] from the engine.
    pub fn run_policy(
        &self,
        rule: &dyn AllocationRule<f64>,
        horizon: f64,
    ) -> Result<BandwidthReport, RuleError> {
        let instance = self.to_instance();
        let result = simulate(&instance, rule)?;
        Ok(self.report(rule.name(), &result.schedule, &instance, horizon))
    }

    /// Evaluate an externally produced transfer schedule at `horizon`.
    pub fn report(
        &self,
        policy: &'static str,
        schedule: &ColumnSchedule,
        instance: &Instance,
        horizon: f64,
    ) -> BandwidthReport {
        BandwidthReport {
            policy,
            completions: schedule.completions.clone(),
            weighted_completion: schedule.weighted_completion_cost(instance),
            throughput: self.throughput(&schedule.completions, horizon),
        }
    }

    /// Total processing capacity `Σ wᵢ` of the fleet.
    pub fn total_rate(&self) -> f64 {
        numkit::sum::ksum(self.workers.iter().map(|w| w.processing_rate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleable_core::policy::rules::{PriorityRule, WdeqRule};

    fn fleet() -> BandwidthScenario {
        BandwidthScenario {
            server_bandwidth: 10.0,
            workers: vec![
                Worker {
                    code_size: 4.0,
                    processing_rate: 3.0,
                    link_capacity: 2.0,
                },
                Worker {
                    code_size: 8.0,
                    processing_rate: 1.0,
                    link_capacity: 6.0,
                },
                Worker {
                    code_size: 2.0,
                    processing_rate: 5.0,
                    link_capacity: 1.0,
                },
            ],
        }
    }

    #[test]
    fn instance_mapping() {
        let inst = fleet().to_instance();
        assert_eq!(inst.p, 10.0);
        assert_eq!(inst.tasks[0].volume, 4.0);
        assert_eq!(inst.tasks[0].weight, 3.0);
        assert_eq!(inst.tasks[0].delta, 2.0);
    }

    #[test]
    fn throughput_identity_when_all_complete() {
        // Σw·(T − C) = T·Σw − ΣwC whenever C ≤ T for all workers.
        let sc = fleet();
        let horizon = 100.0;
        let rep = sc.run_policy(&WdeqRule, horizon).unwrap();
        let lhs = rep.throughput;
        let rhs = horizon * sc.total_rate() - rep.weighted_completion;
        assert!((lhs - rhs).abs() < 1e-6, "{lhs} vs {rhs}");
    }

    #[test]
    fn late_workers_contribute_nothing() {
        let sc = fleet();
        // Horizon before any download finishes → zero throughput.
        let t = sc.throughput(&[5.0, 5.0, 5.0], 1.0);
        assert_eq!(t, 0.0);
        // One early worker.
        let t = sc.throughput(&[0.5, 5.0, 5.0], 1.0);
        assert!((t - 3.0 * 0.5).abs() < 1e-12);
    }

    #[test]
    fn lower_weighted_completion_means_higher_throughput() {
        let sc = fleet();
        let horizon = 50.0;
        let a = sc.run_policy(&WdeqRule, horizon).unwrap();
        let b = sc.run_policy(&PriorityRule, horizon).unwrap();
        // The equivalence: ordering by ΣwC is the reverse of ordering by
        // throughput (same horizon, same fleet).
        if a.weighted_completion < b.weighted_completion {
            assert!(a.throughput >= b.throughput - 1e-9);
        } else {
            assert!(b.throughput >= a.throughput - 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "worker count")]
    fn throughput_checks_alignment() {
        fleet().throughput(&[1.0], 10.0);
    }
}
