//! `Cmax` on identical machines, and the Water-Filling feasibility test.
//!
//! Table I of the paper recalls that makespan-type objectives are
//! polynomial for this task model: the classic two-term lower bound
//! `max(ΣVᵢ/P, maxᵢ Vᵢ/min(δᵢ,P))` is *achievable* for work-preserving
//! malleable tasks (pour every task at constant rate over `[0, C*]`), so
//! [`optimal_makespan`] is the optimum in closed form — exact on exact
//! scalars. Maximum lateness, and `Cmax` under release dates or on
//! heterogeneous machines, are the exact frontier roots of
//! [`crate::algos::parametric::frontier`], whose identical-machine
//! `Lmax` oracle is [`crate::algos::waterfill::wf_feasible`] (Theorem 8
//! makes Water-Filling a complete feasibility test).

use crate::algos::waterfill::water_filling;
use crate::error::ScheduleError;
use crate::instance::Instance;
use crate::schedule::column::ColumnSchedule;
use numkit::Scalar;

/// The optimal makespan `C* = max(ΣVᵢ/P, maxᵢ Vᵢ/min(δᵢ, P))` on
/// identical (or uniform-speed) machines.
///
/// On heterogeneous related machines the two-term value (with the
/// heights measured against the true rate caps) is only a **lower
/// bound** — polymatroid pair cuts can exceed it (two δ = 1 tasks on
/// speeds (2, 1, 1) need `2V/3`, not `2V/4`). Use
/// [`crate::algos::parametric::frontier`] with zero releases for the
/// exact related-machines optimum; [`makespan_schedule`] rejects
/// non-uniform machines outright.
///
/// ```
/// use malleable_core::algos::makespan::optimal_makespan;
/// use malleable_core::instance::Instance;
///
/// let inst = Instance::builder(2.0)
///     .task(8.0, 1.0, 1.0) // height 8 dominates
///     .task(1.0, 1.0, 2.0)
///     .build()
///     .unwrap();
/// assert_eq!(optimal_makespan(&inst), 8.0);
/// ```
pub fn optimal_makespan<S: Scalar>(instance: &Instance<S>) -> S {
    let area = instance.total_volume() / instance.p.clone();
    let height = instance
        .iter()
        .map(|(id, t)| t.volume.clone() / instance.effective_delta(id))
        .fold(S::zero(), S::max_of);
    area.max_of(height)
}

/// A schedule achieving the optimal makespan: every task runs at constant
/// rate `Vᵢ/C*` over `[0, C*]` (valid because `Vᵢ/C* ≤ min(δᵢ,P)` and
/// `ΣVᵢ/C* ≤ P` by definition of `C*`).
pub fn makespan_schedule<S: Scalar>(
    instance: &Instance<S>,
) -> Result<ColumnSchedule<S>, ScheduleError> {
    instance.validate()?;
    // The closed form is only a lower bound on heterogeneous related
    // machines (see `optimal_makespan`); fail here with a clear message
    // instead of letting Water-Filling's guard speak for us.
    instance.require_uniform_machine("the closed-form Cmax schedule")?;
    let c = optimal_makespan(instance);
    let completions = vec![c; instance.n()];
    water_filling(instance, &completions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::waterfill::wf_feasible;

    #[test]
    fn makespan_area_bound_binds() {
        // P=2, total volume 8 → area bound 4 > any height.
        let inst = Instance::builder(2.0)
            .tasks([(4.0, 1.0, 2.0), (4.0, 1.0, 2.0)])
            .build()
            .unwrap();
        assert_eq!(optimal_makespan(&inst), 4.0);
    }

    #[test]
    fn makespan_height_bound_binds() {
        // Tall constrained task dominates: V/δ = 8 > ΣV/P = 4.5.
        let inst = Instance::builder(2.0)
            .tasks([(8.0, 1.0, 1.0), (1.0, 1.0, 2.0)])
            .build()
            .unwrap();
        assert_eq!(optimal_makespan(&inst), 8.0);
    }

    #[test]
    fn makespan_schedule_is_valid_and_tight() {
        let inst = Instance::builder(3.0)
            .tasks([(4.0, 1.0, 2.0), (3.0, 1.0, 1.0), (2.0, 1.0, 3.0)])
            .build()
            .unwrap();
        let s = makespan_schedule(&inst).unwrap();
        s.validate(&inst).unwrap();
        assert!((s.makespan() - optimal_makespan(&inst)).abs() < 1e-9);
    }

    #[test]
    fn makespan_below_optimum_is_infeasible() {
        let inst = Instance::builder(3.0)
            .tasks([(4.0, 1.0, 2.0), (3.0, 1.0, 1.0), (2.0, 1.0, 3.0)])
            .build()
            .unwrap();
        let c = optimal_makespan(&inst);
        assert!(!wf_feasible(&inst, &[c * 0.99; 3]));
        assert!(wf_feasible(&inst, &[c; 3]));
    }

    #[test]
    fn exact_makespan_is_exact() {
        use bigratio::Rational;
        let q = Rational::from_f64_exact;
        let inst = Instance::<Rational>::builder(q(2.0))
            .tasks([(q(8.0), q(1.0), q(1.0)), (q(1.0), q(1.0), q(2.0))])
            .build()
            .unwrap();
        assert_eq!(optimal_makespan(&inst), Rational::from_int(8));
        let s = makespan_schedule(&inst).unwrap();
        s.validate(&inst).unwrap(); // zero tolerance
        assert_eq!(s.makespan(), Rational::from_int(8));
    }
}
