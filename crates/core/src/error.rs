//! Typed errors for instance construction and schedule validation.

use crate::instance::TaskId;
use std::fmt;

/// Everything that can go wrong when building instances, validating
/// schedules, or running the scheduling algorithms on user input.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// Instance-level parameter problem (non-positive volume, cap, …).
    InvalidInstance {
        /// Human-readable description of the violated requirement.
        reason: String,
    },
    /// A task was allocated more than its parallelism cap `δᵢ`.
    DeltaExceeded {
        /// Offending task.
        task: TaskId,
        /// Time (column start for column schedules) of the violation.
        at: f64,
        /// Allocated rate found.
        rate: f64,
        /// The task's cap.
        delta: f64,
    },
    /// Total allocation exceeded the machine capacity `P`.
    CapacityExceeded {
        /// Time of the violation.
        at: f64,
        /// Total allocated rate found.
        total: f64,
        /// Machine capacity.
        p: f64,
    },
    /// A column's rate vector lies outside the polymatroid of a related
    /// machine's speed profile (some task subset is allocated more than
    /// the fastest machines it may occupy can deliver), even though every
    /// per-task cap and the total capacity hold.
    SpeedProfileExceeded {
        /// Time of the violation.
        at: f64,
        /// Total allocated rate in the offending column.
        total: f64,
        /// Machine capacity.
        capacity: f64,
    },
    /// A column's rate vector cannot be routed through the tasks'
    /// eligibility sets on a restricted-assignment machine (some task
    /// subset demands more than its eligible machines can jointly
    /// deliver), even though every per-task cap and the total capacity
    /// hold.
    EligibilityExceeded {
        /// Time of the violation.
        at: f64,
        /// Total allocated rate in the offending column.
        total: f64,
        /// Portion of that rate actually routable through the
        /// eligibility sets.
        routable: f64,
    },
    /// A column lists the same task more than once (a column holds one
    /// constant rate per task, so the entries would be ambiguous).
    DuplicateTask {
        /// Offending task.
        task: TaskId,
        /// Start of the column that repeats it.
        at: f64,
    },
    /// A task's allocated area does not equal its volume `Vᵢ`.
    VolumeMismatch {
        /// Offending task.
        task: TaskId,
        /// Area actually allocated.
        allocated: f64,
        /// Required volume.
        required: f64,
    },
    /// A task received allocation before its release (arrival) time.
    AllocationBeforeArrival {
        /// Offending task.
        task: TaskId,
        /// The task's release time.
        arrival: f64,
        /// Time at which an earlier allocation was found.
        at: f64,
    },
    /// A task received allocation after its recorded completion time.
    AllocationAfterCompletion {
        /// Offending task.
        task: TaskId,
        /// Recorded completion time.
        completion: f64,
        /// Time at which a later allocation was found.
        at: f64,
    },
    /// The requested completion times admit no valid schedule
    /// (Water-Filling ran out of room — Theorem 8 certifies none exists).
    InfeasibleCompletionTimes {
        /// First task (in completion order) that cannot fit.
        task: TaskId,
        /// Maximal volume placeable for that task, `wfᵢ(P)`.
        placeable: f64,
        /// The task's required volume.
        required: f64,
    },
    /// Mismatched input lengths (e.g. completion vector vs task count).
    LengthMismatch {
        /// What was being measured.
        what: &'static str,
        /// Expected length.
        expected: usize,
        /// Found length.
        found: usize,
    },
    /// Times must be non-negative and finite.
    InvalidTime {
        /// The offending value.
        value: f64,
        /// Where it appeared.
        context: &'static str,
    },
    /// An iterative solver exhausted its iteration budget without reaching
    /// its termination condition. The parametric threshold searches
    /// terminate combinatorially (each cut is visited at most once), so
    /// this surfaces only on pathological float knife-edges — it is an
    /// explicit error, never a silently-unconverged result.
    Unconverged {
        /// Which solver gave up.
        what: &'static str,
        /// Iterations spent before giving up.
        iterations: usize,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::InvalidInstance { reason } => {
                write!(f, "invalid instance: {reason}")
            }
            ScheduleError::DeltaExceeded {
                task,
                at,
                rate,
                delta,
            } => write!(f, "task {task} allocated {rate} > δ = {delta} at t = {at}"),
            ScheduleError::CapacityExceeded { at, total, p } => {
                write!(f, "total allocation {total} > P = {p} at t = {at}")
            }
            ScheduleError::SpeedProfileExceeded {
                at,
                total,
                capacity,
            } => write!(
                f,
                "allocation of {total} at t = {at} outside the speed-profile polymatroid (P = {capacity})"
            ),
            ScheduleError::EligibilityExceeded { at, total, routable } => write!(
                f,
                "allocation of {total} at t = {at} not routable through the eligibility sets (only {routable} fits)"
            ),
            ScheduleError::DuplicateTask { task, at } => {
                write!(f, "task {task} listed twice in the column at t = {at}")
            }
            ScheduleError::VolumeMismatch {
                task,
                allocated,
                required,
            } => write!(
                f,
                "task {task} allocated area {allocated} ≠ volume {required}"
            ),
            ScheduleError::AllocationBeforeArrival { task, arrival, at } => write!(
                f,
                "task {task} allocated at t = {at} before arrival r = {arrival}"
            ),
            ScheduleError::AllocationAfterCompletion {
                task,
                completion,
                at,
            } => write!(
                f,
                "task {task} allocated at t = {at} after completion C = {completion}"
            ),
            ScheduleError::InfeasibleCompletionTimes {
                task,
                placeable,
                required,
            } => write!(
                f,
                "completion times infeasible: task {task} fits only {placeable} of {required}"
            ),
            ScheduleError::LengthMismatch {
                what,
                expected,
                found,
            } => write!(f, "{what}: expected length {expected}, found {found}"),
            ScheduleError::InvalidTime { value, context } => {
                write!(f, "invalid time {value} in {context}")
            }
            ScheduleError::Unconverged { what, iterations } => {
                write!(f, "{what} did not converge within {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ScheduleError::DeltaExceeded {
            task: TaskId(3),
            at: 1.5,
            rate: 2.5,
            delta: 2.0,
        };
        let s = e.to_string();
        assert!(s.contains("T3") || s.contains('3'));
        assert!(s.contains("2.5"));

        let e = ScheduleError::InfeasibleCompletionTimes {
            task: TaskId(0),
            placeable: 1.0,
            required: 2.0,
        };
        assert!(e.to_string().contains("infeasible"));
    }
}
