//! Task-parallelism limit study — the Fortuna et al. baseline.
//!
//! The paper's related work (Sec. 6) contrasts its *data*-parallelism
//! findings with Fortuna et al. \[20\], "A limit study of JavaScript
//! parallelism" (IISWC '10), which found speedups of 2.2–45× (avg 8.9×)
//! coming mostly from *independent tasks* rather than loops. This module
//! implements that style of limit study over our runs so the two views can
//! be compared on the same workloads:
//!
//! * a **task** is one top-level script execution or one event-loop
//!   callback (timer, rAF, dispatched DOM event);
//! * two tasks **conflict** when one writes a location (object property
//!   space or variable binding) the other reads or writes;
//! * the limit schedule gives every task its own processor and starts it as
//!   soon as all conflicting predecessors have finished (program order is
//!   otherwise ignored, as in a limit study);
//! * the bound is `total work / critical path`.
//!
//! On the paper's *emerging* workloads the interesting result is the
//! contrast: frame-chained apps (cloth, fluid, raytracing) have task bounds
//! ≈ 1 because every frame reads the previous frame's state — their
//! parallelism lives *inside* the frame (Table 3), which is exactly the
//! paper's argument for data parallelism.

use crate::engine::Engine;
use ceres_interp::intern::FxHashSet;

/// Access-set location: objects and variable bindings share the space via
/// a tag bit (object ids and binding ids come from separate counters).
pub(crate) fn object_location(obj_id: u64) -> u64 {
    obj_id << 1
}

pub(crate) fn binding_location(binding_id: u64) -> u64 {
    (binding_id << 1) | 1
}

/// One recorded task.
#[derive(Debug, Clone)]
pub struct TaskRecord {
    pub label: String,
    pub start_ticks: u64,
    pub end_ticks: u64,
    pub reads: FxHashSet<u64>,
    pub writes: FxHashSet<u64>,
}

impl TaskRecord {
    /// Virtual work of the task.
    pub fn work(&self) -> u64 {
        self.end_ticks.saturating_sub(self.start_ticks)
    }

    /// Bernstein's conditions: tasks conflict on write-write, write-read or
    /// read-write intersections.
    pub fn conflicts_with(&self, other: &TaskRecord) -> bool {
        self.writes
            .iter()
            .any(|w| other.writes.contains(w) || other.reads.contains(w))
            || other.writes.iter().any(|w| self.reads.contains(w))
    }
}

/// Result of the limit study.
#[derive(Debug, Clone)]
pub struct TaskLimitStudy {
    pub tasks: usize,
    /// Total virtual work across tasks.
    pub total_work: u64,
    /// Longest dependence chain under the limit schedule.
    pub critical_path: u64,
    /// Pairs of tasks that conflicted.
    pub conflicts: usize,
}

impl TaskLimitStudy {
    /// Upper-bound speedup from task parallelism alone.
    pub fn speedup_bound(&self) -> f64 {
        if self.critical_path == 0 {
            1.0
        } else {
            self.total_work as f64 / self.critical_path as f64
        }
    }
}

/// Run the limit schedule over the tasks an engine recorded.
pub fn task_limit_study(engine: &Engine) -> TaskLimitStudy {
    let tasks = &engine.tasks;
    let mut finish: Vec<u64> = Vec::with_capacity(tasks.len());
    let mut conflicts = 0usize;
    for (i, t) in tasks.iter().enumerate() {
        let mut earliest_start = 0u64;
        for (j, prev) in tasks.iter().enumerate().take(i) {
            if t.conflicts_with(prev) {
                conflicts += 1;
                earliest_start = earliest_start.max(finish[j]);
            }
        }
        finish.push(earliest_start + t.work());
    }
    TaskLimitStudy {
        tasks: tasks.len(),
        total_work: tasks.iter().map(|t| t.work()).sum(),
        critical_path: finish.iter().copied().max().unwrap_or(0),
        conflicts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(label: &str, work: u64, reads: &[u64], writes: &[u64]) -> TaskRecord {
        TaskRecord {
            label: label.to_string(),
            start_ticks: 0,
            end_ticks: work,
            reads: reads.iter().copied().collect(),
            writes: writes.iter().copied().collect(),
        }
    }

    fn study_of(tasks: Vec<TaskRecord>) -> TaskLimitStudy {
        // Build a bare engine and inject tasks.
        let mut engine = Engine::new(crate::Mode::Dependence, Vec::new());
        engine.tasks = tasks;
        task_limit_study(&engine)
    }

    #[test]
    fn independent_tasks_scale_perfectly() {
        let s = study_of(vec![
            task("a", 100, &[2], &[4]),
            task("b", 100, &[6], &[8]),
            task("c", 100, &[10], &[12]),
        ]);
        assert_eq!(s.total_work, 300);
        assert_eq!(s.critical_path, 100);
        assert_eq!(s.conflicts, 0);
        assert!((s.speedup_bound() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn chained_tasks_serialize() {
        // Each task writes location 4 — full chain.
        let s = study_of(vec![
            task("f0", 50, &[4], &[4]),
            task("f1", 50, &[4], &[4]),
            task("f2", 50, &[4], &[4]),
        ]);
        assert_eq!(s.critical_path, 150);
        assert!((s.speedup_bound() - 1.0).abs() < 1e-12);
        assert_eq!(s.conflicts, 3); // (1,0), (2,0), (2,1)
    }

    #[test]
    fn read_read_sharing_does_not_conflict() {
        let s = study_of(vec![task("a", 80, &[4], &[6]), task("b", 80, &[4], &[8])]);
        assert_eq!(s.conflicts, 0);
        assert!((s.speedup_bound() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mixed_dag_takes_longest_chain() {
        // a(100) ; b conflicts with a (60) ; c independent (120).
        let s = study_of(vec![
            task("a", 100, &[], &[2]),
            task("b", 60, &[2], &[10]),
            task("c", 120, &[20], &[22]),
        ]);
        assert_eq!(s.total_work, 280);
        assert_eq!(s.critical_path, 160); // a -> b
        assert!((s.speedup_bound() - 280.0 / 160.0).abs() < 1e-12);
    }

    #[test]
    fn location_spaces_do_not_alias() {
        assert_ne!(object_location(5), binding_location(5));
        assert_ne!(object_location(5), binding_location(2));
        assert_eq!(object_location(5) >> 1, 5);
        assert_eq!(binding_location(5) >> 1, 5);
    }

    #[test]
    fn empty_engine_reports_unity() {
        let s = study_of(Vec::new());
        assert_eq!(s.tasks, 0);
        assert_eq!(s.speedup_bound(), 1.0);
    }
}
