//! Exact task-parallelism limit study (the Fortuna et al. baseline) of
//! every registry app in dependence mode.
//!
//! `table_shapes.rs` checks the study's qualitative shape; this pins the
//! numbers themselves, so a change to how the engine records task read and
//! write sets (their container, hashing or location encoding) cannot move
//! a conflict count or a critical path unnoticed.

use ceres_core::Mode;
use ceres_workloads::{all, run_workload};

/// (slug, tasks, conflicts, total_work, critical_path)
const EXPECTED: &[(&str, usize, usize, u64, u64)] = &[
    ("haar", 1, 0, 6_863_510, 6_863_510),
    ("cloth", 19, 171, 6_188_960, 6_188_960),
    ("camanjs", 4, 6, 4_001_338, 4_001_338),
    ("fluidsim", 5, 10, 6_677_425, 6_677_425),
    ("harmony", 27, 280, 46_777, 45_921),
    ("ace", 22, 210, 78_568, 78_546),
    ("myscript", 20, 54, 6_901, 6_177),
    ("raytracing", 5, 10, 1_949_665, 1_949_665),
    ("normalmap", 4, 6, 641_520, 641_520),
    ("sigmajs", 7, 21, 796_391, 796_391),
    ("processingjs", 21, 210, 1_154_731, 1_154_731),
    ("d3js", 8, 22, 2_362_904, 2_362_870),
];

#[test]
fn task_limit_study_of_every_registry_app_is_pinned() {
    let mut actual = Vec::new();
    for w in all() {
        let run = run_workload(&w, Mode::Dependence, 1)
            .unwrap_or_else(|e| panic!("{} failed: {e:?}", w.slug));
        let s = run.task_study();
        actual.push((w.slug, s.tasks, s.conflicts, s.total_work, s.critical_path));
    }
    assert_eq!(actual, EXPECTED, "task limit study moved");
}
