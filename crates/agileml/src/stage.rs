//! The three functionality-partitioning stages and the selection rule.

/// AgileML's stage of functionality partitioning (paper Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Parameter servers only on reliable machines; transient machines
    /// run only workers.
    Stage1,
    /// ActivePSs on transient machines, BackupPSs on reliable machines;
    /// workers everywhere.
    Stage2,
    /// Stage 2 plus no workers on reliable machines.
    Stage3,
}

impl Stage {
    /// Whether this stage uses the ActivePS/BackupPS tiering.
    pub fn uses_backups(self) -> bool {
        !matches!(self, Stage::Stage1)
    }

    /// Whether reliable machines run workers in this stage.
    pub fn workers_on_reliable(self) -> bool {
        !matches!(self, Stage::Stage3)
    }
}

/// Picks the stage for a transient:reliable ratio (Sec. 3.3: stage 2
/// above 1:1, stage 3 above 15:1).
///
/// With zero reliable machines the job cannot run (state must live
/// somewhere reliable); with zero transient machines stage 1 degenerates
/// to the traditional all-reliable layout.
pub fn select_stage(
    transient: usize,
    reliable: usize,
    stage2_threshold: f64,
    stage3_threshold: f64,
) -> Stage {
    if reliable == 0 {
        // Degenerate: callers validate this away, but picking stage 1
        // keeps the function total.
        return Stage::Stage1;
    }
    let ratio = transient as f64 / reliable as f64;
    if ratio > stage3_threshold {
        Stage::Stage3
    } else if ratio > stage2_threshold {
        Stage::Stage2
    } else {
        Stage::Stage1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_thresholds_partition_the_ratio_axis() {
        // Paper: >1:1 → stage 2, >15:1 → stage 3.
        assert_eq!(select_stage(0, 4, 1.0, 15.0), Stage::Stage1);
        assert_eq!(select_stage(4, 4, 1.0, 15.0), Stage::Stage1); // Exactly 1:1.
        assert_eq!(select_stage(6, 4, 1.0, 15.0), Stage::Stage2);
        assert_eq!(select_stage(60, 4, 1.0, 15.0), Stage::Stage2); // 15:1 exactly.
        assert_eq!(select_stage(63, 1, 1.0, 15.0), Stage::Stage3);
    }

    #[test]
    fn zero_reliable_is_total() {
        assert_eq!(select_stage(10, 0, 1.0, 15.0), Stage::Stage1);
    }

    #[test]
    fn stage_properties() {
        assert!(!Stage::Stage1.uses_backups());
        assert!(Stage::Stage2.uses_backups());
        assert!(Stage::Stage3.uses_backups());
        assert!(Stage::Stage1.workers_on_reliable());
        assert!(Stage::Stage2.workers_on_reliable());
        assert!(!Stage::Stage3.workers_on_reliable());
    }
}
