//! Seeded crash injection for the checkpoint/resume training path.
//!
//! A [`CrashPlan`] kills training at a chosen epoch boundary (via the
//! pipeline's checkpoint hook — the moral equivalent of `kill -9` right
//! after the checkpoint goes durable) and can then damage the newest
//! checkpoint file the way real crashes do: a torn tail, a flipped bit, a
//! half-written prefix. [`run_crash_recovery`] executes the whole drill —
//! kill, corrupt, rescan, resume to completion — and returns what
//! happened, so a test can assert the two recovery invariants:
//!
//! 1. every corrupted checkpoint is quarantined with a typed reason and
//!    never loaded, and
//! 2. at `threads = 1` the recovered model is byte-identical to an
//!    uninterrupted run of the same seed.

use serde::{Deserialize, Serialize};
use std::ops::ControlFlow;
use std::path::Path;
use tabmeta_core::checkpoint::CheckpointScanReport;
use tabmeta_core::{ArtifactError, Pipeline, PipelineConfig, StreamBoundary, TrainError};
use tabmeta_tabular::Table;

/// How to damage the newest checkpoint after the kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CheckpointCorruption {
    /// Leave every checkpoint intact (pure kill/resume drill).
    Intact,
    /// Drop the last `n` bytes — a torn write.
    TruncateTail(usize),
    /// XOR the byte at `offset` (wrapped into range) with `mask` — disk
    /// or transport bit rot.
    BitFlip {
        /// Byte position, taken modulo the file length.
        offset: usize,
        /// XOR mask; `0` would be a no-op, so use a nonzero mask.
        mask: u8,
    },
    /// Keep only the first `n` bytes — a write that died early.
    KeepPrefix(usize),
}

impl CheckpointCorruption {
    /// Apply the damage to `bytes`; `true` if anything changed.
    fn apply(&self, bytes: &mut Vec<u8>) -> bool {
        match *self {
            CheckpointCorruption::Intact => false,
            CheckpointCorruption::TruncateTail(n) => {
                let keep = bytes.len().saturating_sub(n);
                bytes.truncate(keep);
                n > 0
            }
            CheckpointCorruption::BitFlip { offset, mask } => {
                if bytes.is_empty() || mask == 0 {
                    return false;
                }
                let i = offset % bytes.len();
                bytes[i] ^= mask;
                true
            }
            CheckpointCorruption::KeepPrefix(n) => {
                if n >= bytes.len() {
                    return false;
                }
                bytes.truncate(n);
                true
            }
        }
    }
}

/// One seeded crash scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashPlan {
    /// Kill training right after this global epoch's checkpoint is
    /// durable (SGNS epochs count from 1; fine-tune epochs continue
    /// after the SGNS stage, centroid shards after both).
    pub kill_after_epoch: u64,
    /// Damage applied to the newest checkpoint file after the kill.
    pub corruption: CheckpointCorruption,
}

/// What a crash-recovery drill observed.
#[derive(Debug)]
pub struct CrashOutcome {
    /// Global epoch the kill switch fired at, or `None` when training
    /// finished before reaching the kill point.
    pub killed_at: Option<u64>,
    /// Name of the checkpoint file that was corrupted, if any.
    pub corrupted_file: Option<String>,
    /// Scan report from the resume (quarantines, chosen checkpoint).
    pub scan: CheckpointScanReport,
    /// The model produced by the interrupted-then-resumed run.
    pub recovered: Pipeline,
}

fn ckpt_io(detail: String) -> TrainError {
    TrainError::Checkpoint(ArtifactError::Io { detail })
}

/// Newest committed checkpoint file in `dir` (zero-padded stage/epoch
/// file names sort chronologically).
fn newest_checkpoint(dir: &Path) -> Result<Option<std::path::PathBuf>, TrainError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| ckpt_io(format!("read checkpoint dir {}: {e}", dir.display())))?;
    Ok(entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.is_file()
                && p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with("ckpt-"))
        })
        .max())
}

/// Execute one crash-recovery drill in `dir`:
///
/// 1. train with checkpointing, killing after [`CrashPlan::kill_after_epoch`]
///    (the first boundary whose [`StreamBoundary::global_epoch`] reaches it);
/// 2. damage the newest checkpoint per [`CrashPlan::corruption`]
///    (bypassing the atomic writer, the way real corruption does);
/// 3. rescan the store — corrupt files must quarantine, never load;
/// 4. resume from the newest surviving checkpoint and train to completion.
///
/// If training finishes before the kill point fires, the drill records
/// `killed_at: None` and the finished model (nothing to recover from).
pub fn run_crash_recovery(
    tables: &[Table],
    config: &PipelineConfig,
    dir: &Path,
    plan: &CrashPlan,
) -> Result<CrashOutcome, TrainError> {
    let mut killed_at = None;
    let kill_after = plan.kill_after_epoch;
    let mut kill_switch = |at: StreamBoundary| match at.global_epoch(config) {
        Some(epoch) if epoch >= kill_after => {
            killed_at = Some(epoch);
            ControlFlow::Break(())
        }
        _ => ControlFlow::Continue(()),
    };
    let first_run =
        Pipeline::train_with_checkpoints(tables, config, Some(dir), Some(&mut kill_switch));
    match first_run {
        Err(TrainError::Interrupted { .. }) => {}
        Ok((finished, _)) => {
            // The kill point lies past the end of training.
            return Ok(CrashOutcome {
                killed_at: None,
                corrupted_file: None,
                scan: CheckpointScanReport::default(),
                recovered: finished,
            });
        }
        Err(other) => return Err(other),
    }

    let mut corrupted_file = None;
    if plan.corruption != CheckpointCorruption::Intact {
        if let Some(path) = newest_checkpoint(dir)? {
            let mut bytes = std::fs::read(&path)
                .map_err(|e| ckpt_io(format!("read {}: {e}", path.display())))?;
            if plan.corruption.apply(&mut bytes) {
                // Deliberately a plain overwrite: simulated corruption must
                // not enjoy the atomic writer's crash safety.
                std::fs::write(&path, &bytes)
                    .map_err(|e| ckpt_io(format!("corrupt {}: {e}", path.display())))?;
                corrupted_file = path.file_name().and_then(|n| n.to_str()).map(String::from);
            }
        }
    }

    // The resumed run rescans the store: corrupt files quarantine there.
    let (recovered, summary) = Pipeline::train_with_checkpoints(tables, config, Some(dir), None)?;
    Ok(CrashOutcome {
        killed_at,
        corrupted_file,
        scan: summary.scan.unwrap_or_default(),
        recovered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corruption_kinds_change_bytes_deterministically() {
        let base = vec![1u8, 2, 3, 4, 5, 6, 7, 8];
        let mut b = base.clone();
        assert!(!CheckpointCorruption::Intact.apply(&mut b));
        assert_eq!(b, base);
        let mut b = base.clone();
        assert!(CheckpointCorruption::TruncateTail(3).apply(&mut b));
        assert_eq!(b, &base[..5]);
        let mut b = base.clone();
        assert!(CheckpointCorruption::BitFlip { offset: 9, mask: 0x80 }.apply(&mut b));
        assert_eq!(b[1], 2 ^ 0x80, "offset wraps modulo length");
        let mut b = base.clone();
        assert!(CheckpointCorruption::KeepPrefix(2).apply(&mut b));
        assert_eq!(b, &base[..2]);
        let mut b = base.clone();
        assert!(!CheckpointCorruption::KeepPrefix(100).apply(&mut b), "no-op prefix");
    }
}
