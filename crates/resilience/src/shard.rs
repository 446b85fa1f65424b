//! Shard-chaos drills for out-of-core streaming training.
//!
//! Two families of drill, mirroring [`crate::crash`] for the streaming
//! path:
//!
//! * **Kill/resume** ([`run_shard_chaos`]) — kill a checkpointing
//!   streaming run at a chosen [`StreamBoundary`] (the moral equivalent
//!   of `kill -9` right after the boundary's checkpoint goes durable),
//!   then resume to completion. The invariant a test asserts: at
//!   `threads = 1` the recovered model is **byte-identical** to an
//!   uninterrupted same-seed streaming run. [`enumerate_boundaries`]
//!   lists every kill point a corpus/config pair exposes, so a sweep
//!   can kill at *all* of them instead of guessing counts.
//! * **Disk-fault sweep** ([`run_disk_fault_drills`]) — train through a
//!   [`FaultyDisk`] injecting each [`DiskFaultKind`] in turn. The
//!   invariant: every fault yields typed quarantine (conservation
//!   `accepted + quarantined == total` exact) or a typed error — never
//!   a panic, never a silently wrong model.

use std::ops::ControlFlow;
use std::path::Path;
use std::sync::Arc;
use tabmeta_core::checkpoint::CheckpointScanReport;
use tabmeta_core::stream::{train_streaming, StreamBoundary, StreamTrainOptions};
use tabmeta_core::{Pipeline, PipelineConfig, TrainError};
use tabmeta_tabular::stream::{DiskIo, RealDisk};
use tabmeta_tabular::QuarantineReport;

use crate::disk::{DiskFaultKind, DiskFaultPlan, FaultyDisk};

/// What a kill-at-boundary drill observed.
#[derive(Debug)]
pub struct ShardChaosOutcome {
    /// The boundary the kill switch fired at, or `None` when the run
    /// finished before reaching it (the kill point lies past the end).
    pub killed_at: Option<StreamBoundary>,
    /// Checkpoint scan of the resumed run (chosen file, quarantines).
    pub scan: Option<CheckpointScanReport>,
    /// The model produced by the interrupted-then-resumed run.
    pub recovered: Pipeline,
    /// Ingestion report of the resumed run.
    pub report: QuarantineReport,
}

/// Run one streaming pass with a recording hook and return every
/// boundary it fires — the complete list of kill points for this
/// corpus/config/options triple. Deterministic: the same triple always
/// exposes the same boundaries.
pub fn enumerate_boundaries(
    corpus_dir: &Path,
    config: &PipelineConfig,
    options: &StreamTrainOptions,
    disk: Arc<dyn DiskIo>,
) -> Result<Vec<StreamBoundary>, TrainError> {
    let mut seen = Vec::new();
    let mut recorder = |at: StreamBoundary| {
        seen.push(at);
        ControlFlow::Continue(())
    };
    train_streaming(corpus_dir, config, options, disk, None, Some(&mut recorder))?;
    Ok(seen)
}

/// Execute one kill/resume drill:
///
/// 1. stream-train with checkpointing into `checkpoint_dir`, killing
///    at `kill_at` (checkpoints for that boundary, if any, are already
///    durable when the kill fires);
/// 2. stream-train again over the same directory and checkpoint store,
///    which resumes from the newest valid checkpoint — or from scratch
///    when the kill preceded the first checkpoint.
///
/// If the run finishes without reaching `kill_at`, the drill records
/// `killed_at: None` and the finished model (nothing to recover from).
pub fn run_shard_chaos(
    corpus_dir: &Path,
    config: &PipelineConfig,
    options: &StreamTrainOptions,
    checkpoint_dir: &Path,
    disk: Arc<dyn DiskIo>,
    kill_at: StreamBoundary,
) -> Result<ShardChaosOutcome, TrainError> {
    let mut killed_at = None;
    let mut kill_switch = |at: StreamBoundary| {
        if at == kill_at {
            killed_at = Some(at);
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    };
    let first_run = train_streaming(
        corpus_dir,
        config,
        options,
        Arc::clone(&disk),
        Some(checkpoint_dir),
        Some(&mut kill_switch),
    );
    match first_run {
        Err(TrainError::Interrupted { .. }) => {}
        Ok((finished, summary)) => {
            return Ok(ShardChaosOutcome {
                killed_at: None,
                scan: summary.scan,
                recovered: finished,
                report: summary.report,
            });
        }
        Err(other) => return Err(other),
    }

    let (recovered, summary) =
        train_streaming(corpus_dir, config, options, disk, Some(checkpoint_dir), None)?;
    Ok(ShardChaosOutcome { killed_at, scan: summary.scan, recovered, report: summary.report })
}

/// One entry of a disk-fault sweep.
#[derive(Debug)]
pub struct FaultDrillOutcome {
    /// The injected fault kind.
    pub kind: DiskFaultKind,
    /// `Ok`: training completed; the ingestion report carries the
    /// quarantines. `Err`: training failed with this *typed* error
    /// (e.g. every open failing with EIO leaves an empty corpus).
    pub result: Result<QuarantineReport, TrainError>,
}

impl FaultDrillOutcome {
    /// Conservation holds: either training finished with an exact
    /// report, or it failed with a typed (non-panic) error.
    pub fn conserved(&self) -> bool {
        match &self.result {
            Ok(report) => report.conservation_holds(),
            Err(_) => true,
        }
    }
}

/// Train through a [`FaultyDisk`] once per [`DiskFaultKind`], with the
/// given seed and per-file fault rate. Every outcome is typed; a panic
/// anywhere fails the calling test by unwinding through it.
pub fn run_disk_fault_drills(
    corpus_dir: &Path,
    config: &PipelineConfig,
    options: &StreamTrainOptions,
    seed: u64,
    rate: f64,
) -> Vec<FaultDrillOutcome> {
    DiskFaultKind::ALL
        .into_iter()
        .map(|kind| {
            let mut plan = DiskFaultPlan::only(seed, kind);
            plan.rate = rate;
            let disk = Arc::new(FaultyDisk::new(Arc::new(RealDisk), plan));
            let result = train_streaming(corpus_dir, config, options, disk, None, None)
                .map(|(_, summary)| summary.report);
            FaultDrillOutcome { kind, result }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::io::Write as _;
    use std::path::PathBuf;
    use tabmeta_tabular::{Corpus, Table};

    fn corpus_dir(tag: &str, tables: usize) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tabmeta-shard-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let mut corpus = Corpus::new("chaos");
        for id in 0..tables as u64 {
            let a = format!("region {id}");
            let b = format!("population count {id}");
            let c = format!("{}", 100 + id);
            let d = format!("{}", 200 + id);
            let mut t = Table::from_strings(
                id,
                &[
                    &["area name", "total residents"],
                    &[a.as_str(), c.as_str()],
                    &[b.as_str(), d.as_str()],
                ],
            );
            t.caption = format!("regional summary {id}");
            corpus.tables.push(t);
        }
        for (i, chunk) in corpus.tables.chunks(tables.div_ceil(2).max(1)).enumerate() {
            let mut slice = Corpus::new("part");
            slice.tables = chunk.to_vec();
            let mut buf = Vec::new();
            slice.write_jsonl(&mut buf).unwrap();
            fs::File::create(dir.join(format!("part-{i}.jsonl"))).unwrap().write_all(&buf).unwrap();
        }
        dir
    }

    fn config() -> PipelineConfig {
        let mut c = PipelineConfig::fast_seeded(13).without_finetune();
        c.threads = 1;
        c
    }

    fn options() -> StreamTrainOptions {
        StreamTrainOptions {
            shard_rows: 48,
            mem_budget: None,
            quarantine_dir: None,
            centroid_shard_tables: 10,
        }
    }

    #[test]
    fn every_boundary_kill_resumes_byte_identical() {
        let dir = corpus_dir("killsweep", 24);
        let config = config();
        let options = options();
        let disk: Arc<dyn DiskIo> = Arc::new(RealDisk);
        let (baseline, _) =
            train_streaming(&dir, &config, &options, Arc::clone(&disk), None, None).unwrap();
        let baseline_json = baseline.to_json().unwrap();
        let boundaries = enumerate_boundaries(&dir, &config, &options, Arc::clone(&disk)).unwrap();
        assert!(
            boundaries.iter().any(|b| matches!(b, StreamBoundary::SgnsEpoch(_)))
                && boundaries.iter().any(|b| matches!(b, StreamBoundary::CentroidShard(_))),
            "sweep must cover SGNS and centroid boundaries: {boundaries:?}"
        );
        // Every other boundary keeps this unit test fast; the
        // integration suite sweeps them all.
        for (i, &kill_at) in boundaries.iter().step_by(2).enumerate() {
            let ckpt = dir.join(format!("ckpt-{i}"));
            let outcome =
                run_shard_chaos(&dir, &config, &options, &ckpt, Arc::clone(&disk), kill_at)
                    .unwrap();
            assert_eq!(outcome.killed_at, Some(kill_at));
            assert!(outcome.report.conservation_holds());
            assert_eq!(
                outcome.recovered.to_json().unwrap(),
                baseline_json,
                "kill at {kill_at} must recover byte-identical"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_fault_sweep_is_typed_and_conserving() {
        let dir = corpus_dir("faultsweep", 16);
        let outcomes = run_disk_fault_drills(&dir, &config(), &options(), 0xfa17, 1.0);
        assert_eq!(outcomes.len(), DiskFaultKind::ALL.len());
        for o in &outcomes {
            assert!(o.conserved(), "{:?} broke conservation: {:?}", o.kind, o.result);
        }
        // EIO at rate 1.0 fails every open: typed empty-corpus error.
        let eio = outcomes.iter().find(|o| o.kind == DiskFaultKind::Eio).unwrap();
        assert_eq!(
            eio.result.as_ref().err(),
            Some(&TrainError::EmptyCorpus),
            "all-EIO must be a typed error, not a panic"
        );
        // Write-only faults never touch the read path: clean training.
        let torn = outcomes.iter().find(|o| o.kind == DiskFaultKind::TornRename).unwrap();
        assert!(torn.result.as_ref().is_ok_and(|r| r.is_clean()));
        let _ = fs::remove_dir_all(&dir);
    }
}
