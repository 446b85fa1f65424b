//! Crash-safe training checkpoints.
//!
//! A [`CheckpointStore`] owns one directory of envelope-wrapped (see
//! [`crate::persist`]) [`TrainCheckpoint`] files, one per completed
//! training epoch. Each checkpoint captures everything the deterministic
//! training path cannot recompute: the embedder weights plus the loop
//! state (epoch counter, RNG position, learning-rate schedule) of the
//! stage in flight. Sentences, vocabulary, weak labels, and centroids are
//! pure functions of the corpus and configuration, so they are rebuilt on
//! resume rather than stored.
//!
//! [`CheckpointStore::latest_valid`] scans the directory, fully validates
//! every candidate (envelope checksum, config fingerprint, schema, weight
//! integrity), moves every invalid or uncommitted file into a
//! `quarantine/` subdirectory, and returns the newest checkpoint that
//! survived — corrupt checkpoints are never loaded, and the scan report
//! names each reject with its typed reason, mirroring the corpus
//! quarantine report from the ingestion layer.

use crate::centroid::CentroidShardResume;
use crate::finetune::{FinetuneReport, FinetuneResume};
use crate::persist::{atomic_write, decode_envelope, encode_envelope, ArtifactError};
use crate::pipeline::AnyEmbedder;
use crate::stream::StreamBoundary;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use tabmeta_embed::{IntegrityFault, SgnsResume};
use tabmeta_obs::names;

/// Which training stage a checkpoint was taken in, with that stage's loop
/// state at an epoch boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CheckpointStage {
    /// SGNS embedding (first stage): loop state of the trainer.
    Sgns(SgnsResume),
    /// Contrastive fine-tuning (second stage). SGNS is complete; its pair
    /// count is carried along for the final training summary.
    Finetune {
        /// Total SGNS pairs processed by the completed first stage.
        sgns_pairs: u64,
        /// Fine-tune loop state.
        resume: FinetuneResume,
    },
    /// Centroid map-reduce (last stage). The embedder is final; the
    /// partial per-axis fold state is carried so a kill at any logical
    /// shard boundary resumes to a byte-identical same-seed result.
    CentroidShard {
        /// Total SGNS pairs processed by the completed embedding stage.
        sgns_pairs: u64,
        /// Report of the completed fine-tune stage, if it ran.
        finetune: Option<FinetuneReport>,
        /// Centroid fold state at the shard boundary (boxed: the fold
        /// accumulators dwarf the other variants).
        resume: Box<CentroidShardResume>,
    },
}

impl CheckpointStage {
    /// Ordering key: later stages and later epochs sort higher.
    fn order_key(&self) -> (u8, usize) {
        match self {
            CheckpointStage::Sgns(s) => (0, s.epochs_done),
            CheckpointStage::Finetune { resume, .. } => (1, resume.epochs_done),
            CheckpointStage::CentroidShard { resume, .. } => (2, resume.shards_done),
        }
    }

    /// The boundary this checkpoint was written at (see
    /// [`StreamBoundary::global_epoch`] for its global epoch index).
    pub fn boundary(&self) -> StreamBoundary {
        match self {
            CheckpointStage::Sgns(s) => StreamBoundary::SgnsEpoch(s.epochs_done as u64),
            CheckpointStage::Finetune { resume, .. } => {
                StreamBoundary::FinetuneEpoch(resume.epochs_done)
            }
            CheckpointStage::CentroidShard { resume, .. } => {
                StreamBoundary::CentroidShard(resume.shards_done)
            }
        }
    }
}

/// One training checkpoint: stage loop state plus the embedder weights at
/// that epoch boundary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainCheckpoint {
    /// Stage and loop state.
    pub stage: CheckpointStage,
    /// Embedder weights at the boundary.
    pub embedder: AnyEmbedder,
    /// Training sentences extracted (consistency check for the summary).
    pub sentences: usize,
}

/// One file rejected during a checkpoint scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedCheckpoint {
    /// File name inside the checkpoint directory.
    pub file: String,
    /// Why it was rejected.
    pub error: ArtifactError,
    /// Where it was moved (inside `quarantine/`), if the move succeeded.
    pub moved_to: Option<PathBuf>,
}

/// What [`CheckpointStore::latest_valid`] found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointScanReport {
    /// Candidate files examined.
    pub scanned: usize,
    /// Candidates that passed full validation.
    pub valid: usize,
    /// Files moved to quarantine, with their typed reasons.
    pub quarantined: Vec<QuarantinedCheckpoint>,
    /// File name of the checkpoint chosen for resume, if any.
    pub resumed_from: Option<String>,
}

impl CheckpointScanReport {
    /// `true` when nothing was quarantined.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// Human-readable report, one line per quarantined file — same shape
    /// as the corpus ingestion quarantine report.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "checkpoint scan: {} candidate(s), {} valid, {} quarantined\n",
            self.scanned,
            self.valid,
            self.quarantined.len()
        );
        for q in &self.quarantined {
            out.push_str(&format!(
                "  quarantined {}: [{}] {}\n",
                q.file,
                q.error.reason(),
                q.error
            ));
        }
        if let Some(f) = &self.resumed_from {
            out.push_str(&format!("  resuming from {f}\n"));
        }
        out
    }
}

/// A directory of training checkpoints for one training run (identified
/// by its config + corpus fingerprint).
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    fingerprint: u64,
}

impl CheckpointStore {
    /// Open (creating if needed) a checkpoint directory for the run with
    /// this fingerprint (see [`crate::persist::run_fingerprint`]).
    pub fn open(dir: impl Into<PathBuf>, fingerprint: u64) -> Result<Self, ArtifactError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| ArtifactError::Io {
            detail: format!("create checkpoint dir {}: {e}", dir.display()),
        })?;
        Ok(Self { dir, fingerprint })
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The run fingerprint this store validates against.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn file_name(stage: &CheckpointStage) -> String {
        let (rank, epoch) = stage.order_key();
        format!("ckpt-{rank}-{epoch:05}.tma")
    }

    /// Serialize and atomically write `checkpoint`; returns its path.
    pub fn write(&self, checkpoint: &TrainCheckpoint) -> Result<PathBuf, ArtifactError> {
        let obs = tabmeta_obs::global();
        let payload = serde_json::to_string(checkpoint).map_err(|e| {
            ArtifactError::SchemaInvalid { detail: format!("serialize checkpoint: {e}") }
        })?;
        let path = self.dir.join(Self::file_name(&checkpoint.stage));
        let bytes = encode_envelope(self.fingerprint, payload.as_bytes());
        let (result, elapsed) =
            obs.timed(names::SPAN_CHECKPOINT_WRITE, || atomic_write(&path, &bytes));
        result?;
        obs.gauge(names::CHECKPOINT_WRITE_SECS).set(elapsed.as_secs_f64());
        obs.counter(names::CHECKPOINT_WRITTEN).inc();
        Ok(path)
    }

    /// Fully validate one candidate's bytes into a checkpoint.
    fn validate(&self, bytes: &[u8]) -> Result<TrainCheckpoint, ArtifactError> {
        let (fingerprint, payload) = decode_envelope(bytes)?;
        if fingerprint != self.fingerprint {
            return Err(ArtifactError::ConfigMismatch {
                expected: self.fingerprint,
                found: fingerprint,
            });
        }
        let json = std::str::from_utf8(payload).map_err(|e| ArtifactError::SchemaInvalid {
            detail: format!("payload not UTF-8: {e}"),
        })?;
        let checkpoint: TrainCheckpoint = serde_json::from_str(json)
            .map_err(|e| ArtifactError::SchemaInvalid { detail: format!("checkpoint: {e}") })?;
        checkpoint.embedder.validate_integrity().map_err(|f| match f {
            IntegrityFault::Shape { detail } => ArtifactError::DimensionMismatch { detail },
            IntegrityFault::NonFinite { location } => ArtifactError::NonFiniteWeights { location },
        })?;
        Ok(checkpoint)
    }

    /// Scan the directory: validate every candidate, quarantine every
    /// invalid or uncommitted file, and return the newest valid
    /// checkpoint (if any) plus the scan report. Older valid checkpoints
    /// are left in place as fallbacks.
    pub fn latest_valid(
        &self,
    ) -> Result<(Option<TrainCheckpoint>, CheckpointScanReport), ArtifactError> {
        let obs = tabmeta_obs::global();
        let mut report = CheckpointScanReport::default();
        let mut best: Option<(TrainCheckpoint, String)> = None;
        let entries = std::fs::read_dir(&self.dir).map_err(|e| ArtifactError::Io {
            detail: format!("read checkpoint dir {}: {e}", self.dir.display()),
        })?;
        let mut names_in_dir: Vec<String> = entries
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_file())
            .filter_map(|e| e.file_name().to_str().map(String::from))
            .filter(|n| n.starts_with("ckpt-") || n.contains(".tmp-"))
            .collect();
        // Deterministic scan order (newest name last wins ties).
        names_in_dir.sort();
        for name in names_in_dir {
            report.scanned += 1;
            let path = self.dir.join(&name);
            let verdict = if name.contains(".tmp-") {
                // A temp file is an interrupted atomic write: even if its
                // bytes validate, it was never committed under its final
                // name, so it is quarantined rather than resumed from.
                Err(ArtifactError::SchemaInvalid {
                    detail: "uncommitted temp file from an interrupted write".to_string(),
                })
            } else {
                std::fs::read(&path)
                    .map_err(|e| ArtifactError::Io {
                        detail: format!("read {}: {e}", path.display()),
                    })
                    .and_then(|bytes| self.validate(&bytes))
            };
            match verdict {
                Ok(checkpoint) => {
                    report.valid += 1;
                    let newer = best
                        .as_ref()
                        .is_none_or(|(b, _)| checkpoint.stage.order_key() >= b.stage.order_key());
                    if newer {
                        best = Some((checkpoint, name));
                    }
                }
                Err(error) => {
                    obs.counter(names::CHECKPOINT_QUARANTINED).inc();
                    obs.counter(&format!("{}{}", names::ARTIFACT_REJECTED_PREFIX, error.reason()))
                        .inc();
                    let moved_to = self.quarantine(&path, &name);
                    report.quarantined.push(QuarantinedCheckpoint { file: name, error, moved_to });
                }
            }
        }
        let chosen = best.map(|(checkpoint, name)| {
            obs.counter(names::ARTIFACT_LOADED).inc();
            report.resumed_from = Some(name);
            checkpoint
        });
        Ok((chosen, report))
    }

    /// Move a rejected file into `quarantine/`; best-effort (the scan
    /// must not fail because a bad file also resists moving).
    fn quarantine(&self, path: &Path, name: &str) -> Option<PathBuf> {
        let qdir = self.dir.join("quarantine");
        std::fs::create_dir_all(&qdir).ok()?;
        let target = qdir.join(name);
        std::fs::rename(path, &target).ok()?;
        Some(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabmeta_embed::{SgnsConfig, Word2Vec};

    fn tiny_checkpoint(epochs_done: usize) -> TrainCheckpoint {
        let sentences: Vec<Vec<String>> =
            vec![vec!["alpha".into(), "beta".into(), "gamma".into()]; 4];
        let config = SgnsConfig { dim: 4, epochs: 3, seed: 9, ..SgnsConfig::default() };
        let (model, _) = Word2Vec::train(&sentences, config.clone());
        let mut state = SgnsResume::fresh(&config);
        state.epochs_done = epochs_done;
        TrainCheckpoint {
            stage: CheckpointStage::Sgns(state),
            embedder: AnyEmbedder::Word2Vec(model),
            sentences: 4,
        }
    }

    fn temp_store(tag: &str) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("tabmeta-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointStore::open(dir, 0xABCD).unwrap()
    }

    #[test]
    fn write_scan_roundtrip_picks_newest() {
        let store = temp_store("roundtrip");
        store.write(&tiny_checkpoint(1)).unwrap();
        store.write(&tiny_checkpoint(2)).unwrap();
        let (found, report) = store.latest_valid().unwrap();
        let found = found.unwrap();
        assert!(matches!(&found.stage, CheckpointStage::Sgns(s) if s.epochs_done == 2));
        assert_eq!(report.scanned, 2);
        assert_eq!(report.valid, 2);
        assert!(report.is_clean());
        assert_eq!(report.resumed_from.as_deref(), Some("ckpt-0-00002.tma"));
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn corrupt_checkpoint_is_quarantined_and_older_survives() {
        let store = temp_store("corrupt");
        store.write(&tiny_checkpoint(1)).unwrap();
        let newest = store.write(&tiny_checkpoint(2)).unwrap();
        // Flip one payload bit in the newest checkpoint.
        let mut bytes = std::fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x04;
        std::fs::write(&newest, &bytes).unwrap();
        let (found, report) = store.latest_valid().unwrap();
        let found = found.unwrap();
        assert!(
            matches!(&found.stage, CheckpointStage::Sgns(s) if s.epochs_done == 1),
            "falls back to the older valid checkpoint"
        );
        assert_eq!(report.quarantined.len(), 1);
        let q = &report.quarantined[0];
        assert_eq!(q.error.reason(), "checksum_mismatch");
        assert!(q.moved_to.as_ref().unwrap().exists(), "file moved into quarantine/");
        assert!(!newest.exists(), "corrupt file removed from the scan set");
        assert!(report.render_text().contains("checksum_mismatch"));
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn fingerprint_mismatch_is_quarantined() {
        let store = temp_store("fp");
        store.write(&tiny_checkpoint(1)).unwrap();
        let other = CheckpointStore::open(store.dir(), 0x1234).unwrap();
        let (found, report) = other.latest_valid().unwrap();
        assert!(found.is_none());
        assert_eq!(report.quarantined[0].error.reason(), "config_mismatch");
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn stray_temp_file_is_quarantined() {
        let store = temp_store("tmp");
        store.write(&tiny_checkpoint(1)).unwrap();
        let stray = store.dir().join(".ckpt-0-00002.tma.tmp-999");
        std::fs::write(&stray, b"partial").unwrap();
        let (found, report) = store.latest_valid().unwrap();
        assert!(found.is_some(), "committed checkpoint still resumes");
        assert_eq!(report.quarantined.len(), 1);
        assert!(!stray.exists());
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn truncated_checkpoint_reports_offset() {
        let store = temp_store("trunc");
        let path = store.write(&tiny_checkpoint(1)).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..20]).unwrap();
        let (found, report) = store.latest_valid().unwrap();
        assert!(found.is_none());
        assert_eq!(report.quarantined[0].error.reason(), "truncated");
        std::fs::remove_dir_all(store.dir()).unwrap();
    }
}
