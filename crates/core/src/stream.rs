//! Out-of-core training: the corpus never resides in memory.
//!
//! §IV-B of the paper trains on corpora from ~1K to 100M tables; an
//! in-memory `Vec<Table>` stops scaling long before the top of that
//! range. [`train_streaming`] trains from a corpus *directory* read by a
//! [`ShardReader`] in bounded IO shards, through the same stage driver
//! as [`Pipeline::train`] (see `pipeline/train.rs` and DESIGN.md): every
//! embedder, fine-tuning, and kill-anywhere resume work the same way on
//! both sources. This module holds what only a directory needs — the IO
//! shard options, the memory-budget governor and its [`SpillEvent`]s —
//! and the run summary and kill points ([`StreamBoundary`]) both
//! sources report.
//!
//! IO shard size and budget spills never change the model: no stage
//! depends on where IO boundaries fall. The logical centroid shard size
//! does (each logical shard samples on its own RNG stream), which is why
//! [`StreamFingerprint`](crate::persist::StreamFingerprint) folds
//! `centroid_shard_tables` in. Disk-fault injection (see
//! `resilience::disk`) keys decisions on file *names*, so every pass —
//! and every resumed run — sees an identical record stream, which is
//! what makes multi-pass streaming and resume-determinism compatible
//! with fault injection.

use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use tabmeta_obs::names;
use tabmeta_tabular::stream::{DiskIo, ShardReader, StreamOptions};
use tabmeta_tabular::QuarantineReport;

use crate::checkpoint::CheckpointScanReport;
use crate::config::PipelineConfig;
use crate::pipeline::train::{self, TableSource};
use crate::pipeline::{Pipeline, TrainError, TrainSummary};

/// Knobs for [`train_streaming`].
#[derive(Debug, Clone)]
pub struct StreamTrainOptions {
    /// Maximum summed table rows per IO shard (the streaming unit).
    pub shard_rows: usize,
    /// Resident-memory budget in bytes. Checked at every IO shard
    /// boundary against the counting allocator
    /// ([`tabmeta_obs::mem::current_bytes`]); exceeding it halves the
    /// effective shard size (never below a floor of 64 rows) and
    /// records a [`SpillEvent`]. `None`, or a build without the
    /// `mem-track` feature, disables the governor.
    pub mem_budget: Option<u64>,
    /// Where quarantined raw records are spilled, per shard.
    pub quarantine_dir: Option<PathBuf>,
    /// Accepted tables per *logical* centroid shard — the fold and
    /// checkpoint granularity of the centroid pass. Independent of
    /// `shard_rows` so budget spills never move centroid fold
    /// boundaries; unlike them, it changes the model.
    pub centroid_shard_tables: usize,
}

impl Default for StreamTrainOptions {
    fn default() -> Self {
        Self {
            shard_rows: 4096,
            mem_budget: None,
            quarantine_dir: None,
            centroid_shard_tables: 512,
        }
    }
}

/// One memory-budget spill: the governor observed resident bytes over
/// budget at an IO shard boundary and shrank the effective shard size.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpillEvent {
    /// Which pass observed the overage (`"vocab"`, `"encode"`,
    /// `"finetune"`, `"centroid"`).
    pub pass: String,
    /// IO shard index (within its pass) at the observation.
    pub shard: usize,
    /// Resident bytes observed.
    pub observed_bytes: u64,
    /// The configured budget.
    pub budget_bytes: u64,
    /// Effective shard rows after shrinking.
    pub new_shard_rows: usize,
}

/// What a training run did, beyond the [`TrainSummary`] itself.
#[derive(Debug, Clone)]
pub struct StreamSummary {
    /// The summary the trained pipeline carries.
    pub train: TrainSummary,
    /// Pass A's ingestion report (the published one; conservation
    /// `accepted + quarantined == total` holds exactly). A resident
    /// corpus accepts every table.
    pub report: QuarantineReport,
    /// The run fingerprint checkpoints were validated against.
    pub fingerprint: u64,
    /// IO shards streamed during pass A (one for a resident corpus).
    pub io_shards: usize,
    /// Logical centroid shards folded.
    pub centroid_shards: usize,
    /// Memory-budget spills, in order.
    pub spills: Vec<SpillEvent>,
    /// Checkpoint scan outcome, when a checkpoint directory was given.
    pub scan: Option<CheckpointScanReport>,
}

impl StreamSummary {
    /// File name of the checkpoint this run resumed from, if any.
    pub fn resumed_from(&self) -> Option<&str> {
        self.scan.as_ref().and_then(|s| s.resumed_from.as_deref())
    }
}

/// A kill point: training checkpoints (where applicable) and consults
/// the hook at each of these boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamBoundary {
    /// Pass A finished folding IO shard `n` into the vocabulary.
    /// Nothing is checkpointed yet; a kill here resumes from scratch.
    VocabShard(usize),
    /// Pass B finished encoding IO shard `n`. Also pre-checkpoint.
    EncodeShard(usize),
    /// SGNS epoch `n` completed and its checkpoint is durable.
    SgnsEpoch(u64),
    /// Fine-tune epoch `n` completed and its checkpoint is durable.
    FinetuneEpoch(usize),
    /// Logical centroid shard `n` folded and its checkpoint is durable.
    CentroidShard(usize),
}

impl StreamBoundary {
    /// Global epoch index of a checkpointed boundary under `config`:
    /// SGNS epochs count from 1, fine-tune epochs continue after them,
    /// and centroid shards after both. `None` for the pre-checkpoint
    /// shard boundaries of passes A and B.
    pub fn global_epoch(self, config: &PipelineConfig) -> Option<u64> {
        let sgns = config.embedding.sgns().epochs as u64;
        let finetune = config.finetune.as_ref().map_or(0, |ft| ft.epochs as u64);
        match self {
            StreamBoundary::VocabShard(_) | StreamBoundary::EncodeShard(_) => None,
            StreamBoundary::SgnsEpoch(n) => Some(n),
            StreamBoundary::FinetuneEpoch(n) => Some(sgns + n as u64),
            StreamBoundary::CentroidShard(n) => Some(sgns + finetune + n as u64),
        }
    }
}

impl std::fmt::Display for StreamBoundary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamBoundary::VocabShard(n) => write!(f, "vocab shard {n}"),
            StreamBoundary::EncodeShard(n) => write!(f, "encode shard {n}"),
            StreamBoundary::SgnsEpoch(n) => write!(f, "sgns epoch {n}"),
            StreamBoundary::FinetuneEpoch(n) => write!(f, "fine-tune epoch {n}"),
            StreamBoundary::CentroidShard(n) => write!(f, "centroid shard {n}"),
        }
    }
}

/// Boundary observer for training; returning [`ControlFlow::Break`]
/// stops the run there ([`TrainError::Interrupted`]) — the kill switch
/// of the crash-recovery and shard-chaos drills.
pub type StreamHook<'h> = &'h mut dyn FnMut(StreamBoundary) -> ControlFlow<()>;

/// Floor for budget-driven shard shrinking: a shard always carries at
/// least this many rows (and always at least one table), so the
/// governor degrades throughput, never progress.
const SPILL_FLOOR_ROWS: usize = 64;

/// The memory-budget governor: consulted at IO shard boundaries, where
/// halving the effective shard size is safe because no result depends
/// on where IO boundaries fall.
pub(crate) struct StreamBudget {
    budget: Option<u64>,
    rows: usize,
    pub(crate) spills: Vec<SpillEvent>,
}

impl StreamBudget {
    fn new(shard_rows: usize, budget: Option<u64>) -> Self {
        let obs = tabmeta_obs::global();
        let rows = shard_rows.max(1);
        obs.gauge(names::STREAM_SHARD_ROWS).set(rows as f64);
        if let Some(b) = budget {
            obs.gauge(names::STREAM_BUDGET_BYTES).set(b as f64);
        }
        Self { budget, rows, spills: Vec::new() }
    }

    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    pub(crate) fn observe_boundary(&mut self, pass: &'static str, shard: usize) {
        let Some(limit) = self.budget else { return };
        if !tabmeta_obs::mem::is_tracking() {
            return;
        }
        let observed = tabmeta_obs::mem::current_bytes();
        let floor = SPILL_FLOOR_ROWS.min(self.rows);
        if observed > limit && self.rows > floor {
            self.rows = (self.rows / 2).max(floor);
            let obs = tabmeta_obs::global();
            obs.counter(names::STREAM_SPILLS).inc();
            obs.gauge(names::STREAM_SHARD_ROWS).set(self.rows as f64);
            self.spills.push(SpillEvent {
                pass: pass.to_string(),
                shard,
                observed_bytes: observed,
                budget_bytes: limit,
                new_shard_rows: self.rows,
            });
        }
    }
}

/// Train a pipeline by streaming a corpus directory in bounded shards.
///
/// `dir` holds the corpus as `*.jsonl` / `*.csv` files (the same layout
/// the batch readers ingest). `disk` is the IO seam — production passes
/// [`RealDisk`](tabmeta_tabular::stream::RealDisk); the chaos harness
/// passes a fault-injecting wrapper. With a `checkpoint_dir`, SGNS
/// epochs, fine-tune epochs and logical centroid shards are durably
/// checkpointed, and an interrupted run resumes from the newest valid
/// checkpoint — byte-identical to an uninterrupted same-seed run at
/// `threads = 1`.
///
/// The returned [`StreamSummary`] carries the published quarantine
/// report; `accepted + quarantined == total` holds exactly for every
/// disk-fault mix, because a faulted record is *counted*, never lost.
pub fn train_streaming(
    dir: &Path,
    config: &PipelineConfig,
    options: &StreamTrainOptions,
    disk: Arc<dyn DiskIo>,
    checkpoint_dir: Option<&Path>,
    hook: Option<StreamHook<'_>>,
) -> Result<(Pipeline, StreamSummary), TrainError> {
    let stream_options = StreamOptions {
        shard_rows: options.shard_rows,
        quarantine_dir: options.quarantine_dir.clone(),
    };
    let reader = ShardReader::open(dir, stream_options, disk)
        .map_err(|e| TrainError::Io { detail: format!("open corpus dir: {e}") })?;
    let budget = StreamBudget::new(options.shard_rows, options.mem_budget);
    let source = TableSource::Dir { reader, budget };
    train::run(source, config, options.centroid_shard_tables.max(1), checkpoint_dir, hook)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EmbeddingChoice;
    use std::fs;
    use std::io::Write as _;
    use tabmeta_corpora::{CorpusKind, GeneratorConfig};
    use tabmeta_tabular::stream::RealDisk;
    use tabmeta_tabular::Corpus;

    /// Write `corpus` as several JSONL files so the reader streams
    /// across file boundaries.
    fn write_corpus_dir(dir: &Path, corpus: &Corpus, files: usize) {
        fs::create_dir_all(dir).unwrap();
        let per = corpus.tables.len().div_ceil(files.max(1)).max(1);
        for (i, chunk) in corpus.tables.chunks(per).enumerate() {
            let mut slice = Corpus::new(format!("part-{i}"));
            slice.tables = chunk.to_vec();
            let mut buf = Vec::new();
            slice.write_jsonl(&mut buf).unwrap();
            let mut f = fs::File::create(dir.join(format!("part-{i:02}.jsonl"))).unwrap();
            f.write_all(&buf).unwrap();
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tabmeta-stream-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn options() -> StreamTrainOptions {
        StreamTrainOptions {
            shard_rows: 96,
            mem_budget: None,
            quarantine_dir: None,
            centroid_shard_tables: 40,
        }
    }

    /// A small fine-tuned config: 2 SGNS epochs, 3 fine-tune epochs.
    fn tuned(mut config: PipelineConfig) -> PipelineConfig {
        match &mut config.embedding {
            EmbeddingChoice::Word2Vec(sgns) => sgns.epochs = 2,
            EmbeddingChoice::CharGram(cfg) => cfg.sgns.epochs = 2,
        }
        if let Some(ft) = &mut config.finetune {
            ft.epochs = 3;
        }
        config
    }

    /// Train uninterrupted, then for each kill point kill a
    /// checkpointing run there and resume it: every resumed model must
    /// be byte-identical, resumed from the named checkpoint if given.
    fn assert_kills_resume(
        dir: &Path,
        config: &PipelineConfig,
        opts: &StreamTrainOptions,
        kills: &[(StreamBoundary, Option<&str>)],
    ) {
        let (baseline, _) =
            train_streaming(dir, config, opts, Arc::new(RealDisk), None, None).unwrap();
        let baseline = baseline.to_json().unwrap();
        for (i, &(kill_at, resume_file)) in kills.iter().enumerate() {
            let ckpt = dir.join(format!("ckpt-{i}"));
            let mut kill = |at: StreamBoundary| -> ControlFlow<()> {
                if at == kill_at {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            };
            let err = train_streaming(
                dir,
                config,
                opts,
                Arc::new(RealDisk),
                Some(&ckpt),
                Some(&mut kill),
            )
            .unwrap_err();
            assert_eq!(err, TrainError::Interrupted { at: kill_at });

            let (resumed, summary) =
                train_streaming(dir, config, opts, Arc::new(RealDisk), Some(&ckpt), None).unwrap();
            assert!(summary.resumed_from().is_some(), "kill at {kill_at} must leave a checkpoint");
            if let Some(file) = resume_file {
                assert_eq!(summary.resumed_from(), Some(file), "kill at {kill_at}");
            }
            assert_eq!(
                resumed.to_json().unwrap(),
                baseline,
                "kill at {kill_at}: resumed pipeline must be byte-identical to the uninterrupted run"
            );
        }
    }

    #[test]
    fn streaming_matches_in_memory_embedder_and_agrees_on_verdicts() {
        let corpus = CorpusKind::Saus.generate(&GeneratorConfig { n_tables: 60, seed: 11 });
        let dir = temp_dir("parity");
        write_corpus_dir(&dir, &corpus, 4);
        // One logical centroid shard at one thread: the directory is the
        // resident slice in IO shards, so the artifacts are the same bytes.
        let one_shard = StreamTrainOptions { centroid_shard_tables: 60, ..options() };
        for config in [PipelineConfig::fast_seeded(7), PipelineConfig::fast_chargram(7)] {
            for config in [tuned(config.clone()), tuned(config).without_finetune()] {
                let in_memory = Pipeline::train(&corpus.tables, &config).unwrap();
                let (streamed, summary) =
                    train_streaming(&dir, &config, &one_shard, Arc::new(RealDisk), None, None)
                        .unwrap();
                assert!(summary.report.is_clean());
                assert_eq!(summary.report.accepted, corpus.tables.len());
                assert!(summary.io_shards > 1, "the corpus must stream in several IO shards");
                assert_eq!(
                    streamed.to_json().unwrap(),
                    in_memory.to_json().unwrap(),
                    "one-shard streaming must reproduce the in-memory artifact"
                );
            }
        }

        // Several logical shards sample their own reservoir streams, so
        // require verdict agreement, not identity.
        let config = tuned(PipelineConfig::fast_seeded(7));
        let in_memory = Pipeline::train(&corpus.tables, &config).unwrap();
        let (streamed, summary) =
            train_streaming(&dir, &config, &options(), Arc::new(RealDisk), None, None).unwrap();
        assert_eq!(summary.centroid_shards, 2);
        assert_eq!(summary.train.sentences, in_memory.summary().sentences);
        assert_eq!(summary.train.sgns_pairs, in_memory.summary().sgns_pairs);
        assert_eq!(summary.train.finetune, in_memory.summary().finetune);
        assert_eq!(summary.train.markup_bootstrapped, in_memory.summary().markup_bootstrapped);
        let mut agree = 0usize;
        for t in &corpus.tables {
            if streamed.classify(t) == in_memory.classify(t) {
                agree += 1;
            }
        }
        let rate = agree as f64 / corpus.tables.len() as f64;
        assert!(rate >= 0.97, "verdict agreement {rate} below 0.97");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_at_centroid_shard_resumes_byte_identical() {
        let corpus = CorpusKind::Cius.generate(&GeneratorConfig { n_tables: 100, seed: 3 });
        let dir = temp_dir("resume-centroid");
        write_corpus_dir(&dir, &corpus, 3);
        let config = PipelineConfig::fast_seeded(5).without_finetune();
        let kill = (StreamBoundary::CentroidShard(1), Some("ckpt-2-00001.tma"));
        assert_kills_resume(&dir, &config, &options(), &[kill]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_at_sgns_epoch_resumes_byte_identical() {
        let corpus = CorpusKind::Saus.generate(&GeneratorConfig { n_tables: 80, seed: 9 });
        let dir = temp_dir("resume-sgns");
        write_corpus_dir(&dir, &corpus, 2);
        let config = PipelineConfig::fast_seeded(2).without_finetune();
        assert_kills_resume(&dir, &config, &options(), &[(StreamBoundary::SgnsEpoch(2), None)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_at_every_finetune_epoch_resumes_byte_identical() {
        let corpus = CorpusKind::Ckg.generate(&GeneratorConfig { n_tables: 50, seed: 23 });
        let dir = temp_dir("resume-finetune");
        write_corpus_dir(&dir, &corpus, 3);
        let config = tuned(PipelineConfig::fast_seeded(6));
        let files: Vec<String> = (1..=3).map(|epoch| format!("ckpt-1-{epoch:05}.tma")).collect();
        let kills: Vec<(StreamBoundary, Option<&str>)> = (1..=3)
            .map(|epoch| (StreamBoundary::FinetuneEpoch(epoch), Some(files[epoch - 1].as_str())))
            .collect();
        assert_kills_resume(&dir, &config, &options(), &kills);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chargram_kills_resume_byte_identical() {
        let corpus = CorpusKind::Cord19.generate(&GeneratorConfig { n_tables: 60, seed: 29 });
        let dir = temp_dir("resume-chargram");
        write_corpus_dir(&dir, &corpus, 3);
        let config = tuned(PipelineConfig::fast_chargram(8));
        let kills =
            [(StreamBoundary::SgnsEpoch(1), None), (StreamBoundary::CentroidShard(1), None)];
        assert_kills_resume(&dir, &config, &options(), &kills);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiny_budget_spills_deterministically_and_still_trains() {
        let corpus = CorpusKind::Wdc.generate(&GeneratorConfig { n_tables: 90, seed: 17 });
        let dir = temp_dir("budget");
        write_corpus_dir(&dir, &corpus, 3);
        let config = PipelineConfig::fast_seeded(4).without_finetune();
        let mut opts = options();
        opts.mem_budget = Some(1); // any tracked byte is over budget

        let run = || {
            train_streaming(&dir, &config, &opts, Arc::new(RealDisk), None, None)
                .map(|(p, s)| (p.to_json().unwrap_or_default(), s.spills.clone()))
        };
        let (json_a, spills_a) = run().unwrap();
        let (json_b, spills_b) = run().unwrap();
        if tabmeta_obs::mem::is_tracking() {
            assert!(!spills_a.is_empty(), "a 1-byte budget must spill");
            let floor = spills_a.last().map(|s| s.new_shard_rows).unwrap_or(0);
            assert!(floor >= SPILL_FLOOR_ROWS.min(opts.shard_rows));
        }
        assert_eq!(spills_a, spills_b, "spill provenance must be deterministic");
        assert_eq!(json_a, json_b, "spills must not change the trained pipeline");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_directory_is_empty_corpus() {
        let dir = temp_dir("empty");
        assert_eq!(
            train_streaming(
                &dir,
                &PipelineConfig::fast_seeded(1).without_finetune(),
                &options(),
                Arc::new(RealDisk),
                None,
                None
            )
            .map(|_| ())
            .unwrap_err(),
            TrainError::EmptyCorpus
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_fingerprint_is_stable_across_runs_and_corpus_sensitive() {
        let corpus = CorpusKind::Saus.generate(&GeneratorConfig { n_tables: 30, seed: 8 });
        let dir = temp_dir("fp");
        write_corpus_dir(&dir, &corpus, 2);
        let config = PipelineConfig::fast_seeded(3).without_finetune();
        let run = |d: &Path| {
            train_streaming(d, &config, &options(), Arc::new(RealDisk), None, None)
                .map(|(_, s)| s.fingerprint)
                .unwrap()
        };
        assert_eq!(run(&dir), run(&dir));
        let other = CorpusKind::Saus.generate(&GeneratorConfig { n_tables: 31, seed: 8 });
        let dir2 = temp_dir("fp2");
        write_corpus_dir(&dir2, &other, 2);
        assert_ne!(run(&dir), run(&dir2));
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&dir2);
    }
}
