//! Out-of-core sharded training: the corpus never resides in memory.
//!
//! §IV-B of the paper trains on corpora from ~1K to 100M tables; an
//! in-memory `Vec<Table>` stops scaling long before the top of that
//! range. [`train_streaming`] instead drives a
//! [`ShardReader`](tabmeta_tabular::stream::ShardReader) over a corpus
//! *directory* in three bounded passes:
//!
//! * **Pass A (vocabulary)** folds every accepted table into the run
//!   fingerprint ([`StreamFingerprint`]) and the SGNS vocabulary, and
//!   counts training sentences. This pass is also the quarantine
//!   authority: its [`QuarantineReport`] is the one published to
//!   metrics, and conservation (`accepted + quarantined == total`)
//!   holds exactly even under injected disk faults.
//! * **Pass B (SGNS)** re-streams the corpus, encodes each sentence to
//!   compact `u32` ids against the frozen vocabulary (the memory win:
//!   ids, not strings, are what accumulates), and trains SGNS through
//!   the same resumable trainer as the in-memory path — the embedder is
//!   **bit-identical** to [`Pipeline::train`] on the same corpus/seed.
//! * **Pass C (centroids)** streams once more, bootstrapping weak
//!   labels table-by-table and folding fixed-size *logical* shards of
//!   accepted tables into centroid accumulators via the same map-reduce
//!   fold as [`centroid::estimate_par`]. After every fold a
//!   [`CheckpointStage::CentroidShard`] checkpoint is written, so a
//!   kill at any shard boundary resumes byte-identical to an
//!   uninterrupted run with the same seed (at `threads = 1`).
//!
//! Logical centroid shards are counted in *accepted tables*, not IO
//! shards: the memory-budget governor ([`SpillEvent`]) may shrink IO
//! shards mid-run, and results must not depend on where IO boundaries
//! fall. Disk-fault injection (see `resilience::disk`) keys decisions
//! on file *names*, so every pass — and every resumed run — sees an
//! identical record stream, which is what makes multi-pass streaming
//! and resume-determinism compatible with fault injection.

use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use tabmeta_embed::{sentences_from_tables_par, SgnsResume, TermEmbedder, VocabBuilder, Word2Vec};
use tabmeta_obs::names;
use tabmeta_tabular::stream::{DiskIo, ShardReader, StreamOptions};
use tabmeta_tabular::QuarantineReport;
use tabmeta_text::Tokenizer;

use crate::centroid::{self, AxisAccumulator, CentroidModel, CentroidOptions, CentroidShardResume};
use crate::checkpoint::{CheckpointScanReport, CheckpointStage, CheckpointStore, TrainCheckpoint};
use crate::classifier::Classifier;
use crate::config::{EmbeddingChoice, PipelineConfig};
use crate::persist::{ArtifactError, StreamFingerprint};
use crate::pipeline::{AnyEmbedder, Pipeline, TrainSummary};

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
    /// checkpoint granularity of pass C. Independent of `shard_rows`
    /// so budget spills never move centroid fold boundaries.
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
    /// `"centroid"`).
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

/// What a streaming run did, beyond the [`TrainSummary`] itself.
#[derive(Debug, Clone)]
pub struct StreamSummary {
    /// The same summary an in-memory run produces.
    pub train: TrainSummary,
    /// Pass A's ingestion report (the published one; conservation
    /// `accepted + quarantined == total` holds exactly).
    pub report: QuarantineReport,
    /// The run fingerprint checkpoints were validated against.
    pub fingerprint: u64,
    /// IO shards streamed during pass A.
    pub io_shards: usize,
    /// Logical centroid shards folded during pass C.
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

/// A kill point: streaming training checkpoints (where applicable) and
/// consults the hook at each of these boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamBoundary {
    /// Pass A finished folding IO shard `n` into the vocabulary.
    /// Nothing is checkpointed yet; a kill here resumes from scratch.
    VocabShard(usize),
    /// Pass B finished encoding IO shard `n`. Also pre-checkpoint.
    EncodeShard(usize),
    /// SGNS epoch `n` completed and its checkpoint is durable.
    SgnsEpoch(u64),
    /// Logical centroid shard `n` folded and its checkpoint is durable.
    CentroidShard(usize),
}

impl std::fmt::Display for StreamBoundary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamBoundary::VocabShard(n) => write!(f, "vocab shard {n}"),
            StreamBoundary::EncodeShard(n) => write!(f, "encode shard {n}"),
            StreamBoundary::SgnsEpoch(n) => write!(f, "sgns epoch {n}"),
            StreamBoundary::CentroidShard(n) => write!(f, "centroid shard {n}"),
        }
    }
}

/// Boundary observer for [`train_streaming`]; returning
/// [`ControlFlow::Break`] aborts the run there
/// ([`StreamTrainError::Interrupted`]) — the shard-chaos kill switch.
pub type StreamHook<'h> = &'h mut dyn FnMut(StreamBoundary) -> ControlFlow<()>;

/// Why streaming training failed. Every injected disk fault surfaces as
/// quarantine counters, *not* here — this enum is for conditions that
/// leave nothing trainable or that the caller asked for (interruption).
#[derive(Debug, PartialEq)]
pub enum StreamTrainError {
    /// The corpus directory could not be listed.
    Io {
        /// Underlying error text.
        detail: String,
    },
    /// No record in the directory survived ingestion.
    EmptyCorpus,
    /// Corpus yielded no usable centroid evidence on either axis.
    NoCentroidEvidence,
    /// Streaming supports only the Word2Vec embedder (char-gram
    /// fallback needs the whole corpus resident for its term table).
    UnsupportedEmbedder,
    /// Streaming does not run the fine-tune stage; strip it with
    /// [`PipelineConfig::without_finetune`].
    UnsupportedFinetune,
    /// The hook stopped the run at `at`.
    Interrupted {
        /// The boundary at which the hook broke.
        at: StreamBoundary,
    },
    /// A training checkpoint could not be written or restored.
    Checkpoint(ArtifactError),
}

impl std::fmt::Display for StreamTrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamTrainError::Io { detail } => write!(f, "streaming corpus IO: {detail}"),
            StreamTrainError::EmptyCorpus => {
                write!(f, "no record in the corpus directory survived ingestion")
            }
            StreamTrainError::NoCentroidEvidence => {
                write!(f, "corpus yielded no usable centroid evidence on either axis")
            }
            StreamTrainError::UnsupportedEmbedder => {
                write!(f, "streaming training supports only the Word2Vec embedder")
            }
            StreamTrainError::UnsupportedFinetune => {
                write!(f, "streaming training does not run the fine-tune stage")
            }
            StreamTrainError::Interrupted { at } => {
                write!(f, "streaming training interrupted at {at}")
            }
            StreamTrainError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
        }
    }
}

impl std::error::Error for StreamTrainError {}

/// Floor for budget-driven shard shrinking: a shard always carries at
/// least this many rows (and always at least one table), so the
/// governor degrades throughput, never progress.
const SPILL_FLOOR_ROWS: usize = 64;

/// The memory-budget governor: consulted at IO shard boundaries, where
/// halving the effective shard size is safe because no result depends
/// on where IO boundaries fall.
struct StreamBudget {
    budget: Option<u64>,
    rows: usize,
    spills: Vec<SpillEvent>,
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

    fn rows(&self) -> usize {
        self.rows
    }

    fn observe_boundary(&mut self, pass: &'static str, shard: usize) {
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

fn fire(hook: &mut Option<StreamHook<'_>>, at: StreamBoundary) -> ControlFlow<()> {
    match hook.as_mut() {
        Some(h) => h(at),
        None => ControlFlow::Continue(()),
    }
}

/// Fold one completed logical shard into the running pair, matching
/// [`centroid::estimate_par`]: the first shard *becomes* the fold (no
/// merge), later shards merge with the base RNG.
fn fold_shard(
    folded: &mut Option<(AxisAccumulator, AxisAccumulator)>,
    rows: AxisAccumulator,
    cols: AxisAccumulator,
    options: &CentroidOptions,
    rng: &mut StdRng,
) {
    match folded {
        None => *folded = Some((rows, cols)),
        Some((fr, fc)) => {
            fr.merge(rows, options, rng);
            fc.merge(cols, options, rng);
        }
    }
}

/// How a checkpoint scan maps onto the three passes.
enum ResumePlan {
    Fresh,
    Sgns(Word2Vec, SgnsResume),
    Centroid { embedder: AnyEmbedder, sgns_pairs: u64, resume: Box<CentroidShardResume> },
}

/// Train a pipeline by streaming a corpus directory in bounded shards.
///
/// `dir` holds the corpus as `*.jsonl` / `*.csv` files (the same layout
/// the batch readers ingest). `disk` is the IO seam — production passes
/// [`RealDisk`](tabmeta_tabular::stream::RealDisk); the chaos harness
/// passes a fault-injecting wrapper. With a `checkpoint_dir`, SGNS
/// epochs and centroid logical shards are durably checkpointed, and an
/// interrupted run resumes from the newest valid checkpoint —
/// byte-identical to an uninterrupted same-seed run at `threads = 1`.
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
    mut hook: Option<StreamHook<'_>>,
) -> Result<(Pipeline, StreamSummary), StreamTrainError> {
    let sgns = match &config.embedding {
        EmbeddingChoice::Word2Vec(s) => s.clone(),
        EmbeddingChoice::CharGram(_) => return Err(StreamTrainError::UnsupportedEmbedder),
    };
    if config.finetune.is_some() {
        return Err(StreamTrainError::UnsupportedFinetune);
    }
    let obs = tabmeta_obs::global();
    let _stream_span = obs.span(names::SPAN_STREAM_TRAIN);
    let threads = config.threads.max(1);
    obs.gauge(names::TRAIN_THREADS).set(threads as f64);
    let tokenizer = Tokenizer::default();
    let shard_tables = options.centroid_shard_tables.max(1);
    let mut budget = StreamBudget::new(options.shard_rows, options.mem_budget);

    let reader = ShardReader::open(
        dir,
        StreamOptions {
            shard_rows: options.shard_rows,
            quarantine_dir: options.quarantine_dir.clone(),
        },
        disk,
    )
    .map_err(|e| StreamTrainError::Io { detail: format!("open corpus dir: {e}") })?;

    // ---- Pass A: fingerprint + vocabulary + sentence count. Always
    // runs in full — the fingerprint must exist before the checkpoint
    // store can open, so even a centroid-stage resume pays this pass.
    let embed_span = obs.span(names::SPAN_EMBED);
    let mut builder = VocabBuilder::new();
    let mut fp = StreamFingerprint::new(config, shard_tables);
    let mut n_sentences = 0usize;
    let mut io_shards = 0usize;
    let mut cursor = reader.pass();
    let mut interrupted_at: Option<StreamBoundary> = None;
    while let Some(shard) = cursor.next_shard(budget.rows()) {
        io_shards += 1;
        for table in &shard.tables {
            fp.fold_table(table);
        }
        let sentences =
            sentences_from_tables_par(&shard.tables, &tokenizer, &config.sentences, threads);
        n_sentences += sentences.len();
        for s in &sentences {
            builder.observe(s);
        }
        budget.observe_boundary("vocab", shard.index);
        let at = StreamBoundary::VocabShard(shard.index);
        if fire(&mut hook, at).is_break() {
            interrupted_at = Some(at);
            break;
        }
    }
    let report = cursor.finish();
    drop(embed_span);
    if let Some(at) = interrupted_at {
        return Err(StreamTrainError::Interrupted { at });
    }
    report.publish_metrics();
    if report.accepted == 0 {
        return Err(StreamTrainError::EmptyCorpus);
    }

    // ---- Checkpoint scan: the store validates against the streaming
    // fingerprint, so checkpoints from a different corpus, config, or
    // the in-memory trainer are quarantined rather than resumed.
    let fingerprint = fp.finish();
    let store = match checkpoint_dir {
        Some(ckpt_dir) => Some(
            CheckpointStore::open(ckpt_dir, fingerprint).map_err(StreamTrainError::Checkpoint)?,
        ),
        None => None,
    };
    let (resume_ck, scan) = match store.as_ref() {
        Some(s) => {
            let (ck, scan) = s.latest_valid().map_err(StreamTrainError::Checkpoint)?;
            (ck, Some(scan))
        }
        None => (None, None),
    };
    let plan = match resume_ck {
        None => ResumePlan::Fresh,
        Some(ck) => {
            obs.gauge(names::CHECKPOINT_RESUMED_EPOCH)
                .set(ck.stage.global_epoch(sgns.epochs as u64) as f64);
            match ck.stage {
                CheckpointStage::Sgns(state) => match ck.embedder {
                    AnyEmbedder::Word2Vec(m) => ResumePlan::Sgns(m, state),
                    AnyEmbedder::CharGram(_) => {
                        return Err(StreamTrainError::Checkpoint(ArtifactError::SchemaInvalid {
                            detail: "checkpoint holds a CharGram embedder but streaming \
                                     trains Word2Vec"
                                .to_string(),
                        }))
                    }
                },
                CheckpointStage::CentroidShard { sgns_pairs, resume } => {
                    ResumePlan::Centroid { embedder: ck.embedder, sgns_pairs, resume }
                }
                CheckpointStage::Finetune { .. } => {
                    return Err(StreamTrainError::Checkpoint(ArtifactError::SchemaInvalid {
                        detail: "checkpoint holds a fine-tune stage, which streaming \
                                 training never writes"
                            .to_string(),
                    }))
                }
            }
        }
    };

    // ---- Pass B: encode + SGNS (skipped entirely on a centroid-stage
    // resume — the checkpointed embedder is already final).
    let (embedder, sgns_pairs, centroid_resume) = match plan {
        ResumePlan::Centroid { embedder, sgns_pairs, resume } => {
            (embedder, sgns_pairs, Some(resume))
        }
        other => {
            let prior = match other {
                ResumePlan::Sgns(m, st) => Some((m, st)),
                _ => None,
            };
            let (vocab, encoder) = builder.finish(sgns.min_count);
            let mut encoded: Vec<Vec<u32>> = Vec::new();
            let mut cursor = reader.pass();
            let mut interrupted_at: Option<StreamBoundary> = None;
            while let Some(shard) = cursor.next_shard(budget.rows()) {
                let sentences = sentences_from_tables_par(
                    &shard.tables,
                    &tokenizer,
                    &config.sentences,
                    threads,
                );
                encoded.extend(sentences.iter().filter_map(|s| encoder.encode(s)));
                budget.observe_boundary("encode", shard.index);
                let at = StreamBoundary::EncodeShard(shard.index);
                if fire(&mut hook, at).is_break() {
                    interrupted_at = Some(at);
                    break;
                }
            }
            let _ = cursor.finish();
            if let Some(at) = interrupted_at {
                return Err(StreamTrainError::Interrupted { at });
            }

            let mut sgns_config = sgns.clone();
            sgns_config.threads = threads;
            let wants_sink = store.is_some() || hook.is_some();
            let mut ckpt_err: Option<ArtifactError> = None;
            let mut halted_at: u64 = 0;
            let mut sink = |m: &Word2Vec, st: &SgnsResume| -> ControlFlow<()> {
                halted_at = st.epochs_done as u64;
                if let Some(store) = store.as_ref() {
                    let checkpoint = TrainCheckpoint {
                        stage: CheckpointStage::Sgns(st.clone()),
                        embedder: AnyEmbedder::Word2Vec(m.clone()),
                        sentences: n_sentences,
                    };
                    if let Err(e) = store.write(&checkpoint) {
                        ckpt_err = Some(e);
                        return ControlFlow::Break(());
                    }
                }
                fire(&mut hook, StreamBoundary::SgnsEpoch(st.epochs_done as u64))
            };
            let (model, train_report, interrupted) = Word2Vec::train_encoded_resumable(
                vocab,
                &encoded,
                sgns_config,
                prior,
                wants_sink.then_some(&mut sink),
            );
            if interrupted {
                if let Some(e) = ckpt_err {
                    return Err(StreamTrainError::Checkpoint(e));
                }
                return Err(StreamTrainError::Interrupted {
                    at: StreamBoundary::SgnsEpoch(halted_at),
                });
            }
            (AnyEmbedder::Word2Vec(model), train_report.pairs, None)
        }
    };

    // ---- Pass C: weak labels + map-reduce centroids over logical
    // shards, checkpoint per fold. Resume skips exactly the accepted
    // tables already folded and restores the base RNG, so the fold
    // sequence is identical to an uninterrupted run.
    let centroid_span = obs.span(names::SPAN_CENTROID);
    let copts = &config.centroid;
    let dim = embedder.dim();
    let (mut folded, mut base_rng, mut shards_done, mut markup) = match centroid_resume {
        Some(r) => {
            let r = *r;
            (
                Some((r.rows, r.cols)),
                StdRng::from_state(r.rng),
                r.shards_done,
                r.markup_bootstrapped,
            )
        }
        None => (None, StdRng::seed_from_u64(copts.seed), 0usize, 0usize),
    };
    let mut skip = shards_done * shard_tables;
    let mut cur_rows = AxisAccumulator::new(dim);
    let mut cur_cols = AxisAccumulator::new(dim);
    let mut in_shard = 0usize;
    let mut shard_rng = StdRng::seed_from_u64(copts.seed ^ (shards_done as u64 + 1));
    let mut interrupted_at: Option<StreamBoundary> = None;
    let mut ckpt_err: Option<ArtifactError> = None;
    let mut cursor = reader.pass();
    'stream: while let Some(shard) = cursor.next_shard(budget.rows()) {
        for table in &shard.tables {
            if skip > 0 {
                skip -= 1;
                continue;
            }
            let labels = config.bootstrap.label(table);
            obs.counter(names::BOOTSTRAP_TABLES).inc();
            if labels.from_markup {
                markup += 1;
                obs.counter(names::BOOTSTRAP_MARKUP_TABLES).inc();
            }
            centroid::observe_table_pair(
                &mut cur_rows,
                &mut cur_cols,
                table,
                &labels,
                &embedder,
                &tokenizer,
                copts,
                &mut shard_rng,
            );
            in_shard += 1;
            if in_shard == shard_tables {
                let rows = std::mem::replace(&mut cur_rows, AxisAccumulator::new(dim));
                let cols = std::mem::replace(&mut cur_cols, AxisAccumulator::new(dim));
                fold_shard(&mut folded, rows, cols, copts, &mut base_rng);
                shards_done += 1;
                in_shard = 0;
                shard_rng = StdRng::seed_from_u64(copts.seed ^ (shards_done as u64 + 1));
                let at = StreamBoundary::CentroidShard(shards_done);
                if let (Some(store), Some((fr, fc))) = (store.as_ref(), folded.as_ref()) {
                    let checkpoint = TrainCheckpoint {
                        stage: CheckpointStage::CentroidShard {
                            sgns_pairs,
                            resume: Box::new(CentroidShardResume {
                                shards_done,
                                markup_bootstrapped: markup,
                                rng: base_rng.state(),
                                rows: fr.clone(),
                                cols: fc.clone(),
                            }),
                        },
                        embedder: embedder.clone(),
                        sentences: n_sentences,
                    };
                    if let Err(e) = store.write(&checkpoint) {
                        ckpt_err = Some(e);
                        break 'stream;
                    }
                }
                if fire(&mut hook, at).is_break() {
                    interrupted_at = Some(at);
                    break 'stream;
                }
            }
        }
        budget.observe_boundary("centroid", shard.index);
    }
    let _ = cursor.finish();
    if let Some(e) = ckpt_err {
        return Err(StreamTrainError::Checkpoint(e));
    }
    if let Some(at) = interrupted_at {
        return Err(StreamTrainError::Interrupted { at });
    }
    if in_shard > 0 {
        fold_shard(&mut folded, cur_rows, cur_cols, copts, &mut base_rng);
        shards_done += 1;
    }
    let (rows_acc, cols_acc) = match folded {
        Some(pair) => pair,
        None => (AxisAccumulator::new(dim), AxisAccumulator::new(dim)),
    };
    let centroids = CentroidModel {
        rows: rows_acc.finish(copts, &mut base_rng),
        columns: cols_acc.finish(copts, &mut base_rng),
    };
    drop(centroid_span);
    if !centroids.rows.is_usable() && !centroids.columns.is_usable() {
        return Err(StreamTrainError::NoCentroidEvidence);
    }

    let train = TrainSummary {
        sentences: n_sentences,
        sgns_pairs,
        finetune: None,
        markup_bootstrapped: markup,
    };
    let pipeline = Pipeline::assemble(
        embedder,
        tokenizer,
        Classifier { centroids, config: config.classifier.clone() },
        train.clone(),
    );
    let summary = StreamSummary {
        train,
        report,
        fingerprint,
        io_shards,
        centroid_shards: shards_done,
        spills: budget.spills,
        scan,
    };
    Ok((pipeline, summary))
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn streaming_matches_in_memory_embedder_and_agrees_on_verdicts() {
        let corpus = CorpusKind::Saus.generate(&GeneratorConfig { n_tables: 120, seed: 11 });
        let dir = temp_dir("parity");
        write_corpus_dir(&dir, &corpus, 4);
        let config = PipelineConfig::fast_seeded(7).without_finetune();

        let in_memory = Pipeline::train(&corpus.tables, &config).unwrap();
        let (streamed, summary) =
            train_streaming(&dir, &config, &options(), Arc::new(RealDisk), None, None).unwrap();

        assert!(summary.report.is_clean());
        assert_eq!(summary.report.accepted, corpus.tables.len());
        assert_eq!(summary.train.sentences, in_memory.summary().sentences);
        // SGNS sees the identical sentence stream: bit-identical pairs.
        assert_eq!(summary.train.sgns_pairs, in_memory.summary().sgns_pairs);
        assert_eq!(summary.train.markup_bootstrapped, in_memory.summary().markup_bootstrapped);
        // Centroid folds differ (logical shards vs one sequential
        // stream), so require verdict agreement, not identity.
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
        let ckpt = dir.join("ckpt");
        let config = PipelineConfig::fast_seeded(5).without_finetune();
        let opts = options();

        let (baseline, _) =
            train_streaming(&dir, &config, &opts, Arc::new(RealDisk), None, None).unwrap();

        let mut kill = |at: StreamBoundary| -> ControlFlow<()> {
            if at == StreamBoundary::CentroidShard(1) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        };
        let err =
            train_streaming(&dir, &config, &opts, Arc::new(RealDisk), Some(&ckpt), Some(&mut kill))
                .unwrap_err();
        assert_eq!(err, StreamTrainError::Interrupted { at: StreamBoundary::CentroidShard(1) });

        let (resumed, summary) =
            train_streaming(&dir, &config, &opts, Arc::new(RealDisk), Some(&ckpt), None).unwrap();
        assert_eq!(
            summary.resumed_from(),
            Some("ckpt-2-00001.tma"),
            "must resume from the centroid-shard checkpoint"
        );
        assert_eq!(
            resumed.to_json().unwrap(),
            baseline.to_json().unwrap(),
            "resumed pipeline must be byte-identical to the uninterrupted run"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_at_sgns_epoch_resumes_byte_identical() {
        let corpus = CorpusKind::Saus.generate(&GeneratorConfig { n_tables: 80, seed: 9 });
        let dir = temp_dir("resume-sgns");
        write_corpus_dir(&dir, &corpus, 2);
        let ckpt = dir.join("ckpt");
        let config = PipelineConfig::fast_seeded(2).without_finetune();
        let opts = options();

        let (baseline, _) =
            train_streaming(&dir, &config, &opts, Arc::new(RealDisk), None, None).unwrap();

        let mut kill = |at: StreamBoundary| -> ControlFlow<()> {
            if at == StreamBoundary::SgnsEpoch(2) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        };
        let err =
            train_streaming(&dir, &config, &opts, Arc::new(RealDisk), Some(&ckpt), Some(&mut kill))
                .unwrap_err();
        assert_eq!(err, StreamTrainError::Interrupted { at: StreamBoundary::SgnsEpoch(2) });

        let (resumed, summary) =
            train_streaming(&dir, &config, &opts, Arc::new(RealDisk), Some(&ckpt), None).unwrap();
        assert!(summary.resumed_from().is_some());
        assert_eq!(resumed.to_json().unwrap(), baseline.to_json().unwrap());
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
    fn unsupported_configs_are_typed_errors() {
        let dir = temp_dir("unsupported");
        let corpus = CorpusKind::Saus.generate(&GeneratorConfig { n_tables: 4, seed: 1 });
        write_corpus_dir(&dir, &corpus, 1);
        let with_ft = PipelineConfig::fast_seeded(1);
        assert_eq!(
            train_streaming(&dir, &with_ft, &options(), Arc::new(RealDisk), None, None)
                .map(|_| ())
                .unwrap_err(),
            StreamTrainError::UnsupportedFinetune
        );
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
            StreamTrainError::EmptyCorpus
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
