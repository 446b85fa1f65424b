//! The end-to-end pipeline: embed → bootstrap → fine-tune → centroids →
//! classify.
//!
//! ```text
//!  tables ──► sentences ──► SGNS training ──► term embeddings
//!     │                                            │
//!     └──► bootstrap weak labels ──► contrastive fine-tuning (mutates embeddings)
//!                      │                           │
//!                      └──────► centroid ranges ◄──┘
//!                                    │
//!                            Algorithm-1 classifier
//! ```
//!
//! Centroids are estimated **after** fine-tuning so the recorded ranges
//! describe the tuned geometry the classifier will actually measure.

use crate::centroid::{AxisCentroids, CentroidModel};
use crate::classifier::{Classifier, ClassifyScratch, TraceStep, Verdict};
use crate::config::PipelineConfig;
use crate::finetune::FinetuneReport;
use crate::persist::ArtifactError;
use crate::stream::{StreamBoundary, StreamHook, StreamSummary};
use rayon::prelude::*;
use std::borrow::Borrow;
use std::path::Path;
use tabmeta_embed::{CharGram, IntegrityFault, TermEmbedder, TunableEmbedder, Word2Vec};
use tabmeta_linalg::AngleRange;
use tabmeta_obs::names;
use tabmeta_tabular::Table;
use tabmeta_text::Tokenizer;
use train::TableSource;

pub(crate) mod train;

/// Either embedding model behind one type (object-safety without dyn in
/// the hot path).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub enum AnyEmbedder {
    /// Word2Vec model.
    Word2Vec(Word2Vec),
    /// CharGram model.
    CharGram(CharGram),
}

impl TermEmbedder for AnyEmbedder {
    fn dim(&self) -> usize {
        match self {
            AnyEmbedder::Word2Vec(m) => m.dim(),
            AnyEmbedder::CharGram(m) => m.dim(),
        }
    }

    fn accumulate(&self, term: &str, out: &mut [f32]) -> bool {
        match self {
            AnyEmbedder::Word2Vec(m) => m.accumulate(term, out),
            AnyEmbedder::CharGram(m) => m.accumulate(term, out),
        }
    }

    fn term_id(&self, term: &str) -> Option<tabmeta_text::TermId> {
        match self {
            AnyEmbedder::Word2Vec(m) => TermEmbedder::term_id(m, term),
            AnyEmbedder::CharGram(m) => TermEmbedder::term_id(m, term),
        }
    }

    fn embeds(&self, term: &str) -> bool {
        match self {
            AnyEmbedder::Word2Vec(m) => TermEmbedder::embeds(m, term),
            AnyEmbedder::CharGram(m) => TermEmbedder::embeds(m, term),
        }
    }
}

impl TunableEmbedder for AnyEmbedder {
    fn apply_gradient(&mut self, term: &str, grad: &[f32]) {
        match self {
            AnyEmbedder::Word2Vec(m) => m.apply_gradient(term, grad),
            AnyEmbedder::CharGram(m) => m.apply_gradient(term, grad),
        }
    }
}

impl AnyEmbedder {
    /// Structural and numeric self-check of the wrapped model (matrix
    /// shapes vs. vocabulary, finiteness of every weight).
    pub fn validate_integrity(&self) -> Result<(), IntegrityFault> {
        match self {
            AnyEmbedder::Word2Vec(m) => m.validate_integrity(),
            AnyEmbedder::CharGram(m) => m.validate_integrity(),
        }
    }
}

/// Why training failed. Injected disk faults surface as quarantine
/// counters, *not* here — this enum is for conditions that leave nothing
/// trainable, failed checkpoint IO, or a stop the caller asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// The corpus directory could not be listed.
    Io {
        /// Underlying error text.
        detail: String,
    },
    /// No table to train on: an empty slice, or a directory in which no
    /// record survived ingestion.
    EmptyCorpus,
    /// The corpus produced no usable centroid evidence along either axis.
    NoCentroidEvidence,
    /// The boundary hook stopped training at `at` — the kill switch of
    /// the crash-recovery and shard-chaos drills.
    Interrupted {
        /// The boundary at which the hook broke.
        at: StreamBoundary,
    },
    /// A training checkpoint could not be written or restored.
    Checkpoint(ArtifactError),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Io { detail } => write!(f, "corpus IO: {detail}"),
            TrainError::EmptyCorpus => write!(f, "cannot train a pipeline on an empty corpus"),
            TrainError::NoCentroidEvidence => {
                write!(f, "corpus yielded no usable centroid evidence on either axis")
            }
            TrainError::Interrupted { at } => write!(f, "training interrupted at {at}"),
            TrainError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
        }
    }
}

impl std::error::Error for TrainError {}

/// What training did, for logs and EXPERIMENTS.md.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct TrainSummary {
    /// Training sentences extracted.
    pub sentences: usize,
    /// SGNS (center, context) pairs processed.
    pub sgns_pairs: u64,
    /// Fine-tuning report (if enabled).
    pub finetune: Option<FinetuneReport>,
    /// Tables whose weak labels came from markup (vs positional fallback).
    pub markup_bootstrapped: usize,
}

/// Recycled warm [`ClassifyScratch`]es, shared by every classify entry
/// point on one [`Pipeline`].
///
/// The expensive part of a scratch is not its buffers but its *warmth*:
/// the term interner and cell-text memo amortize tokenization and
/// embedding lookups across every table they have ever seen. Dropping
/// that state between `classify_corpus` calls (or between per-table
/// `classify` calls) re-pays the whole vocabulary warmup per call, which
/// dominates the batch profile. The pool keeps scratches alive across
/// calls; scratch contents never influence verdicts (the bit-identity
/// property suite pins this), so recycling is invisible to callers.
///
/// Never serialized and never cloned with contents — a cloned or
/// deserialized pipeline starts with a cold pool.
struct ScratchPool {
    slots: tabmeta_obs::lockorder::TrackedMutex<Vec<ClassifyScratch>>,
}

/// A scratch whose memo tables outgrow this many entries is retired
/// instead of pooled, bounding pool memory on unbounded-vocabulary
/// streams (a long-lived server classifying arbitrary corpora).
const SCRATCH_RETIRE_ENTRIES: usize = 1 << 20;

impl ScratchPool {
    fn new() -> Self {
        Self {
            slots: tabmeta_obs::lockorder::TrackedMutex::new(
                &tabmeta_obs::lockorder::CORE_SCRATCH,
                Vec::new(),
            ),
        }
    }

    /// A pooled warm scratch, if any is idle.
    fn checkout(&self) -> Option<ClassifyScratch> {
        self.slots.lock().pop()
    }

    /// Return a scratch for reuse, unless its memos have grown past the
    /// retirement bound.
    fn checkin(&self, scratch: ClassifyScratch) {
        if scratch.memo_entries() > SCRATCH_RETIRE_ENTRIES {
            return;
        }
        self.slots.lock().push(scratch);
    }
}

impl Clone for ScratchPool {
    fn clone(&self) -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ScratchPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let idle = self.slots.lock().len();
        f.debug_struct("ScratchPool").field("idle", &idle).finish()
    }
}

/// Fewest tables [`Pipeline::classify_corpus`] hands each worker thread.
/// A batch too small to give every worker this many runs on fewer
/// workers, down to one on the calling thread.
// Two threads first beat one at 15 tables a worker on both CKG and the
// six-kind mix (sweep in EXPERIMENTS.md, "Small batches on the calling thread").
pub const MIN_TABLES_PER_WORKER: usize = 15;

/// Worker count of a `classify_corpus` batch of `tables` tables on
/// `threads` rayon threads.
fn batch_workers(threads: usize, tables: usize) -> usize {
    threads.min(tables / MIN_TABLES_PER_WORKER).max(1)
}

/// A trained classification pipeline.
#[derive(Debug, Clone)]
pub struct Pipeline {
    embedder: AnyEmbedder,
    tokenizer: Tokenizer,
    classifier: Classifier,
    summary: TrainSummary,
    /// Warm scratch recycled across classify calls; runtime-only state
    /// (skipped by the hand-written serde impls below).
    scratch_pool: ScratchPool,
}

// Hand-written (de)serialization: the derive macro serializes every
// field, but `scratch_pool` is runtime-only cache state (a Mutex, and
// deliberately absent from artifacts). The four model fields keep the
// derive's exact map layout, so existing saved pipelines load unchanged.
impl serde::Serialize for Pipeline {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_content(serde::Content::Map(vec![
            ("embedder".to_string(), serde::to_content(&self.embedder)),
            ("tokenizer".to_string(), serde::to_content(&self.tokenizer)),
            ("classifier".to_string(), serde::to_content(&self.classifier)),
            ("summary".to_string(), serde::to_content(&self.summary)),
        ]))
    }
}

impl<'de> serde::Deserialize<'de> for Pipeline {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.deserialize_content()? {
            serde::Content::Map(mut entries) => Ok(Pipeline {
                embedder: serde::de::take_field(&mut entries, "embedder")
                    .map_err(serde::de::Error::custom)?,
                tokenizer: serde::de::take_field(&mut entries, "tokenizer")
                    .map_err(serde::de::Error::custom)?,
                classifier: serde::de::take_field(&mut entries, "classifier")
                    .map_err(serde::de::Error::custom)?,
                summary: serde::de::take_field(&mut entries, "summary")
                    .map_err(serde::de::Error::custom)?,
                scratch_pool: ScratchPool::new(),
            }),
            other => {
                Err(serde::de::Error::custom(format!("expected pipeline object, found {other:?}")))
            }
        }
    }
}

impl Pipeline {
    /// Train the full pipeline on a corpus (unsupervised: only markup or
    /// positional weak labels are consumed, never ground truth).
    pub fn train(tables: &[Table], config: &PipelineConfig) -> Result<Self, TrainError> {
        Ok(Self::train_with_checkpoints(tables, config, None, None)?.0)
    }

    /// [`Pipeline::train`] with crash-safe checkpointing and a boundary
    /// hook — the resident twin of [`crate::stream::train_streaming`],
    /// run by the same driver with the slice as its one IO shard.
    ///
    /// With a `checkpoint_dir`, the newest valid checkpoint there is
    /// resumed (the scan report is in [`StreamSummary::scan`]) and one is
    /// written at every SGNS epoch, fine-tune epoch and folded centroid
    /// shard. Everything pure (sentences, vocabulary, weak labels) is
    /// recomputed, so at `threads = 1` a resumed run is **bit-identical**
    /// to an uninterrupted one with the same seed. `hook` sees every
    /// [`StreamBoundary`], after its checkpoint is durable, and may stop
    /// training there ([`TrainError::Interrupted`]).
    pub fn train_with_checkpoints(
        tables: &[Table],
        config: &PipelineConfig,
        checkpoint_dir: Option<&Path>,
        hook: Option<StreamHook<'_>>,
    ) -> Result<(Self, StreamSummary), TrainError> {
        let shard_tables = tables.len().div_ceil(config.threads.max(1));
        train::run(TableSource::Resident(tables), config, shard_tables, checkpoint_dir, hook)
    }

    /// Classify one table.
    ///
    /// Uses a pooled warm scratch when one is idle (the verdict is
    /// bit-identical either way), so repeated single-table calls amortize
    /// tokenization and vocabulary lookups like the batch path does.
    pub fn classify(&self, table: &Table) -> Verdict {
        self.with_pooled_scratch(|scratch| self.classify_with_scratch(table, scratch))
    }

    /// Fresh reusable scratch for [`Pipeline::classify_with_scratch`] and
    /// [`Pipeline::classify_with_trace`].
    pub fn classify_scratch(&self) -> ClassifyScratch {
        self.classifier.scratch()
    }

    /// [`Pipeline::classify`] with caller-owned scratch (see
    /// [`Classifier::classify`]).
    pub fn classify_with_scratch(&self, table: &Table, scratch: &mut ClassifyScratch) -> Verdict {
        self.classifier.classify(table, &self.embedder, &self.tokenizer, scratch, None)
    }

    /// Classify one table with caller-owned scratch, recording the angle
    /// walk (Fig. 5).
    pub fn classify_with_trace(
        &self,
        table: &Table,
        scratch: &mut ClassifyScratch,
    ) -> (Verdict, Vec<TraceStep>) {
        let mut trace = Vec::new();
        let verdict = self.classifier.classify(
            table,
            &self.embedder,
            &self.tokenizer,
            scratch,
            Some(&mut trace),
        );
        (verdict, trace)
    }

    /// Classify a batch of tables — a corpus, the hybrid router's deep
    /// subset, or one served request — in parallel (the "scalable" in the
    /// title: per-table classification is embarrassingly parallel).
    ///
    /// The batch splits into one contiguous chunk per worker, each
    /// classified on one pooled warm scratch; verdicts come back in input
    /// order and are bit-identical to per-table [`Pipeline::classify`].
    /// The worker count is the rayon thread count capped at
    /// `tables.len() / MIN_TABLES_PER_WORKER`: a batch of fewer than
    /// `2 * MIN_TABLES_PER_WORKER` tables is one chunk, classified on the
    /// calling thread with no thread spawned.
    /// The call is timed by the `classify` span and sets the
    /// `classify.tables_per_sec` and `classify.interned_terms` gauges.
    ///
    /// An empty batch is explicit: no `classify` span is opened and
    /// `classify.tables_per_sec` reads zero, so bench and serve layers can
    /// never misread a stale gauge from an earlier run.
    pub fn classify_corpus<T: Borrow<Table> + Sync>(&self, tables: &[T]) -> Vec<Verdict> {
        let obs = tabmeta_obs::global();
        if tables.is_empty() {
            obs.gauge(names::CLASSIFY_TABLES_PER_SEC).set(0.0);
            return Vec::new();
        }
        let workers = batch_workers(rayon::current_num_threads(), tables.len());
        let chunks: Vec<&[T]> = tables.chunks(tables.len().div_ceil(workers)).collect();
        // Timed through the span registry so `classify.tables_per_sec`
        // and the `classify` span report the same wall-clock interval.
        let (per_chunk, elapsed) =
            obs.timed(names::SPAN_CLASSIFY, || -> Vec<(Vec<Verdict>, usize)> {
                chunks
                    .par_iter()
                    .map(|chunk| {
                        self.with_pooled_scratch(|scratch| {
                            let verdicts: Vec<Verdict> = chunk
                                .iter()
                                .map(|t| self.classify_with_scratch(t.borrow(), scratch))
                                .collect();
                            (verdicts, scratch.interned_terms())
                        })
                    })
                    .collect()
            });
        let secs = elapsed.as_secs_f64();
        if secs > 0.0 {
            obs.gauge(names::CLASSIFY_TABLES_PER_SEC).set(tables.len() as f64 / secs);
        }
        let interned: usize = per_chunk.iter().map(|(_, n)| n).sum();
        obs.gauge(names::CLASSIFY_INTERNED_TERMS).set(interned as f64);
        per_chunk.into_iter().flat_map(|(verdicts, _)| verdicts).collect()
    }

    /// [`Pipeline::classify_corpus`] under its earlier name, kept for
    /// callers built against it.
    pub fn classify_corpus_cached(&self, tables: &[Table]) -> Vec<Verdict> {
        self.classify_corpus(tables)
    }

    /// Run `f` on a pooled warm scratch (a fresh one when none is idle),
    /// then return the scratch to the pool.
    fn with_pooled_scratch<R>(&self, f: impl FnOnce(&mut ClassifyScratch) -> R) -> R {
        let mut scratch = self.scratch_pool.checkout().unwrap_or_else(|| self.classifier.scratch());
        let out = f(&mut scratch);
        self.scratch_pool.checkin(scratch);
        out
    }

    /// The trained centroid model (paper Tables I–IV are views of this).
    pub fn centroids(&self) -> &CentroidModel {
        &self.classifier.centroids
    }

    /// Training summary.
    pub fn summary(&self) -> &TrainSummary {
        &self.summary
    }

    /// The embedder (read access, e.g. for nearest-neighbour inspection).
    pub fn embedder(&self) -> &AnyEmbedder {
        &self.embedder
    }

    /// The tokenizer the pipeline was trained with.
    pub fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }

    /// Mutable access to classification knobs (margins, depth caps, CMD).
    pub fn classifier_config_mut(&mut self) -> &mut crate::classifier::ClassifierConfig {
        &mut self.classifier.config
    }

    /// Serialize the trained pipeline (embeddings, centroids, tokenizer
    /// and classifier knobs) to JSON — train once, classify anywhere.
    /// The output is byte-deterministic (maps serialize key-sorted), which
    /// is what makes the resume determinism gate checkable by comparison.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Restore a pipeline saved with [`Pipeline::to_json`], deep-validating
    /// it before it can reach the classify path: weight-matrix shapes vs.
    /// the vocabulary, centroid reference dimensions vs. the embedder,
    /// range ordering, and finiteness of every number.
    pub fn from_json(json: &str) -> Result<Self, ArtifactError> {
        let pipeline: Self = serde_json::from_str(json)
            .map_err(|e| ArtifactError::SchemaInvalid { detail: format!("pipeline: {e}") })?;
        pipeline.validate()?;
        Ok(pipeline)
    }

    /// Deep structural/numeric validation of a deserialized pipeline.
    pub fn validate(&self) -> Result<(), ArtifactError> {
        self.embedder.validate_integrity().map_err(|f| match f {
            IntegrityFault::Shape { detail } => ArtifactError::DimensionMismatch { detail },
            IntegrityFault::NonFinite { location } => ArtifactError::NonFiniteWeights { location },
        })?;
        let dim = self.embedder.dim();
        for (axis, ax) in [
            ("rows", &self.classifier.centroids.rows),
            ("columns", &self.classifier.centroids.columns),
        ] {
            validate_axis(axis, ax, dim)?;
        }
        Ok(())
    }
}

/// Validate one axis of the centroid model against the embedder dimension.
fn validate_axis(axis: &str, ax: &AxisCentroids, dim: usize) -> Result<(), ArtifactError> {
    for (name, v) in [("meta_ref", &ax.meta_ref), ("data_ref", &ax.data_ref)] {
        if v.len() != dim {
            return Err(ArtifactError::DimensionMismatch {
                detail: format!(
                    "centroids.{axis}.{name} has {} components but the embedder dimension \
                     is {dim}",
                    v.len()
                ),
            });
        }
        if let Some(i) = v.iter().position(|x| !x.is_finite()) {
            return Err(ArtifactError::NonFiniteWeights {
                location: format!("centroids.{axis}.{name}[{i}]"),
            });
        }
    }
    for (name, r) in [("c_mde", &ax.c_mde), ("c_de", &ax.c_de), ("c_mde_de", &ax.c_mde_de)] {
        validate_range(&format!("centroids.{axis}.{name}"), r)?;
    }
    for l in &ax.levels {
        for (name, r) in [
            ("prev_range", &l.prev_range),
            ("to_data_range", &l.to_data_range),
            ("c_mde", &l.c_mde),
            ("c_mde_de", &l.c_mde_de),
            ("c_de", &l.c_de),
        ] {
            validate_range(&format!("centroids.{axis}.level{}.{name}", l.level), r)?;
        }
        for (name, d) in
            [("delta_prev_meta", l.delta_prev_meta), ("delta_to_data", l.delta_to_data)]
        {
            if let Some(d) = d {
                if !d.is_finite() {
                    return Err(ArtifactError::NonFiniteWeights {
                        location: format!("centroids.{axis}.level{}.{name}", l.level),
                    });
                }
            }
        }
    }
    Ok(())
}

/// An angle range is valid when empty (the "no evidence" sentinel, which
/// the classifier treats as never-matching) or finite with `lo <= hi`.
fn validate_range(location: &str, r: &AngleRange) -> Result<(), ArtifactError> {
    if r.is_empty() {
        return Ok(());
    }
    if !r.lo.is_finite() || !r.hi.is_finite() {
        return Err(ArtifactError::NonFiniteWeights { location: location.to_string() });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use tabmeta_corpora::{CorpusKind, GeneratorConfig};
    use tabmeta_tabular::LevelLabel;

    #[test]
    fn empty_corpus_is_an_error() {
        assert_eq!(
            Pipeline::train(&[], &PipelineConfig::fast()).unwrap_err(),
            TrainError::EmptyCorpus
        );
    }

    #[test]
    fn end_to_end_on_generated_corpus() {
        let corpus = CorpusKind::Ckg.generate(&GeneratorConfig { n_tables: 120, seed: 21 });
        let pipeline = Pipeline::train(&corpus.tables, &PipelineConfig::fast_seeded(21))
            .expect("training succeeds");
        assert!(pipeline.summary().sentences > 0);
        assert!(pipeline.summary().sgns_pairs > 0);
        assert!(pipeline.summary().markup_bootstrapped > 0);

        // Level-1 HMD accuracy on the training corpus must be far above
        // chance — the smoke test that the whole geometry works.
        let mut correct = 0usize;
        let mut total = 0usize;
        for t in &corpus.tables {
            let v = pipeline.classify(t);
            let truth = t.truth.as_ref().unwrap();
            total += 1;
            if (v.hmd_depth >= 1) == (truth.hmd_depth() >= 1)
                && v.rows.first() == truth.rows.first()
            {
                correct += 1;
            }
        }
        let acc = correct as f32 / total as f32;
        assert!(acc > 0.8, "HMD1 accuracy too low: {acc}");
    }

    #[test]
    fn small_batches_run_on_one_worker() {
        const C: usize = MIN_TABLES_PER_WORKER;
        let sizes = [0, 1, C - 1, C, 2 * C - 1, 2 * C, 600];
        for (threads, want) in
            [(1, [1, 1, 1, 1, 1, 1, 1]), (2, [1, 1, 1, 1, 1, 2, 2]), (4, [1, 1, 1, 1, 1, 2, 4])]
        {
            let got = sizes.map(|n| batch_workers(threads, n));
            assert_eq!(got, want, "{threads} threads over batches of {sizes:?}");
        }
    }

    #[test]
    fn corpus_classification_is_parallel_consistent() {
        let corpus = CorpusKind::Saus.generate(&GeneratorConfig { n_tables: 60, seed: 4 });
        let pipeline = Pipeline::train(&corpus.tables, &PipelineConfig::fast_seeded(4)).unwrap();
        let seq: Vec<Verdict> = corpus.tables.iter().map(|t| pipeline.classify(t)).collect();
        let par = pipeline.classify_corpus(&corpus.tables);
        assert_eq!(seq, par);
    }

    #[test]
    fn cached_corpus_path_matches_per_table_classify() {
        let corpus = CorpusKind::Ckg.generate(&GeneratorConfig { n_tables: 70, seed: 33 });
        let pipeline = Pipeline::train(&corpus.tables, &PipelineConfig::fast_seeded(33)).unwrap();
        let per_table: Vec<Verdict> = corpus.tables.iter().map(|t| pipeline.classify(t)).collect();
        assert_eq!(pipeline.classify_corpus_cached(&corpus.tables), per_table);
        // A batch of references preserves the caller's (scattered) order.
        let refs: Vec<&Table> = corpus.tables.iter().rev().collect();
        let rev: Vec<Verdict> = per_table.iter().rev().cloned().collect();
        assert_eq!(pipeline.classify_corpus(&refs), rev);
    }

    #[test]
    fn empty_corpus_classification_is_explicit() {
        let corpus = CorpusKind::Saus.generate(&GeneratorConfig { n_tables: 40, seed: 9 });
        let pipeline = Pipeline::train(&corpus.tables, &PipelineConfig::fast_seeded(9)).unwrap();
        // Leave a non-zero throughput behind, then classify nothing: the
        // gauge must be explicitly reset, not left stale.
        pipeline.classify_corpus(&corpus.tables);
        let gauge = tabmeta_obs::global().gauge(names::CLASSIFY_TABLES_PER_SEC);
        assert!(gauge.get() > 0.0, "non-empty run sets a throughput");
        let classify_spans = || {
            tabmeta_obs::global()
                .spans()
                .snapshot()
                .iter()
                .filter(|(p, _)| p == names::SPAN_CLASSIFY || p.ends_with("/classify"))
                .map(|(_, s)| s.count)
                .sum::<u64>()
        };
        let spans_before = classify_spans();
        assert_eq!(pipeline.classify_corpus::<Table>(&[]), Vec::<Verdict>::new());
        assert_eq!(gauge.get(), 0.0, "empty corpus records zero, not a stale rate");
        assert_eq!(classify_spans(), spans_before, "empty corpus opens no classify span");
        assert_eq!(pipeline.classify_corpus::<&Table>(&[]), Vec::<Verdict>::new());
    }

    #[test]
    fn verdict_shapes_match_tables() {
        let corpus = CorpusKind::Wdc.generate(&GeneratorConfig { n_tables: 50, seed: 8 });
        let pipeline = Pipeline::train(&corpus.tables, &PipelineConfig::fast_seeded(8)).unwrap();
        for t in &corpus.tables {
            let v = pipeline.classify(t);
            assert_eq!(v.rows.len(), t.n_rows());
            assert_eq!(v.columns.len(), t.n_cols());
            // Depth is consistent with labels.
            let max_hmd = v
                .rows
                .iter()
                .filter_map(|l| match l {
                    LevelLabel::Hmd(k) => Some(*k),
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            assert_eq!(max_hmd, v.hmd_depth);
        }
    }

    #[test]
    fn chargram_pipeline_trains_too() {
        let corpus = CorpusKind::Cord19.generate(&GeneratorConfig { n_tables: 60, seed: 13 });
        let pipeline = Pipeline::train(&corpus.tables, &PipelineConfig::fast_chargram(13)).unwrap();
        let v = pipeline.classify(&corpus.tables[0]);
        assert_eq!(v.rows.len(), corpus.tables[0].n_rows());
    }

    #[test]
    fn pipeline_persistence_roundtrip() {
        let corpus = CorpusKind::Saus.generate(&GeneratorConfig { n_tables: 80, seed: 19 });
        let pipeline = Pipeline::train(&corpus.tables, &PipelineConfig::fast_seeded(19)).unwrap();
        let json = pipeline.to_json().unwrap();
        let restored = Pipeline::from_json(&json).expect("round-trips");
        for t in corpus.tables.iter().take(20) {
            assert_eq!(pipeline.classify(t), restored.classify(t));
        }
        assert_eq!(restored.summary().sentences, pipeline.summary().sentences);
    }

    #[test]
    fn centroid_resume_skips_exactly_the_folded_tables() {
        // Killed after the first of four per-thread centroid shards, then
        // resumed at one thread (one 40-table shard): the resume must
        // skip the 10 folded tables, not one resumed-size shard of 40.
        let corpus = CorpusKind::Ckg.generate(&GeneratorConfig { n_tables: 40, seed: 71 });
        let config = PipelineConfig::fast_seeded(71).without_finetune();
        let dir =
            std::env::temp_dir().join(format!("tabmeta-resume-tables-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut kill = |at: StreamBoundary| {
            if at == StreamBoundary::CentroidShard(1) {
                std::ops::ControlFlow::Break(())
            } else {
                std::ops::ControlFlow::Continue(())
            }
        };
        let parallel = config.clone().with_threads(4);
        let err = Pipeline::train_with_checkpoints(
            &corpus.tables,
            &parallel,
            Some(&dir),
            Some(&mut kill),
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(err, TrainError::Interrupted { at: StreamBoundary::CentroidShard(1) });
        let (resumed, summary) =
            Pipeline::train_with_checkpoints(&corpus.tables, &config, Some(&dir), None).unwrap();
        assert_eq!(summary.resumed_from(), Some("ckpt-2-00001.tma"));
        let full = Pipeline::train(&corpus.tables, &config).unwrap();
        assert_eq!(
            resumed.summary().markup_bootstrapped,
            full.summary().markup_bootstrapped,
            "every table is labeled and folded exactly once"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_is_available_end_to_end() {
        let corpus = CorpusKind::Ckg.generate(&GeneratorConfig { n_tables: 60, seed: 5 });
        let pipeline = Pipeline::train(&corpus.tables, &PipelineConfig::fast_seeded(5)).unwrap();
        let (v, trace) =
            pipeline.classify_with_trace(&corpus.tables[3], &mut pipeline.classify_scratch());
        assert!(!trace.is_empty());
        assert_eq!(v.rows.len(), corpus.tables[3].n_rows());
    }
}
