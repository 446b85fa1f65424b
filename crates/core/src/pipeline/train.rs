//! The training driver: one stage sequence over a table source.
//!
//! [`Pipeline::train`] over a resident slice and
//! [`crate::stream::train_streaming`] over a corpus directory both run
//! [`run`], over a [`TableSource`] with two variants: a resident
//! `&[Table]`, which is one IO shard, and a [`ShardReader`] directory
//! streamed in budgeted IO shards. The stages are passes over the source:
//!
//! * **Pass A (vocabulary)** extracts every table's sentences, counts
//!   them once for the run, folds them into the vocabulary, and for a
//!   directory folds each accepted table into the run fingerprint. Its
//!   ingestion report is the one a directory publishes: conservation
//!   (`accepted + quarantined == total`) holds exactly even under
//!   injected disk faults.
//! * **Pass B (SGNS)** re-extracts the sentences, encodes them to `u32`
//!   ids against the frozen vocabulary (ids, not strings, accumulate),
//!   and trains Word2Vec or CharGram through `train_encoded_resumable`.
//! * **Fine-tuning** is one more pass per epoch on one mining RNG: each
//!   shard is weakly labeled afresh (labels are pure per table) and tuned
//!   in corpus order. Every pair lies inside one table, so where shards
//!   split never shows.
//! * **Pass C (centroids)** labels each shard once more — the labeling
//!   the `bootstrap.*` counters count — and folds logical shards of
//!   tables into the centroid accumulators ([`CentroidFold`]). A resident
//!   source folds `threads` equal shards, so at `threads = 1` its fold is
//!   the sequential estimate; a directory folds shards of
//!   `centroid_shard_tables`.
//!
//! Every IO shard of passes A and B, SGNS epoch, fine-tune epoch and
//! folded logical shard is a [`StreamBoundary`]; at the last three the
//! [`Sink`] first writes a checkpoint when a checkpoint directory is
//! given. A run resumes from the newest valid checkpoint there, so at
//! `threads = 1` a killed run finishes byte-identical to an
//! uninterrupted one.

use rayon::prelude::*;
use std::ops::ControlFlow;
use std::path::Path;
use tabmeta_embed::{
    sentences_from_tables_par, CharGram, CharGramConfig, SgnsConfig, SgnsResume, TermEmbedder,
    VocabBuilder, Word2Vec,
};
use tabmeta_obs::names;
use tabmeta_tabular::stream::ShardReader;
use tabmeta_tabular::{QuarantineReport, Table};
use tabmeta_text::Tokenizer;

use super::{AnyEmbedder, Pipeline, ScratchPool, TrainError, TrainSummary};
use crate::bootstrap::{BootstrapLabeler, WeakLabels};
use crate::centroid::CentroidFold;
use crate::checkpoint::{CheckpointStage, CheckpointStore, TrainCheckpoint};
use crate::classifier::Classifier;
use crate::config::{EmbeddingChoice, PipelineConfig};
use crate::finetune::{self, FinetuneResume};
use crate::persist::{run_fingerprint, ArtifactError, StreamFingerprint};
use crate::stream::{StreamBoundary, StreamBudget, StreamHook, StreamSummary};

/// Where training reads its tables from.
pub(crate) enum TableSource<'a> {
    /// A corpus already in memory: one IO shard.
    Resident(&'a [Table]),
    /// A corpus directory, streamed in IO shards the budget governor
    /// sizes.
    Dir {
        /// The restartable reader; each pass starts from the first record.
        reader: ShardReader,
        /// The memory-budget governor.
        budget: StreamBudget,
    },
}

impl TableSource<'_> {
    /// One in-order pass: `f` sees every IO shard with its index and may
    /// stop the pass with an error. What `f` returns is the shard's
    /// working set (what the pass derived from it): it stays alive until
    /// the budget governor has measured the heap at the shard boundary,
    /// so shrinking shards answers for all of it. Returns the pass's
    /// ingestion report.
    fn pass<T>(
        &mut self,
        name: &'static str,
        mut f: impl FnMut(usize, &[Table]) -> Result<T, TrainError>,
    ) -> Result<QuarantineReport, TrainError> {
        match self {
            TableSource::Resident(tables) => {
                if !tables.is_empty() {
                    f(0, tables)?;
                }
                let n = tables.len();
                Ok(QuarantineReport { total: n, accepted: n, ..QuarantineReport::new("memory") })
            }
            TableSource::Dir { reader, budget } => {
                let mut cursor = reader.pass();
                while let Some(shard) = cursor.next_shard(budget.rows()) {
                    let working_set = f(shard.index, &shard.tables);
                    budget.observe_boundary(name, shard.index);
                    working_set?;
                }
                Ok(cursor.finish())
            }
        }
    }
}

/// The checkpoint-then-hook sink every boundary goes through.
struct Sink<'h> {
    store: Option<CheckpointStore>,
    hook: Option<StreamHook<'h>>,
    /// Training sentences, recorded in every checkpoint.
    sentences: usize,
}

impl Sink<'_> {
    /// Whether anything observes epoch boundaries; SGNS trains without
    /// an epoch sink otherwise.
    fn observed(&self) -> bool {
        self.store.is_some() || self.hook.is_some()
    }

    /// Give the hook its chance to stop training at `at`.
    fn fire(&mut self, at: StreamBoundary) -> Result<(), TrainError> {
        match self.hook.as_mut().map(|hook| hook(at)) {
            Some(ControlFlow::Break(())) => Err(TrainError::Interrupted { at }),
            _ => Ok(()),
        }
    }

    /// Make the checkpoint for `at` durable (when a store is attached),
    /// then fire the hook.
    fn checkpoint(
        &mut self,
        at: StreamBoundary,
        state: impl FnOnce() -> (CheckpointStage, AnyEmbedder),
    ) -> Result<(), TrainError> {
        if let Some(store) = &self.store {
            let (stage, embedder) = state();
            let checkpoint = TrainCheckpoint { stage, embedder, sentences: self.sentences };
            store.write(&checkpoint).map_err(TrainError::Checkpoint)?;
        }
        self.fire(at)
    }
}

/// Weak labels for one shard, under the `bootstrap` span. Labeling is
/// pure per table, so every pass that needs labels recomputes its own.
fn label(tables: &[Table], labeler: &BootstrapLabeler, threads: usize) -> Vec<WeakLabels> {
    let _span = tabmeta_obs::global().span(names::SPAN_BOOTSTRAP);
    if threads > 1 {
        tables.par_iter().map(|t| labeler.label(t)).collect()
    } else {
        tables.iter().map(|t| labeler.label(t)).collect()
    }
}

/// Train a pipeline from `source`, folding centroids in logical shards
/// of `shard_tables` tables, checkpointing into (and resuming from)
/// `checkpoint_dir`, and reporting every boundary to `hook`.
pub(crate) fn run(
    mut source: TableSource<'_>,
    config: &PipelineConfig,
    shard_tables: usize,
    checkpoint_dir: Option<&Path>,
    hook: Option<StreamHook<'_>>,
) -> Result<(Pipeline, StreamSummary), TrainError> {
    let obs = tabmeta_obs::global();
    let streamed = matches!(source, TableSource::Dir { .. });
    let _run_span = obs.span(if streamed { names::SPAN_STREAM_TRAIN } else { names::SPAN_TRAIN });
    let threads = config.threads.max(1);
    obs.gauge(names::TRAIN_THREADS).set(threads as f64);
    let tokenizer = Tokenizer::default();
    let mut sink = Sink { store: None, hook, sentences: 0 };

    // ---- Pass A: vocabulary, sentence count, and a directory's
    // fingerprint. Always runs in full: the fingerprint must exist
    // before the checkpoint store can open.
    let embed_span = obs.span(names::SPAN_EMBED);
    let mut vocab = VocabBuilder::new();
    let mut stream_fp = StreamFingerprint::new(config, shard_tables);
    let sentence_count = obs.counter(names::EMBED_SENTENCES);
    let sentence_lens = obs.histogram_with(names::EMBED_SENTENCE_LEN, 1, 256);
    let (mut io_shards, mut n_sentences) = (0usize, 0usize);
    let report = source.pass("vocab", |index, tables| {
        io_shards += 1;
        if streamed {
            tables.iter().for_each(|t| stream_fp.fold_table(t));
        }
        let sentences = sentences_from_tables_par(tables, &tokenizer, &config.sentences, threads);
        n_sentences += sentences.len();
        sentence_count.add(sentences.len() as u64);
        for sentence in &sentences {
            sentence_lens.record(sentence.len() as u64);
            vocab.observe(sentence);
        }
        sink.fire(StreamBoundary::VocabShard(index)).map(|()| sentences)
    })?;
    drop(embed_span);
    if streamed {
        report.publish_metrics();
    }
    if report.accepted == 0 {
        return Err(TrainError::EmptyCorpus);
    }
    sink.sentences = n_sentences;

    // ---- Checkpoint scan: the store validates against this run's
    // fingerprint, so checkpoints of another corpus, config, or source
    // kind are quarantined rather than resumed.
    let fingerprint = match &source {
        TableSource::Resident(tables) => run_fingerprint(config, tables),
        TableSource::Dir { .. } => stream_fp.finish(),
    };
    let mut scan = None;
    let mut resume = None;
    if let Some(dir) = checkpoint_dir {
        let store = CheckpointStore::open(dir, fingerprint).map_err(TrainError::Checkpoint)?;
        let (checkpoint, report) = store.latest_valid().map_err(TrainError::Checkpoint)?;
        if let Some(epoch) =
            checkpoint.as_ref().and_then(|c| c.stage.boundary().global_epoch(config))
        {
            obs.gauge(names::CHECKPOINT_RESUMED_EPOCH).set(epoch as f64);
        }
        (sink.store, resume, scan) = (Some(store), checkpoint, Some(report));
    }

    // ---- Pass B and SGNS, unless the checkpoint is past them.
    let (mut embedder, sgns_pairs, finetune_resume, centroid_resume) = match resume
        .map(|c| (c.stage, c.embedder))
    {
        Some((CheckpointStage::Finetune { sgns_pairs, resume }, embedder)) => {
            (embedder, sgns_pairs, Some(resume), None)
        }
        Some((CheckpointStage::CentroidShard { sgns_pairs, finetune, resume }, embedder)) => {
            (embedder, sgns_pairs, None, Some((finetune, *resume)))
        }
        Some((CheckpointStage::Sgns(state), embedder)) => {
            let (embedder, pairs) =
                embed(&mut source, config, &tokenizer, vocab, Some((embedder, state)), &mut sink)?;
            (embedder, pairs, None, None)
        }
        None => {
            let (embedder, pairs) = embed(&mut source, config, &tokenizer, vocab, None, &mut sink)?;
            (embedder, pairs, None, None)
        }
    };

    // ---- Fine-tuning: one pass per epoch.
    let (finetune, centroid_resume) = match (centroid_resume, &config.finetune) {
        (Some((done, resume)), _) => (done, Some(resume)),
        (None, None) => (None, None),
        (None, Some(ft)) => {
            let _span = obs.span(names::SPAN_FINETUNE);
            let mut state = finetune_resume.unwrap_or_else(|| FinetuneResume::fresh(ft));
            while state.epochs_done < ft.epochs {
                let (next, pass) = finetune::epoch(state, |epoch| {
                    source.pass("finetune", |_, tables| {
                        let weak = label(tables, &config.bootstrap, threads);
                        for (table, labels) in tables.iter().zip(&weak) {
                            epoch.tune(table, labels, &mut embedder, &tokenizer, ft);
                        }
                        Ok(weak)
                    })
                });
                pass?;
                state = next;
                sink.checkpoint(StreamBoundary::FinetuneEpoch(state.epochs_done), || {
                    (
                        CheckpointStage::Finetune { sgns_pairs, resume: state.clone() },
                        embedder.clone(),
                    )
                })?;
            }
            (Some(state.report), None)
        }
    };

    // ---- Pass C: weak labels + the centroid fold, checkpointed per
    // logical shard. A resume skips exactly the tables already folded.
    let mut fold =
        CentroidFold::new(&config.centroid, embedder.dim(), shard_tables, centroid_resume);
    let mut skip = fold.tables_done();
    source.pass("centroid", |_, tables| {
        let skipped = skip.min(tables.len());
        skip -= skipped;
        let tables = &tables[skipped..];
        let weak = label(tables, &config.bootstrap, threads);
        obs.counter(names::BOOTSTRAP_TABLES).add(weak.len() as u64);
        let markup = weak.iter().filter(|w| w.from_markup).count();
        obs.counter(names::BOOTSTRAP_MARKUP_TABLES).add(markup as u64);
        let _span = obs.span(names::SPAN_CENTROID);
        fold.observe(tables, &weak, &embedder, &tokenizer, threads, |fold| {
            sink.checkpoint(StreamBoundary::CentroidShard(fold.shards_done()), || {
                let resume = Box::new(fold.resume_state());
                (CheckpointStage::CentroidShard { sgns_pairs, finetune, resume }, embedder.clone())
            })
        })
        .map(|()| weak)
    })?;
    let centroid_span = obs.span(names::SPAN_CENTROID);
    let (centroids, centroid_shards, markup_bootstrapped) = fold.finish();
    drop(centroid_span);
    if !centroids.rows.is_usable() && !centroids.columns.is_usable() {
        return Err(TrainError::NoCentroidEvidence);
    }

    let summary =
        TrainSummary { sentences: n_sentences, sgns_pairs, finetune, markup_bootstrapped };
    let spills = match source {
        TableSource::Resident(_) => Vec::new(),
        TableSource::Dir { budget, .. } => budget.spills,
    };
    let pipeline = Pipeline {
        embedder,
        tokenizer,
        classifier: Classifier { centroids, config: config.classifier.clone() },
        summary: summary.clone(),
        scratch_pool: ScratchPool::new(),
    };
    let summary = StreamSummary {
        train: summary,
        report,
        fingerprint,
        io_shards,
        centroid_shards,
        spills,
        scan,
    };
    Ok((pipeline, summary))
}

/// Pass B and SGNS: encode every sentence against the pass-A vocabulary,
/// then train the configured embedder — from scratch, or from `prior`, a
/// mid-stage SGNS checkpoint. Returns the embedder and its pair count.
fn embed(
    source: &mut TableSource<'_>,
    config: &PipelineConfig,
    tokenizer: &Tokenizer,
    vocab: VocabBuilder,
    prior: Option<(AnyEmbedder, SgnsResume)>,
    sink: &mut Sink<'_>,
) -> Result<(AnyEmbedder, u64), TrainError> {
    let _span = tabmeta_obs::global().span(names::SPAN_EMBED);
    let threads = config.threads.max(1);
    let (vocab, encoder) = vocab.finish(config.embedding.sgns().min_count);
    let mut encoded: Vec<Vec<u32>> = Vec::new();
    source.pass("encode", |index, tables| {
        let sentences = sentences_from_tables_par(tables, tokenizer, &config.sentences, threads);
        encoded.extend(sentences.iter().filter_map(|s| encoder.encode(s)));
        sink.fire(StreamBoundary::EncodeShard(index)).map(|()| sentences)
    })?;

    let mismatch = || {
        TrainError::Checkpoint(ArtifactError::SchemaInvalid {
            detail: "checkpoint holds a different embedder than the config trains".to_string(),
        })
    };
    // The one SGNS epoch sink; the `threads` knob reaches SGNS so one
    // setting governs the whole training path.
    let observed = sink.observed();
    let mut failure = None;
    let mut epoch_done = |state: &SgnsResume, embedder: &dyn Fn() -> AnyEmbedder| {
        let at = StreamBoundary::SgnsEpoch(state.epochs_done as u64);
        match sink.checkpoint(at, || (CheckpointStage::Sgns(state.clone()), embedder())) {
            Ok(()) => ControlFlow::Continue(()),
            Err(e) => {
                failure = Some(e);
                ControlFlow::Break(())
            }
        }
    };
    let (embedder, pairs) = match &config.embedding {
        EmbeddingChoice::Word2Vec(sgns) => {
            let prior = match prior {
                None => None,
                Some((AnyEmbedder::Word2Vec(m), state)) => Some((m, state)),
                Some(_) => return Err(mismatch()),
            };
            let mut epoch_sink = |m: &Word2Vec, state: &SgnsResume| {
                epoch_done(state, &|| AnyEmbedder::Word2Vec(m.clone()))
            };
            let sgns = SgnsConfig { threads, ..sgns.clone() };
            let (model, report, _) = Word2Vec::train_encoded_resumable(
                vocab,
                &encoded,
                sgns,
                prior,
                observed.then_some(&mut epoch_sink),
            );
            (AnyEmbedder::Word2Vec(model), report.pairs)
        }
        EmbeddingChoice::CharGram(cfg) => {
            let prior = match prior {
                None => None,
                Some((AnyEmbedder::CharGram(m), state)) => Some((m, state)),
                Some(_) => return Err(mismatch()),
            };
            let mut epoch_sink = |m: &CharGram, state: &SgnsResume| {
                epoch_done(state, &|| AnyEmbedder::CharGram(m.clone()))
            };
            let cfg =
                CharGramConfig { sgns: SgnsConfig { threads, ..cfg.sgns.clone() }, ..cfg.clone() };
            let (model, report, _) = CharGram::train_encoded_resumable(
                vocab,
                &encoded,
                cfg,
                prior,
                observed.then_some(&mut epoch_sink),
            );
            (AnyEmbedder::CharGram(model), report.pairs)
        }
    };
    match failure {
        Some(e) => Err(e),
        None => Ok((embedder, pairs)),
    }
}
