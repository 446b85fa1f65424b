//! The metric-name registry: every instrument name the pipeline records,
//! declared once, checked statically.
//!
//! `tabmeta-lint` (rule TM-L004) parses this file's `pub const` items and
//! cross-checks every `counter(`/`gauge(`/`histogram(`/span call site in
//! the workspace against them: undeclared names, unused declarations, and
//! near-duplicates (edit distance ≤ 1 — the classic metric-typo failure)
//! all fail `scripts/check.sh`. Constants whose value ends in `.` declare
//! a *prefix*: a documented family of dynamically-suffixed names such as
//! `classifier.degraded.<reason>`.
//!
//! [`REGISTRY`] carries the documentation row (kind, unit, emitting
//! stage) for each name; `METRICS.md` at the workspace root is generated
//! from [`render_markdown`] and a test keeps the two in sync.

// --- spans: train path ------------------------------------------------

/// Whole-training span; every other training stage nests under it.
pub const SPAN_TRAIN: &str = "train";
/// Sentence extraction + embedding training stage.
pub const SPAN_EMBED: &str = "embed";
/// Weak labeling of one shard (the counted pass, and each fine-tune
/// epoch's relabeling).
pub const SPAN_BOOTSTRAP: &str = "bootstrap";
/// Contrastive fine-tuning stage.
pub const SPAN_FINETUNE: &str = "finetune";
/// Centroid-range estimation stage.
pub const SPAN_CENTROID: &str = "centroid";
/// One batch classify call — a corpus, a router batch or a served
/// request (root span of the inference path).
pub const SPAN_CLASSIFY: &str = "classify";
/// Sentence extraction inside the embed stage.
pub const SPAN_SENTENCES: &str = "sentences";
/// SGNS training inside the embed stage.
pub const SPAN_SGNS: &str = "sgns";
/// One training epoch (nests under `sgns` and `finetune`).
pub const SPAN_EPOCH: &str = "epoch";
/// CLI `train` command wall-clock (model build end to end).
pub const SPAN_CLI_TRAIN: &str = "cli.train";
/// One durable checkpoint write (serialize + envelope + atomic rename).
pub const SPAN_CHECKPOINT_WRITE: &str = "checkpoint.write";
/// Whole out-of-core training run (all passes).
pub const SPAN_STREAM_TRAIN: &str = "stream.train";

// --- spans: eval harness ----------------------------------------------

/// Eval: our pipeline's training run in the runtime experiment.
pub const SPAN_EVAL_TRAIN_OURS: &str = "eval.train.ours";
/// Eval: Pytheas baseline training.
pub const SPAN_EVAL_TRAIN_PYTHEAS: &str = "eval.train.pytheas";
/// Eval: layout-detector baseline training.
pub const SPAN_EVAL_TRAIN_LAYOUT: &str = "eval.train.layout";
/// Eval: random-forest baseline training.
pub const SPAN_EVAL_TRAIN_RF: &str = "eval.train.rf";
/// Eval: one training run inside the Hogwild threads sweep.
pub const SPAN_EVAL_TRAIN_THREADS_SWEEP: &str = "eval.train.threads_sweep";
/// Eval: one inference pass over a held-out set.
pub const SPAN_EVAL_INFERENCE_PASS: &str = "eval.inference_pass";
/// Eval: one training run inside the corpus-size scaling sweep.
pub const SPAN_EVAL_SCALING_TRAIN: &str = "eval.scaling.train";
/// Eval: one training run inside an ablation variant.
pub const SPAN_EVAL_ABLATION_TRAIN: &str = "eval.ablation.train";
/// Eval: one training run inside the embedding-model comparison.
pub const SPAN_EVAL_EMBEDDINGS_TRAIN: &str = "eval.embeddings.train";

// --- counters ---------------------------------------------------------

/// Records accepted by quarantine-and-continue ingestion.
pub const INGEST_ACCEPTED: &str = "ingest.accepted";
/// Records quarantined (all rejection reasons combined).
pub const INGEST_QUARANTINED: &str = "ingest.quarantined";
/// Per-reason rejection family: `ingest.rejected.<reason>` where
/// `<reason>` is a `RejectReason::as_str` value (`malformed_json`,
/// `invalid_utf8`, `invalid_shape`, `malformed_csv`, `malformed_html`,
/// `io`).
pub const INGEST_REJECTED_PREFIX: &str = "ingest.rejected.";
/// Training sentences extracted from tables, counted once per run.
pub const EMBED_SENTENCES: &str = "embed.sentences";
/// SGNS (center, context) pairs trained, all epochs and workers.
pub const SGNS_PAIRS: &str = "sgns.pairs";
/// Tables weak-labeled for centroid estimation, once per run.
pub const BOOTSTRAP_TABLES: &str = "bootstrap.tables";
/// Tables whose weak labels came from HTML markup (vs positional).
pub const BOOTSTRAP_MARKUP_TABLES: &str = "bootstrap.markup_tables";
/// Contrastive fine-tuning pairs evaluated (positive + negative +
/// satisfied).
pub const FINETUNE_PAIRS: &str = "finetune.pairs";
/// Tables classified.
pub const CLASSIFIER_TABLES: &str = "classifier.tables";
/// Angle-range tests performed during classification walks.
pub const CLASSIFIER_ANGLE_TESTS: &str = "classifier.angle_tests";
/// Axes that routed to the positional fallback instead of the walk.
pub const CLASSIFIER_DEGRADED: &str = "classifier.degraded";
/// Per-reason degraded family: `classifier.degraded.<reason>` where
/// `<reason>` is a `DegradeReason::as_str` value (`unusable_centroids`,
/// `single_level`, `no_signal`, `non_finite`, `model_mismatch`).
pub const CLASSIFIER_DEGRADED_PREFIX: &str = "classifier.degraded.";
/// Artifacts (model files / checkpoints) loaded and fully validated.
pub const ARTIFACT_LOADED: &str = "artifact.loaded";
/// Per-reason artifact rejection family: `artifact.rejected.<reason>`
/// where `<reason>` is an `ArtifactError::reason` value (`truncated`,
/// `checksum_mismatch`, `version_unsupported`, `schema_invalid`,
/// `non_finite_weights`, `dimension_mismatch`, `config_mismatch`, `io`).
pub const ARTIFACT_REJECTED_PREFIX: &str = "artifact.rejected.";
/// Shards produced by the out-of-core streaming reader (all passes).
pub const STREAM_SHARDS: &str = "stream.shards";
/// Budget-driven spill events: shard size was halved because the live
/// heap exceeded the configured memory budget at a shard boundary.
pub const STREAM_SPILLS: &str = "stream.spills";
/// Per-fault shard quarantine family: `shard.quarantined.<fault>` where
/// `<fault>` is a `ShardFault::as_str` value (`short_read`,
/// `short_write`, `no_space`, `torn_rename`, `io`).
pub const SHARD_QUARANTINED_PREFIX: &str = "shard.quarantined.";
/// Training checkpoints durably written.
pub const CHECKPOINT_WRITTEN: &str = "checkpoint.written";
/// Checkpoint files quarantined during a resume scan.
pub const CHECKPOINT_QUARANTINED: &str = "checkpoint.quarantined";
/// Requests admitted to wait for a classify permit (well-formed and accepted).
pub const SERVE_REQUESTS: &str = "serve.requests";
/// Per-reason serve rejection family: `serve.rejected.<reason>` where
/// `<reason>` is a `Status::as_str` value (`overloaded`,
/// `deadline_exceeded`, `bad_request`, `frame_too_large`, `slow_read`,
/// `shutting_down`, `internal_error`) or the wire-level tag
/// `truncated`/`io` for connections that died before a response could
/// be written.
pub const SERVE_REJECTED_PREFIX: &str = "serve.rejected.";
/// Hot model reloads that passed deep validation and were swapped in.
pub const SERVE_RELOADS: &str = "serve.reloads";
/// Hot reload candidates rejected by envelope or deep validation (the
/// server keeps serving the previous model).
pub const SERVE_RELOAD_REJECTED: &str = "serve.reload_rejected";

// --- gauges -----------------------------------------------------------

/// Worker count the training pipeline ran with.
pub const TRAIN_THREADS: &str = "train.threads";
/// Threads-sweep family: `train.threads_sweep.t<n>_secs`, one training
/// wall-clock gauge per worker count in the Hogwild sweep.
pub const TRAIN_THREADS_SWEEP_PREFIX: &str = "train.threads_sweep.";
/// Final SGNS learning rate after decay.
pub const SGNS_LR: &str = "sgns.lr";
/// Mean contrastive loss of the most recent fine-tune epoch.
pub const FINETUNE_LOSS: &str = "finetune.loss";
/// Fine-tune pair throughput of the most recent epoch.
pub const FINETUNE_PAIRS_PER_SEC: &str = "finetune.pairs_per_sec";
/// Wall-clock seconds of the most recent fine-tune epoch.
pub const FINETUNE_EPOCH_SECS: &str = "finetune.epoch_secs";
/// Classification throughput of the most recent `classify_corpus` call.
pub const CLASSIFY_TABLES_PER_SEC: &str = "classify.tables_per_sec";
/// Distinct terms interned across all workers of the most recent batched
/// classify call.
pub const CLASSIFY_INTERNED_TERMS: &str = "classify.interned_terms";
/// Wall-clock seconds of the CLI `train` command's model build.
pub const CLI_TOTAL_SECS: &str = "cli.total_secs";
/// Wall-clock seconds of the most recent checkpoint write.
pub const CHECKPOINT_WRITE_SECS: &str = "checkpoint.write_secs";
/// Global epoch index training resumed from (set once per resume):
/// SGNS epochs, then fine-tune epochs, then centroid shards.
pub const CHECKPOINT_RESUMED_EPOCH: &str = "checkpoint.resumed_epoch";
/// Effective shard row target out-of-core training is currently using
/// (shrinks when the memory budget forces a spill).
pub const STREAM_SHARD_ROWS: &str = "stream.shard_rows";
/// Configured streaming memory budget (0 when unbounded).
pub const STREAM_BUDGET_BYTES: &str = "stream.budget_bytes";
/// Admitted serve requests currently waiting for a classify permit.
pub const SERVE_QUEUE_DEPTH: &str = "serve.queue_depth";
/// Serve requests currently classifying, each holding a permit.
pub const SERVE_IN_FLIGHT: &str = "serve.in_flight";
/// Live heap bytes from the counting allocator (0 when not installed).
pub const MEM_CURRENT_BYTES: &str = "mem.current_bytes";
/// High-water heap bytes since process start or the last stage reset.
pub const MEM_PEAK_BYTES: &str = "mem.peak_bytes";

// --- histograms -------------------------------------------------------

/// Sentence length distribution (tokens), bounds [1, 256).
pub const EMBED_SENTENCE_LEN: &str = "embed.sentence_len";
/// Metadata boundary depth per classified axis, bounds [1, 16); depth 0
/// (headerless axes) lands in the underflow bucket.
pub const CLASSIFIER_BOUNDARY_DEPTH: &str = "classifier.boundary_depth";
/// Serve request latency (admission to response ready), permit wait
/// included; p50/p90/p99 come from the histogram quantiles.
pub const SERVE_REQUEST_MICROS: &str = "serve.request_micros";

/// The instrument kind a registered name belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonic counter.
    Counter,
    /// Last-value gauge.
    Gauge,
    /// Log-linear histogram.
    Histogram,
    /// RAII wall-time span.
    Span,
}

impl Kind {
    /// Lowercase label for docs.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
            Kind::Span => "span",
        }
    }
}

/// One documented registry row.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Registered name (a prefix when `suffix` is non-empty).
    pub name: &'static str,
    /// Placeholder for the dynamic part (`"<reason>"`), empty for exact
    /// names.
    pub suffix: &'static str,
    /// Instrument kind.
    pub kind: Kind,
    /// Unit of the recorded value.
    pub unit: &'static str,
    /// Pipeline stage that emits it.
    pub stage: &'static str,
    /// One-line description.
    pub doc: &'static str,
}

/// Every registered name with its documentation row, in `METRICS.md`
/// order.
pub static REGISTRY: &[MetricDef] = &[
    // Spans — train/classify path.
    MetricDef {
        name: SPAN_TRAIN,
        suffix: "",
        kind: Kind::Span,
        unit: "µs",
        stage: "train",
        doc: "Whole training run; all training stages nest under it",
    },
    MetricDef {
        name: SPAN_EMBED,
        suffix: "",
        kind: Kind::Span,
        unit: "µs",
        stage: "train",
        doc: "Sentence extraction + embedding training",
    },
    MetricDef {
        name: SPAN_SENTENCES,
        suffix: "",
        kind: Kind::Span,
        unit: "µs",
        stage: "train/embed",
        doc: "Sentence extraction from tables",
    },
    MetricDef {
        name: SPAN_SGNS,
        suffix: "",
        kind: Kind::Span,
        unit: "µs",
        stage: "train/embed",
        doc: "SGNS training over extracted sentences",
    },
    MetricDef {
        name: SPAN_EPOCH,
        suffix: "",
        kind: Kind::Span,
        unit: "µs",
        stage: "train/embed, train/finetune",
        doc: "One training epoch (nests under sgns and finetune)",
    },
    MetricDef {
        name: SPAN_BOOTSTRAP,
        suffix: "",
        kind: Kind::Span,
        unit: "µs",
        stage: "train, train/finetune/epoch",
        doc: "Weak labeling of one shard: counted once per run under train, relabeled per fine-tune epoch",
    },
    MetricDef {
        name: SPAN_FINETUNE,
        suffix: "",
        kind: Kind::Span,
        unit: "µs",
        stage: "train",
        doc: "Contrastive fine-tuning",
    },
    MetricDef {
        name: SPAN_CENTROID,
        suffix: "",
        kind: Kind::Span,
        unit: "µs",
        stage: "train",
        doc: "Centroid angle-range estimation",
    },
    MetricDef {
        name: SPAN_CLASSIFY,
        suffix: "",
        kind: Kind::Span,
        unit: "µs",
        stage: "classify",
        doc: "One batch classify call (corpus, router batch or served request)",
    },
    MetricDef {
        name: SPAN_CLI_TRAIN,
        suffix: "",
        kind: Kind::Span,
        unit: "µs",
        stage: "cli",
        doc: "CLI train command: end-to-end model build",
    },
    MetricDef {
        name: SPAN_CHECKPOINT_WRITE,
        suffix: "",
        kind: Kind::Span,
        unit: "µs",
        stage: "train",
        doc: "One durable checkpoint write (serialize + envelope + atomic rename)",
    },
    MetricDef {
        name: SPAN_STREAM_TRAIN,
        suffix: "",
        kind: Kind::Span,
        unit: "µs",
        stage: "train/stream",
        doc: "Whole out-of-core training run (all passes); its stages nest as under train",
    },
    // Spans — eval harness.
    MetricDef {
        name: SPAN_EVAL_TRAIN_OURS,
        suffix: "",
        kind: Kind::Span,
        unit: "µs",
        stage: "eval",
        doc: "Runtime experiment: our pipeline's training run",
    },
    MetricDef {
        name: SPAN_EVAL_TRAIN_PYTHEAS,
        suffix: "",
        kind: Kind::Span,
        unit: "µs",
        stage: "eval",
        doc: "Runtime experiment: Pytheas baseline training",
    },
    MetricDef {
        name: SPAN_EVAL_TRAIN_LAYOUT,
        suffix: "",
        kind: Kind::Span,
        unit: "µs",
        stage: "eval",
        doc: "Runtime experiment: layout-detector baseline training",
    },
    MetricDef {
        name: SPAN_EVAL_TRAIN_RF,
        suffix: "",
        kind: Kind::Span,
        unit: "µs",
        stage: "eval",
        doc: "Runtime experiment: random-forest baseline training",
    },
    MetricDef {
        name: SPAN_EVAL_TRAIN_THREADS_SWEEP,
        suffix: "",
        kind: Kind::Span,
        unit: "µs",
        stage: "eval",
        doc: "Hogwild threads sweep: one training run per worker count",
    },
    MetricDef {
        name: SPAN_EVAL_INFERENCE_PASS,
        suffix: "",
        kind: Kind::Span,
        unit: "µs",
        stage: "eval",
        doc: "Inference-scaling experiment: one held-out pass",
    },
    MetricDef {
        name: SPAN_EVAL_SCALING_TRAIN,
        suffix: "",
        kind: Kind::Span,
        unit: "µs",
        stage: "eval",
        doc: "Corpus-size scaling sweep: one training run per size",
    },
    MetricDef {
        name: SPAN_EVAL_ABLATION_TRAIN,
        suffix: "",
        kind: Kind::Span,
        unit: "µs",
        stage: "eval",
        doc: "Ablation experiment: one training run per variant",
    },
    MetricDef {
        name: SPAN_EVAL_EMBEDDINGS_TRAIN,
        suffix: "",
        kind: Kind::Span,
        unit: "µs",
        stage: "eval",
        doc: "Embedding comparison: one training run per model",
    },
    // Counters.
    MetricDef {
        name: INGEST_ACCEPTED,
        suffix: "",
        kind: Kind::Counter,
        unit: "records",
        stage: "ingest",
        doc: "Records accepted by quarantine-and-continue ingestion",
    },
    MetricDef {
        name: INGEST_QUARANTINED,
        suffix: "",
        kind: Kind::Counter,
        unit: "records",
        stage: "ingest",
        doc: "Records quarantined, all rejection reasons combined",
    },
    MetricDef {
        name: INGEST_REJECTED_PREFIX,
        suffix: "<reason>",
        kind: Kind::Counter,
        unit: "records",
        stage: "ingest",
        doc: "Per-reason rejections; <reason> is a RejectReason::as_str value",
    },
    MetricDef {
        name: EMBED_SENTENCES,
        suffix: "",
        kind: Kind::Counter,
        unit: "sentences",
        stage: "train/embed",
        doc: "Training sentences extracted from tables, counted once per run in pass A",
    },
    MetricDef {
        name: SGNS_PAIRS,
        suffix: "",
        kind: Kind::Counter,
        unit: "pairs",
        stage: "train/embed",
        doc: "SGNS (center, context) pairs trained, all epochs and workers",
    },
    MetricDef {
        name: BOOTSTRAP_TABLES,
        suffix: "",
        kind: Kind::Counter,
        unit: "tables",
        stage: "train/bootstrap",
        doc: "Tables weak-labeled for centroid estimation, once per run",
    },
    MetricDef {
        name: BOOTSTRAP_MARKUP_TABLES,
        suffix: "",
        kind: Kind::Counter,
        unit: "tables",
        stage: "train/bootstrap",
        doc: "Tables whose weak labels came from HTML markup",
    },
    MetricDef {
        name: FINETUNE_PAIRS,
        suffix: "",
        kind: Kind::Counter,
        unit: "pairs",
        stage: "train/finetune",
        doc: "Contrastive pairs evaluated (positive + negative + satisfied)",
    },
    MetricDef {
        name: CLASSIFIER_TABLES,
        suffix: "",
        kind: Kind::Counter,
        unit: "tables",
        stage: "classify",
        doc: "Tables classified",
    },
    MetricDef {
        name: CLASSIFIER_ANGLE_TESTS,
        suffix: "",
        kind: Kind::Counter,
        unit: "tests",
        stage: "classify",
        doc: "Angle-range tests performed during classification walks",
    },
    MetricDef {
        name: CLASSIFIER_DEGRADED,
        suffix: "",
        kind: Kind::Counter,
        unit: "axes",
        stage: "classify",
        doc: "Axes routed to the positional fallback instead of the walk",
    },
    MetricDef {
        name: CLASSIFIER_DEGRADED_PREFIX,
        suffix: "<reason>",
        kind: Kind::Counter,
        unit: "axes",
        stage: "classify",
        doc: "Per-reason fallbacks; <reason> is a DegradeReason::as_str value",
    },
    MetricDef {
        name: ARTIFACT_LOADED,
        suffix: "",
        kind: Kind::Counter,
        unit: "artifacts",
        stage: "persist",
        doc: "Artifacts (model files / checkpoints) loaded and fully validated",
    },
    MetricDef {
        name: ARTIFACT_REJECTED_PREFIX,
        suffix: "<reason>",
        kind: Kind::Counter,
        unit: "artifacts",
        stage: "persist",
        doc: "Per-reason artifact rejections; <reason> is an ArtifactError::reason value",
    },
    MetricDef {
        name: STREAM_SHARDS,
        suffix: "",
        kind: Kind::Counter,
        unit: "shards",
        stage: "train/stream",
        doc: "Shards produced by the out-of-core streaming reader, all passes",
    },
    MetricDef {
        name: STREAM_SPILLS,
        suffix: "",
        kind: Kind::Counter,
        unit: "events",
        stage: "train/stream",
        doc: "Budget-driven spills: shard size halved after a budget overshoot",
    },
    MetricDef {
        name: SHARD_QUARANTINED_PREFIX,
        suffix: "<fault>",
        kind: Kind::Counter,
        unit: "faults",
        stage: "train/stream",
        doc: "Per-fault shard quarantines; <fault> is a ShardFault::as_str value",
    },
    MetricDef {
        name: CHECKPOINT_WRITTEN,
        suffix: "",
        kind: Kind::Counter,
        unit: "checkpoints",
        stage: "train",
        doc: "Training checkpoints durably written",
    },
    MetricDef {
        name: CHECKPOINT_QUARANTINED,
        suffix: "",
        kind: Kind::Counter,
        unit: "files",
        stage: "train",
        doc: "Checkpoint files quarantined during a resume scan",
    },
    MetricDef {
        name: SERVE_REQUESTS,
        suffix: "",
        kind: Kind::Counter,
        unit: "requests",
        stage: "serve",
        doc: "Requests admitted to wait for a classify permit",
    },
    MetricDef {
        name: SERVE_REJECTED_PREFIX,
        suffix: "<reason>",
        kind: Kind::Counter,
        unit: "requests",
        stage: "serve",
        doc: "Per-reason typed rejections; <reason> is a Status::as_str or wire tag",
    },
    MetricDef {
        name: SERVE_RELOADS,
        suffix: "",
        kind: Kind::Counter,
        unit: "reloads",
        stage: "serve",
        doc: "Hot model reloads validated and atomically swapped in",
    },
    MetricDef {
        name: SERVE_RELOAD_REJECTED,
        suffix: "",
        kind: Kind::Counter,
        unit: "artifacts",
        stage: "serve",
        doc: "Reload candidates rejected by validation; old model keeps serving",
    },
    // Gauges.
    MetricDef {
        name: TRAIN_THREADS,
        suffix: "",
        kind: Kind::Gauge,
        unit: "threads",
        stage: "train",
        doc: "Worker count the training pipeline ran with",
    },
    MetricDef {
        name: TRAIN_THREADS_SWEEP_PREFIX,
        suffix: "t<n>_secs",
        kind: Kind::Gauge,
        unit: "seconds",
        stage: "eval",
        doc: "Training wall-clock per worker count in the Hogwild sweep",
    },
    MetricDef {
        name: SGNS_LR,
        suffix: "",
        kind: Kind::Gauge,
        unit: "rate",
        stage: "train/embed",
        doc: "Final SGNS learning rate after decay",
    },
    MetricDef {
        name: FINETUNE_LOSS,
        suffix: "",
        kind: Kind::Gauge,
        unit: "loss",
        stage: "train/finetune",
        doc: "Mean contrastive loss of the most recent epoch",
    },
    MetricDef {
        name: FINETUNE_PAIRS_PER_SEC,
        suffix: "",
        kind: Kind::Gauge,
        unit: "pairs/s",
        stage: "train/finetune",
        doc: "Pair throughput of the most recent epoch",
    },
    MetricDef {
        name: FINETUNE_EPOCH_SECS,
        suffix: "",
        kind: Kind::Gauge,
        unit: "seconds",
        stage: "train/finetune",
        doc: "Wall-clock of the most recent fine-tune epoch",
    },
    MetricDef {
        name: CLASSIFY_TABLES_PER_SEC,
        suffix: "",
        kind: Kind::Gauge,
        unit: "tables/s",
        stage: "classify",
        doc: "Throughput of the most recent classify_corpus call",
    },
    MetricDef {
        name: CLASSIFY_INTERNED_TERMS,
        suffix: "",
        kind: Kind::Gauge,
        unit: "terms",
        stage: "classify",
        doc: "Distinct terms interned across workers of the most recent batched classify",
    },
    MetricDef {
        name: CLI_TOTAL_SECS,
        suffix: "",
        kind: Kind::Gauge,
        unit: "seconds",
        stage: "cli",
        doc: "Wall-clock of the CLI train command's model build",
    },
    MetricDef {
        name: CHECKPOINT_WRITE_SECS,
        suffix: "",
        kind: Kind::Gauge,
        unit: "seconds",
        stage: "train",
        doc: "Wall-clock of the most recent checkpoint write",
    },
    MetricDef {
        name: CHECKPOINT_RESUMED_EPOCH,
        suffix: "",
        kind: Kind::Gauge,
        unit: "epoch",
        stage: "train",
        doc: "Global epoch resumed from: SGNS, then fine-tune epochs, then centroid shards",
    },
    MetricDef {
        name: STREAM_SHARD_ROWS,
        suffix: "",
        kind: Kind::Gauge,
        unit: "rows",
        stage: "train/stream",
        doc: "Effective shard row target; shrinks when the budget forces a spill",
    },
    MetricDef {
        name: STREAM_BUDGET_BYTES,
        suffix: "",
        kind: Kind::Gauge,
        unit: "bytes",
        stage: "train/stream",
        doc: "Configured streaming memory budget (0 when unbounded)",
    },
    MetricDef {
        name: SERVE_QUEUE_DEPTH,
        suffix: "",
        kind: Kind::Gauge,
        unit: "requests",
        stage: "serve",
        doc: "Admitted requests currently waiting for a classify permit",
    },
    MetricDef {
        name: SERVE_IN_FLIGHT,
        suffix: "",
        kind: Kind::Gauge,
        unit: "requests",
        stage: "serve",
        doc: "Requests currently classifying, each holding a classify permit",
    },
    MetricDef {
        name: MEM_CURRENT_BYTES,
        suffix: "",
        kind: Kind::Gauge,
        unit: "bytes",
        stage: "process",
        doc: "Live heap bytes from the counting allocator (0 when not installed)",
    },
    MetricDef {
        name: MEM_PEAK_BYTES,
        suffix: "",
        kind: Kind::Gauge,
        unit: "bytes",
        stage: "process",
        doc: "High-water heap bytes since process start or the last stage reset",
    },
    // Histograms.
    MetricDef {
        name: EMBED_SENTENCE_LEN,
        suffix: "",
        kind: Kind::Histogram,
        unit: "tokens",
        stage: "train/embed",
        doc: "Sentence length distribution, once per run in pass A, bounds [1, 256)",
    },
    MetricDef {
        name: CLASSIFIER_BOUNDARY_DEPTH,
        suffix: "",
        kind: Kind::Histogram,
        unit: "levels",
        stage: "classify",
        doc: "Metadata boundary depth per axis, bounds [1, 16); depth 0 underflows",
    },
    MetricDef {
        name: SERVE_REQUEST_MICROS,
        suffix: "",
        kind: Kind::Histogram,
        unit: "µs",
        stage: "serve",
        doc: "Request latency from admission to response ready, permit wait included",
    },
];

/// Render the registry as the markdown table embedded in `METRICS.md`
/// (a test asserts the checked-in file matches).
pub fn render_markdown() -> String {
    let mut out = String::new();
    out.push_str("| name | kind | unit | emitting stage | description |\n");
    out.push_str("|------|------|------|----------------|-------------|\n");
    for def in REGISTRY {
        out.push_str(&format!(
            "| `{}{}` | {} | {} | {} | {} |\n",
            def.name,
            def.suffix,
            def.kind.as_str(),
            def.unit,
            def.stage,
            def.doc
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn registry_is_well_formed() {
        let mut seen = BTreeSet::new();
        for def in REGISTRY {
            assert!(!def.name.is_empty());
            assert!(seen.insert(def.name), "duplicate registry name {:?}", def.name);
            // Prefix convention: dynamic families end in '.', exact names
            // never do, and only dynamic families carry a suffix doc.
            assert_eq!(def.name.ends_with('.'), !def.suffix.is_empty(), "{:?}", def.name);
            assert!(!def.unit.is_empty() && !def.stage.is_empty() && !def.doc.is_empty());
        }
    }

    #[test]
    fn markdown_lists_every_name() {
        let md = render_markdown();
        for def in REGISTRY {
            assert!(md.contains(def.name), "{:?} missing from markdown", def.name);
        }
        assert_eq!(md.lines().count(), REGISTRY.len() + 2);
    }

    #[test]
    fn metrics_md_matches_registry() {
        // METRICS.md embeds the rendered table between markers; the
        // checked-in copy must match the code exactly.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../METRICS.md");
        let doc = std::fs::read_to_string(path).expect("METRICS.md at workspace root");
        let begin = "<!-- registry:begin -->\n";
        let end = "<!-- registry:end -->";
        let start = doc.find(begin).expect("registry:begin marker") + begin.len();
        let stop = doc[start..].find(end).expect("registry:end marker") + start;
        assert_eq!(
            &doc[start..stop],
            render_markdown(),
            "METRICS.md table is stale; regenerate it from names::render_markdown()"
        );
    }
}
