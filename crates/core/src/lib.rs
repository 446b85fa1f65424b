//! The paper's contribution: unsupervised contrastive-learning
//! classification of hierarchical tabular metadata.
//!
//! The method (§III, Algorithm 1) in four moves:
//!
//! 1. **Bootstrap** ([`bootstrap`]) — derive *weak* metadata/data labels
//!    from imperfect HTML markup (`<thead>`/`<th>` for HMD; bold or
//!    leading-blank patterns for VMD); fall back to the first-row /
//!    first-column heuristic for markup-free corpora (SAUS, CIUS). No
//!    human labeling anywhere.
//! 2. **Centroid ranges** ([`centroid`]) — aggregate term embeddings per
//!    table level (Def. 8), then record the observed angle ranges
//!    `C_MDE`, `C_DE`, `C_MDE-DE` (Defs. 11–13) and the per-level-pair
//!    transition angles reported in paper Tables I–IV, separately for the
//!    row axis (HMD) and the column axis (VMD).
//! 3. **Contrastive fine-tuning** ([`finetune`]) — Siamese-style updates
//!    on aggregated level vectors: positive pairs (metadata↔metadata,
//!    data↔data) are pulled together, negative pairs (metadata↔data)
//!    pushed apart, with gradients distributed to the constituent term
//!    vectors. This widens the `C_MDE-DE` gap the classifier keys on.
//! 4. **Classification** ([`classifier`]) — walk the table row by row
//!    (then column by column, transposed): the first level is labeled by
//!    its closest reference centroid; each following level is labeled by
//!    which range the angle to its predecessor falls into; the jump from
//!    `C_MDE` into `C_MDE-DE` marks the metadata→data boundary and yields
//!    the metadata **depth**. A CMD extension spots mid-table section
//!    headers.
//!
//! [`pipeline::Pipeline`] ties the moves together behind one call.
//!
//! **Resilience:** [`classifier::Classifier::classify`] never panics —
//! degenerate tables (blank, all-OOV, single-level, non-finite
//! aggregates) and model/embedder mismatches route to a positional
//! fallback tagged with [`classifier::Provenance::Degraded`]. A
//! model/embedder dimension mismatch is also refused typed at load, as
//! [`persist::ArtifactError::DimensionMismatch`] from
//! [`pipeline::Pipeline::validate`].

#![forbid(unsafe_code)]
// The data path must be panic-free on input-derived values: unwrap/
// expect are denied outside tests (promoted from warn by the clippy
// `-D warnings` gate in scripts/check.sh).
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod aggregate;
pub mod bootstrap;
pub mod centroid;
pub mod checkpoint;
pub mod classifier;
pub mod config;
pub mod finetune;
pub mod persist;
pub mod pipeline;
pub mod stream;

pub use aggregate::{AxisVectors, LevelVectorCache, TermInterner};
pub use bootstrap::{BootstrapLabeler, WeakLabel, WeakLabels};
pub use centroid::{AxisCentroids, CentroidModel, LevelPairStats};
pub use checkpoint::{
    CheckpointScanReport, CheckpointStage, CheckpointStore, QuarantinedCheckpoint, TrainCheckpoint,
};
pub use classifier::{
    Classifier, ClassifierConfig, ClassifyScratch, DegradeReason, Provenance, RangeKind, TraceStep,
    Verdict, WalkStrategy,
};
pub use config::{EmbeddingChoice, PipelineConfig};
pub use finetune::{FinetuneConfig, FinetuneResume};
pub use persist::{
    atomic_write, load_pipeline, run_fingerprint, save_pipeline, ArtifactError, StreamFingerprint,
};
pub use pipeline::{AnyEmbedder, Pipeline, TrainError, TrainSummary, MIN_TABLES_PER_WORKER};
pub use stream::{
    train_streaming, SpillEvent, StreamBoundary, StreamHook, StreamSummary, StreamTrainOptions,
};
