//! Shared helpers for the Criterion benchmark targets.
//!
//! Each paper artifact has one bench target (`table1` … `table6`, `fig6`,
//! `fig7`, `runtime_scaling`, `ablations`): the target first *regenerates*
//! the artifact — running the corresponding `tabmeta-eval` experiment and
//! printing the paper-style rows to stdout — and then benchmarks the
//! kernel that dominates that artifact's cost, so `cargo bench` both
//! reproduces the numbers and tracks performance.

#![forbid(unsafe_code)]

use tabmeta_core::{Pipeline, PipelineConfig};
use tabmeta_corpora::{CorpusKind, GeneratorConfig};
use tabmeta_eval::ExperimentConfig;
use tabmeta_tabular::Table;

/// The experiment scale used by all bench targets.
pub fn bench_config() -> ExperimentConfig {
    ExperimentConfig { tables_per_corpus: 300, seed: 0xbe7c }
}

/// A trained pipeline plus held-out tables, shared by several kernels.
pub struct BenchFixture {
    /// Trained pipeline.
    pub pipeline: Pipeline,
    /// Held-out tables.
    pub test: Vec<Table>,
}

/// Train a pipeline on `kind` for kernel benchmarks.
pub fn fixture(kind: CorpusKind) -> BenchFixture {
    let corpus = kind.generate(&GeneratorConfig { n_tables: 240, seed: 7 });
    let cut = corpus.tables.len() * 7 / 10;
    let pipeline = Pipeline::train(&corpus.tables[..cut], &PipelineConfig::fast_seeded(7)).unwrap();
    BenchFixture { pipeline, test: corpus.tables[cut..].to_vec() }
}
