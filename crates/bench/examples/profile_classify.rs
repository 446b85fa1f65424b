//! Stage-level timing breakdown of the classify hot path, for performance
//! work on the batched cached pipeline. Not a gate — run manually:
//!
//! ```sh
//! cargo run --release --offline -p tabmeta-bench --example profile_classify
//! ```

use std::time::Instant;
use tabmeta_core::{LevelVectorCache, Pipeline, PipelineConfig, TermInterner};
use tabmeta_corpora::{CorpusKind, GeneratorConfig};
use tabmeta_embed::TermEmbedder;
use tabmeta_tabular::Axis;

fn main() {
    let corpus = CorpusKind::Ckg.generate(&GeneratorConfig { n_tables: 240, seed: 2025 });
    let cfg = PipelineConfig::fast_seeded(2025);
    let cut = corpus.tables.len() * 7 / 10;
    let (train, test) = corpus.tables.split_at(cut);
    let pipeline = Pipeline::train(train, &cfg).expect("trains");

    let cells: usize = test.iter().map(|t| t.n_rows() * t.n_cols()).sum();
    let dims: Vec<(usize, usize)> = test.iter().map(|t| (t.n_rows(), t.n_cols())).collect();
    println!("test tables: {}, total cells: {}", test.len(), cells);
    println!("first dims: {:?}", &dims[..8.min(dims.len())]);

    const REPS: usize = 50;

    // Full batched classify.
    let start = Instant::now();
    for _ in 0..REPS {
        let _ = pipeline.classify_corpus(test);
    }
    let full = start.elapsed();
    println!(
        "full batch: {:?} total, {:.1} us/table",
        full / REPS as u32,
        full.as_secs_f64() * 1e6 / (REPS * test.len()) as f64
    );

    // Cache build alone (shared interner, like one worker's scratch).
    let embedder = pipeline.embedder();
    let tokenizer = pipeline.tokenizer();
    let mut interner = TermInterner::new();
    let mut token_buf = Vec::new();
    let start = Instant::now();
    for _ in 0..REPS {
        for t in test {
            let _ = LevelVectorCache::build(t, embedder, tokenizer, &mut interner, &mut token_buf);
        }
    }
    let build = start.elapsed();
    println!(
        "cache build: {:?} total, {:.1} us/table",
        build / REPS as u32,
        build.as_secs_f64() * 1e6 / (REPS * test.len()) as f64
    );

    // Cache build + both axis_vectors (aggregation without the walk).
    let dim = embedder.dim();
    let start = Instant::now();
    for _ in 0..REPS {
        for t in test {
            let cache =
                LevelVectorCache::build(t, embedder, tokenizer, &mut interner, &mut token_buf);
            let _ = cache.axis_vectors(Axis::Row, &interner, dim);
            let _ = cache.axis_vectors(Axis::Column, &interner, dim);
        }
    }
    let agg = start.elapsed();
    println!(
        "build+aggregate: {:?} total, {:.1} us/table",
        agg / REPS as u32,
        agg.as_secs_f64() * 1e6 / (REPS * test.len()) as f64
    );

    // classify_with_scratch with ONE scratch persisting across all reps
    // (steady state: interner and cell memo fully warm after rep 1).
    let mut scratch = pipeline.classify_scratch();
    let start = Instant::now();
    for _ in 0..REPS {
        for t in test {
            let _ = pipeline.classify_with_scratch(t, &mut scratch);
        }
    }
    let warm = start.elapsed();
    println!(
        "classify warm scratch: {:?} total, {:.1} us/table",
        warm / REPS as u32,
        warm.as_secs_f64() * 1e6 / (REPS * test.len()) as f64
    );

    // Fresh scratch per batch (what a batch call pays on a cold pool).
    let start = Instant::now();
    for _ in 0..REPS {
        let mut scratch = pipeline.classify_scratch();
        for t in test {
            let _ = pipeline.classify_with_scratch(t, &mut scratch);
        }
    }
    let cold = start.elapsed();
    println!(
        "classify fresh-per-batch scratch: {:?} total, {:.1} us/table",
        cold / REPS as u32,
        cold.as_secs_f64() * 1e6 / (REPS * test.len()) as f64
    );
}
