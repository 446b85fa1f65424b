//! Run-level training telemetry that holds for both table sources and
//! both embedders: the sentence counter counts each training sentence
//! once per run, the SGNS pair counter counts every pair either embedder
//! trains, and a resumed run reports the global epoch it resumed at,
//! fine-tune epochs included.
//!
//! The checks read process-global metrics as deltas around single runs,
//! so they live in one test of their own binary: no other training runs
//! beside them.

use std::fs;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tabmeta::contrastive::{
    train_streaming, EmbeddingChoice, Pipeline, PipelineConfig, StreamBoundary, StreamTrainOptions,
    TrainError,
};
use tabmeta::corpora::{CorpusKind, GeneratorConfig};
use tabmeta::obs::names;
use tabmeta::tabular::stream::RealDisk;
use tabmeta::tabular::{Corpus, Table};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tabmeta-counters-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Write `tables` as three JSONL files.
fn write_corpus_dir(dir: &Path, tables: &[Table]) {
    for (i, chunk) in tables.chunks(tables.len().div_ceil(3)).enumerate() {
        let part = Corpus { name: format!("part-{i}"), tables: chunk.to_vec() };
        let file = fs::File::create(dir.join(format!("part-{i}.jsonl"))).unwrap();
        part.write_jsonl(file).unwrap();
    }
}

fn sentences_counter() -> u64 {
    tabmeta::obs::global().counter(names::EMBED_SENTENCES).get()
}

fn sgns_pairs_counter() -> u64 {
    tabmeta::obs::global().counter(names::SGNS_PAIRS).get()
}

#[test]
fn sentences_count_once_and_resume_reports_global_epoch() {
    let tables = CorpusKind::Ckg.generate(&GeneratorConfig { n_tables: 40, seed: 83 }).tables;
    let dir = temp_dir("run");
    write_corpus_dir(&dir, &tables);
    let mut config = PipelineConfig::fast_seeded(83);
    if let EmbeddingChoice::Word2Vec(sgns) = &mut config.embedding {
        sgns.epochs = 2;
    }
    if let Some(ft) = &mut config.finetune {
        ft.epochs = 3;
    }
    let options =
        StreamTrainOptions { shard_rows: 64, centroid_shard_tables: 16, ..Default::default() };

    // Passes A and B both extract every sentence; only pass A counts.
    // Word2Vec and CharGram train through one SGNS loop, which counts
    // every pair it trains.
    for config in [config.clone(), PipelineConfig::fast_chargram(83)] {
        let (sentences, pairs) = (sentences_counter(), sgns_pairs_counter());
        let resident = Pipeline::train(&tables, &config).unwrap();
        assert_eq!(sentences_counter() - sentences, resident.summary().sentences as u64);
        assert!(resident.summary().sgns_pairs > 0);
        assert_eq!(sgns_pairs_counter() - pairs, resident.summary().sgns_pairs);
    }

    let before = sentences_counter();
    let (_, streamed) =
        train_streaming(&dir, &config, &options, Arc::new(RealDisk), None, None).unwrap();
    assert!(streamed.io_shards > 1, "the directory streams in several IO shards");
    assert_eq!(sentences_counter() - before, streamed.train.sentences as u64);

    // A kill after the first centroid shard of a fine-tuned run resumes
    // at global epoch 2 SGNS + 3 fine-tune + 1 shard.
    let ckpt = dir.join("ckpt");
    let mut kill = |at: StreamBoundary| {
        if at == StreamBoundary::CentroidShard(1) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    };
    let err =
        train_streaming(&dir, &config, &options, Arc::new(RealDisk), Some(&ckpt), Some(&mut kill))
            .map(|_| ())
            .unwrap_err();
    assert_eq!(err, TrainError::Interrupted { at: StreamBoundary::CentroidShard(1) });
    let (_, resumed) =
        train_streaming(&dir, &config, &options, Arc::new(RealDisk), Some(&ckpt), None).unwrap();
    assert_eq!(resumed.resumed_from(), Some("ckpt-2-00001.tma"));
    let gauge = tabmeta::obs::global().gauge(names::CHECKPOINT_RESUMED_EPOCH).get();
    assert_eq!(gauge, 6.0, "checkpoint.resumed_epoch counts SGNS, fine-tune and shard epochs");
    assert_eq!(StreamBoundary::CentroidShard(1).global_epoch(&config), Some(6));
    let _ = fs::remove_dir_all(&dir);
}
