//! Byte-identity and work pins for in-memory training artifacts.
//!
//! Same-build determinism tests cannot tell when a refactor changes what
//! training produces: both runs change together. This suite trains a
//! small matrix at `threads = 1` — two corpus kinds × {Word2Vec,
//! CharGram} × {fine-tune on, off} — and pins, against recorded
//! constants:
//! - the FNV-1a digest of each `Pipeline::to_json()` and each
//!   `run_fingerprint`, the bytes checkpoints and saved models are bound
//!   to;
//! - the work training did: `summary().sentences` and
//!   `summary().sgns_pairs`;
//! - the FNV-1a digest of the `classify_corpus` verdicts over held-out
//!   tables from a different seed. The batch call splits over
//!   `rayon::current_num_threads()` workers, so the root test runs at
//!   `RAYON_NUM_THREADS` 1 and 4 check the same digest on both paths.
//!
//! A change that moves any byte of a trained artifact, the amount of
//! training work or a verdict fails here and must say so in its change
//! notes when it updates a constant.

use tabmeta::contrastive::persist::fnv1a;
use tabmeta::contrastive::{run_fingerprint, Pipeline, PipelineConfig};
use tabmeta::corpora::{CorpusKind, GeneratorConfig};

/// `((corpus, embedder, fine-tune, to_json digest, run_fingerprint),
/// (sentences, SGNS pairs, held-out verdict digest))`.
type Pin = ((&'static str, &'static str, bool, u64, u64), (usize, u64, u64));

const PINS: &[Pin] = &[
    (
        ("ckg", "word2vec", true, 0x7172e5ea5daa0526, 0x7315cc2db56f357c),
        (547, 150573, 0x7a4da59097317a05),
    ),
    (
        ("ckg", "word2vec", false, 0xb3e796bd04d05946, 0x98eac08487c082ba),
        (547, 150573, 0x9d12a36e5042ac67),
    ),
    (
        ("ckg", "chargram", true, 0x26ed8c364874db35, 0xf1706a19efd2e508),
        (547, 112984, 0xe180f8a06e9fd7d5),
    ),
    (
        ("ckg", "chargram", false, 0x934d68918a73f344, 0xe9d3573321524575),
        (547, 112984, 0xd66cb2035e5be905),
    ),
    (
        ("saus", "word2vec", true, 0x02fd8970c4666950, 0x4ca12aad6308d712),
        (579, 182347, 0xfc8d3f47b7dc318c),
    ),
    (
        ("saus", "word2vec", false, 0xe3bf9ddc7a339559, 0x2b122a6a5f333d1c),
        (579, 182347, 0x03d40e7d1d50bb49),
    ),
    (
        ("saus", "chargram", true, 0x1b869fddfcecfede, 0x67ad00bcced46ffe),
        (579, 136676, 0xd04eb4f1c8d31005),
    ),
    (
        ("saus", "chargram", false, 0x0762f434c364ba10, 0x3c5bd8add4aee0cf),
        (579, 136676, 0xed85ff96641dd43b),
    ),
];

fn config(embedder: &str, finetune: bool) -> PipelineConfig {
    let seed = 61;
    let config = match embedder {
        "word2vec" => PipelineConfig::fast_seeded(seed),
        _ => PipelineConfig::fast_chargram(seed),
    };
    let config = if finetune { config } else { config.without_finetune() };
    config.with_threads(1)
}

#[test]
fn in_memory_artifacts_match_recorded_digests() {
    let mut mismatches = Vec::new();
    for &((corpus, embedder, finetune, json_digest, fingerprint), work) in PINS {
        let kind = match corpus {
            "ckg" => CorpusKind::Ckg,
            _ => CorpusKind::Saus,
        };
        let tables = kind.generate(&GeneratorConfig { n_tables: 24, seed: 67 }).tables;
        let held_out = kind.generate(&GeneratorConfig { n_tables: 32, seed: 71 }).tables;
        let config = config(embedder, finetune);
        let pipeline = Pipeline::train(&tables, &config).expect("trains");
        let got_json = fnv1a(pipeline.to_json().expect("serializes").as_bytes());
        let got_fp = run_fingerprint(&config, &tables);
        let verdicts = pipeline.classify_corpus(&held_out);
        let verdicts_json = serde_json::to_string(&verdicts).expect("verdicts serialize");
        let summary = pipeline.summary();
        let got_work = (summary.sentences, summary.sgns_pairs, fnv1a(verdicts_json.as_bytes()));
        if (got_json, got_fp, got_work) != (json_digest, fingerprint, work) {
            let (sentences, pairs, verdicts) = got_work;
            mismatches.push(format!(
                "((\"{corpus}\", \"{embedder}\", {finetune}, {got_json:#018x}, {got_fp:#018x}), \
                 ({sentences}, {pairs}, {verdicts:#018x})),"
            ));
        }
    }
    assert!(mismatches.is_empty(), "artifact pins moved; now:\n{}", mismatches.join("\n"));
}
