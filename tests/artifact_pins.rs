//! Byte-identity pins for in-memory training artifacts.
//!
//! Same-build determinism tests cannot tell when a refactor changes what
//! training produces: both runs change together. This suite trains a
//! small matrix at `threads = 1` — two corpus kinds × {Word2Vec,
//! CharGram} × {fine-tune on, off} — and pins the FNV-1a digest of each
//! `Pipeline::to_json()` and each `run_fingerprint` against recorded
//! constants. A change that moves any byte of a trained artifact, or the
//! fingerprint checkpoints and saved models are bound to, fails here and
//! must say so in its change notes when it updates a constant.

use tabmeta::contrastive::persist::fnv1a;
use tabmeta::contrastive::{run_fingerprint, Pipeline, PipelineConfig};
use tabmeta::corpora::{CorpusKind, GeneratorConfig};

/// `(corpus, embedder, fine-tune, to_json digest, run_fingerprint)`.
const PINS: &[(&str, &str, bool, u64, u64)] = &[
    ("ckg", "word2vec", true, 0x7172e5ea5daa0526, 0x7315cc2db56f357c),
    ("ckg", "word2vec", false, 0xb3e796bd04d05946, 0x98eac08487c082ba),
    ("ckg", "chargram", true, 0x26ed8c364874db35, 0xf1706a19efd2e508),
    ("ckg", "chargram", false, 0x934d68918a73f344, 0xe9d3573321524575),
    ("saus", "word2vec", true, 0x02fd8970c4666950, 0x4ca12aad6308d712),
    ("saus", "word2vec", false, 0xe3bf9ddc7a339559, 0x2b122a6a5f333d1c),
    ("saus", "chargram", true, 0x1b869fddfcecfede, 0x67ad00bcced46ffe),
    ("saus", "chargram", false, 0x0762f434c364ba10, 0x3c5bd8add4aee0cf),
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
    for &(corpus, embedder, finetune, json_digest, fingerprint) in PINS {
        let kind = match corpus {
            "ckg" => CorpusKind::Ckg,
            _ => CorpusKind::Saus,
        };
        let tables = kind.generate(&GeneratorConfig { n_tables: 24, seed: 67 }).tables;
        let config = config(embedder, finetune);
        let pipeline = Pipeline::train(&tables, &config).expect("trains");
        let got_json = fnv1a(pipeline.to_json().expect("serializes").as_bytes());
        let got_fp = run_fingerprint(&config, &tables);
        if (got_json, got_fp) != (json_digest, fingerprint) {
            mismatches.push(format!(
                "(\"{corpus}\", \"{embedder}\", {finetune}, {got_json:#018x}, {got_fp:#018x}),"
            ));
        }
    }
    assert!(mismatches.is_empty(), "artifact digests moved; now:\n{}", mismatches.join("\n"));
}
