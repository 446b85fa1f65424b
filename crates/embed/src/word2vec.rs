//! The Word2Vec model: vocabulary + input/output matrices + SGNS training.
//!
//! Mirrors the paper's Gensim configuration (§IV-C): skip-gram with
//! negative sampling, dimensionality 300, window 3, `min_count` 1. Term
//! vectors are the **input** matrix rows, as is conventional.

use crate::embedder::{check_matrix_finite, IntegrityFault, TermEmbedder, TunableEmbedder};
use crate::sgns::{self, EpochSink, SgnsConfig, SgnsModel, SgnsResume, SgnsRun, TrainReport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use tabmeta_linalg::Matrix;
use tabmeta_text::{NumericClass, TermId, Vocabulary};

/// A trained (or in-training) Word2Vec model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Word2Vec {
    config: SgnsConfig,
    vocab: Vocabulary,
    input: Matrix,
    output: Matrix,
}

/// Pass-A half of the two-pass streaming vocabulary build: feed every
/// sentence through [`VocabBuilder::observe`] (shard by shard, dropping
/// each shard's sentences afterwards), then [`VocabBuilder::finish`] to
/// apply `min_count` and obtain the final [`Vocabulary`] plus the
/// [`SentenceEncoder`] pass B uses to turn sentences into compact id
/// lists. Observing the same sentences in the same order as the
/// in-memory path yields an identical vocabulary — term ids are
/// insertion-ordered, so the split into shards is invisible.
#[derive(Debug, Default)]
pub struct VocabBuilder {
    counting: Vocabulary,
}

impl VocabBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count every term of one sentence.
    pub fn observe(&mut self, sentence: &[String]) {
        for t in sentence {
            self.counting.add(t);
        }
    }

    /// Number of distinct terms observed so far (pre-filter).
    pub fn distinct_terms(&self) -> usize {
        self.counting.len()
    }

    /// Apply `min_count` (clamped to ≥ 1), intern the numeric-class
    /// tokens, and return the final vocabulary with its encoder.
    pub fn finish(self, min_count: u64) -> (Vocabulary, SentenceEncoder) {
        let (mut vocab, remap) = self.counting.filter_min_count(min_count.max(1));
        for tok in NumericClass::all_tokens() {
            vocab.intern(tok);
        }
        (vocab, SentenceEncoder { counting: self.counting, remap })
    }

    /// Both passes over resident sentences: build the vocabulary, then
    /// encode every sentence against it — the input of
    /// `train_encoded_resumable` for either embedder.
    pub fn encode_all(sentences: &[Vec<String>], min_count: u64) -> (Vocabulary, Vec<Vec<u32>>) {
        let mut builder = Self::new();
        for s in sentences {
            builder.observe(s);
        }
        let (vocab, encoder) = builder.finish(min_count);
        let encoded = sentences.iter().filter_map(|s| encoder.encode(s)).collect();
        (vocab, encoded)
    }
}

/// Pass-B encoder: maps term-string sentences to final vocabulary ids,
/// dropping out-of-vocabulary terms and sentences too short to yield a
/// skip-gram pair — exactly the encoding [`VocabBuilder::encode_all`]
/// performs on resident sentences.
#[derive(Debug)]
pub struct SentenceEncoder {
    counting: Vocabulary,
    remap: Vec<Option<TermId>>,
}

impl SentenceEncoder {
    /// Encode one sentence; `None` when fewer than two terms survive
    /// (such sentences contribute no pairs and no learning-rate decay).
    pub fn encode(&self, sentence: &[String]) -> Option<Vec<u32>> {
        let ids: Vec<u32> = sentence
            .iter()
            .filter_map(|t| self.counting.id(t).and_then(|old| self.remap[old as usize]))
            .collect();
        if ids.len() >= 2 {
            Some(ids)
        } else {
            None
        }
    }
}

impl Word2Vec {
    /// Train a model from term-string sentences.
    ///
    /// Builds the vocabulary (applying `config.min_count`), encodes the
    /// sentences ([`VocabBuilder::encode_all`]), and runs SGNS
    /// ([`crate::sgns`]) through [`Word2Vec::train_encoded_resumable`].
    /// Numeric class tokens are pre-interned so they always exist even in
    /// corpora without numerics.
    pub fn train(sentences: &[Vec<String>], config: SgnsConfig) -> (Self, TrainReport) {
        let (vocab, encoded) = VocabBuilder::encode_all(sentences, config.min_count);
        let (model, report, _) = Self::train_encoded_resumable(vocab, &encoded, config, None, None);
        (model, report)
    }

    /// SGNS over pre-encoded sentences, with checkpoint/resume plumbing —
    /// the seam the training driver uses: pass A builds `vocab` via
    /// [`VocabBuilder`], pass B encodes each shard with the returned
    /// [`SentenceEncoder`] and accumulates only the compact id lists, then
    /// hands them here. `vocab` is only consulted on a fresh start (a
    /// resumed model carries its own); `encoded` must already exclude
    /// sentences shorter than two ids, as [`SentenceEncoder::encode`]
    /// guarantees, or the learning-rate schedule diverges from the
    /// in-memory path.
    ///
    /// `resume` restores a model and its SGNS loop state captured at an
    /// epoch boundary, and `sink` is invoked after every completed epoch
    /// of the epoch loop (once, after the whole stage, under Hogwild —
    /// per-epoch interleaving state cannot be snapshotted there). Returns
    /// `true` in the last tuple slot when the sink broke out of training
    /// early; the returned model then holds the state at the last
    /// completed epoch.
    ///
    /// At `threads = 1` a resumed run continues the exact RNG stream and
    /// learning-rate schedule, so the final model is bit-identical to an
    /// uninterrupted run. A partially-complete resume under `threads > 1`
    /// finishes the remaining epochs on the deterministic epoch loop over
    /// plain rows (mid-stage Hogwild state is never checkpointed in the
    /// first place).
    pub fn train_encoded_resumable(
        vocab: Vocabulary,
        encoded: &[Vec<u32>],
        config: SgnsConfig,
        resume: Option<(Self, SgnsResume)>,
        sink: Option<EpochSink<'_, Self>>,
    ) -> (Self, TrainReport, bool) {
        sgns::train_resumable(encoded, resume, || Self::fresh(vocab, config), sink)
    }

    /// An untrained model over `vocab`: seeded uniform input rows, zero
    /// output rows.
    pub(crate) fn fresh(vocab: Vocabulary, config: SgnsConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5eed);
        let input = Matrix::uniform_init(vocab.len(), config.dim, &mut rng);
        let output = Matrix::zeros(vocab.len(), config.dim);
        Self { config, vocab, input, output }
    }

    /// Deep validation for deserialized models: matrix shapes must agree
    /// with the vocabulary and config, and every weight must be finite.
    pub fn validate_integrity(&self) -> Result<(), IntegrityFault> {
        if self.input.rows() != self.vocab.len() || self.output.rows() != self.vocab.len() {
            return Err(IntegrityFault::Shape {
                detail: format!(
                    "word2vec matrices hold {}x{} rows but the vocabulary has {} terms",
                    self.input.rows(),
                    self.output.rows(),
                    self.vocab.len()
                ),
            });
        }
        if self.input.dim() != self.config.dim || self.output.dim() != self.config.dim {
            return Err(IntegrityFault::Shape {
                detail: format!(
                    "word2vec matrix dims {}/{} disagree with config dim {}",
                    self.input.dim(),
                    self.output.dim(),
                    self.config.dim
                ),
            });
        }
        check_matrix_finite(&self.input, "word2vec.input")?;
        check_matrix_finite(&self.output, "word2vec.output")
    }

    /// The model's vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The training configuration used.
    pub fn config(&self) -> &SgnsConfig {
        &self.config
    }

    /// Term id lookup.
    pub fn term_id(&self, term: &str) -> Option<TermId> {
        self.vocab.id(term)
    }

    /// Raw vector of a term id.
    pub fn vector(&self, id: TermId) -> &[f32] {
        self.input.row(id as usize)
    }

    /// The `k` most-similar terms to `term` by cosine, excluding itself.
    pub fn most_similar(&self, term: &str, k: usize) -> Vec<(String, f32)> {
        let Some(id) = self.term_id(term) else {
            return Vec::new();
        };
        let query = self.input.row(id as usize);
        let mut scored: Vec<(String, f32)> = self
            .vocab
            .iter()
            .filter(|(other, _, _)| *other != id)
            .map(|(other, text, _)| {
                (
                    text.to_string(),
                    tabmeta_linalg::cosine_similarity(query, self.input.row(other as usize)),
                )
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("cosine is finite"));
        scored.truncate(k);
        scored
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("Word2Vec serializes")
    }

    /// Deserialize from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

impl TermEmbedder for Word2Vec {
    fn dim(&self) -> usize {
        self.config.dim
    }

    fn accumulate(&self, term: &str, out: &mut [f32]) -> bool {
        match self.vocab.id(term) {
            Some(id) => {
                self.accumulate_id(id, term, out);
                true
            }
            None => false,
        }
    }

    fn accumulate_id(&self, id: TermId, _term: &str, out: &mut [f32]) {
        tabmeta_linalg::add_assign(out, self.input.row(id as usize));
    }

    fn term_id(&self, term: &str) -> Option<TermId> {
        self.vocab.id(term)
    }

    fn embeds(&self, term: &str) -> bool {
        self.vocab.id(term).is_some()
    }
}

impl TunableEmbedder for Word2Vec {
    fn apply_gradient(&mut self, term: &str, grad: &[f32]) {
        if let Some(id) = self.vocab.id(term) {
            self.apply_gradient_id(id, term, grad);
        }
    }

    fn apply_gradient_id(&mut self, id: TermId, _term: &str, grad: &[f32]) {
        tabmeta_linalg::add_assign(self.input.row_mut(id as usize), grad);
    }
}

impl SgnsModel for Word2Vec {
    fn sgns_config(&self) -> &SgnsConfig {
        &self.config
    }

    fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    fn epoch(&mut self, run: &SgnsRun, sentences: &[Vec<u32>], st: &mut SgnsResume) {
        run.epoch(sentences, &mut self.input, &mut self.output, st);
    }

    fn hogwild(&mut self, run: &SgnsRun, sentences: &[Vec<u32>]) -> TrainReport {
        run.hogwild(sentences, self.input.hogwild(), self.output.hogwild())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sentences with two disjoint topics plus shared filler.
    fn topic_sentences() -> Vec<Vec<String>> {
        let mk = |words: &[&str]| words.iter().map(|w| w.to_string()).collect::<Vec<_>>();
        let mut out = Vec::new();
        for _ in 0..120 {
            out.push(mk(&["age", "sex", "gender", "cohort"]));
            out.push(mk(&["cornell", "ithaca", "albany", "buffalo"]));
            out.push(mk(&["age", "cohort", "gender"]));
            out.push(mk(&["albany", "buffalo", "cornell"]));
        }
        out
    }

    #[test]
    fn train_separates_topics_and_is_queryable() {
        let (model, report) = Word2Vec::train(&topic_sentences(), SgnsConfig::tiny(3));
        assert!(report.pairs > 0);
        let sim = |a: &str, b: &str| {
            let va = model.embed(a).unwrap();
            let vb = model.embed(b).unwrap();
            tabmeta_linalg::cosine_similarity(&va, &vb)
        };
        assert!(sim("age", "gender") > sim("age", "cornell"));
        let neighbours = model.most_similar("albany", 2);
        assert_eq!(neighbours.len(), 2);
        assert!(
            neighbours.iter().any(|(t, _)| t == "buffalo" || t == "cornell" || t == "ithaca"),
            "neighbours of albany: {neighbours:?}"
        );
    }

    #[test]
    fn oov_terms_are_none() {
        let (model, _) = Word2Vec::train(&topic_sentences(), SgnsConfig::tiny(3));
        assert!(model.embed("zzzunknown").is_none());
        assert!(model.most_similar("zzzunknown", 3).is_empty());
    }

    #[test]
    fn min_count_prunes_rare_terms() {
        let mut sentences = topic_sentences();
        sentences.push(vec!["hapax".to_string(), "age".to_string()]);
        let config = SgnsConfig { min_count: 2, ..SgnsConfig::tiny(4) };
        let (model, _) = Word2Vec::train(&sentences, config);
        assert!(model.term_id("hapax").is_none());
        assert!(model.term_id("age").is_some());
    }

    #[test]
    fn numeric_class_tokens_always_interned() {
        let (model, _) = Word2Vec::train(&topic_sentences(), SgnsConfig::tiny(5));
        for tok in NumericClass::all_tokens() {
            assert!(model.term_id(tok).is_some(), "{tok} missing");
        }
    }

    #[test]
    fn gradient_tuning_moves_vector() {
        let (mut model, _) = Word2Vec::train(&topic_sentences(), SgnsConfig::tiny(6));
        let before = model.embed("age").unwrap();
        let grad = vec![0.1; model.dim()];
        model.apply_gradient("age", &grad);
        let after = model.embed("age").unwrap();
        assert!(before.iter().zip(&after).any(|(b, a)| (b - a).abs() > 1e-6));
    }

    #[test]
    fn json_roundtrip_preserves_vectors() {
        let (model, _) = Word2Vec::train(&topic_sentences(), SgnsConfig::tiny(7));
        let back = Word2Vec::from_json(&model.to_json()).unwrap();
        assert_eq!(back.embed("age"), model.embed("age"));
        assert_eq!(back.vocab().len(), model.vocab().len());
    }

    #[test]
    fn resumable_run_is_bit_identical() {
        use std::ops::ControlFlow;
        let sentences = topic_sentences();
        let config = SgnsConfig::tiny(21);
        let (baseline, base_report) = Word2Vec::train(&sentences, config.clone());

        // Interrupt after epoch 1, then resume from the captured snapshot.
        let mut snap: Option<(Word2Vec, SgnsResume)> = None;
        let mut sink = |m: &Word2Vec, s: &SgnsResume| {
            if s.epochs_done == 1 {
                snap = Some((m.clone(), s.clone()));
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        };
        let (vocab, encoded) = VocabBuilder::encode_all(&sentences, config.min_count);
        let (_, _, interrupted) = Word2Vec::train_encoded_resumable(
            vocab.clone(),
            &encoded,
            config.clone(),
            None,
            Some(&mut sink),
        );
        assert!(interrupted);
        let (resumed, report, interrupted) =
            Word2Vec::train_encoded_resumable(vocab, &encoded, config, snap, None);
        assert!(!interrupted);
        assert_eq!(report, base_report);
        assert_eq!(resumed.to_json(), baseline.to_json(), "resume must be bit-identical");
    }

    #[test]
    fn integrity_validation_flags_nan_and_shape() {
        let (model, _) = Word2Vec::train(&topic_sentences(), SgnsConfig::tiny(22));
        assert_eq!(model.validate_integrity(), Ok(()));

        let mut bad = model.clone();
        bad.input.row_mut(0)[0] = f32::NAN;
        assert!(matches!(
            bad.validate_integrity(),
            Err(IntegrityFault::NonFinite { location }) if location.contains("word2vec.input")
        ));

        let mut bad = model.clone();
        bad.config.dim += 1;
        assert!(matches!(bad.validate_integrity(), Err(IntegrityFault::Shape { .. })));
    }

    #[test]
    fn empty_training_set_yields_usable_empty_model() {
        let (model, report) = Word2Vec::train(&[], SgnsConfig::tiny(8));
        assert_eq!(report.pairs, 0);
        assert!(model.embed("anything").is_none());
        // Class tokens exist but carry zero-count vectors.
        assert!(model.term_id("<pct>").is_some());
    }
}
