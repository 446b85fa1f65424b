//! CharGram: the subword embedding model standing in for BioBERT.
//!
//! The paper fine-tunes BioBERT because biomedical corpora are full of
//! rare, morphologically regular terminology that word-level models handle
//! poorly. What the downstream method actually consumes is a term→vector
//! map that stays meaningful for rare/OOV domain terms. CharGram provides
//! that property the fastText way: a term's vector is the **mean of its
//! word vector and its hashed character n-gram vectors**, trained with the
//! same SGNS objective as [`crate::word2vec::Word2Vec`]. Out-of-vocabulary
//! terms compose from grams alone, so `"thrombocytopenia"` lands near its
//! morphological relatives even if unseen. See DESIGN.md §2 for the full
//! substitution argument.

use crate::embedder::{check_matrix_finite, IntegrityFault, TermEmbedder, TunableEmbedder};
use crate::sgns::{
    self, EpochSink, InputSide, Rows, SgnsConfig, SgnsModel, SgnsResume, SgnsRun, TrainReport,
};
use crate::word2vec::VocabBuilder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use tabmeta_linalg::Matrix;
use tabmeta_text::{ngram_ids, NgramConfig, Vocabulary};

/// CharGram hyper-parameters: SGNS knobs plus the n-gram space.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct CharGramConfig {
    /// Shared SGNS hyper-parameters.
    pub sgns: SgnsConfig,
    /// Character n-gram extraction / hashing configuration.
    pub ngrams: NgramConfig,
}

impl CharGramConfig {
    /// Small, fast configuration for tests and examples.
    pub fn tiny(seed: u64) -> Self {
        Self {
            sgns: SgnsConfig::tiny(seed),
            ngrams: NgramConfig { min_n: 3, max_n: 4, buckets: 1 << 12 },
        }
    }
}

/// A trained (or in-training) CharGram model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CharGram {
    config: CharGramConfig,
    vocab: Vocabulary,
    /// Per-word input vectors.
    words: Matrix,
    /// Hashed n-gram bucket vectors.
    grams: Matrix,
    /// Word-level output (context) vectors.
    output: Matrix,
    /// Cached gram ids per vocabulary word (parallel to `vocab`).
    word_grams: Vec<Vec<u32>>,
}

impl CharGram {
    /// Train from term-string sentences: [`VocabBuilder::encode_all`],
    /// then [`CharGram::train_encoded_resumable`].
    pub fn train(sentences: &[Vec<String>], config: CharGramConfig) -> (Self, TrainReport) {
        let (vocab, encoded) = VocabBuilder::encode_all(sentences, config.sgns.min_count);
        let (model, report, _) = Self::train_encoded_resumable(vocab, &encoded, config, None, None);
        (model, report)
    }

    /// SGNS over sentences already encoded against `vocab` by
    /// [`VocabBuilder`], with checkpoint/resume plumbing — the same seam,
    /// with the same contract, as
    /// [`Word2Vec::train_encoded_resumable`](crate::word2vec::Word2Vec::train_encoded_resumable):
    /// `resume` restores weights plus loop state from an epoch boundary,
    /// `sink` observes every epoch of the epoch loop (stage end only under
    /// Hogwild) and may break out. The gram cache is derived from `vocab`
    /// alone, so out-of-core training needs no more of the corpus than the
    /// word-level model.
    pub fn train_encoded_resumable(
        vocab: Vocabulary,
        encoded: &[Vec<u32>],
        config: CharGramConfig,
        resume: Option<(Self, SgnsResume)>,
        sink: Option<EpochSink<'_, Self>>,
    ) -> (Self, TrainReport, bool) {
        sgns::train_resumable(encoded, resume, || Self::fresh(vocab, config), sink)
    }

    /// An untrained model over `vocab`: the gram cache, seeded uniform word
    /// and gram rows, zero output rows.
    pub(crate) fn fresh(vocab: Vocabulary, config: CharGramConfig) -> Self {
        let word_grams: Vec<Vec<u32>> = (0..vocab.len())
            .map(|id| {
                ngram_ids(vocab.term(id as u32), &config.ngrams)
                    .into_iter()
                    .map(|g| g as u32)
                    .collect()
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(config.sgns.seed ^ 0xcafe);
        let dim = config.sgns.dim;
        CharGram {
            words: Matrix::uniform_init(vocab.len(), dim, &mut rng),
            grams: Matrix::uniform_init(config.ngrams.buckets, dim, &mut rng),
            output: Matrix::zeros(vocab.len(), dim),
            word_grams,
            vocab,
            config,
        }
    }

    /// Deep validation for deserialized models: matrix shapes must agree
    /// with the vocabulary, gram-bucket count, and config; the cached gram
    /// ids must stay inside the bucket space; every weight must be finite.
    pub fn validate_integrity(&self) -> Result<(), IntegrityFault> {
        let dim = self.config.sgns.dim;
        if self.words.rows() != self.vocab.len() || self.output.rows() != self.vocab.len() {
            return Err(IntegrityFault::Shape {
                detail: format!(
                    "chargram word/output matrices hold {}x{} rows but the vocabulary has {} terms",
                    self.words.rows(),
                    self.output.rows(),
                    self.vocab.len()
                ),
            });
        }
        if self.grams.rows() != self.config.ngrams.buckets {
            return Err(IntegrityFault::Shape {
                detail: format!(
                    "chargram gram matrix holds {} rows but config declares {} buckets",
                    self.grams.rows(),
                    self.config.ngrams.buckets
                ),
            });
        }
        if self.words.dim() != dim || self.grams.dim() != dim || self.output.dim() != dim {
            return Err(IntegrityFault::Shape {
                detail: format!(
                    "chargram matrix dims {}/{}/{} disagree with config dim {dim}",
                    self.words.dim(),
                    self.grams.dim(),
                    self.output.dim()
                ),
            });
        }
        if self.word_grams.len() != self.vocab.len() {
            return Err(IntegrityFault::Shape {
                detail: format!(
                    "gram cache covers {} words but the vocabulary has {} terms",
                    self.word_grams.len(),
                    self.vocab.len()
                ),
            });
        }
        if let Some((word, &g)) = self.word_grams.iter().enumerate().find_map(|(w, gs)| {
            gs.iter().find(|&&g| g as usize >= self.grams.rows()).map(|g| (w, g))
        }) {
            return Err(IntegrityFault::Shape {
                detail: format!(
                    "word {word} references gram bucket {g} outside 0..{}",
                    self.grams.rows()
                ),
            });
        }
        check_matrix_finite(&self.words, "chargram.words")?;
        check_matrix_finite(&self.grams, "chargram.grams")?;
        check_matrix_finite(&self.output, "chargram.output")
    }

    /// The model's vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The training configuration used.
    pub fn config(&self) -> &CharGramConfig {
        &self.config
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("CharGram serializes")
    }

    /// Deserialize from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

impl TermEmbedder for CharGram {
    fn dim(&self) -> usize {
        self.config.sgns.dim
    }

    fn accumulate(&self, term: &str, out: &mut [f32]) -> bool {
        if let Some(id) = self.vocab.id(term) {
            self.accumulate_id(id, term, out);
            return true;
        }
        // OOV: compose from grams alone — the property BioBERT buys the
        // paper on rare biomedical terms.
        let grams = ngram_ids(term, &self.config.ngrams);
        if grams.is_empty() {
            return false;
        }
        let mut v = vec![0.0; self.dim()];
        for g in &grams {
            tabmeta_linalg::add_assign(&mut v, self.grams.row(*g));
        }
        tabmeta_linalg::scale(&mut v, 1.0 / grams.len() as f32);
        tabmeta_linalg::add_assign(out, &v);
        true
    }

    fn accumulate_id(&self, id: tabmeta_text::TermId, _term: &str, out: &mut [f32]) {
        let mut v = vec![0.0; self.dim()];
        compose_into(&self.words, &self.grams, &self.word_grams, id as usize, &mut v);
        tabmeta_linalg::add_assign(out, &v);
    }

    fn term_id(&self, term: &str) -> Option<tabmeta_text::TermId> {
        // Only in-vocabulary terms get an id; OOV terms embed via grams but
        // have no stable slot, so memoizing callers fall back to the string.
        self.vocab.id(term)
    }

    fn embeds(&self, term: &str) -> bool {
        self.vocab.id(term).is_some() || !ngram_ids(term, &self.config.ngrams).is_empty()
    }
}

impl TunableEmbedder for CharGram {
    fn apply_gradient(&mut self, term: &str, grad: &[f32]) {
        if let Some(id) = self.vocab.id(term) {
            self.apply_gradient_id(id, term, grad);
        }
        // OOV terms have no trainable word slot; grams alone could be
        // nudged, but tuning unseen terms risks corrupting shared buckets,
        // so fine-tuning is restricted to vocabulary terms.
    }

    fn apply_gradient_id(&mut self, id: tabmeta_text::TermId, _term: &str, grad: &[f32]) {
        let mut grad = grad.to_vec();
        spread_gradient(&mut self.words, &mut self.grams, &self.word_grams, id as usize, &mut grad);
    }
}

impl SgnsModel for CharGram {
    fn sgns_config(&self) -> &SgnsConfig {
        &self.config.sgns
    }

    fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    fn epoch(&mut self, run: &SgnsRun, sentences: &[Vec<u32>], st: &mut SgnsResume) {
        let mut input = Subwords {
            words: &mut self.words,
            grams: &mut self.grams,
            word_grams: &self.word_grams,
        };
        run.epoch(sentences, &mut input, &mut self.output, st);
    }

    fn hogwild(&mut self, run: &SgnsRun, sentences: &[Vec<u32>]) -> TrainReport {
        let input = Subwords {
            words: self.words.hogwild(),
            grams: self.grams.hogwild(),
            word_grams: &self.word_grams,
        };
        run.hogwild(sentences, input, self.output.hogwild())
    }
}

/// CharGram's input side over row storage `R`: a word's input vector is
/// the mean of its word row and its gram rows.
#[derive(Clone, Copy)]
struct Subwords<'g, R> {
    words: R,
    grams: R,
    word_grams: &'g [Vec<u32>],
}

impl<R: Rows> InputSide for Subwords<'_, R> {
    fn compose<'s>(&'s self, word: usize, scratch: &'s mut [f32]) -> &'s [f32] {
        compose_into(&self.words, &self.grams, self.word_grams, word, scratch);
        scratch
    }

    fn spread(&mut self, word: usize, grad: &mut [f32]) {
        spread_gradient(&mut self.words, &mut self.grams, self.word_grams, word, grad);
    }
}

/// Compose the input vector of vocabulary word `word` into `out`: the mean
/// of its word row and its gram rows.
fn compose_into<R: Rows>(
    words: &R,
    grams: &R,
    word_grams: &[Vec<u32>],
    word: usize,
    out: &mut [f32],
) {
    let word_grams = &word_grams[word];
    words.read(word, out);
    for &g in word_grams {
        grams.add_to(g as usize, out);
    }
    tabmeta_linalg::scale(out, 1.0 / (1 + word_grams.len()) as f32);
}

/// Distribute a gradient on `word`'s input vector across its constituents:
/// mean composition gives each row `grad / (1 + n)`. Scales `grad` in
/// place.
fn spread_gradient<R: Rows>(
    words: &mut R,
    grams: &mut R,
    word_grams: &[Vec<u32>],
    word: usize,
    grad: &mut [f32],
) {
    let word_grams = &word_grams[word];
    tabmeta_linalg::scale(grad, 1.0 / (1 + word_grams.len()) as f32);
    words.add(word, grad);
    for &g in word_grams {
        grams.add(g as usize, grad);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topic_sentences() -> Vec<Vec<String>> {
        let mk = |words: &[&str]| words.iter().map(|w| w.to_string()).collect::<Vec<_>>();
        let mut out = Vec::new();
        for _ in 0..100 {
            out.push(mk(&["headache", "migraine", "nausea", "symptom"]));
            out.push(mk(&["enrollment", "tuition", "campus", "faculty"]));
            out.push(mk(&["migraine", "headache", "symptom"]));
            out.push(mk(&["campus", "tuition", "enrollment"]));
        }
        out
    }

    #[test]
    fn training_separates_topics() {
        let (model, report) = CharGram::train(&topic_sentences(), CharGramConfig::tiny(9));
        assert!(report.pairs > 0);
        let sim = |a: &str, b: &str| {
            tabmeta_linalg::cosine_similarity(&model.embed(a).unwrap(), &model.embed(b).unwrap())
        };
        assert!(sim("headache", "migraine") > sim("headache", "tuition"));
    }

    #[test]
    fn hogwild_training_separates_topics() {
        let mut config = CharGramConfig::tiny(9);
        config.sgns.threads = 4;
        let (model, report) = CharGram::train(&topic_sentences(), config);
        assert!(report.pairs > 0);
        let sim = |a: &str, b: &str| {
            tabmeta_linalg::cosine_similarity(&model.embed(a).unwrap(), &model.embed(b).unwrap())
        };
        assert!(sim("headache", "migraine") > sim("headache", "tuition"));
    }

    #[test]
    fn oov_terms_still_embed_via_grams() {
        let (model, _) = CharGram::train(&topic_sentences(), CharGramConfig::tiny(9));
        // Unseen morphological relative of "headache"/"migraine".
        let v = model.embed("headaches");
        assert!(v.is_some(), "OOV term must compose from grams");
        let sim_in = tabmeta_linalg::cosine_similarity(
            &v.clone().unwrap(),
            &model.embed("headache").unwrap(),
        );
        let sim_out =
            tabmeta_linalg::cosine_similarity(&v.unwrap(), &model.embed("enrollment").unwrap());
        assert!(sim_in > sim_out, "morphological relative should be closer: {sim_in} vs {sim_out}");
    }

    #[test]
    fn class_tokens_are_atomic_and_embeddable() {
        let (model, _) = CharGram::train(&topic_sentences(), CharGramConfig::tiny(9));
        assert!(model.embed("<pct>").is_some());
    }

    #[test]
    fn training_is_deterministic() {
        let a = CharGram::train(&topic_sentences(), CharGramConfig::tiny(10)).0;
        let b = CharGram::train(&topic_sentences(), CharGramConfig::tiny(10)).0;
        assert_eq!(a.embed("headache"), b.embed("headache"));
    }

    #[test]
    fn gradient_tuning_moves_vocabulary_terms_only() {
        let (mut model, _) = CharGram::train(&topic_sentences(), CharGramConfig::tiny(11));
        let before = model.embed("headache").unwrap();
        model.apply_gradient("headache", &vec![0.05; model.dim()]);
        let after = model.embed("headache").unwrap();
        assert!(before.iter().zip(&after).any(|(b, a)| (b - a).abs() > 1e-7));

        let oov_before = model.embed("zzzxqj").unwrap();
        model.apply_gradient("zzzxqj", &vec![0.5; model.dim()]);
        let oov_after = model.embed("zzzxqj").unwrap();
        assert_eq!(oov_before, oov_after, "OOV tuning must be a no-op");
    }

    #[test]
    fn json_roundtrip() {
        let (model, _) = CharGram::train(&topic_sentences(), CharGramConfig::tiny(12));
        let back = CharGram::from_json(&model.to_json()).unwrap();
        assert_eq!(back.embed("campus"), model.embed("campus"));
    }

    #[test]
    fn resumable_run_is_bit_identical() {
        use std::ops::ControlFlow;
        let sentences = topic_sentences();
        let config = CharGramConfig::tiny(14);
        let (baseline, base_report) = CharGram::train(&sentences, config.clone());

        let mut snap: Option<(CharGram, SgnsResume)> = None;
        let mut sink = |m: &CharGram, s: &SgnsResume| {
            if s.epochs_done == 2 {
                snap = Some((m.clone(), s.clone()));
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        };
        let (vocab, encoded) = VocabBuilder::encode_all(&sentences, config.sgns.min_count);
        let (_, _, interrupted) = CharGram::train_encoded_resumable(
            vocab.clone(),
            &encoded,
            config.clone(),
            None,
            Some(&mut sink),
        );
        assert!(interrupted);
        let (resumed, report, interrupted) =
            CharGram::train_encoded_resumable(vocab, &encoded, config, snap, None);
        assert!(!interrupted);
        assert_eq!(report, base_report);
        assert_eq!(resumed.to_json(), baseline.to_json(), "resume must be bit-identical");
    }

    #[test]
    fn integrity_validation_flags_corruption() {
        let (model, _) = CharGram::train(&topic_sentences(), CharGramConfig::tiny(15));
        assert_eq!(model.validate_integrity(), Ok(()));

        let mut bad = model.clone();
        bad.grams.row_mut(1)[0] = f32::INFINITY;
        assert!(matches!(
            bad.validate_integrity(),
            Err(IntegrityFault::NonFinite { location }) if location.contains("chargram.grams")
        ));

        let mut bad = model.clone();
        bad.word_grams[0] = vec![u32::MAX];
        assert!(matches!(bad.validate_integrity(), Err(IntegrityFault::Shape { .. })));
    }

    #[test]
    fn empty_training_is_graceful() {
        let (model, report) = CharGram::train(&[], CharGramConfig::tiny(13));
        assert_eq!(report.pairs, 0);
        // Even with no data, gram composition yields *some* vector.
        assert!(model.embed("anything").is_some());
    }
}
