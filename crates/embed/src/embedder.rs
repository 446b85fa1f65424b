//! The embedding interface the classifier consumes.
//!
//! The contrastive pipeline is embedding-model-agnostic: it needs to (a)
//! accumulate a term's vector into a level aggregate and (b) nudge a term's
//! vector during contrastive fine-tuning. Both Word2Vec and CharGram
//! implement this pair of traits, so the whole downstream stack — centroid
//! computation, fine-tuning, Algorithm 1 — is written once.

/// Read access to term vectors.
pub trait TermEmbedder {
    /// Embedding dimensionality.
    fn dim(&self) -> usize;

    /// Add `term`'s vector into `out` (which must have length [`dim`]).
    /// Returns `false` when the term has no representation (fully OOV),
    /// leaving `out` untouched.
    ///
    /// [`dim`]: TermEmbedder::dim
    fn accumulate(&self, term: &str, out: &mut [f32]) -> bool;

    /// Convenience: the term's vector as an owned `Vec`, or `None` if OOV.
    fn embed(&self, term: &str) -> Option<Vec<f32>> {
        let mut out = vec![0.0; self.dim()];
        self.accumulate(term, &mut out).then_some(out)
    }

    /// Stable vocabulary id for `term` when the model has a dense,
    /// id-addressable vocabulary entry for it; `None` otherwise.
    ///
    /// Callers may use the id only as a memoization key: `None` does **not**
    /// imply OOV (CharGram composes out-of-vocabulary terms from grams and
    /// still accumulates them) — use [`embeds`] for that question.
    ///
    /// [`embeds`]: TermEmbedder::embeds
    fn term_id(&self, _term: &str) -> Option<tabmeta_text::TermId> {
        None
    }

    /// [`accumulate`] on `term`, whose [`term_id`] is `id`, with exactly its
    /// arithmetic — the read of callers that resolved a term once and
    /// reuse it. A model with term ids reads the row `id` names and skips
    /// the vocabulary lookup; the default makes the string call.
    ///
    /// [`term_id`]: TermEmbedder::term_id
    /// [`accumulate`]: TermEmbedder::accumulate
    fn accumulate_id(&self, _id: tabmeta_text::TermId, term: &str, out: &mut [f32]) {
        self.accumulate(term, out);
    }

    /// Whether `term` has any representation — i.e. whether [`accumulate`]
    /// would return `true` — ideally without allocating. The default probes
    /// via [`embed`] and therefore allocates a scratch vector; real models
    /// override it with a vocabulary test.
    ///
    /// [`accumulate`]: TermEmbedder::accumulate
    /// [`embed`]: TermEmbedder::embed
    fn embeds(&self, term: &str) -> bool {
        self.embed(term).is_some()
    }

    /// Aggregate a sequence of terms by summation (Def. 8). Returns `None`
    /// when no term embedded.
    fn aggregate<'t>(&self, terms: impl IntoIterator<Item = &'t str>) -> Option<Vec<f32>> {
        let mut out = vec![0.0; self.dim()];
        let mut any = false;
        for term in terms {
            any |= self.accumulate(term, &mut out);
        }
        any.then_some(out)
    }
}

/// Write access used by contrastive fine-tuning.
pub trait TunableEmbedder: TermEmbedder {
    /// Apply `grad` (already scaled by the learning rate) to `term`'s
    /// underlying parameters. No-op for OOV terms.
    fn apply_gradient(&mut self, term: &str, grad: &[f32]);

    /// [`apply_gradient`] on `term`, whose [`TermEmbedder::term_id`] is
    /// `id`, with exactly its arithmetic. As with
    /// [`TermEmbedder::accumulate_id`], a model with term ids writes the
    /// row `id` names; the default makes the string call.
    ///
    /// [`apply_gradient`]: TunableEmbedder::apply_gradient
    fn apply_gradient_id(&mut self, _id: tabmeta_text::TermId, term: &str, grad: &[f32]) {
        self.apply_gradient(term, grad);
    }
}

/// A structural or numeric defect found in an embedding model — the deep
/// half of artifact validation: a file can have a valid checksum and parse
/// cleanly yet still carry weights that would poison every downstream
/// angle computation. Produced by the models' `validate_integrity`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntegrityFault {
    /// A weight matrix's shape disagrees with the vocabulary or config.
    Shape {
        /// What disagrees with what, with the numbers involved.
        detail: String,
    },
    /// A NaN or infinite weight.
    NonFinite {
        /// Which matrix and row holds the bad value.
        location: String,
    },
}

impl std::fmt::Display for IntegrityFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntegrityFault::Shape { detail } => write!(f, "shape mismatch: {detail}"),
            IntegrityFault::NonFinite { location } => {
                write!(f, "non-finite weight in {location}")
            }
        }
    }
}

impl std::error::Error for IntegrityFault {}

/// Scan a matrix for NaN/Inf; `name` labels the fault location.
pub(crate) fn check_matrix_finite(
    m: &tabmeta_linalg::Matrix,
    name: &str,
) -> Result<(), IntegrityFault> {
    if let Some(idx) = m.as_flat().iter().position(|v| !v.is_finite()) {
        let dim = m.dim().max(1);
        return Err(IntegrityFault::NonFinite {
            location: format!("{name} row {} col {}", idx / dim, idx % dim),
        });
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use std::collections::HashMap;

    /// A fixed-dictionary embedder for unit tests of downstream crates.
    #[derive(Debug, Clone, Default)]
    pub struct FixedEmbedder {
        pub dim: usize,
        pub vectors: HashMap<String, Vec<f32>>,
    }

    impl TermEmbedder for FixedEmbedder {
        fn dim(&self) -> usize {
            self.dim
        }

        fn accumulate(&self, term: &str, out: &mut [f32]) -> bool {
            match self.vectors.get(term) {
                Some(v) => {
                    tabmeta_linalg::add_assign(out, v);
                    true
                }
                None => false,
            }
        }

        fn embeds(&self, term: &str) -> bool {
            self.vectors.contains_key(term)
        }
    }

    impl TunableEmbedder for FixedEmbedder {
        fn apply_gradient(&mut self, term: &str, grad: &[f32]) {
            if let Some(v) = self.vectors.get_mut(term) {
                tabmeta_linalg::add_assign(v, grad);
            }
        }
    }

    #[test]
    fn aggregate_sums_known_terms() {
        let mut e = FixedEmbedder { dim: 2, ..Default::default() };
        e.vectors.insert("a".into(), vec![1.0, 0.0]);
        e.vectors.insert("b".into(), vec![0.0, 2.0]);
        let agg = e.aggregate(["a", "b", "zzz"]).unwrap();
        assert_eq!(agg, vec![1.0, 2.0]);
    }

    #[test]
    fn aggregate_of_all_oov_is_none() {
        let e = FixedEmbedder { dim: 3, ..Default::default() };
        assert!(e.aggregate(["x", "y"]).is_none());
    }

    #[test]
    fn embed_returns_owned_copy() {
        let mut e = FixedEmbedder { dim: 2, ..Default::default() };
        e.vectors.insert("a".into(), vec![0.5, 0.5]);
        assert_eq!(e.embed("a"), Some(vec![0.5, 0.5]));
        assert_eq!(e.embed("q"), None);
    }

    #[test]
    fn embeds_and_term_id_defaults() {
        let mut e = FixedEmbedder { dim: 2, ..Default::default() };
        e.vectors.insert("a".into(), vec![0.5, 0.5]);
        assert!(e.embeds("a"));
        assert!(!e.embeds("q"));
        // FixedEmbedder keeps the trait default: no id-addressable vocab.
        assert_eq!(e.term_id("a"), None);
    }

    #[test]
    fn gradient_applies() {
        let mut e = FixedEmbedder { dim: 2, ..Default::default() };
        e.vectors.insert("a".into(), vec![1.0, 1.0]);
        e.apply_gradient("a", &[0.5, -0.5]);
        assert_eq!(e.embed("a"), Some(vec![1.5, 0.5]));
        e.apply_gradient("missing", &[9.0, 9.0]); // no-op, no panic
    }
}
