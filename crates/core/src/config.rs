//! Pipeline configuration: embedding choice + every phase's knobs.

use crate::bootstrap::BootstrapLabeler;
use crate::centroid::CentroidOptions;
use crate::classifier::ClassifierConfig;
use crate::finetune::FinetuneConfig;
use tabmeta_embed::chargram::CharGramConfig;
use tabmeta_embed::sentences::SentenceConfig;
use tabmeta_embed::sgns::SgnsConfig;

/// Which embedding model the pipeline trains (§III-A pairs Word2Vec with
/// BioBERT; CharGram is our BioBERT substitute, see DESIGN.md §2).
#[derive(Debug, Clone)]
pub enum EmbeddingChoice {
    /// Skip-gram Word2Vec (paper default for the non-biomedical corpora).
    Word2Vec(SgnsConfig),
    /// Subword CharGram model (biomedical corpora).
    CharGram(CharGramConfig),
}

impl EmbeddingChoice {
    /// The SGNS hyper-parameters the chosen model trains with.
    pub fn sgns(&self) -> &SgnsConfig {
        match self {
            EmbeddingChoice::Word2Vec(sgns) => sgns,
            EmbeddingChoice::CharGram(cfg) => &cfg.sgns,
        }
    }
}

/// Full pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Embedding model and its hyper-parameters.
    pub embedding: EmbeddingChoice,
    /// Table→sentence extraction.
    pub sentences: SentenceConfig,
    /// Bootstrap weak-labeling thresholds.
    pub bootstrap: BootstrapLabeler,
    /// Centroid range estimation options.
    pub centroid: CentroidOptions,
    /// Contrastive fine-tuning; `None` disables it (the ablation knob).
    pub finetune: Option<FinetuneConfig>,
    /// Classification-phase knobs.
    pub classifier: ClassifierConfig,
    /// Worker threads for the training path (sentence extraction, SGNS,
    /// bootstrap labeling, centroid estimation). `1` — the default, and
    /// what every determinism test pins — keeps the bit-identical seeded
    /// sequential stream; `>1` trains with Hogwild SGNS and map-reduce
    /// centroids, which are only statistically reproducible.
    pub threads: usize,
}

impl PipelineConfig {
    /// Paper-faithful configuration: 300-dimensional Word2Vec, window 3,
    /// `min_count` 1, contrastive fine-tuning on.
    pub fn paper(seed: u64) -> Self {
        Self {
            embedding: EmbeddingChoice::Word2Vec(SgnsConfig { seed, ..SgnsConfig::default() }),
            sentences: SentenceConfig::default(),
            bootstrap: BootstrapLabeler::default(),
            centroid: CentroidOptions { seed: seed ^ 0xce, ..CentroidOptions::default() },
            finetune: Some(FinetuneConfig { seed: seed ^ 0xf7, ..FinetuneConfig::default() }),
            classifier: ClassifierConfig::default(),
            threads: 1,
        }
    }

    /// Fast configuration for tests, examples and experiment defaults:
    /// 48-dimensional Word2Vec, fewer epochs, fine-tuning on.
    pub fn fast() -> Self {
        Self::fast_seeded(0xfa57)
    }

    /// [`PipelineConfig::fast`] with an explicit seed.
    pub fn fast_seeded(seed: u64) -> Self {
        Self {
            embedding: EmbeddingChoice::Word2Vec(SgnsConfig {
                dim: 48,
                epochs: 4,
                seed,
                ..SgnsConfig::default()
            }),
            sentences: SentenceConfig::default(),
            bootstrap: BootstrapLabeler::default(),
            centroid: CentroidOptions { seed: seed ^ 0xce, ..CentroidOptions::default() },
            finetune: Some(FinetuneConfig { seed: seed ^ 0xf7, ..FinetuneConfig::default() }),
            classifier: ClassifierConfig::default(),
            threads: 1,
        }
    }

    /// CharGram (BioBERT-substitute) variant of [`PipelineConfig::fast`].
    pub fn fast_chargram(seed: u64) -> Self {
        Self {
            embedding: EmbeddingChoice::CharGram(CharGramConfig {
                sgns: SgnsConfig { dim: 48, epochs: 3, seed, ..SgnsConfig::default() },
                ..CharGramConfig::tiny(seed)
            }),
            ..Self::fast_seeded(seed)
        }
    }

    /// Disable contrastive fine-tuning (ablation).
    pub fn without_finetune(mut self) -> Self {
        self.finetune = None;
        self
    }

    /// Set the training worker count (clamped to at least 1). See
    /// [`PipelineConfig::threads`] for the determinism trade-off.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_section_iv_c() {
        let c = PipelineConfig::paper(1);
        match &c.embedding {
            EmbeddingChoice::Word2Vec(s) => {
                assert_eq!(s.dim, 300);
                assert_eq!(s.window, 3);
                assert_eq!(s.min_count, 1);
            }
            _ => panic!("paper config uses Word2Vec"),
        }
        assert!(c.finetune.is_some());
    }

    #[test]
    fn fast_config_is_small() {
        match PipelineConfig::fast().embedding {
            EmbeddingChoice::Word2Vec(s) => assert!(s.dim <= 64),
            _ => panic!(),
        }
    }

    #[test]
    fn ablation_strips_finetune() {
        assert!(PipelineConfig::fast().without_finetune().finetune.is_none());
    }

    #[test]
    fn chargram_variant_selects_chargram() {
        assert!(matches!(PipelineConfig::fast_chargram(2).embedding, EmbeddingChoice::CharGram(_)));
    }

    #[test]
    fn threads_default_to_sequential_and_clamp() {
        assert_eq!(PipelineConfig::fast().threads, 1);
        assert_eq!(PipelineConfig::paper(1).threads, 1);
        assert_eq!(PipelineConfig::fast().with_threads(4).threads, 4);
        assert_eq!(PipelineConfig::fast().with_threads(0).threads, 1);
    }
}
