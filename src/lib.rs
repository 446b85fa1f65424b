//! # tabmeta — hierarchical tabular metadata classification
//!
//! Facade crate for the tabmeta workspace: a from-scratch Rust reproduction
//! of *"Scalable Tabular Hierarchical Metadata Classification in
//! Heterogeneous Structured Large-scale Datasets using Contrastive
//! Learning"* (Kandibedala et al., ICDE 2025).
//!
//! The workspace is organized as one crate per subsystem; this crate
//! re-exports them under stable module names so applications can depend on
//! `tabmeta` alone:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`linalg`] | `tabmeta-linalg` | vectors, angles, centroids, angle ranges |
//! | [`text`] | `tabmeta-text` | tokenizer, vocabulary, char n-grams |
//! | [`tabular`] | `tabmeta-tabular` | the GST table model, markup, corpus store |
//! | [`embed`] | `tabmeta-embed` | SGNS Word2Vec + CharGram embedding training |
//! | [`corpora`] | `tabmeta-corpora` | synthetic stand-ins for the paper's 6 corpora |
//! | [`contrastive`] | `tabmeta-core` | bootstrap, centroid ranges, contrastive fine-tuning, Algorithm-1 classifier |
//! | [`baselines`] | `tabmeta-baselines` | Pytheas, Random-Forest, layout detector, simulated LLM (+RAG) |
//! | [`eval`] | `tabmeta-eval` | experiment harness regenerating every paper table and figure |
//! | [`obs`] | `tabmeta-obs` | spans, metrics, trace timeline, and snapshot export for pipeline telemetry |
//! | [`serve`] | `tabmeta-serve` | hardened TCP classification server: backpressure, deadlines, hot reload |
//! | [`hybrid`] | (this crate) | §IV-G hybrid router: cheap path for simple tables, pipeline for complex ones |
//! | [`search`] | (this crate) | metadata-aware structural search over classified corpora |
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`; the short version:
//!
//! ```no_run
//! use tabmeta::corpora::{CorpusKind, GeneratorConfig};
//! use tabmeta::contrastive::{Pipeline, PipelineConfig};
//!
//! let corpus = CorpusKind::Ckg.generate(&GeneratorConfig::small(42));
//! let pipeline = Pipeline::train(&corpus.tables, &PipelineConfig::fast()).unwrap();
//! let verdict = pipeline.classify(&corpus.tables[0]);
//! println!("HMD depth = {}, VMD depth = {}", verdict.hmd_depth, verdict.vmd_depth);
//! ```

#![forbid(unsafe_code)]

pub mod hybrid;
pub mod search;

pub use tabmeta_baselines as baselines;
pub use tabmeta_core as contrastive;
pub use tabmeta_corpora as corpora;
pub use tabmeta_embed as embed;
pub use tabmeta_eval as eval;
pub use tabmeta_linalg as linalg;
pub use tabmeta_obs as obs;
pub use tabmeta_resilience as resilience;
pub use tabmeta_serve as serve;
pub use tabmeta_tabular as tabular;
pub use tabmeta_text as text;
