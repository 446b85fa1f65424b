//! The §IV-G "Hybrid solution" as a first-class API.
//!
//! *"To further improve efficiency, one can first apply SOTA techniques to
//! identify metadata in simpler relational tables (i.e., those with a
//! single level of HMD), and then, for the remaining tables employ our
//! approach, where accurate classification of Bi-dimensional hierarchical
//! metadata … justifies the additional expense."*
//!
//! [`HybridClassifier`] wires a cheap rule-based path (Pytheas) in front
//! of the contrastive pipeline behind a structural complexity router. The
//! router consults *surface structure only* — it must not require the
//! answer it is routing toward.

use crate::baselines::{Pytheas, TableClassifier};
use crate::contrastive::{Pipeline, Provenance, Verdict};
use crate::tabular::{Axis, LevelLabel, Table};

/// Which path classified a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// The cheap rule-based path (simple relational-looking table).
    Cheap,
    /// The full contrastive pipeline (complex table).
    Deep,
}

/// Routing thresholds.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// A leading column whose body exceeds this blank fraction signals
    /// hierarchical VMD (spanning parents leave blank runs).
    pub blank_column_threshold: f32,
    /// A second all-textual top row signals multi-level HMD.
    pub textual_second_row: bool,
    /// Tables wider than this are routed deep (wide layouts correlate
    /// with spanning headers).
    pub max_cheap_cols: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self { blank_column_threshold: 0.2, textual_second_row: true, max_cheap_cols: 6 }
    }
}

impl RouterConfig {
    /// Whether `table` looks complex (hierarchical) from surface structure.
    pub fn is_complex(&self, table: &Table) -> bool {
        if table.n_cols() > self.max_cheap_cols {
            return true;
        }
        if table.blank_fraction(Axis::Column, 0) > self.blank_column_threshold {
            return true;
        }
        if self.textual_second_row && table.n_rows() >= 3 {
            let texts = table.level_texts(Axis::Row, 1);
            let textual = !texts.is_empty()
                && texts.iter().all(|t| tabmeta_text::classify_numeric(t).is_none());
            if textual {
                return true;
            }
        }
        false
    }
}

/// Cheap-first, deep-when-needed classification (§IV-G).
pub struct HybridClassifier {
    /// The full pipeline for complex tables.
    pub pipeline: Pipeline,
    /// The cheap path for simple relational tables.
    pub cheap: Pytheas,
    /// Routing thresholds.
    pub router: RouterConfig,
}

impl HybridClassifier {
    /// Assemble a hybrid from trained components.
    pub fn new(pipeline: Pipeline, cheap: Pytheas) -> Self {
        Self { pipeline, cheap, router: RouterConfig::default() }
    }

    /// Classify, reporting which path ran.
    pub fn classify(&self, table: &Table) -> (Verdict, Route) {
        if self.router.is_complex(table) {
            (self.pipeline.classify(table), Route::Deep)
        } else {
            let p = self.cheap.classify_table(table);
            let hmd_depth =
                p.rows.iter().take_while(|l| matches!(l, LevelLabel::Hmd(_))).count() as u8;
            (
                Verdict {
                    rows: p.rows,
                    columns: p.columns,
                    hmd_depth,
                    vmd_depth: 0,
                    row_provenance: Provenance::Walk,
                    col_provenance: Provenance::Walk,
                },
                Route::Cheap,
            )
        }
    }

    /// Classify a corpus, returning verdicts plus the fraction routed deep.
    ///
    /// Deep-routed tables go to the pipeline as one batch
    /// ([`Pipeline::classify_corpus`]: per-worker scratch, shared term
    /// interner) instead of one call at a time; the cheap path stays
    /// per-table. Verdicts and ordering are identical to calling
    /// [`HybridClassifier::classify`] per table.
    pub fn classify_corpus(&self, tables: &[Table]) -> (Vec<Verdict>, f64) {
        let mut deep_refs: Vec<&Table> = Vec::new();
        let mut verdicts: Vec<Option<Verdict>> = Vec::with_capacity(tables.len());
        for t in tables {
            if self.router.is_complex(t) {
                deep_refs.push(t);
                verdicts.push(None);
            } else {
                verdicts.push(Some(self.classify(t).0));
            }
        }
        let deep = deep_refs.len();
        let mut deep_verdicts = self.pipeline.classify_corpus(&deep_refs).into_iter();
        let verdicts: Vec<Verdict> = verdicts
            .into_iter()
            .map(|v| v.unwrap_or_else(|| deep_verdicts.next().expect("one verdict per deep table")))
            .collect();
        (verdicts, deep as f64 / tables.len().max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::PytheasConfig;
    use crate::contrastive::PipelineConfig;
    use crate::corpora::{CorpusKind, GeneratorConfig};

    fn hybrid(kind: CorpusKind, n: usize, seed: u64) -> (HybridClassifier, Vec<Table>) {
        let corpus = kind.generate(&GeneratorConfig { n_tables: n, seed });
        let cut = n * 7 / 10;
        let pipeline =
            Pipeline::train(&corpus.tables[..cut], &PipelineConfig::fast_seeded(seed)).unwrap();
        let cheap = Pytheas::train(&corpus.tables[..cut], PytheasConfig::default());
        (HybridClassifier::new(pipeline, cheap), corpus.tables[cut..].to_vec())
    }

    #[test]
    fn complex_tables_route_deep() {
        let (h, test) = hybrid(CorpusKind::Ckg, 200, 9);
        let mut deep_when_hierarchical = 0usize;
        let mut hierarchical = 0usize;
        for t in &test {
            let truth = t.truth.as_ref().unwrap();
            let (_, route) = h.classify(t);
            if truth.vmd_depth() >= 2 || truth.hmd_depth() >= 2 {
                hierarchical += 1;
                if route == Route::Deep {
                    deep_when_hierarchical += 1;
                }
            }
        }
        assert!(hierarchical > 20);
        let frac = deep_when_hierarchical as f64 / hierarchical as f64;
        assert!(frac > 0.85, "hierarchical tables must route deep: {frac}");
    }

    #[test]
    fn flat_corpus_mostly_routes_cheap() {
        let (h, test) = hybrid(CorpusKind::Wdc, 200, 4);
        let (_, deep_frac) = h.classify_corpus(&test);
        assert!(deep_frac < 0.7, "WDC is dominated by simple tables: {deep_frac}");
    }

    #[test]
    fn hybrid_accuracy_stays_high_on_hmd1() {
        let (h, test) = hybrid(CorpusKind::Wdc, 250, 11);
        let (verdicts, _) = h.classify_corpus(&test);
        let mut ok = 0usize;
        for (t, v) in test.iter().zip(&verdicts) {
            if v.rows.first() == Some(&LevelLabel::Hmd(1)) {
                ok += 1;
            }
            assert_eq!(v.rows.len(), t.n_rows());
        }
        let acc = ok as f64 / test.len() as f64;
        assert!(acc > 0.9, "hybrid HMD1 accuracy: {acc}");
    }

    #[test]
    fn corpus_batching_matches_per_table_routing() {
        let (h, test) = hybrid(CorpusKind::Ckg, 150, 7);
        let (verdicts, deep_frac) = h.classify_corpus(&test);
        assert_eq!(verdicts.len(), test.len());
        let mut deep = 0usize;
        for (t, v) in test.iter().zip(&verdicts) {
            let (per_table, route) = h.classify(t);
            assert_eq!(*v, per_table);
            if route == Route::Deep {
                deep += 1;
            }
        }
        assert!((deep_frac - deep as f64 / test.len() as f64).abs() < 1e-12);
    }

    #[test]
    fn cheap_route_never_claims_vmd() {
        let (h, test) = hybrid(CorpusKind::Wdc, 150, 2);
        for t in &test {
            let (v, route) = h.classify(t);
            if route == Route::Cheap {
                assert_eq!(v.vmd_depth, 0);
                assert!(v.columns.iter().all(|l| *l == LevelLabel::Data));
            }
        }
    }
}
