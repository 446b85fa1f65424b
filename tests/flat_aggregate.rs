//! The classify path's flat aggregation against the direct path.
//!
//! `LevelVectorCache::axis_vectors` reads term vectors from the
//! `TermInterner`'s arena and cell slots from its memo, and writes every
//! level that embeds into one buffer per axis. Over tables of all six
//! generators, under Word2Vec (vocabulary terms on the dense id path) and
//! CharGram (gram-composed terms on the string path), each level must
//! equal `aggregate::axis_vectors` bit for bit: from a cold interner, on
//! the first sight of a table by a shared interner, and again from that
//! warm interner, when every cell is a memo hit. The shared interner must
//! then hold exactly one entry per distinct term and one per distinct
//! non-blank cell text.

use std::collections::HashSet;
use tabmeta::contrastive::aggregate::axis_vectors;
use tabmeta::contrastive::{LevelVectorCache, Pipeline, PipelineConfig, TermInterner};
use tabmeta::corpora::{CorpusKind, GeneratorConfig};
use tabmeta::embed::TermEmbedder;
use tabmeta::tabular::{Axis, Table};
use tabmeta::text::Tokenizer;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Build `table`'s cache on `interner` and hold both axes to the direct
/// path, level by level.
fn assert_matches_direct(
    pipeline: &Pipeline,
    table: &Table,
    interner: &mut TermInterner,
    when: &str,
) {
    let (embedder, tokenizer) = (pipeline.embedder(), pipeline.tokenizer());
    let cache = LevelVectorCache::build(table, embedder, tokenizer, interner, &mut Vec::new());
    for axis in [Axis::Row, Axis::Column] {
        let direct = axis_vectors(table, axis, embedder, tokenizer);
        let flat = cache.axis_vectors(axis, interner, embedder.dim());
        assert_eq!(flat.len(), direct.len(), "{when}: table {} {axis:?}", table.id);
        for (i, d) in direct.iter().enumerate() {
            assert_eq!(
                flat.get(i).map(bits),
                d.as_deref().map(bits),
                "{when}: table {} {axis:?} level {i}",
                table.id
            );
        }
    }
}

/// The distinct non-blank cell texts of `tables` and the distinct tokens
/// they hold.
fn distinct_cells_and_terms(tables: &[Table], tokenizer: &Tokenizer) -> (usize, HashSet<String>) {
    let (mut texts, mut terms) = (HashSet::new(), HashSet::new());
    let mut buf = Vec::new();
    for table in tables {
        for r in 0..table.n_rows() {
            for c in 0..table.n_cols() {
                let cell = table.cell(r, c);
                if cell.is_blank() || !texts.insert(cell.text.as_str()) {
                    continue;
                }
                buf.clear();
                tokenizer.tokenize_into(&cell.text, &mut buf);
                terms.extend(buf.drain(..).map(|t| t.text));
            }
        }
    }
    (texts.len(), terms)
}

#[test]
fn flat_aggregation_matches_the_direct_path_on_every_generator() {
    let train: Vec<Table> = CorpusKind::ALL
        .iter()
        .flat_map(|kind| kind.generate(&GeneratorConfig { n_tables: 20, seed: 61 }).tables)
        .collect();
    let configs = [
        ("word2vec", PipelineConfig::fast_seeded(61).without_finetune()),
        ("chargram", PipelineConfig::fast_chargram(61).without_finetune()),
    ];
    for (model, config) in configs {
        let pipeline = Pipeline::train(&train, &config).expect("trains");
        let embedder = pipeline.embedder();
        let (mut oov_terms, mut string_path_terms) = (0, 0);
        for kind in CorpusKind::ALL {
            let tables = kind.generate(&GeneratorConfig { n_tables: 12, seed: 62 }).tables;
            let mut warm = TermInterner::new();
            for table in &tables {
                let when = format!("{model} {kind:?}");
                assert_matches_direct(&pipeline, table, &mut TermInterner::new(), &when);
                assert_matches_direct(&pipeline, table, &mut warm, &format!("{when} first sight"));
                assert_matches_direct(&pipeline, table, &mut warm, &format!("{when} memo hit"));
            }
            let (cells, terms) = distinct_cells_and_terms(&tables, pipeline.tokenizer());
            assert_eq!(warm.len(), terms.len(), "{model} {kind:?}: one slot per distinct term");
            assert_eq!(warm.memo_entries(), terms.len() + cells, "{model} {kind:?}");
            oov_terms += terms.iter().filter(|t| !embedder.embeds(t)).count();
            string_path_terms += terms
                .iter()
                .filter(|t| embedder.term_id(t).is_none() && embedder.embeds(t))
                .count();
        }
        // Held-out words outside the vocabulary: Word2Vec interns them
        // with no vector, CharGram composes them from grams.
        match model {
            "word2vec" => assert!(oov_terms > 0, "no OOV term reached the interner"),
            _ => assert!(string_path_terms > 0, "no gram-composed term took the string path"),
        }
    }
}
