//! Turning tables into training sentences.
//!
//! §IV-C: *"The training set is comprised of table tuples/rows. We
//! tokenize, embed, encode each tuple … We add \[CLS\] at the start of
//! each row and \[SEP\] between the cells."* We reproduce the row
//! serialization (with the `[SEP]` cell boundary token) and additionally
//! emit column sentences, since VMD classification consumes columnar
//! co-occurrence.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use tabmeta_tabular::{Axis, Table};
use tabmeta_text::Tokenizer;

/// Cell-boundary token, in the spirit of BERT's `[SEP]`.
pub const SEP: &str = "[sep]";

/// Sentence extraction knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SentenceConfig {
    /// Emit one sentence per row.
    pub rows: bool,
    /// Emit one sentence per column.
    pub columns: bool,
    /// Insert [`SEP`] between cells within a sentence.
    pub cell_separators: bool,
    /// Include the table caption as its own sentence.
    pub captions: bool,
}

impl Default for SentenceConfig {
    fn default() -> Self {
        Self { rows: true, columns: true, cell_separators: true, captions: true }
    }
}

/// Extract training sentences (term-string sequences) from tables.
pub fn sentences_from_tables(
    tables: &[Table],
    tokenizer: &Tokenizer,
    config: &SentenceConfig,
) -> Vec<Vec<String>> {
    sentences_from_tables_par(tables, tokenizer, config, 1)
}

/// [`sentences_from_tables`] with explicit parallelism: `threads > 1`
/// extracts per-table sentence blocks on rayon workers and flattens them
/// in table order, so the output is identical to the sequential path —
/// extraction is pure per table, making this the easy half of the
/// parallel training pipeline.
///
/// Times the `sentences` span but counts nothing: training extracts each
/// shard's sentences once per pass, so the trainer records the
/// `embed.sentences` counter and the sentence-length histogram itself,
/// once per run.
pub fn sentences_from_tables_par(
    tables: &[Table],
    tokenizer: &Tokenizer,
    config: &SentenceConfig,
    threads: usize,
) -> Vec<Vec<String>> {
    tabmeta_obs::span!(tabmeta_obs::names::SPAN_SENTENCES);
    if threads > 1 {
        let blocks: Vec<Vec<Vec<String>>> = tables
            .par_iter()
            .map(|t| {
                let mut block = Vec::new();
                sentences_from_table(t, tokenizer, config, &mut block);
                block
            })
            .collect();
        blocks.into_iter().flatten().collect()
    } else {
        let mut out = Vec::new();
        for table in tables {
            sentences_from_table(table, tokenizer, config, &mut out);
        }
        out
    }
}

/// Append one table's sentences to `out`.
fn sentences_from_table(
    table: &Table,
    tokenizer: &Tokenizer,
    config: &SentenceConfig,
    out: &mut Vec<Vec<String>>,
) {
    let mut buf = Vec::new();
    if config.captions && !table.caption.is_empty() {
        let terms = tokenizer.terms(&table.caption);
        if !terms.is_empty() {
            out.push(terms);
        }
    }
    let mut push_level = |axis: Axis, index: usize, out: &mut Vec<Vec<String>>| {
        let mut sentence: Vec<String> = Vec::new();
        for cell in table.level_cells(axis, index) {
            if cell.is_blank() {
                continue;
            }
            buf.clear();
            tokenizer.tokenize_into(&cell.text, &mut buf);
            if buf.is_empty() {
                continue;
            }
            if config.cell_separators && !sentence.is_empty() {
                sentence.push(SEP.to_string());
            }
            sentence.extend(buf.drain(..).map(|t| t.text));
        }
        if sentence.len() > 1 || (sentence.len() == 1 && sentence[0] != SEP) {
            out.push(sentence);
        }
    };
    if config.rows {
        for i in 0..table.n_rows() {
            push_level(Axis::Row, i, out);
        }
    }
    if config.columns {
        for j in 0..table.n_cols() {
            push_level(Axis::Column, j, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::from_strings(
            1,
            &[&["age group", "count"], &["12 to 15 years", "61"], &["", "27"]],
        );
        t.caption = "Vaccine outcomes".to_string();
        t
    }

    #[test]
    fn rows_and_columns_and_caption() {
        let t = sample();
        let sents = sentences_from_tables(&[t], &Tokenizer::default(), &SentenceConfig::default());
        // caption + 3 rows (one is single-cell) + 2 columns.
        assert!(sents.iter().any(|s| s == &["vaccine", "outcomes"]));
        assert!(sents.iter().any(|s| s.contains(&SEP.to_string())));
        // Column 0 sentence skips the blank cell.
        assert!(sents
            .iter()
            .any(|s| s.first().map(String::as_str) == Some("age")
                && s.contains(&"years".to_string())));
    }

    #[test]
    fn separators_can_be_disabled() {
        let cfg = SentenceConfig { cell_separators: false, ..SentenceConfig::default() };
        let sents = sentences_from_tables(&[sample()], &Tokenizer::default(), &cfg);
        assert!(sents.iter().all(|s| !s.contains(&SEP.to_string())));
    }

    #[test]
    fn rows_only() {
        let cfg = SentenceConfig { columns: false, captions: false, ..SentenceConfig::default() };
        let sents = sentences_from_tables(&[sample()], &Tokenizer::default(), &cfg);
        // 3 rows; the last row has one numeric token only -> kept (single real token).
        assert_eq!(sents.len(), 3);
    }

    #[test]
    fn parallel_extraction_matches_sequential() {
        let tables: Vec<Table> = (0..8).map(|_| sample()).collect();
        let seq = sentences_from_tables(&tables, &Tokenizer::default(), &SentenceConfig::default());
        let par = sentences_from_tables_par(
            &tables,
            &Tokenizer::default(),
            &SentenceConfig::default(),
            4,
        );
        assert_eq!(seq, par, "per-table extraction is pure; order must match");
    }

    #[test]
    fn empty_tables_produce_nothing() {
        let t = Table::from_strings(9, &[&["", ""], &["", ""]]);
        let sents = sentences_from_tables(&[t], &Tokenizer::default(), &SentenceConfig::default());
        assert!(sents.is_empty());
    }
}
