//! Aggregated level vectors (Def. 8): one vector per table row or column,
//! the summation of its cells' term embeddings.
//!
//! Three paths produce the same vectors:
//!
//! * [`level_vector`] / [`axis_vectors`] — the direct path: tokenize the
//!   level's cells and accumulate term embeddings on the spot.
//! * [`LevelVectorCache`] + [`TermInterner`] — the classify hot path:
//!   tokenize every cell of a table exactly **once**, resolve each token to
//!   an interned term vector, and replay the same accumulation order for
//!   both the Row and Column axis passes. The interner keeps its term
//!   vectors in one `f32` arena and its memoized cells' slots in one `u32`
//!   arena; [`LevelVectorCache::axis_vectors`] writes an axis into one
//!   [`AxisVectors`] buffer, with a row only for each level that embeds.
//!   Because a cached term vector is a bit-exact copy of what `accumulate`
//!   would have added (an embedding accumulated into a zero buffer) and
//!   the per-level add order is unchanged, the cached path is
//!   bit-identical to the direct one.
//! * `TermIndex` — the fine-tuning path: every cell of one table
//!   tokenized once and its embedding terms resolved once to term ids,
//!   read through the model on every use because fine-tuning moves term
//!   vectors between pairs. It adds each term's vector with the model's
//!   own arithmetic in the direct path's order, so it is bit-identical to
//!   the direct path too.

use std::collections::HashMap;
use tabmeta_embed::{TermEmbedder, TunableEmbedder};
use tabmeta_tabular::{Axis, Table};
use tabmeta_text::{TermId, Token, Tokenizer};

/// Compute the aggregated embedding of one level (row or column).
///
/// Blank cells contribute nothing; returns `None` when no term of the
/// level embeds (fully blank or fully OOV level). The output buffer is
/// allocated lazily at the first embeddable token, so fully-blank and
/// fully-OOV levels allocate nothing.
pub fn level_vector<E: TermEmbedder + ?Sized>(
    table: &Table,
    axis: Axis,
    index: usize,
    embedder: &E,
    tokenizer: &Tokenizer,
) -> Option<Vec<f32>> {
    let mut out: Option<Vec<f32>> = None;
    let mut buf = Vec::new();
    for cell in table.level_cells(axis, index) {
        if cell.is_blank() {
            continue;
        }
        buf.clear();
        tokenizer.tokenize_into(&cell.text, &mut buf);
        for tok in &buf {
            match out.as_mut() {
                Some(o) => {
                    embedder.accumulate(&tok.text, o);
                }
                None if embedder.embeds(&tok.text) => {
                    // First embeddable token: accumulating into fresh zeros
                    // is exactly what the eager path did for the prefix of
                    // OOV tokens (they contributed nothing).
                    let mut o = vec![0.0f32; embedder.dim()];
                    embedder.accumulate(&tok.text, &mut o);
                    out = Some(o);
                }
                None => {}
            }
        }
    }
    out
}

/// Aggregated vectors for every level along `axis` (index-aligned; `None`
/// entries are blank/OOV levels).
pub fn axis_vectors<E: TermEmbedder + ?Sized>(
    table: &Table,
    axis: Axis,
    embedder: &E,
    tokenizer: &Tokenizer,
) -> Vec<Option<Vec<f32>>> {
    (0..table.n_levels(axis)).map(|i| level_vector(table, axis, i, embedder, tokenizer)).collect()
}

/// Marks a slot of [`TermInterner`] whose term does not embed, and a level
/// of [`AxisVectors`] with no vector.
const NO_ROW: u32 = u32::MAX;

/// Memoized term → embedding resolution, shared across many tables.
///
/// The classify hot path sees the same header vocabulary over and over
/// (`age`, `<int>`, `patient`, …); resolving each distinct term through the
/// embedder once and replaying the cached vector afterwards removes the
/// per-occurrence vocabulary hash + row copy (and, for CharGram, the whole
/// n-gram composition). In-vocabulary terms take a dense fast path keyed by
/// [`TermEmbedder::term_id`]; everything else falls back to a string map.
///
/// Storage is flat: every embedding term's vector is one `dim`-wide row of
/// a single `f32` arena, and every memoized cell's slots are one span of a
/// single `u32` arena, so a memo hit is one map lookup and no pointer
/// chasing.
///
/// Interner contents never influence *values* — a cached vector is the
/// bit-exact `embed` result — so reusing one interner across tables and
/// worker threads' scratch lifetimes cannot change any verdict.
#[derive(Default)]
pub struct TermInterner {
    /// Dense fast path: embedder vocab id → interned slot + 1 (0 = unset).
    by_vocab_id: Vec<u32>,
    /// Fallback for terms without a stable vocab id (OOV, gram-composed).
    by_str: HashMap<Box<str>, u32>,
    /// Slot → its row of `vectors`, or [`NO_ROW`] for a term that does not
    /// embed.
    rows: Vec<u32>,
    /// Every embedding term's vector, `dim` floats a row, in interning
    /// order.
    vectors: Vec<f32>,
    /// The embedder's width, read when a term is interned.
    dim: usize,
    /// Cell text → its tokens' slots, in tokenization order, as a
    /// `(start, len)` span of `cell_slots`. Corpora repeat cell texts
    /// heavily (years, units, shared header vocabulary), and a hit here
    /// skips the whole tokenize-then-resolve pass for the cell. Replaying
    /// the identical slot sequence is what makes the memo safe: the
    /// accumulation the caller performs is unchanged, byte for byte.
    cells: HashMap<Box<str>, (u32, u32)>,
    /// Every memoized cell's slots, back to back.
    cell_slots: Vec<u32>,
}

impl TermInterner {
    /// A fresh, empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolve `term` to its interned slot, embedding it on first sight.
    pub fn resolve<E: TermEmbedder + ?Sized>(&mut self, embedder: &E, term: &str) -> u32 {
        if let Some(id) = embedder.term_id(term) {
            let idx = id as usize;
            if idx >= self.by_vocab_id.len() {
                self.by_vocab_id.resize(idx + 1, 0);
            }
            let slot = self.by_vocab_id[idx];
            if slot != 0 {
                return slot - 1;
            }
            let slot = self.intern(embedder, term);
            self.by_vocab_id[idx] = slot + 1;
            slot
        } else {
            if let Some(&slot) = self.by_str.get(term) {
                return slot;
            }
            let slot = self.intern(embedder, term);
            self.by_str.insert(term.into(), slot);
            slot
        }
    }

    /// Give `term` the next slot, appending its vector to the arena when it
    /// embeds. `embed` is an accumulation into zeros, so accumulating into
    /// a zeroed arena row stores the same bits.
    fn intern<E: TermEmbedder + ?Sized>(&mut self, embedder: &E, term: &str) -> u32 {
        let slot = self.rows.len() as u32;
        self.dim = embedder.dim();
        let start = self.vectors.len();
        self.vectors.resize(start + self.dim, 0.0);
        let row = if embedder.accumulate(term, &mut self.vectors[start..]) {
            // A zero-width model keeps every row empty, at row 0.
            (start / self.dim.max(1)) as u32
        } else {
            self.vectors.truncate(start);
            NO_ROW
        };
        self.rows.push(row);
        slot
    }

    /// The interned slots of one cell's tokens, tokenizing on first sight
    /// of this exact cell text and replaying the memoized slot list after.
    ///
    /// `tokenizer` must be the same across all calls on one interner (the
    /// scratch that owns an interner belongs to one classifier, which has
    /// exactly one tokenizer, so this holds by construction).
    pub fn resolve_cell<E: TermEmbedder + ?Sized>(
        &mut self,
        embedder: &E,
        tokenizer: &Tokenizer,
        text: &str,
        token_buf: &mut Vec<Token>,
    ) -> &[u32] {
        let (start, len) = match self.cells.get(text) {
            Some(&span) => span,
            None => {
                token_buf.clear();
                tokenizer.tokenize_into(text, token_buf);
                let start = self.cell_slots.len();
                for tok in token_buf.iter() {
                    let slot = self.resolve(embedder, &tok.text);
                    self.cell_slots.push(slot);
                }
                let span = (start as u32, (self.cell_slots.len() - start) as u32);
                self.cells.insert(text.into(), span);
                span
            }
        };
        &self.cell_slots[start as usize..(start + len) as usize]
    }

    /// The embedding behind a slot returned by [`resolve`], or `None` for a
    /// term with no representation.
    ///
    /// [`resolve`]: TermInterner::resolve
    #[inline]
    pub fn vector(&self, slot: u32) -> Option<&[f32]> {
        match self.rows[slot as usize] {
            NO_ROW => None,
            row => Some(&self.vectors[row as usize * self.dim..][..self.dim]),
        }
    }

    /// Number of distinct terms interned so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Total memo entries held: interned terms plus memoized cell texts.
    /// The classify scratch pool uses this to retire oversized scratches.
    pub fn memo_entries(&self) -> usize {
        self.rows.len() + self.cells.len()
    }
}

/// The aggregated vectors of one axis (Def. 8), index-aligned with its
/// levels: one buffer holding a `dim`-wide row for each level that has an
/// embedding term, and a level → row index. Blank and OOV levels own no
/// row, so they cost no `dim` floats.
pub struct AxisVectors {
    dim: usize,
    /// Level → its row of `data`, or [`NO_ROW`].
    rows: Vec<u32>,
    data: Vec<f32>,
}

impl AxisVectors {
    /// Number of levels along the axis.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the axis has no levels.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The aggregated vector of level `i`; `None` for a blank or OOV level,
    /// or one dropped by [`drop_non_finite`].
    ///
    /// # Panics
    /// Panics if `i` is not a level of the axis.
    ///
    /// [`drop_non_finite`]: AxisVectors::drop_non_finite
    #[inline]
    pub fn get(&self, i: usize) -> Option<&[f32]> {
        match self.rows[i] {
            NO_ROW => None,
            row => Some(&self.data[row as usize * self.dim..][..self.dim]),
        }
    }

    /// Demote every level whose vector has a NaN or infinite component to
    /// a level without one, and report whether any was.
    pub fn drop_non_finite(&mut self) -> bool {
        let mut dropped = false;
        for i in 0..self.rows.len() {
            if self.get(i).is_some_and(|v| !v.iter().all(|x| x.is_finite())) {
                self.rows[i] = NO_ROW;
                dropped = true;
            }
        }
        dropped
    }
}

/// Per-table cache of tokenized cells: every cell is tokenized exactly once
/// and its tokens resolved to [`TermInterner`] slots, then both axis passes
/// replay the slots.
///
/// Lifetime: built at the start of a table's classification (lazily — only
/// if at least one axis actually walks), dropped with the table. The
/// interner it references outlives it and keeps amortizing across tables.
pub struct LevelVectorCache {
    n_rows: usize,
    n_cols: usize,
    /// Per cell, row-major `(start, len)` into `terms`.
    spans: Vec<(u32, u32)>,
    /// Interner slots of every token of every cell, in tokenization order.
    terms: Vec<u32>,
}

impl LevelVectorCache {
    /// Tokenize every non-blank cell of `table` once, resolving tokens
    /// through `interner`. `token_buf` is caller-provided scratch so batch
    /// drivers can reuse one buffer across tables.
    pub fn build<E: TermEmbedder + ?Sized>(
        table: &Table,
        embedder: &E,
        tokenizer: &Tokenizer,
        interner: &mut TermInterner,
        token_buf: &mut Vec<Token>,
    ) -> Self {
        let n_rows = table.n_rows();
        let n_cols = table.n_cols();
        let mut spans = Vec::with_capacity(n_rows * n_cols);
        let mut terms = Vec::new();
        for r in 0..n_rows {
            for c in 0..n_cols {
                let cell = table.cell(r, c);
                if cell.is_blank() {
                    spans.push((terms.len() as u32, 0));
                    continue;
                }
                let start = terms.len() as u32;
                terms.extend_from_slice(
                    interner.resolve_cell(embedder, tokenizer, &cell.text, token_buf),
                );
                spans.push((start, terms.len() as u32 - start));
            }
        }
        Self { n_rows, n_cols, spans, terms }
    }

    /// Number of levels along `axis` (mirrors [`Table::n_levels`]).
    pub fn n_levels(&self, axis: Axis) -> usize {
        match axis {
            Axis::Row => self.n_rows,
            Axis::Column => self.n_cols,
        }
    }

    /// The interner slots of one level's cells, one slice a cell, in level
    /// order: left to right along a row, top to bottom down a column.
    fn level_cells(&self, axis: Axis, index: usize) -> impl Iterator<Item = &[u32]> {
        let (n_cells, stride, base) = match axis {
            Axis::Row => (self.n_cols, 1, index * self.n_cols),
            Axis::Column => (self.n_rows, self.n_cols, index),
        };
        (0..n_cells).map(move |i| {
            let (start, len) = self.spans[base + i * stride];
            &self.terms[start as usize..(start + len) as usize]
        })
    }

    /// Aggregated vectors for every level along `axis`, bit-identical to
    /// [`axis_vectors`] level by level: a level's row starts at zeros and
    /// each cached term vector is added in the direct path's order. A
    /// first pass finds the levels with an embedding term, so the buffer
    /// is allocated once, with no row for a blank or OOV level.
    pub fn axis_vectors(&self, axis: Axis, interner: &TermInterner, dim: usize) -> AxisVectors {
        let n = self.n_levels(axis);
        let mut rows = Vec::with_capacity(n);
        let mut n_vectors = 0u32;
        for i in 0..n {
            if self.level_cells(axis, i).flatten().any(|&s| interner.vector(s).is_some()) {
                rows.push(n_vectors);
                n_vectors += 1;
            } else {
                rows.push(NO_ROW);
            }
        }
        let mut data = vec![0.0f32; n_vectors as usize * dim];
        for (i, &row) in rows.iter().enumerate() {
            if row == NO_ROW {
                continue;
            }
            let out = &mut data[row as usize * dim..][..dim];
            for slots in self.level_cells(axis, i) {
                for &slot in slots {
                    if let Some(v) = interner.vector(slot) {
                        tabmeta_linalg::add_assign(out, v);
                    }
                }
            }
        }
        AxisVectors { dim, rows, data }
    }
}

/// The terms of one level, post-tokenization — the constituency set that
/// contrastive fine-tuning distributes gradients over.
pub fn level_terms(table: &Table, axis: Axis, index: usize, tokenizer: &Tokenizer) -> Vec<String> {
    let mut out = Vec::new();
    let mut buf = Vec::new();
    for cell in table.level_cells(axis, index) {
        if cell.is_blank() {
            continue;
        }
        buf.clear();
        tokenizer.tokenize_into(&cell.text, &mut buf);
        out.extend(buf.drain(..).map(|t| t.text));
    }
    out
}

/// Where one embedding term of a [`TermIndex`] lies: its id and its text's
/// span of the index's text buffer.
#[derive(Debug, Clone, Copy)]
struct TermSlot {
    id: Option<TermId>,
    start: u32,
    end: u32,
}

/// One cell of a [`TermIndex`]: its embedding terms `terms[start..end]`
/// and how many tokens it holds, embeddable or not.
#[derive(Debug, Clone, Copy)]
struct CellTerms {
    start: u32,
    end: u32,
    tokens: u32,
}

/// One table's terms for fine-tuning: every non-blank cell tokenized once
/// in row-major order, each cell's full token count, and the tokens that
/// embed, each resolved once to its term id.
///
/// It holds terms, not vectors: every read goes through the model, since
/// fine-tuning moves term vectors between pairs. It holds one table and
/// lives for one call, so a resident corpus and a streamed one take the
/// same path and the out-of-core memory budget sees no corpus-wide state.
#[derive(Debug)]
pub(crate) struct TermIndex {
    n_rows: usize,
    n_cols: usize,
    /// Per cell, row-major.
    cells: Vec<CellTerms>,
    terms: Vec<TermSlot>,
    /// Every embedding term's text, back to back.
    text: String,
}

impl TermIndex {
    /// Tokenize every non-blank cell of `table` once and keep the tokens
    /// `embedder` embeds, with their term ids.
    pub(crate) fn build<E: TermEmbedder + ?Sized>(
        table: &Table,
        embedder: &E,
        tokenizer: &Tokenizer,
    ) -> Self {
        let (n_rows, n_cols) = (table.n_rows(), table.n_cols());
        let mut cells = Vec::with_capacity(n_rows * n_cols);
        let (mut terms, mut text) = (Vec::new(), String::new());
        let mut buf = Vec::new();
        for r in 0..n_rows {
            for c in 0..n_cols {
                let cell = table.cell(r, c);
                let start = terms.len() as u32;
                buf.clear();
                if !cell.is_blank() {
                    tokenizer.tokenize_into(&cell.text, &mut buf);
                }
                for tok in &buf {
                    // A term with an id is a vocabulary entry, so it embeds.
                    let id = embedder.term_id(&tok.text);
                    if id.is_some() || embedder.embeds(&tok.text) {
                        let start = text.len() as u32;
                        text.push_str(&tok.text);
                        terms.push(TermSlot { id, start, end: text.len() as u32 });
                    }
                }
                let tokens = buf.len() as u32;
                cells.push(CellTerms { start, end: terms.len() as u32, tokens });
            }
        }
        Self { n_rows, n_cols, cells, terms, text }
    }

    /// The cells of one level in level order: left to right along a row,
    /// top to bottom down a column.
    fn level(&self, axis: Axis, index: usize) -> impl Iterator<Item = &CellTerms> {
        let (n_cells, stride, base) = match axis {
            Axis::Row => (self.n_cols, 1, index * self.n_cols),
            Axis::Column => (self.n_rows, self.n_cols, index),
        };
        (0..n_cells).map(move |i| &self.cells[base + i * stride])
    }

    /// The embedding terms of one level, in level order: each term's id,
    /// where the model has one, and its text.
    fn level_terms(
        &self,
        axis: Axis,
        index: usize,
    ) -> impl Iterator<Item = (Option<TermId>, &str)> {
        self.level(axis, index)
            .flat_map(|cell| &self.terms[cell.start as usize..cell.end as usize])
            .map(|t| (t.id, &self.text[t.start as usize..t.end as usize]))
    }

    /// How many tokens one level holds, embeddable or not — the length of
    /// the free [`level_terms`].
    pub(crate) fn level_tokens(&self, axis: Axis, index: usize) -> usize {
        self.level(axis, index).map(|cell| cell.tokens as usize).sum()
    }

    /// The aggregated vector of one level, bit-identical to
    /// [`level_vector`] on the model as it stands: the zero buffer is
    /// created at the first embedding term and every term added in level
    /// order.
    pub(crate) fn level_vector<E: TermEmbedder + ?Sized>(
        &self,
        axis: Axis,
        index: usize,
        embedder: &E,
    ) -> Option<Vec<f32>> {
        let mut out: Option<Vec<f32>> = None;
        for (id, term) in self.level_terms(axis, index) {
            let buf = out.get_or_insert_with(|| vec![0.0f32; embedder.dim()]);
            match id {
                Some(id) => embedder.accumulate_id(id, term, buf),
                None => {
                    embedder.accumulate(term, buf);
                }
            }
        }
        out
    }

    /// Apply `grad` to every embedding term of one level in level order,
    /// as `apply_gradient` on each term would.
    pub(crate) fn apply_gradient<E: TunableEmbedder + ?Sized>(
        &self,
        axis: Axis,
        index: usize,
        embedder: &mut E,
        grad: &[f32],
    ) {
        for (id, term) in self.level_terms(axis, index) {
            match id {
                Some(id) => embedder.apply_gradient_id(id, term, grad),
                None => embedder.apply_gradient(term, grad),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[derive(Default)]
    struct MapEmbedder {
        dim: usize,
        map: HashMap<String, Vec<f32>>,
    }

    impl TermEmbedder for MapEmbedder {
        fn dim(&self) -> usize {
            self.dim
        }
        fn accumulate(&self, term: &str, out: &mut [f32]) -> bool {
            if let Some(v) = self.map.get(term) {
                tabmeta_linalg::add_assign(out, v);
                true
            } else {
                false
            }
        }
        fn embeds(&self, term: &str) -> bool {
            self.map.contains_key(term)
        }
    }

    impl TunableEmbedder for MapEmbedder {
        fn apply_gradient(&mut self, term: &str, grad: &[f32]) {
            if let Some(v) = self.map.get_mut(term) {
                tabmeta_linalg::add_assign(v, grad);
            }
        }
    }

    fn embedder() -> MapEmbedder {
        let mut e = MapEmbedder { dim: 2, map: HashMap::new() };
        e.map.insert("age".into(), vec![1.0, 0.0]);
        e.map.insert("sex".into(), vec![0.5, 0.5]);
        e.map.insert("<int>".into(), vec![0.0, 1.0]);
        e
    }

    #[test]
    fn row_vector_sums_embedded_terms() {
        let t = Table::from_strings(1, &[&["age", "sex"], &["41", "42"]]);
        let e = embedder();
        let tok = Tokenizer::default();
        let v = level_vector(&t, Axis::Row, 0, &e, &tok).unwrap();
        assert_eq!(v, vec![1.5, 0.5]);
        let d = level_vector(&t, Axis::Row, 1, &e, &tok).unwrap();
        assert_eq!(d, vec![0.0, 2.0], "both numerics collapse to <int>");
    }

    #[test]
    fn blank_or_oov_levels_are_none() {
        let t = Table::from_strings(1, &[&["", "zzz"], &["", ""]]);
        let e = embedder();
        let tok = Tokenizer::default();
        assert!(level_vector(&t, Axis::Row, 0, &e, &tok).is_none(), "zzz is OOV");
        assert!(level_vector(&t, Axis::Row, 1, &e, &tok).is_none());
        assert!(level_vector(&t, Axis::Column, 0, &e, &tok).is_none());
    }

    #[test]
    fn axis_vectors_align_with_indices() {
        let t = Table::from_strings(1, &[&["age", ""], &["41", ""]]);
        let e = embedder();
        let tok = Tokenizer::default();
        let rows = axis_vectors(&t, Axis::Row, &e, &tok);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].is_some() && rows[1].is_some());
        let cols = axis_vectors(&t, Axis::Column, &e, &tok);
        assert!(cols[0].is_some());
        assert!(cols[1].is_none(), "fully blank column");
    }

    #[test]
    fn sum_vs_mean_aggregation_classifies_identically() {
        // §III-C weighs summation against alternatives; for this angle-
        // based method the sum-vs-mean choice is *analytically* neutral:
        // the mean is the sum scaled by 1/n, and angles are scale-
        // invariant — so every range test in Algorithm 1 sees the same
        // geometry either way. (linalg property tests cover the scale
        // invariance itself; this pins the consequence at the level API.)
        let t = Table::from_strings(1, &[&["age", "sex"], &["41", "42"]]);
        let e = embedder();
        let tok = Tokenizer::default();
        let sum = level_vector(&t, Axis::Row, 0, &e, &tok).unwrap();
        let n = level_terms(&t, Axis::Row, 0, &tok).len() as f32;
        let mean: Vec<f32> = sum.iter().map(|x| x / n).collect();
        let other = level_vector(&t, Axis::Row, 1, &e, &tok).unwrap();
        let a1 = tabmeta_linalg::angle_degrees(&sum, &other);
        let a2 = tabmeta_linalg::angle_degrees(&mean, &other);
        assert!((a1 - a2).abs() < 1e-4, "{a1} vs {a2}");
    }

    #[test]
    fn level_terms_lists_tokens_in_order() {
        let t = Table::from_strings(1, &[&["age group", "sex"]]);
        let terms = level_terms(&t, Axis::Row, 0, &Tokenizer::default());
        assert_eq!(terms, vec!["age", "group", "sex"]);
    }

    #[test]
    fn cached_level_vectors_are_bit_identical_to_direct() {
        let t = Table::from_strings(
            1,
            &[&["age group", "sex", ""], &["41", "zzz", "42"], &["", "", ""]],
        );
        let e = embedder();
        let tok = Tokenizer::default();
        let mut interner = TermInterner::new();
        let mut buf = Vec::new();
        let cache = LevelVectorCache::build(&t, &e, &tok, &mut interner, &mut buf);
        for axis in [Axis::Row, Axis::Column] {
            assert_eq!(cache.n_levels(axis), t.n_levels(axis));
            let direct = axis_vectors(&t, axis, &e, &tok);
            let cached = cache.axis_vectors(axis, &interner, e.dim());
            assert_eq!(cached.len(), direct.len());
            for (i, d) in direct.iter().enumerate() {
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(cached.get(i).map(bits), d.as_deref().map(bits), "{axis:?} level {i}");
            }
        }
    }

    #[test]
    fn non_finite_levels_are_dropped_in_place() {
        let mut e = embedder();
        e.map.insert("huge".into(), vec![f32::MAX, 0.0]);
        let t = Table::from_strings(1, &[&["huge huge", "age"], &["sex", ""]]);
        let tok = Tokenizer::default();
        let mut interner = TermInterner::new();
        let cache = LevelVectorCache::build(&t, &e, &tok, &mut interner, &mut Vec::new());
        let mut rows = cache.axis_vectors(Axis::Row, &interner, e.dim());
        assert!(rows.get(0).is_some_and(|v| v[0].is_infinite()), "f32::MAX twice overflows");
        assert!(rows.drop_non_finite());
        assert!(rows.get(0).is_none());
        assert_eq!(rows.get(1), Some(&[0.5f32, 0.5][..]));
        assert!(!rows.drop_non_finite(), "nothing left to drop");
    }

    #[test]
    fn term_index_matches_the_direct_path() {
        // Blank and null-marker cells, a non-blank cell with no token, an
        // OOV word, a repeated term and multi-token cells.
        let t = Table::from_strings(
            1,
            &[&["age group", "sex", "n/a", "age"], &["41", "zzz", "( )", "-"], &["", "", "", ""]],
        );
        let e = embedder();
        let tok = Tokenizer::default();
        let index = TermIndex::build(&t, &e, &tok);
        for axis in [Axis::Row, Axis::Column] {
            for i in 0..t.n_levels(axis) {
                assert_eq!(index.level_vector(axis, i, &e), level_vector(&t, axis, i, &e, &tok));
                let terms = level_terms(&t, axis, i, &tok);
                assert_eq!(index.level_tokens(axis, i), terms.len(), "{axis:?} level {i}");
                let embedding: Vec<&str> =
                    terms.iter().map(String::as_str).filter(|t| e.embeds(t)).collect();
                let indexed: Vec<&str> = index.level_terms(axis, i).map(|(_, t)| t).collect();
                assert_eq!(indexed, embedding);
            }
        }
        // Row 0 holds "age" twice and "group", which does not embed.
        assert_eq!(index.level_tokens(Axis::Row, 0), 4);
        assert_eq!(index.level_terms(Axis::Row, 0).count(), 3);
    }

    #[test]
    fn interner_memoizes_terms_across_tables() {
        let e = embedder();
        let tok = Tokenizer::default();
        let mut interner = TermInterner::new();
        let mut buf = Vec::new();
        let t1 = Table::from_strings(1, &[&["age", "sex"], &["41", "42"]]);
        let t2 = Table::from_strings(1, &[&["age", "sex"], &["7", "8"]]);
        LevelVectorCache::build(&t1, &e, &tok, &mut interner, &mut buf);
        let after_first = interner.len();
        assert!(after_first >= 3, "age, sex, <int>");
        LevelVectorCache::build(&t2, &e, &tok, &mut interner, &mut buf);
        assert_eq!(interner.len(), after_first, "second table adds no new terms");
        // OOV terms intern once too (slot with no vector).
        let slot = interner.resolve(&e, "never-seen");
        assert!(interner.vector(slot).is_none());
        assert_eq!(interner.resolve(&e, "never-seen"), slot);
    }
}
