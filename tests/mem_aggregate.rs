//! Heap-accounting proof that blank/OOV level aggregation allocates no
//! output buffer.
//!
//! `aggregate::level_vector` defers the dim-width zero buffer until the
//! first *embeddable* token, and the classify path's
//! `LevelVectorCache::axis_vectors` gives a dim-width row only to a level
//! that has an embedding term: a fully blank or fully OOV level must never
//! pay `dim` floats, or a request of many blank rows would cost `dim`
//! floats a row. That is invisible to value-level tests, so this binary
//! installs the counting allocator (the same `mem-track` wrapper the CLI
//! uses) and measures the peak-heap delta around the calls. With
//! `dim = 1024` a row is 4 KiB — far above the few dozen bytes of
//! incidental bookkeeping (the `Vec<&Cell>` of level refs, tokenizer
//! scratch, a few words a cell for the cache) — so "no dim-width
//! allocation" is a wide, stable margin, not an exact-zero knife edge.
//!
//! Kept as the sole test in its own integration binary: the allocator
//! counters are process-global, and a concurrently running test would
//! pollute the deltas.

// `tabmeta::obs::mem` only exists when the root `mem-track` feature is on
// (the default); a `--no-default-features` build compiles this binary to
// nothing.
#![cfg(feature = "mem-track")]

use tabmeta::contrastive::aggregate::level_vector;
use tabmeta::contrastive::{LevelVectorCache, TermInterner};
use tabmeta::embed::{SgnsConfig, Word2Vec};
use tabmeta::obs::mem;
use tabmeta::tabular::{Axis, Cell, Table};
use tabmeta::text::Tokenizer;

#[global_allocator]
static ALLOC: tabmeta::obs::mem::CountingAlloc = tabmeta::obs::mem::CountingAlloc;

/// Peak-heap delta (bytes) across `f`, measured from the live size at
/// entry.
fn peak_delta<R>(f: impl FnOnce() -> R) -> (R, u64) {
    mem::reset_peak();
    let before = mem::current_bytes();
    let out = f();
    (out, mem::peak_bytes().saturating_sub(before))
}

#[test]
fn blank_and_oov_levels_allocate_no_output_buffer() {
    const DIM: usize = 1024;
    let sentences: Vec<Vec<String>> = vec![
        vec!["year".into(), "value".into(), "total".into()],
        vec!["total".into(), "year".into(), "state".into()],
    ];
    let (model, _report) =
        Word2Vec::train(&sentences, SgnsConfig { dim: DIM, epochs: 1, ..SgnsConfig::tiny(5) });
    let tokenizer = Tokenizer::default();
    let buffer_bytes = (DIM * std::mem::size_of::<f32>()) as u64;

    let table = Table::new(
        1,
        "mem",
        vec![
            vec![Cell::text(""), Cell::text(""), Cell::text("")],
            vec![Cell::text("zzqx9"), Cell::text("vvkq7"), Cell::text("qqjz3")],
            vec![Cell::text("year"), Cell::text("value"), Cell::text("total")],
        ],
    );

    // Warm up any lazy one-time allocations (tokenizer tables, etc.) so
    // the measured calls see steady state.
    let _ = level_vector(&table, Axis::Row, 2, &model, &tokenizer);

    let (blank, blank_peak) = peak_delta(|| level_vector(&table, Axis::Row, 0, &model, &tokenizer));
    let (oov, oov_peak) = peak_delta(|| level_vector(&table, Axis::Row, 1, &model, &tokenizer));
    let (embedded, embedded_peak) =
        peak_delta(|| level_vector(&table, Axis::Row, 2, &model, &tokenizer));

    assert!(blank.is_none(), "fully blank level must aggregate to None");
    assert!(oov.is_none(), "fully OOV level must aggregate to None");
    assert_eq!(embedded.as_ref().map(Vec::len), Some(DIM));

    assert!(mem::is_tracking(), "counting allocator must be installed in this binary");
    // The embeddable level proves the measurement resolves the buffer…
    assert!(
        embedded_peak >= buffer_bytes,
        "embeddable level must allocate the {buffer_bytes}-byte output buffer, peak {embedded_peak}"
    );
    // …and the degenerate levels stay far below it.
    assert!(
        blank_peak < buffer_bytes / 2,
        "blank level allocated {blank_peak} bytes — output buffer not deferred?"
    );
    assert!(
        oov_peak < buffer_bytes / 2,
        "OOV level allocated {oov_peak} bytes — output buffer not deferred?"
    );

    // The cache path, on a warm interner: the same three rows give one
    // dim-wide row, and an axis of only blank and OOV levels gives none.
    let mut interner = TermInterner::new();
    let mut token_buf = Vec::new();
    let cache = LevelVectorCache::build(&table, &model, &tokenizer, &mut interner, &mut token_buf);
    let (rows, rows_peak) = peak_delta(|| cache.axis_vectors(Axis::Row, &interner, DIM));
    assert!(rows.get(0).is_none() && rows.get(1).is_none());
    assert_eq!(rows.get(2).map(<[f32]>::len), Some(DIM));
    assert!(
        (buffer_bytes..2 * buffer_bytes).contains(&rows_peak),
        "three rows, one embeddable, allocated {rows_peak} bytes — want one {buffer_bytes}-byte row"
    );
    let degenerate = Table::new(1, "mem", vec![table.row(0).to_vec(), table.row(1).to_vec()]);
    let cache =
        LevelVectorCache::build(&degenerate, &model, &tokenizer, &mut interner, &mut token_buf);
    let (none, none_peak) = peak_delta(|| cache.axis_vectors(Axis::Row, &interner, DIM));
    assert!(none.get(0).is_none() && none.get(1).is_none());
    assert!(
        none_peak < buffer_bytes / 2,
        "blank and OOV rows allocated {none_peak} bytes through the cache — a row each?"
    );

    // Many blank and OOV rows: building the cache and both axes costs a
    // few words a cell plus one row per embeddable level (the last row and
    // the three columns that reach it), never a row per blank level.
    let mut cells = vec![table.row(0).to_vec(); 256];
    cells.extend(vec![table.row(1).to_vec(); 256]);
    cells.push(table.row(2).to_vec());
    let request = Table::new(2, "mem", cells);
    let n_cells = (request.n_rows() * request.n_cols()) as u64;
    let (_, request_peak) = peak_delta(|| {
        let cache =
            LevelVectorCache::build(&request, &model, &tokenizer, &mut interner, &mut token_buf);
        (
            cache.axis_vectors(Axis::Row, &interner, DIM),
            cache.axis_vectors(Axis::Column, &interner, DIM),
        )
    });
    let bound = 32 * n_cells + 5 * buffer_bytes;
    assert!(
        request_peak < bound,
        "513 rows, 1 embeddable, allocated {request_peak} bytes (bound {bound}; a row per level \
         would be {})",
        request.n_rows() as u64 * buffer_bytes
    );
}
