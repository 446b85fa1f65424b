//! Bit-identity gate for the batched classify hot path.
//!
//! The batch call (`classify_corpus`: per-worker pooled
//! [`ClassifyScratch`] reuse) is a pure performance refactor: over a pool
//! of 200+ seeded tables — clean generator output from two corpora,
//! fault-injected survivors (mutated, blanked, degraded records from the
//! resilience injector), and handcrafted degenerates (blank, single-cell,
//! single-level, all-OOV) — every verdict and every trace step must be
//! **bit-identical** to a per-table classify on a cold scratch of its
//! own. Angles are compared via `f32::to_bits`, not epsilon: the cache
//! and the fused kernels are contractually exact, so any drift is a bug,
//! not noise.
//!
//! `scripts/check.sh` runs this suite at `RAYON_NUM_THREADS=1` and `=4`,
//! so both the sequential and the chunked multi-worker variants of the
//! cached path are covered. The pool is also classified in batches on
//! both sides of the split cutoff ([`MIN_TABLES_PER_WORKER`]), so a batch
//! classified on the calling thread and one split across workers are
//! each held to the same reference.
//!
//! [`ClassifyScratch`]: tabmeta::contrastive::ClassifyScratch

use tabmeta::contrastive::{Pipeline, PipelineConfig, MIN_TABLES_PER_WORKER};
use tabmeta::corpora::{CorpusKind, GeneratorConfig};
use tabmeta::resilience::{FaultInjector, FaultPlan};
use tabmeta::tabular::{Cell, Corpus, Table};

fn grid(rows: &[&[&str]]) -> Vec<Vec<Cell>> {
    rows.iter().map(|r| r.iter().map(|t| Cell::text(*t)).collect()).collect()
}

/// A trained pipeline plus a pool of ≥200 seeded tables spanning clean,
/// corrupted, and degenerate shapes.
fn pipeline_and_pool() -> (Pipeline, Vec<Table>) {
    let train = CorpusKind::Ckg.generate(&GeneratorConfig { n_tables: 160, seed: 41 });
    let pipeline =
        Pipeline::train(&train.tables, &PipelineConfig::fast_seeded(41)).expect("trains");

    let mut tables: Vec<Table> = Vec::new();
    // Clean tables from the deepest hierarchy and a markup-free corpus —
    // held-out seeds, so none were seen in training.
    tables.extend(CorpusKind::Ckg.generate(&GeneratorConfig { n_tables: 90, seed: 7 }).tables);
    tables.extend(CorpusKind::Saus.generate(&GeneratorConfig { n_tables: 70, seed: 8 }).tables);

    // Fault-injected survivors: benignly mutated and blanked (degraded)
    // tables straight from the resilience injector.
    let base = CorpusKind::Ckg.generate(&GeneratorConfig { n_tables: 60, seed: 9 });
    let mut dirty_corpus = Corpus::new("dirty");
    dirty_corpus.tables = base.tables;
    let mut clean = Vec::new();
    dirty_corpus.write_jsonl(&mut clean).expect("in-memory serialize");
    let (dirty, _log) = FaultInjector::new(FaultPlan::jsonl(3, 0.25)).corrupt_jsonl(&clean);
    let (survivors, _report) =
        Corpus::read_jsonl_lossy("dirty", dirty.as_slice()).expect("reader io");
    tables.extend(survivors.tables);

    // Handcrafted degenerates the generators cannot emit deterministically.
    tables.push(Table::new(900_001, "blank", grid(&[&["", "", ""], &["", "", ""], &["", "", ""]])));
    tables.push(Table::new(900_002, "single-cell", grid(&[&["alone"]])));
    tables.push(Table::new(900_003, "single-row", grid(&[&["a", "b", "c", "d"]])));
    tables.push(Table::new(900_004, "single-col", grid(&[&["a"], &["b"], &["c"], &["d"]])));
    tables.push(Table::new(900_005, "all-oov", grid(&[&["zzqx9", "vvkq7"], &["qqjz3", "xxwv1"]])));
    tables.push(Table::new(
        900_006,
        "blank-rows",
        grid(&[&["year", "value"], &["", ""], &["1999", "12"], &["", ""]]),
    ));

    assert!(tables.len() >= 200, "pool must cover ≥200 tables, got {}", tables.len());
    (pipeline, tables)
}

/// Verdicts from the batch call, and traces from a shared scratch, must
/// match a per-table classify on a fresh scratch bit for bit.
#[test]
fn cached_classify_is_bit_identical_over_degraded_pool() {
    let (pipeline, tables) = pipeline_and_pool();

    // Batch call (chunked across workers when RAYON_NUM_THREADS > 1)
    // versus one cold-scratch per-table classify each. The pooled
    // `classify` would reuse the scratch the batch just warmed, so it is
    // no independent reference.
    let fresh: Vec<_> = tables
        .iter()
        .map(|t| pipeline.classify_with_scratch(t, &mut pipeline.classify_scratch()))
        .collect();
    // The whole pool in one call, then batches on both sides of the
    // cutoff: below 2C tables a batch is one chunk on the calling thread;
    // from 2C it splits (at > 1 thread).
    const C: usize = MIN_TABLES_PER_WORKER;
    for size in [tables.len(), 1, C - 1, C, 2 * C - 1, 2 * C, 4 * C + 1] {
        let batched: Vec<_> =
            tables.chunks(size).flat_map(|batch| pipeline.classify_corpus(batch)).collect();
        assert_eq!(batched.len(), tables.len());
        for (i, (table, cached)) in tables.iter().zip(&batched).enumerate() {
            assert_eq!(
                *cached, fresh[i],
                "batch size {size}: verdict diverged on table {i} (id {})",
                table.id
            );
        }
    }

    // Trace path: one scratch reused across the whole pool, in order,
    // against a cold-scratch trace per table. TraceStep angles compare by
    // raw bits.
    let mut scratch = pipeline.classify_scratch();
    for (i, table) in tables.iter().enumerate() {
        let (v_cached, t_cached) = pipeline.classify_with_trace(table, &mut scratch);
        let (v_fresh, t_fresh) =
            pipeline.classify_with_trace(table, &mut pipeline.classify_scratch());
        assert_eq!(v_cached, v_fresh, "trace verdict diverged on table {i}");
        assert_eq!(t_cached.len(), t_fresh.len(), "trace length diverged on table {i}");
        for (j, (a, b)) in t_cached.iter().zip(&t_fresh).enumerate() {
            assert_eq!(a.axis, b.axis, "table {i} step {j}");
            assert_eq!(a.index, b.index, "table {i} step {j}");
            assert_eq!(a.matched, b.matched, "table {i} step {j}");
            assert_eq!(a.decision, b.decision, "table {i} step {j}");
            assert_eq!(
                a.angle.map(f32::to_bits),
                b.angle.map(f32::to_bits),
                "table {i} step {j}: angle bits diverged ({:?} vs {:?})",
                a.angle,
                b.angle,
            );
        }
    }
}
