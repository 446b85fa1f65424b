//! Centroid angle ranges (Defs. 11–13) and the per-level transition
//! statistics of paper Tables I–IV.
//!
//! During the training phase the weakly-labeled corpus yields, per axis
//! (rows for HMD, columns for VMD):
//!
//! * `C_MDE` — observed angles between metadata aggregates (within-table
//!   level pairs **and** sampled cross-table pairs; the latter is what lets
//!   markup-free corpora, whose weak labels only cover level 1, still get
//!   a usable metadata↔metadata range),
//! * `C_DE` — angles between data aggregates,
//! * `C_MDE-DE` — angles between metadata and data aggregates,
//! * reference vectors `meta_ref` / `data_ref` (the `row_mref` / `row_dref`
//!   the classifier compares the first level against),
//! * per-level [`LevelPairStats`] — `Δ_{(k−1)MDE,kMDE}` and `Δ_{kMDE,DE}`,
//!   the numbers the paper prints per corpus per level.

use crate::aggregate::{AxisVectors, LevelVectorCache, TermInterner};
use crate::bootstrap::WeakLabels;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use tabmeta_embed::TermEmbedder;
use tabmeta_linalg::{angle_degrees, AngleRange, RangeEstimator};
use tabmeta_tabular::{Axis, Table};
use tabmeta_text::Tokenizer;

/// Per-level transition statistics (one paper table row).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelPairStats {
    /// The metadata level `k` (1-based).
    pub level: u8,
    /// Mean `Δ_{(k−1)MDE, kMDE}` — angle from the previous metadata level
    /// (absent for level 1, which has no predecessor).
    pub delta_prev_meta: Option<f32>,
    /// Mean `Δ_{kMDE, DE}` — angle from this level to the first data level.
    pub delta_to_data: Option<f32>,
    /// Trimmed range of `Δ_{(k−1)MDE, kMDE}` — the level-specific
    /// metadata-continuation range the classifier tests at depth `k`.
    pub prev_range: AngleRange,
    /// Trimmed range of `Δ_{kMDE, DE}` — the level-specific transition
    /// range marking the metadata→data boundary after level `k`.
    pub to_data_range: AngleRange,
    /// Observed metadata↔metadata range among tables reaching this depth.
    pub c_mde: AngleRange,
    /// Observed metadata↔data range among tables reaching this depth.
    pub c_mde_de: AngleRange,
    /// Observed data↔data range among the same tables.
    pub c_de: AngleRange,
    /// Number of tables contributing.
    pub support: usize,
}

/// Centroid state for one axis (rows or columns).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AxisCentroids {
    /// Metadata↔metadata angle range (Def. 11).
    pub c_mde: AngleRange,
    /// Data↔data angle range (Def. 12).
    pub c_de: AngleRange,
    /// Metadata↔data angle range (Def. 13).
    pub c_mde_de: AngleRange,
    /// Centroid of metadata aggregates — the reference the first level is
    /// compared against.
    pub meta_ref: Vec<f32>,
    /// Centroid of data aggregates.
    pub data_ref: Vec<f32>,
    /// Per-level statistics, `levels[k-1]` describing metadata level `k`.
    pub levels: Vec<LevelPairStats>,
}

impl AxisCentroids {
    /// Per-level stats for metadata level `k`, if observed during training.
    pub fn level(&self, k: u8) -> Option<&LevelPairStats> {
        self.levels.iter().find(|l| l.level == k)
    }

    /// Whether enough evidence was collected to classify along this axis.
    pub fn is_usable(&self) -> bool {
        !self.c_mde_de.is_empty()
            && !self.c_de.is_empty()
            && self.meta_ref.iter().any(|x| *x != 0.0)
            && self.data_ref.iter().any(|x| *x != 0.0)
    }
}

/// The trained centroid model: one [`AxisCentroids`] per axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CentroidModel {
    /// Row-axis (HMD) centroids.
    pub rows: AxisCentroids,
    /// Column-axis (VMD) centroids.
    pub columns: AxisCentroids,
}

impl CentroidModel {
    /// The centroids for `axis`.
    pub fn axis(&self, axis: Axis) -> &AxisCentroids {
        match axis {
            Axis::Row => &self.rows,
            Axis::Column => &self.columns,
        }
    }
}

/// Estimation options.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CentroidOptions {
    /// Percentile trim applied to every range (lo fraction).
    pub trim_lo: f64,
    /// Percentile trim (hi fraction).
    pub trim_hi: f64,
    /// Cross-table metadata reservoir size.
    pub reservoir: usize,
    /// Cross-table metadata pairs sampled from the reservoir.
    pub cross_pairs: usize,
    /// Max data↔data pairs recorded per table.
    pub data_pairs_per_table: usize,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for CentroidOptions {
    fn default() -> Self {
        Self {
            trim_lo: 0.05,
            trim_hi: 0.95,
            reservoir: 256,
            cross_pairs: 512,
            data_pairs_per_table: 6,
            seed: 0xce17,
        }
    }
}

/// Accumulators for one axis during estimation.
///
/// Serializable so training can checkpoint the partial reduce state at
/// every logical shard boundary; the sample vectors round-trip
/// through JSON bit-exactly (the same f32 path the envelope tests pin),
/// which is what makes kill-and-resume byte-identical.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct AxisAccumulator {
    mde: RangeEstimator,
    de: RangeEstimator,
    mde_de: RangeEstimator,
    meta_sum: Vec<f32>,
    meta_n: usize,
    data_sum: Vec<f32>,
    data_n: usize,
    reservoir: Vec<Vec<f32>>,
    seen_meta: usize,
    level_prev: Vec<RangeEstimator>,
    level_to_data: Vec<RangeEstimator>,
    level_support: Vec<usize>,
}

const MAX_LEVELS: usize = 5;

impl AxisAccumulator {
    pub(crate) fn new(dim: usize) -> Self {
        Self {
            mde: RangeEstimator::new(),
            de: RangeEstimator::new(),
            mde_de: RangeEstimator::new(),
            meta_sum: vec![0.0; dim],
            meta_n: 0,
            data_sum: vec![0.0; dim],
            data_n: 0,
            reservoir: Vec::new(),
            seen_meta: 0,
            level_prev: (0..MAX_LEVELS).map(|_| RangeEstimator::new()).collect(),
            level_to_data: (0..MAX_LEVELS).map(|_| RangeEstimator::new()).collect(),
            level_support: vec![0; MAX_LEVELS],
        }
    }

    pub(crate) fn observe_table(
        &mut self,
        vectors: &AxisVectors,
        meta_idx: &[usize],
        data_idx: &[usize],
        options: &CentroidOptions,
        rng: &mut StdRng,
    ) {
        let meta: Vec<&[f32]> = meta_idx.iter().filter_map(|&i| vectors.get(i)).collect();
        let data: Vec<&[f32]> = data_idx.iter().filter_map(|&i| vectors.get(i)).collect();

        for v in &meta {
            tabmeta_linalg::add_assign(&mut self.meta_sum, v);
            self.meta_n += 1;
            // Reservoir sampling for cross-table metadata pairs.
            self.seen_meta += 1;
            if self.reservoir.len() < options.reservoir {
                self.reservoir.push(v.to_vec());
            } else {
                let j = rng.random_range(0..self.seen_meta);
                if j < options.reservoir {
                    self.reservoir[j] = v.to_vec();
                }
            }
        }
        for v in &data {
            tabmeta_linalg::add_assign(&mut self.data_sum, v);
            self.data_n += 1;
        }

        // Within-table metadata level pairs.
        for w in meta.windows(2) {
            self.mde.push(angle_degrees(w[0], w[1]));
        }
        // Data pairs: consecutive, capped.
        for w in data.windows(2).take(options.data_pairs_per_table) {
            self.de.push(angle_degrees(w[0], w[1]));
        }
        // Metadata ↔ data pairs: each metadata level against the first
        // data level (the transition the classifier detects) plus one
        // random data level for range coverage.
        if let Some(first_data) = data.first() {
            for m in &meta {
                self.mde_de.push(angle_degrees(m, first_data));
            }
            if data.len() > 1 {
                for m in &meta {
                    let d = data[rng.random_range(0..data.len())];
                    self.mde_de.push(angle_degrees(m, d));
                }
            }
        }

        // Per-level transitions. Weak metadata levels are a leading run, so
        // the vector at meta position k-1 is "level k".
        let depth = meta.len().min(MAX_LEVELS);
        for k in 1..=depth {
            self.level_support[k - 1] += 1;
            if k >= 2 {
                self.level_prev[k - 1].push(angle_degrees(meta[k - 2], meta[k - 1]));
            }
            if let Some(first_data) = data.first() {
                self.level_to_data[k - 1].push(angle_degrees(meta[k - 1], first_data));
            }
        }
    }

    /// Fold another shard's accumulator into this one — the reduce step of
    /// map-reduce estimation. Range estimators concatenate samples (order
    /// never affects their estimates), sums and counts add, and the two
    /// reservoirs merge by weighted draws so every metadata vector seen by
    /// either shard keeps an equal chance of surviving — the standard
    /// distributed-reservoir argument: an item survives shard sampling
    /// with probability `cap/seen_s` and the merge draw with probability
    /// proportional to `seen_s`, which cancels to `cap/(seen_a+seen_b)`.
    pub(crate) fn merge(
        &mut self,
        mut other: AxisAccumulator,
        options: &CentroidOptions,
        rng: &mut StdRng,
    ) {
        self.mde.merge(&other.mde);
        self.de.merge(&other.de);
        self.mde_de.merge(&other.mde_de);
        tabmeta_linalg::add_assign(&mut self.meta_sum, &other.meta_sum);
        self.meta_n += other.meta_n;
        tabmeta_linalg::add_assign(&mut self.data_sum, &other.data_sum);
        self.data_n += other.data_n;
        for k in 0..MAX_LEVELS {
            self.level_prev[k].merge(&other.level_prev[k]);
            self.level_to_data[k].merge(&other.level_to_data[k]);
            self.level_support[k] += other.level_support[k];
        }
        let (seen_a, seen_b) = (self.seen_meta, other.seen_meta);
        if self.reservoir.len() + other.reservoir.len() <= options.reservoir {
            self.reservoir.append(&mut other.reservoir);
        } else {
            let mut a = std::mem::take(&mut self.reservoir);
            let mut b = std::mem::take(&mut other.reservoir);
            // Both shards saw at least as many vectors as they retained,
            // so `wa >= a.len()` / `wb >= b.len()` hold throughout.
            let (mut wa, mut wb) = (seen_a, seen_b);
            let mut merged = Vec::with_capacity(options.reservoir);
            while merged.len() < options.reservoir && (!a.is_empty() || !b.is_empty()) {
                let pick_a = if a.is_empty() {
                    false
                } else if b.is_empty() {
                    true
                } else {
                    rng.random_range(0..wa + wb) < wa
                };
                if pick_a {
                    let i = rng.random_range(0..a.len());
                    merged.push(a.swap_remove(i));
                    wa -= 1;
                } else {
                    let i = rng.random_range(0..b.len());
                    merged.push(b.swap_remove(i));
                    wb -= 1;
                }
            }
            self.reservoir = merged;
        }
        self.seen_meta = seen_a + seen_b;
    }

    pub(crate) fn finish(mut self, options: &CentroidOptions, rng: &mut StdRng) -> AxisCentroids {
        // Cross-table metadata pairs from the reservoir.
        if self.reservoir.len() >= 2 {
            for _ in 0..options.cross_pairs {
                let i = rng.random_range(0..self.reservoir.len());
                let mut j = rng.random_range(0..self.reservoir.len());
                if i == j {
                    j = (j + 1) % self.reservoir.len();
                }
                self.mde.push(angle_degrees(&self.reservoir[i], &self.reservoir[j]));
            }
        }
        let trim = |e: &RangeEstimator| e.trimmed(options.trim_lo, options.trim_hi);
        let mut meta_ref = self.meta_sum;
        if self.meta_n > 0 {
            tabmeta_linalg::scale(&mut meta_ref, 1.0 / self.meta_n as f32);
        }
        let mut data_ref = self.data_sum;
        if self.data_n > 0 {
            tabmeta_linalg::scale(&mut data_ref, 1.0 / self.data_n as f32);
        }
        let levels = (1..=MAX_LEVELS)
            .filter(|&k| self.level_support[k - 1] > 0)
            .map(|k| LevelPairStats {
                level: k as u8,
                delta_prev_meta: self.level_prev[k - 1].mean(),
                delta_to_data: self.level_to_data[k - 1].mean(),
                prev_range: trim(&self.level_prev[k - 1]),
                to_data_range: trim(&self.level_to_data[k - 1]),
                c_mde: trim(&self.mde),
                c_mde_de: trim(&self.mde_de),
                c_de: trim(&self.de),
                support: self.level_support[k - 1],
            })
            .collect();
        AxisCentroids {
            c_mde: trim(&self.mde),
            c_de: trim(&self.de),
            c_mde_de: trim(&self.mde_de),
            meta_ref,
            data_ref,
            levels,
        }
    }
}

/// Centroid map-reduce fold state at a logical shard boundary, carried
/// by training checkpoints.
///
/// Holds the running folded accumulators (rows merged before columns),
/// the base-seed RNG position shard 0 and the merges advanced, and the
/// bootstrap provenance tally that the final
/// [`crate::pipeline::TrainSummary`] reports — everything the resumed
/// pass cannot recompute without re-observing the shards it skips.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CentroidShardResume {
    /// Logical shards fully folded into the accumulators.
    pub shards_done: usize,
    /// Tables folded into the accumulators — what a resumed pass skips,
    /// whatever shard size the resuming run folds with.
    pub tables_done: usize,
    /// Tables whose weak labels came from markup, over the folded shards.
    pub markup_bootstrapped: usize,
    /// Base-seed RNG position after `shards_done` folds.
    pub(crate) rng: [u64; 4],
    /// Folded row-axis accumulator.
    pub(crate) rows: AxisAccumulator,
    /// Folded column-axis accumulator.
    pub(crate) cols: AxisAccumulator,
}

/// The map state of one logical shard: its accumulator pair, the RNG it
/// observes on, and its table and markup tallies.
struct ShardAccumulator {
    rows: AxisAccumulator,
    cols: AxisAccumulator,
    rng: StdRng,
    tables: usize,
    markup: usize,
}

impl ShardAccumulator {
    /// Shard 0 observes on the base stream (`seed`), so a one-shard fold
    /// is the sequential estimate exactly; shard `s > 0` observes on its
    /// own stream, `seed ^ (s + 1)`.
    fn new(index: usize, dim: usize, options: &CentroidOptions) -> Self {
        let seed = if index == 0 { options.seed } else { options.seed ^ (index as u64 + 1) };
        Self {
            rows: AxisAccumulator::new(dim),
            cols: AxisAccumulator::new(dim),
            rng: StdRng::seed_from_u64(seed),
            tables: 0,
            markup: 0,
        }
    }

    fn observe<E: TermEmbedder + ?Sized>(
        &mut self,
        tables: &[Table],
        weak: &[WeakLabels],
        embedder: &E,
        tokenizer: &Tokenizer,
        options: &CentroidOptions,
    ) {
        // The embedder is frozen here, so the classify path's cache serves:
        // each table tokenized once for both axes, term vectors shared
        // across the call's tables, bit-identical to the direct path.
        let (mut interner, mut token_buf) = (TermInterner::new(), Vec::new());
        for (table, labels) in tables.iter().zip(weak) {
            let cache =
                LevelVectorCache::build(table, embedder, tokenizer, &mut interner, &mut token_buf);
            for (acc, axis) in [(&mut self.rows, Axis::Row), (&mut self.cols, Axis::Column)] {
                acc.observe_table(
                    &cache.axis_vectors(axis, &interner, embedder.dim()),
                    &labels.metadata_indices(axis),
                    &labels.data_indices(axis),
                    options,
                    &mut self.rng,
                );
            }
            self.tables += 1;
            self.markup += usize::from(labels.from_markup);
        }
    }
}

/// Map-reduce centroid estimation over logical shards of
/// `shard_tables` weakly-labeled tables, in corpus order.
///
/// Each shard accumulates on its own RNG stream (see
/// [`ShardAccumulator::new`]); shard 0 *becomes* the fold, later shards
/// merge into it on the base stream shard 0 left behind, and
/// [`CentroidFold::finish`] draws the cross-table pairs on that stream.
/// Shards share nothing while they fill, so [`CentroidFold::observe`]
/// maps a batch's fresh shards in parallel when asked, and the result
/// depends neither on the worker count nor on how batches split the
/// corpus — only on `shard_tables`.
pub(crate) struct CentroidFold<'o> {
    options: &'o CentroidOptions,
    dim: usize,
    shard_tables: usize,
    /// The folded shards: accumulators, base RNG, markup tally.
    base: ShardAccumulator,
    shards_done: usize,
    /// The partially filled shard `shards_done`.
    current: ShardAccumulator,
}

impl<'o> CentroidFold<'o> {
    /// A fold over shards of `shard_tables` tables (at least one), fresh
    /// or continuing from a checkpointed state.
    pub(crate) fn new(
        options: &'o CentroidOptions,
        dim: usize,
        shard_tables: usize,
        resume: Option<CentroidShardResume>,
    ) -> Self {
        let shard_tables = shard_tables.max(1);
        let (base, shards_done) = match resume {
            Some(r) => (
                ShardAccumulator {
                    rows: r.rows,
                    cols: r.cols,
                    rng: StdRng::from_state(r.rng),
                    tables: r.tables_done,
                    markup: r.markup_bootstrapped,
                },
                r.shards_done,
            ),
            None => (ShardAccumulator::new(0, dim, options), 0),
        };
        let current = ShardAccumulator::new(shards_done, dim, options);
        Self { options, dim, shard_tables, base, shards_done, current }
    }

    /// Logical shards folded so far.
    pub(crate) fn shards_done(&self) -> usize {
        self.shards_done
    }

    /// Leading tables the folded shards already cover — what a resumed
    /// pass skips.
    pub(crate) fn tables_done(&self) -> usize {
        self.base.tables
    }

    /// The fold state for a checkpoint.
    pub(crate) fn resume_state(&self) -> CentroidShardResume {
        CentroidShardResume {
            shards_done: self.shards_done,
            tables_done: self.base.tables,
            markup_bootstrapped: self.base.markup,
            rng: self.base.rng.state(),
            rows: self.base.rows.clone(),
            cols: self.base.cols.clone(),
        }
    }

    /// Observe the next `tables` of the corpus with their weak labels,
    /// folding every shard they complete and calling `on_fold` after
    /// each fold; an error from `on_fold` stops the fold there. At
    /// `threads > 1` the batch's fresh shards are mapped in parallel.
    pub(crate) fn observe<E: TermEmbedder + Sync + ?Sized, X>(
        &mut self,
        tables: &[Table],
        weak: &[WeakLabels],
        embedder: &E,
        tokenizer: &Tokenizer,
        threads: usize,
        mut on_fold: impl FnMut(&Self) -> Result<(), X>,
    ) -> Result<(), X> {
        assert_eq!(tables.len(), weak.len(), "tables and weak labels must align");
        let (options, dim) = (self.options, self.dim);
        // A partially filled shard continues in place.
        let head = if self.current.tables > 0 {
            (self.shard_tables - self.current.tables).min(tables.len())
        } else {
            0
        };
        self.current.observe(&tables[..head], &weak[..head], embedder, tokenizer, options);
        if self.current.tables == self.shard_tables {
            self.fold_current();
            on_fold(self)?;
        }
        let first = self.shards_done;
        let shards: Vec<(usize, &[Table], &[WeakLabels])> = tables[head..]
            .chunks(self.shard_tables)
            .zip(weak[head..].chunks(self.shard_tables))
            .enumerate()
            .map(|(k, (t, w))| (first + k, t, w))
            .collect();
        let map = |&(index, t, w): &(usize, &[Table], &[WeakLabels])| {
            let mut shard = ShardAccumulator::new(index, dim, options);
            shard.observe(t, w, embedder, tokenizer, options);
            shard
        };
        let mapped: Vec<ShardAccumulator> = if threads > 1 && shards.len() > 1 {
            shards.par_iter().map(map).collect()
        } else {
            shards.iter().map(map).collect()
        };
        for shard in mapped {
            self.current = shard;
            if self.current.tables == self.shard_tables {
                self.fold_current();
                on_fold(self)?;
            }
        }
        Ok(())
    }

    /// Fold the current shard into the base and start the next one.
    fn fold_current(&mut self) {
        let next = ShardAccumulator::new(self.shards_done + 1, self.dim, self.options);
        let shard = std::mem::replace(&mut self.current, next);
        if self.shards_done == 0 {
            self.base = shard;
        } else {
            let base = &mut self.base;
            base.rows.merge(shard.rows, self.options, &mut base.rng);
            base.cols.merge(shard.cols, self.options, &mut base.rng);
            base.tables += shard.tables;
            base.markup += shard.markup;
        }
        self.shards_done += 1;
    }

    /// Fold the trailing partial shard, then finish both axes on the base
    /// stream. Returns the model, the shards folded, and how many tables
    /// were weakly labeled from markup.
    pub(crate) fn finish(mut self) -> (CentroidModel, usize, usize) {
        if self.current.tables > 0 {
            self.fold_current();
        }
        let ShardAccumulator { rows, cols, mut rng, markup, .. } = self.base;
        let model = CentroidModel {
            rows: rows.finish(self.options, &mut rng),
            columns: cols.finish(self.options, &mut rng),
        };
        (model, self.shards_done, markup)
    }
}

/// Estimate a [`CentroidModel`] from weakly-labeled tables.
///
/// `tables` and `weak` must be index-aligned. The corpus folds as
/// `threads` logical shards of equal size mapped in parallel; at
/// `threads <= 1` it is one shard, the deterministic sequential stream.
/// Training runs the same fold over its table source.
pub fn estimate<E: TermEmbedder + Sync + ?Sized>(
    tables: &[Table],
    weak: &[WeakLabels],
    embedder: &E,
    tokenizer: &Tokenizer,
    options: &CentroidOptions,
    threads: usize,
) -> CentroidModel {
    let threads = threads.max(1);
    let mut fold = CentroidFold::new(options, embedder.dim(), tables.len().div_ceil(threads), None);
    let Ok(()) = fold.observe(tables, weak, embedder, tokenizer, threads, |_| {
        Ok::<(), std::convert::Infallible>(())
    });
    fold.finish().0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::BootstrapLabeler;
    use std::collections::HashMap;

    /// Embedder with two well-separated directions: header terms along x,
    /// data terms along y (plus a slight spread per term).
    struct TwoCluster {
        map: HashMap<String, Vec<f32>>,
    }

    impl TwoCluster {
        fn new() -> Self {
            let mut map = HashMap::new();
            for (i, t) in ["age", "sex", "rate", "count"].iter().enumerate() {
                map.insert(t.to_string(), vec![1.0, 0.1 * i as f32, 0.0]);
            }
            for (i, t) in ["<int>", "<bigint>", "<dec>", "<pct>"].iter().enumerate() {
                map.insert(t.to_string(), vec![0.0, 0.1 * i as f32, 1.0]);
            }
            // Entity names sit between but closer to data.
            map.insert("york".to_string(), vec![0.2, 0.5, 0.8]);
            map.insert("new".to_string(), vec![0.2, 0.4, 0.8]);
            Self { map }
        }
    }

    impl TermEmbedder for TwoCluster {
        fn dim(&self) -> usize {
            3
        }
        fn accumulate(&self, term: &str, out: &mut [f32]) -> bool {
            if let Some(v) = self.map.get(term) {
                tabmeta_linalg::add_assign(out, v);
                true
            } else {
                false
            }
        }
    }

    fn corpus() -> Vec<Table> {
        (0..12u64)
            .map(|id| {
                Table::from_strings(
                    id,
                    &[
                        &["age", "sex", "rate"],
                        &["1", "2", "3"],
                        &["14,373", "96.7%", "21.6"],
                        &["4", "5", "6"],
                    ],
                )
            })
            .collect()
    }

    #[test]
    fn estimate_separates_ranges() {
        let tables = corpus();
        let labeler = BootstrapLabeler::default();
        let weak: Vec<WeakLabels> = tables.iter().map(|t| labeler.label(t)).collect();
        let model = estimate(
            &tables,
            &weak,
            &TwoCluster::new(),
            &Tokenizer::default(),
            &CentroidOptions::default(),
            1,
        );
        let rows = &model.rows;
        assert!(rows.is_usable());
        // Data rows are all numeric-class aggregates: tight range near 0.
        assert!(rows.c_de.hi < 30.0, "C_DE too wide: {:?}", rows.c_de);
        // Header vs data is nearly orthogonal in this embedder.
        assert!(rows.c_mde_de.lo > 45.0, "C_MDE-DE too low: {:?}", rows.c_mde_de);
        // Cross-table header pairs are tight (identical headers).
        assert!(rows.c_mde.hi < 30.0, "C_MDE too wide: {:?}", rows.c_mde);
        // Reference vectors point along the right axes.
        assert!(rows.meta_ref[0] > rows.meta_ref[2]);
        assert!(rows.data_ref[2] > rows.data_ref[0]);
    }

    #[test]
    fn level_stats_cover_observed_depths() {
        let tables = corpus();
        let labeler = BootstrapLabeler::default();
        let weak: Vec<WeakLabels> = tables.iter().map(|t| labeler.label(t)).collect();
        let model = estimate(
            &tables,
            &weak,
            &TwoCluster::new(),
            &Tokenizer::default(),
            &CentroidOptions::default(),
            1,
        );
        // Positional fallback gives exactly level-1 weak metadata.
        assert_eq!(model.rows.levels.len(), 1);
        let l1 = &model.rows.levels[0];
        assert_eq!(l1.level, 1);
        assert!(l1.delta_prev_meta.is_none());
        assert!(l1.delta_to_data.unwrap() > 45.0);
        assert_eq!(l1.support, 12);
    }

    #[test]
    fn estimation_is_deterministic() {
        let tables = corpus();
        let labeler = BootstrapLabeler::default();
        let weak: Vec<WeakLabels> = tables.iter().map(|t| labeler.label(t)).collect();
        let e = TwoCluster::new();
        let tok = Tokenizer::default();
        let opts = CentroidOptions::default();
        let a = estimate(&tables, &weak, &e, &tok, &opts, 1);
        let b = estimate(&tables, &weak, &e, &tok, &opts, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn sharded_estimation_matches_sequential_geometry() {
        let tables = corpus();
        let labeler = BootstrapLabeler::default();
        let weak: Vec<WeakLabels> = tables.iter().map(|t| labeler.label(t)).collect();
        let e = TwoCluster::new();
        let tok = Tokenizer::default();
        let opts = CentroidOptions::default();
        let seq = estimate(&tables, &weak, &e, &tok, &opts, 1);
        let par = estimate(&tables, &weak, &e, &tok, &opts, 3);
        assert!(par.rows.is_usable());
        // Shard RNG streams differ from the sequential stream, so ranges
        // are statistically — not bitwise — equal. On this synthetic
        // corpus (identical tables) the geometry must agree tightly.
        let close =
            |a: AngleRange, b: AngleRange| (a.lo - b.lo).abs() < 3.0 && (a.hi - b.hi).abs() < 3.0;
        assert!(close(par.rows.c_mde_de, seq.rows.c_mde_de));
        assert!(close(par.rows.c_de, seq.rows.c_de));
        // Reference vectors are exact sums reordered: near-identical.
        for (a, b) in par.rows.meta_ref.iter().zip(&seq.rows.meta_ref) {
            assert!((a - b).abs() < 1e-4, "meta_ref drifted: {a} vs {b}");
        }
        assert_eq!(par.rows.levels.len(), seq.rows.levels.len());
        assert_eq!(par.rows.levels[0].support, seq.rows.levels[0].support);
    }

    #[test]
    fn sharded_estimation_is_deterministic_per_thread_count() {
        let tables = corpus();
        let labeler = BootstrapLabeler::default();
        let weak: Vec<WeakLabels> = tables.iter().map(|t| labeler.label(t)).collect();
        let e = TwoCluster::new();
        let tok = Tokenizer::default();
        let opts = CentroidOptions::default();
        let a = estimate(&tables, &weak, &e, &tok, &opts, 3);
        let b = estimate(&tables, &weak, &e, &tok, &opts, 3);
        assert_eq!(a, b, "fixed (seed, threads) must reproduce the model");
        let single = estimate(&tables, &weak, &e, &tok, &opts, 1);
        assert_eq!(single, estimate(&tables, &weak, &e, &tok, &opts, 1));
    }

    #[test]
    fn reservoir_merge_respects_capacity() {
        // Many tables, tiny reservoir: the merged reservoir must not
        // exceed the cap and seen-counts must add up.
        let tables: Vec<Table> = (0..40u64)
            .map(|id| Table::from_strings(id, &[&["age", "sex", "rate"], &["1", "2", "3"]]))
            .collect();
        let labeler = BootstrapLabeler::default();
        let weak: Vec<WeakLabels> = tables.iter().map(|t| labeler.label(t)).collect();
        let opts = CentroidOptions { reservoir: 8, ..CentroidOptions::default() };
        let model = estimate(&tables, &weak, &TwoCluster::new(), &Tokenizer::default(), &opts, 4);
        // c_mde comes from reservoir cross-pairs; it must still be usable.
        assert!(!model.rows.c_mde.is_empty());
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn misaligned_inputs_panic() {
        let tables = corpus();
        let _ = estimate(
            &tables,
            &[],
            &TwoCluster::new(),
            &Tokenizer::default(),
            &CentroidOptions::default(),
            1,
        );
    }

    #[test]
    fn empty_corpus_is_unusable_not_panicking() {
        let model = estimate(
            &[],
            &[],
            &TwoCluster::new(),
            &Tokenizer::default(),
            &CentroidOptions::default(),
            1,
        );
        assert!(!model.rows.is_usable());
        assert!(!model.columns.is_usable());
    }
}
