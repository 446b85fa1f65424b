//! Algorithm 1: metadata classification in Generally Structured Tables.
//!
//! The classifier walks a table's levels in order. The **first** level is
//! labeled by its closest reference centroid (`row_mref` vs `row_dref` in
//! §III-D1). Every **following** level is labeled by where the angle to
//! its predecessor falls:
//!
//! * inside `C_MDE`   → still metadata, depth grows;
//! * inside `C_MDE-DE` → the metadata→data transition — everything from
//!   here on is data and the recorded depth is final;
//! * in neither range → the nearer range (by distance to its closest edge)
//!   decides, which is how tables whose angles drift slightly outside the
//!   training ranges still classify.
//!
//! Rows are walked first (HMD), then columns (VMD) — "the analysis is
//! transposed to consider columns rather than rows" (§III-D2). A CMD
//! extension inspects post-boundary rows for the mid-table section-header
//! signature (sparse row whose aggregate sits closer to the metadata
//! reference).

use crate::aggregate::{LevelVectorCache, TermInterner};
use crate::centroid::CentroidModel;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};
use tabmeta_embed::TermEmbedder;
use tabmeta_linalg::{angle_from_parts, dot, dot2, dot2_norms, dot_norms, norm};
use tabmeta_obs::names;
use tabmeta_tabular::{Axis, LevelLabel, Table};
use tabmeta_text::{Token, Tokenizer};

/// Cached handles into the global registry: classification runs per table
/// from rayon workers, so the registry lookup happens once per process and
/// every record after that is a relaxed atomic.
struct ObsHandles {
    tables: Arc<tabmeta_obs::Counter>,
    angle_tests: Arc<tabmeta_obs::Counter>,
    /// Axes that routed to the positional fallback instead of the walk.
    degraded: Arc<tabmeta_obs::Counter>,
    /// Metadata boundary depth per classified axis; depth 0 (headerless)
    /// lands in the underflow bucket, which the snapshot reports.
    boundary_depth: Arc<tabmeta_obs::Histogram>,
}

fn obs_handles() -> &'static ObsHandles {
    static HANDLES: OnceLock<ObsHandles> = OnceLock::new();
    HANDLES.get_or_init(|| {
        let reg = tabmeta_obs::global();
        ObsHandles {
            tables: reg.counter(names::CLASSIFIER_TABLES),
            angle_tests: reg.counter(names::CLASSIFIER_ANGLE_TESTS),
            degraded: reg.counter(names::CLASSIFIER_DEGRADED),
            boundary_depth: reg.histogram_with(names::CLASSIFIER_BOUNDARY_DEPTH, 1, 16),
        }
    })
}

/// Count one classified table and its two boundary depths.
fn record_verdict(hmd_depth: u8, vmd_depth: u8) {
    let obs = obs_handles();
    obs.tables.inc();
    obs.boundary_depth.record(hmd_depth as u64);
    obs.boundary_depth.record(vmd_depth as u64);
}

/// How levels are labeled along an axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum WalkStrategy {
    /// Algorithm 1: sequential angle walk over consecutive level pairs,
    /// with level-specific transition ranges (the paper's contribution).
    #[default]
    AngleWalk,
    /// Naive baseline: label each level independently by its nearest
    /// reference centroid. No pairwise angles, no transition ranges —
    /// kept as the internal ablation showing what the walk buys.
    ReferenceOnly,
}

/// Classifier knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassifierConfig {
    /// Degrees of slack added to both ends of every centroid range.
    pub margin_deg: f32,
    /// Maximum HMD depth (the paper evaluates 1–5).
    pub max_hmd_depth: u8,
    /// Maximum VMD depth (deepest found in any corpus: 3).
    pub max_vmd_depth: u8,
    /// Enable the CMD extension.
    pub detect_cmd: bool,
    /// A CMD candidate row must have at least this blank fraction.
    pub cmd_blank_threshold: f32,
    /// Degrees of slack on the CMD reference test: a sparse row reads as a
    /// section header while `∠(row, meta_ref) < ∠(row, data_ref) +
    /// tolerance`. Section phrases sit between the header and data
    /// clusters, so a strict `<` misses many of them.
    pub cmd_ref_tolerance_deg: f32,
    /// Reference-consistency tolerance (degrees): a level can only extend
    /// the metadata run while `∠(level, meta_ref) ≤ ∠(level, data_ref) +
    /// tolerance`. This guards the angle walk against consecutive *data*
    /// levels that happen to sit `C_MDE`-close to each other — without it,
    /// two near-identical data columns would read as metadata continuation.
    pub ref_tolerance_deg: f32,
    /// Which labeling strategy to use (the ablation knob; defaults to the
    /// paper's angle walk).
    pub strategy: WalkStrategy,
}

impl Default for ClassifierConfig {
    fn default() -> Self {
        Self {
            margin_deg: 5.0,
            max_hmd_depth: 5,
            max_vmd_depth: 3,
            detect_cmd: true,
            cmd_blank_threshold: 0.5,
            cmd_ref_tolerance_deg: 10.0,
            ref_tolerance_deg: 12.0,
            strategy: WalkStrategy::AngleWalk,
        }
    }
}

/// Why an axis could not be walked and fell back to position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DegradeReason {
    /// The trained centroid model carries no evidence for this axis.
    UnusableCentroids,
    /// The axis has a single level — no consecutive pair to measure.
    SingleLevel,
    /// Every level aggregate was blank or fully out-of-vocabulary.
    NoSignal,
    /// An aggregate vector contained NaN/∞ components and was discarded,
    /// leaving no finite signal on the axis.
    NonFinite,
    /// The embedder's dimension does not match the centroid model's.
    ModelMismatch,
}

impl DegradeReason {
    /// Stable lowercase token used in metric names and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            DegradeReason::UnusableCentroids => "unusable_centroids",
            DegradeReason::SingleLevel => "single_level",
            DegradeReason::NoSignal => "no_signal",
            DegradeReason::NonFinite => "non_finite",
            DegradeReason::ModelMismatch => "model_mismatch",
        }
    }
}

impl std::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How an axis's labels were produced: a confident angle walk, or the
/// positional fallback with the reason the walk was impossible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Provenance {
    /// Labels came from the trained walk (Algorithm 1 or the
    /// reference-only ablation).
    #[default]
    Walk,
    /// Labels came from the first-row/first-column positional fallback.
    Degraded(DegradeReason),
}

impl Provenance {
    /// Whether this axis fell back.
    pub fn is_degraded(&self) -> bool {
        matches!(self, Provenance::Degraded(_))
    }

    /// The degrade reason, when degraded.
    pub fn degrade_reason(&self) -> Option<DegradeReason> {
        match self {
            Provenance::Walk => None,
            Provenance::Degraded(r) => Some(*r),
        }
    }
}

/// The classification result for one table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Verdict {
    /// Predicted label per row.
    pub rows: Vec<LevelLabel>,
    /// Predicted label per column.
    pub columns: Vec<LevelLabel>,
    /// Predicted HMD depth.
    pub hmd_depth: u8,
    /// Predicted VMD depth.
    pub vmd_depth: u8,
    /// How the row labels were produced.
    pub row_provenance: Provenance,
    /// How the column labels were produced.
    pub col_provenance: Provenance,
}

impl Verdict {
    /// Whether either axis fell back to positional labeling.
    pub fn is_degraded(&self) -> bool {
        self.row_provenance.is_degraded() || self.col_provenance.is_degraded()
    }

    /// Provenance along `axis`.
    pub fn provenance(&self, axis: Axis) -> Provenance {
        match axis {
            Axis::Row => self.row_provenance,
            Axis::Column => self.col_provenance,
        }
    }
}

/// Which range an observed angle matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RangeKind {
    /// Metadata↔metadata (`C_MDE`).
    Mde,
    /// Metadata↔data (`C_MDE-DE`).
    MdeDe,
    /// Data↔data (`C_DE`).
    De,
    /// No range matched; nearest-edge tie-break was used.
    Nearest,
    /// No angle available (blank/OOV level or first level).
    Reference,
    /// No walk happened at all: the axis fell back to positional labeling
    /// and this step records the fallback label for its level.
    Degraded,
}

/// One step of the classification walk, for worked-example output (Fig. 5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceStep {
    /// Axis walked.
    pub axis: Axis,
    /// Level index within the axis.
    pub index: usize,
    /// The observed angle (to the previous level, or to the references for
    /// the first level).
    pub angle: Option<f32>,
    /// Which range decided.
    pub matched: RangeKind,
    /// The label assigned.
    pub decision: LevelLabel,
}

/// The classifier: centroid model + config.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Classifier {
    /// The trained centroid model.
    pub centroids: CentroidModel,
    /// Classification knobs.
    pub config: ClassifierConfig,
}

/// Reusable classification state: the term interner, tokenization scratch,
/// and the reference-centroid norms, computed once instead of once per
/// angle test per table.
///
/// Obtain one from [`Classifier::scratch`] and reuse it across many tables
/// (one per worker thread in the batched path). A scratch is tied to the
/// classifier that created it — the cached reference norms belong to that
/// model's centroids. None of its contents influence verdict values:
/// interned vectors are bit-exact embeddings and the cached norms are the
/// same `dot(v, v).sqrt()` every angle test used to recompute.
pub struct ClassifyScratch {
    interner: TermInterner,
    token_buf: Vec<Token>,
    /// `(‖meta_ref‖, ‖data_ref‖)` per axis; `(0.0, 0.0)` for unusable axes
    /// (never read — unusable axes go positional before any angle test).
    row_ref_norms: (f32, f32),
    col_ref_norms: (f32, f32),
}

impl ClassifyScratch {
    /// Distinct terms interned so far (across all tables this scratch saw).
    pub fn interned_terms(&self) -> usize {
        self.interner.len()
    }

    /// Total memo entries held (terms + distinct cell texts) — the growth
    /// measure pool retirement bounds on.
    pub fn memo_entries(&self) -> usize {
        self.interner.memo_entries()
    }

    fn ref_norms(&self, axis: Axis) -> (f32, f32) {
        match axis {
            Axis::Row => self.row_ref_norms,
            Axis::Column => self.col_ref_norms,
        }
    }
}

/// Per-axis lazy memo of level norms and level↔reference angles, so each
/// quantity is computed at most once per table (the `still_meta` re-test
/// and the CMD scan previously recomputed angles the walk already knew).
struct AngleMemo {
    norms: Vec<Option<f32>>,
    refs: Vec<Option<(f32, f32)>>,
}

impl AngleMemo {
    fn new(n: usize) -> Self {
        Self { norms: vec![None; n], refs: vec![None; n] }
    }

    /// `(∠(v, meta_ref), ∠(v, data_ref))` for level `i`, fused into one
    /// pass over `v` and memoized.
    fn ref_angles(
        &mut self,
        i: usize,
        v: &[f32],
        meta_ref: &[f32],
        data_ref: &[f32],
        ref_norms: (f32, f32),
    ) -> (f32, f32) {
        if let Some(a) = self.refs[i] {
            return a;
        }
        let (dm, dd, nv) = match self.norms[i] {
            Some(nv) => {
                let (dm, dd) = dot2(v, meta_ref, data_ref);
                (dm, dd, nv)
            }
            None => {
                let fused = dot2_norms(v, meta_ref, data_ref);
                self.norms[i] = Some(fused.2);
                fused
            }
        };
        let a = (angle_from_parts(dm, nv, ref_norms.0), angle_from_parts(dd, nv, ref_norms.1));
        self.refs[i] = Some(a);
        a
    }

    /// `∠(prev, v)` — the walk's consecutive-pair delta — with both norms
    /// memoized and the unseen one fused into the dot's pass.
    fn delta(&mut self, i_prev: usize, prev: &[f32], i: usize, v: &[f32]) -> f32 {
        let np = match self.norms[i_prev] {
            Some(n) => n,
            None => {
                let n = norm(prev);
                self.norms[i_prev] = Some(n);
                n
            }
        };
        match self.norms[i] {
            Some(nv) => angle_from_parts(dot(prev, v), np, nv),
            None => {
                let (d, nv) = dot_norms(v, prev);
                self.norms[i] = Some(nv);
                angle_from_parts(d, np, nv)
            }
        }
    }
}

impl Classifier {
    /// Build a [`ClassifyScratch`] for this classifier, precomputing the
    /// reference-centroid norms once.
    pub fn scratch(&self) -> ClassifyScratch {
        let norms_of = |axis: Axis| {
            let c = self.centroids.axis(axis);
            if c.is_usable() {
                (norm(&c.meta_ref), norm(&c.data_ref))
            } else {
                (0.0, 0.0)
            }
        };
        ClassifyScratch {
            interner: TermInterner::new(),
            token_buf: Vec::new(),
            row_ref_norms: norms_of(Axis::Row),
            col_ref_norms: norms_of(Axis::Column),
        }
    }

    /// Classify one table (rows, then columns) with caller-owned scratch
    /// state: one scratch reused across many tables amortizes term
    /// interning and reference norms; verdicts do not depend on what it
    /// has seen. Never panics and never fails: degenerate tables and
    /// model/embedder mismatches route to the positional fallback, with
    /// the reason recorded on the verdict's provenance fields.
    ///
    /// With `trace`, every angle decision is recorded (the Fig. 5
    /// walk-through). Positional fallbacks are traced too: when an axis
    /// (or, on a model/embedder mismatch, the whole table) degrades, one
    /// [`RangeKind::Degraded`] step per level records the fallback label —
    /// a degraded table never yields an empty trace.
    pub fn classify<E: TermEmbedder + ?Sized>(
        &self,
        table: &Table,
        embedder: &E,
        tokenizer: &Tokenizer,
        scratch: &mut ClassifyScratch,
        mut trace: Option<&mut Vec<TraceStep>>,
    ) -> Verdict {
        if !self.dims_match(embedder) {
            return self.degraded_verdict(table, DegradeReason::ModelMismatch, trace);
        }
        // Built lazily by the first axis that actually walks, then shared
        // by the second: each cell is tokenized exactly once per table.
        let mut cache: Option<LevelVectorCache> = None;
        let (rows, hmd_depth, row_provenance) = self.classify_axis(
            table,
            Axis::Row,
            self.config.max_hmd_depth,
            embedder,
            tokenizer,
            scratch,
            &mut cache,
            trace.as_deref_mut(),
        );
        let (columns, vmd_depth, col_provenance) = self.classify_axis(
            table,
            Axis::Column,
            self.config.max_vmd_depth,
            embedder,
            tokenizer,
            scratch,
            &mut cache,
            trace,
        );
        record_verdict(hmd_depth, vmd_depth);
        Verdict { rows, columns, hmd_depth, vmd_depth, row_provenance, col_provenance }
    }

    /// The embedder must produce vectors of the model's width on every
    /// usable axis; otherwise every angle test would be meaningless.
    fn dims_match<E: TermEmbedder + ?Sized>(&self, embedder: &E) -> bool {
        [Axis::Row, Axis::Column].into_iter().all(|axis| {
            let c = self.centroids.axis(axis);
            !c.is_usable() || c.meta_ref.len() == embedder.dim()
        })
    }

    /// Fully degraded verdict: positional fallback on both axes.
    fn degraded_verdict(
        &self,
        table: &Table,
        reason: DegradeReason,
        mut trace: Option<&mut Vec<TraceStep>>,
    ) -> Verdict {
        let (rows, hmd_depth, row_provenance) =
            positional_axis(table, Axis::Row, reason, trace.as_deref_mut());
        let (columns, vmd_depth, col_provenance) =
            positional_axis(table, Axis::Column, reason, trace);
        record_verdict(hmd_depth, vmd_depth);
        Verdict { rows, columns, hmd_depth, vmd_depth, row_provenance, col_provenance }
    }

    #[allow(clippy::too_many_arguments)]
    fn classify_axis<E: TermEmbedder + ?Sized>(
        &self,
        table: &Table,
        axis: Axis,
        depth_cap: u8,
        embedder: &E,
        tokenizer: &Tokenizer,
        scratch: &mut ClassifyScratch,
        cache_slot: &mut Option<LevelVectorCache>,
        mut trace: Option<&mut Vec<TraceStep>>,
    ) -> (Vec<LevelLabel>, u8, Provenance) {
        let n = table.n_levels(axis);
        let mut labels = vec![LevelLabel::Data; n];
        let centroids = self.centroids.axis(axis);
        if !centroids.is_usable() {
            return positional_axis(table, axis, DegradeReason::UnusableCentroids, trace);
        }
        if n < 2 {
            // No consecutive pair to measure an angle over.
            return positional_axis(table, axis, DegradeReason::SingleLevel, trace);
        }
        let angle_tests = &obs_handles().angle_tests;
        let cache = cache_slot.get_or_insert_with(|| {
            LevelVectorCache::build(
                table,
                embedder,
                tokenizer,
                &mut scratch.interner,
                &mut scratch.token_buf,
            )
        });
        // Sanitize aggregates: a vector with NaN/∞ components (numeric
        // overflow upstream) would poison every angle test downstream, so
        // it is demoted to a blank level here.
        let mut non_finite = false;
        let vectors: Vec<Option<Vec<f32>>> = cache
            .axis_vectors(axis, &scratch.interner, embedder.dim())
            .into_iter()
            .map(|v| match v {
                Some(vec) if vec.iter().all(|x| x.is_finite()) => Some(vec),
                Some(_) => {
                    non_finite = true;
                    None
                }
                None => None,
            })
            .collect();
        if vectors.iter().all(Option::is_none) {
            let reason =
                if non_finite { DegradeReason::NonFinite } else { DegradeReason::NoSignal };
            return positional_axis(table, axis, reason, trace);
        }
        let ref_norms = scratch.ref_norms(axis);
        let mut memo = AngleMemo::new(n);
        let meta_label = |depth: u8| match axis {
            Axis::Row => LevelLabel::Hmd(depth),
            Axis::Column => LevelLabel::Vmd(depth),
        };
        if self.config.strategy == WalkStrategy::ReferenceOnly {
            // Naive ablation baseline: each level independently nearest-
            // reference; metadata depth = leading run of meta-leaning
            // levels. No pairwise angles anywhere.
            let mut depth: u8 = 0;
            for (i, maybe_v) in vectors.iter().enumerate() {
                let Some(v) = maybe_v else {
                    if let Some(t) = trace.as_deref_mut() {
                        t.push(TraceStep {
                            axis,
                            index: i,
                            angle: None,
                            matched: RangeKind::Reference,
                            decision: LevelLabel::Data,
                        });
                    }
                    break;
                };
                angle_tests.inc();
                let (to_meta, to_data) =
                    memo.ref_angles(i, v, &centroids.meta_ref, &centroids.data_ref, ref_norms);
                let is_meta = to_meta < to_data && depth < depth_cap;
                if let Some(t) = trace.as_deref_mut() {
                    t.push(TraceStep {
                        axis,
                        index: i,
                        angle: Some(to_meta),
                        matched: RangeKind::Reference,
                        decision: if is_meta { meta_label(depth + 1) } else { LevelLabel::Data },
                    });
                }
                if is_meta {
                    depth += 1;
                    labels[depth as usize - 1] = meta_label(depth);
                } else {
                    break;
                }
            }
            return (labels, depth, Provenance::Walk);
        }
        let global_mde = centroids.c_mde.expanded(self.config.margin_deg);
        let global_mde_de = centroids.c_mde_de.expanded(self.config.margin_deg);
        // Level-specific ranges (paper Tables I & IV): at depth `d` the
        // continuation test uses the observed Δ_{dMDE,(d+1)MDE} range and
        // the transition test the observed Δ_{dMDE,DE} range; global
        // ranges back them up when a level was unseen in training.
        let min_support = 3usize;
        let meta_range_at = |depth: u8| -> tabmeta_linalg::AngleRange {
            centroids
                .level(depth + 1)
                .filter(|l| l.support >= min_support && !l.prev_range.is_empty())
                .map(|l| l.prev_range.expanded(self.config.margin_deg))
                .unwrap_or(global_mde)
        };
        let trans_range_at = |depth: u8| -> tabmeta_linalg::AngleRange {
            centroids
                .level(depth.max(1))
                .filter(|l| l.support >= min_support && !l.to_data_range.is_empty())
                .map(|l| l.to_data_range.expanded(self.config.margin_deg))
                .unwrap_or(global_mde_de)
        };

        let mut depth: u8 = 0;
        let mut boundary = 0usize; // first non-metadata level
        for (i, maybe_v) in vectors.iter().enumerate() {
            let Some(v) = maybe_v else {
                // Blank/OOV level ends the metadata run.
                boundary = i;
                if let Some(t) = trace.as_deref_mut() {
                    t.push(TraceStep {
                        axis,
                        index: i,
                        angle: None,
                        matched: RangeKind::Reference,
                        decision: LevelLabel::Data,
                    });
                }
                break;
            };
            if i == 0 {
                // First level: closest reference centroid decides.
                angle_tests.inc();
                let (to_meta, to_data) =
                    memo.ref_angles(0, v, &centroids.meta_ref, &centroids.data_ref, ref_norms);
                let is_meta = to_meta < to_data;
                if let Some(t) = trace.as_deref_mut() {
                    t.push(TraceStep {
                        axis,
                        index: 0,
                        angle: Some(to_meta),
                        matched: RangeKind::Reference,
                        decision: if is_meta { meta_label(1) } else { LevelLabel::Data },
                    });
                }
                if !is_meta {
                    boundary = 0;
                    break;
                }
                depth = 1;
                labels[0] = meta_label(1);
                boundary = 1;
                continue;
            }
            let Some(prev) = vectors[i - 1].as_ref() else {
                // Unreachable in practice (the walk breaks at the first
                // None), but a missing predecessor must end the run, not
                // the process.
                boundary = i;
                break;
            };
            angle_tests.inc();
            let delta = memo.delta(i - 1, prev, i, v);
            let mde = meta_range_at(depth);
            let mde_de = trans_range_at(depth);
            let in_mde = mde.contains(delta);
            let in_mde_de = mde_de.contains(delta);
            let (range_says_meta, matched) = if in_mde && !in_mde_de {
                (true, RangeKind::Mde)
            } else if in_mde_de && !in_mde {
                (false, RangeKind::MdeDe)
            } else if in_mde && in_mde_de {
                // Overlapping ranges: the nearer midpoint decides.
                (
                    (delta - mde.midpoint()).abs() <= (delta - mde_de.midpoint()).abs(),
                    RangeKind::Nearest,
                )
            } else {
                (mde.distance_to(delta) <= mde_de.distance_to(delta), RangeKind::Nearest)
            };
            // Reference consistency: metadata continuation additionally
            // requires the level itself to lean toward the metadata
            // reference (guards against C_MDE-close *data* level pairs).
            let still_meta = range_says_meta && {
                let (to_meta, to_data) =
                    memo.ref_angles(i, v, &centroids.meta_ref, &centroids.data_ref, ref_norms);
                to_meta <= to_data + self.config.ref_tolerance_deg
            };
            if still_meta && depth < depth_cap {
                depth += 1;
                labels[i] = meta_label(depth);
                boundary = i + 1;
                if let Some(t) = trace.as_deref_mut() {
                    t.push(TraceStep {
                        axis,
                        index: i,
                        angle: Some(delta),
                        matched,
                        decision: meta_label(depth),
                    });
                }
            } else {
                boundary = i;
                if let Some(t) = trace.as_deref_mut() {
                    t.push(TraceStep {
                        axis,
                        index: i,
                        angle: Some(delta),
                        matched,
                        decision: LevelLabel::Data,
                    });
                }
                break;
            }
        }

        // CMD extension: rows past the boundary that look like section
        // headers (sparse + metadata-flavoured aggregate).
        if axis == Axis::Row && self.config.detect_cmd {
            for i in boundary.max(1)..n {
                let Some(v) = &vectors[i] else { continue };
                if table.blank_fraction(axis, i) < self.config.cmd_blank_threshold {
                    continue;
                }
                let (to_meta, to_data) =
                    memo.ref_angles(i, v, &centroids.meta_ref, &centroids.data_ref, ref_norms);
                if to_meta < to_data + self.config.cmd_ref_tolerance_deg
                    && labels[i] == LevelLabel::Data
                {
                    labels[i] = LevelLabel::Cmd;
                    if let Some(t) = trace.as_deref_mut() {
                        t.push(TraceStep {
                            axis,
                            index: i,
                            angle: Some(to_meta),
                            matched: RangeKind::Reference,
                            decision: LevelLabel::Cmd,
                        });
                    }
                }
            }
        }
        (labels, depth, Provenance::Walk)
    }
}

/// First-row/first-column positional fallback, mirroring the
/// `PositionalBaseline` heuristic: the first row is HMD(1); the first
/// column is VMD(1) only when there is more than one column and it is not
/// numeric-dominated. Used whenever the angle walk has nothing to stand
/// on, with the reason recorded as [`Provenance::Degraded`].
///
/// When a trace is requested, one [`RangeKind::Degraded`] step per level
/// records the fallback label, so degraded axes never vanish from the
/// walk-through.
fn positional_axis(
    table: &Table,
    axis: Axis,
    reason: DegradeReason,
    trace: Option<&mut Vec<TraceStep>>,
) -> (Vec<LevelLabel>, u8, Provenance) {
    let n = table.n_levels(axis);
    let mut labels = vec![LevelLabel::Data; n];
    let mut depth = 0u8;
    match axis {
        Axis::Row => {
            if let Some(first) = labels.first_mut() {
                *first = LevelLabel::Hmd(1);
                depth = 1;
            }
        }
        Axis::Column => {
            if n > 1 && !numeric_dominated(table, Axis::Column, 0) {
                labels[0] = LevelLabel::Vmd(1);
                depth = 1;
            }
        }
    }
    if let Some(t) = trace {
        for (i, label) in labels.iter().enumerate() {
            t.push(TraceStep {
                axis,
                index: i,
                angle: None,
                matched: RangeKind::Degraded,
                decision: *label,
            });
        }
    }
    let obs = obs_handles();
    obs.degraded.inc();
    tabmeta_obs::global()
        .counter(&format!("{}{}", names::CLASSIFIER_DEGRADED_PREFIX, reason.as_str()))
        .inc();
    (labels, depth, Provenance::Degraded(reason))
}

/// Whether more than half of a level's non-empty cells read as numeric —
/// the sanity check that stops the positional fallback from claiming a
/// numeric first column as VMD.
fn numeric_dominated(table: &Table, axis: Axis, index: usize) -> bool {
    let texts = table.level_texts(axis, index);
    if texts.is_empty() {
        return false;
    }
    let numeric = texts.iter().filter(|t| tabmeta_text::classify_numeric(t).is_some()).count();
    numeric * 2 > texts.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centroid::{AxisCentroids, LevelPairStats};
    use std::collections::HashMap;
    use tabmeta_linalg::AngleRange;

    /// Hand-built embedder: "header" terms at 0°, "sub-header" terms at
    /// ~30°, data terms at ~80° from headers.
    struct Synthetic {
        map: HashMap<String, Vec<f32>>,
    }

    impl Synthetic {
        fn new() -> Self {
            let deg = |d: f32| {
                let r = d.to_radians();
                vec![r.cos(), r.sin()]
            };
            let mut map = HashMap::new();
            map.insert("header".to_string(), deg(0.0));
            map.insert("subheader".to_string(), deg(30.0));
            map.insert("subsub".to_string(), deg(55.0));
            map.insert("<int>".to_string(), deg(80.0));
            map.insert("<bigint>".to_string(), deg(82.0));
            map.insert("section".to_string(), deg(5.0));
            Self { map }
        }
    }

    impl TermEmbedder for Synthetic {
        fn dim(&self) -> usize {
            2
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

    fn axis_centroids() -> AxisCentroids {
        let deg = |d: f32| {
            let r = d.to_radians();
            vec![r.cos(), r.sin()]
        };
        AxisCentroids {
            c_mde: AngleRange::new(20.0, 40.0),
            c_de: AngleRange::new(0.0, 10.0),
            c_mde_de: AngleRange::new(45.0, 90.0),
            meta_ref: deg(15.0),
            data_ref: deg(81.0),
            levels: vec![LevelPairStats {
                level: 1,
                delta_prev_meta: None,
                delta_to_data: Some(70.0),
                prev_range: AngleRange::empty(),
                to_data_range: AngleRange::new(45.0, 90.0),
                c_mde: AngleRange::new(20.0, 40.0),
                c_mde_de: AngleRange::new(45.0, 90.0),
                c_de: AngleRange::new(0.0, 10.0),
                support: 1,
            }],
        }
    }

    fn classifier() -> Classifier {
        Classifier {
            centroids: CentroidModel { rows: axis_centroids(), columns: axis_centroids() },
            config: ClassifierConfig { margin_deg: 2.0, ..Default::default() },
        }
    }

    /// Untraced classify on a fresh scratch.
    fn classify<E: TermEmbedder + ?Sized>(c: &Classifier, t: &Table, e: &E) -> Verdict {
        c.classify(t, e, &Tokenizer::default(), &mut c.scratch(), None)
    }

    /// Traced classify on a fresh scratch.
    fn classify_traced<E: TermEmbedder + ?Sized>(
        c: &Classifier,
        t: &Table,
        e: &E,
    ) -> (Verdict, Vec<TraceStep>) {
        let mut trace = Vec::new();
        let v = c.classify(t, e, &Tokenizer::default(), &mut c.scratch(), Some(&mut trace));
        (v, trace)
    }

    #[test]
    fn two_level_header_then_data() {
        // Row 0: header (0°), row 1: subheader (30° away → C_MDE),
        // rows 2–3: data (~50°+ away → C_MDE-DE, then C_DE).
        let t = Table::from_strings(
            1,
            &[
                &["header", "header"],
                &["subheader", "subheader"],
                &["1", "14,373"],
                &["2", "9,201"],
            ],
        );
        let c = classifier();
        let v = classify(&c, &t, &Synthetic::new());
        assert_eq!(v.hmd_depth, 2, "labels: {:?}", v.rows);
        assert_eq!(v.rows[0], LevelLabel::Hmd(1));
        assert_eq!(v.rows[1], LevelLabel::Hmd(2));
        assert_eq!(v.rows[2], LevelLabel::Data);
        assert_eq!(v.rows[3], LevelLabel::Data);
    }

    #[test]
    fn single_header_table() {
        let t = Table::from_strings(2, &[&["header", "header"], &["1", "2"], &["3", "4"]]);
        let c = classifier();
        let v = classify(&c, &t, &Synthetic::new());
        assert_eq!(v.hmd_depth, 1);
        assert_eq!(v.rows, vec![LevelLabel::Hmd(1), LevelLabel::Data, LevelLabel::Data]);
    }

    #[test]
    fn headerless_table_is_all_data() {
        let t = Table::from_strings(3, &[&["1", "2"], &["3", "4"]]);
        let c = classifier();
        let v = classify(&c, &t, &Synthetic::new());
        assert_eq!(v.hmd_depth, 0);
        assert!(v.rows.iter().all(|l| *l == LevelLabel::Data));
    }

    #[test]
    fn depth_respects_cap() {
        let t = Table::from_strings(
            4,
            &[
                &["header", "header"],
                &["subheader", "subheader"],
                &["header", "header"],
                &["subheader", "subheader"],
                &["1", "2"],
            ],
        );
        let mut c = classifier();
        c.config.max_hmd_depth = 2;
        let v = classify(&c, &t, &Synthetic::new());
        assert_eq!(v.hmd_depth, 2);
        assert_eq!(v.rows[2], LevelLabel::Data, "cap stops the run");
    }

    #[test]
    fn reference_only_trace_is_populated() {
        // Regression: the ReferenceOnly ablation returned an empty trace,
        // so Fig.-5-style walk-throughs silently vanished for the baseline.
        let t = Table::from_strings(
            7,
            &[&["header", "header"], &["subheader", "subheader"], &["1", "14,373"]],
        );
        let mut c = classifier();
        c.config.strategy = WalkStrategy::ReferenceOnly;
        let (v, trace) = classify_traced(&c, &t, &Synthetic::new());
        assert_eq!(v.hmd_depth, 2, "labels: {:?}", v.rows);
        let row_steps: Vec<&TraceStep> = trace.iter().filter(|s| s.axis == Axis::Row).collect();
        // One step per examined level, including the breaking data level.
        assert_eq!(row_steps.len(), 3, "trace: {row_steps:?}");
        assert!(row_steps.iter().all(|s| s.matched == RangeKind::Reference));
        assert!(row_steps.iter().all(|s| s.angle.is_some()));
        assert_eq!(row_steps[0].decision, LevelLabel::Hmd(1));
        assert_eq!(row_steps[1].decision, LevelLabel::Hmd(2));
        assert_eq!(row_steps[2].decision, LevelLabel::Data);
        // Column walk traces too.
        assert!(trace.iter().any(|s| s.axis == Axis::Column));
    }

    #[test]
    fn cmd_row_detected() {
        let t = Table::from_strings(
            5,
            &[
                &["header", "header", "header"],
                &["1", "2", "3"],
                &["section", "", ""],
                &["4", "5", "6"],
            ],
        );
        let c = classifier();
        let v = classify(&c, &t, &Synthetic::new());
        assert_eq!(v.rows[2], LevelLabel::Cmd, "labels: {:?}", v.rows);
        assert_eq!(v.hmd_depth, 1);
    }

    #[test]
    fn cmd_detection_can_be_disabled() {
        let t = Table::from_strings(
            6,
            &[&["header", "header"], &["1", "2"], &["section", ""], &["3", "4"]],
        );
        let mut c = classifier();
        c.config.detect_cmd = false;
        let v = classify(&c, &t, &Synthetic::new());
        assert_eq!(v.rows[2], LevelLabel::Data);
    }

    #[test]
    fn columns_classify_transposed() {
        // Column 0 = VMD (header-ish terms down the column), columns 1-2 data.
        let t = Table::from_strings(
            7,
            &[
                &["header", "header", "header"],
                &["subheader", "1", "2"],
                &["subheader", "3", "4"],
                &["subsub", "5", "6"],
            ],
        );
        let c = classifier();
        let v = classify(&c, &t, &Synthetic::new());
        assert_eq!(v.vmd_depth, 1, "columns: {:?}", v.columns);
        assert_eq!(v.columns[0], LevelLabel::Vmd(1));
        assert_eq!(v.columns[1], LevelLabel::Data);
    }

    #[test]
    fn unusable_centroids_fall_back_to_positional() {
        let mut c = classifier();
        c.centroids.rows.meta_ref = vec![0.0, 0.0];
        let t = Table::from_strings(8, &[&["header", "header"], &["1", "2"]]);
        let v = classify(&c, &t, &Synthetic::new());
        assert_eq!(v.hmd_depth, 1, "positional fallback claims the first row");
        assert_eq!(v.rows[0], LevelLabel::Hmd(1));
        assert_eq!(v.row_provenance, Provenance::Degraded(DegradeReason::UnusableCentroids));
        assert_eq!(v.col_provenance, Provenance::Walk, "column axis still walks");
        assert!(v.is_degraded());
    }

    #[test]
    fn healthy_walk_has_walk_provenance() {
        let t = Table::from_strings(20, &[&["header", "header"], &["1", "2"]]);
        let c = classifier();
        let v = classify(&c, &t, &Synthetic::new());
        assert_eq!(v.row_provenance, Provenance::Walk);
        assert!(!v.is_degraded());
    }

    #[test]
    fn single_row_table_degrades_to_single_level() {
        let t = Table::from_strings(21, &[&["header", "header", "header"]]);
        let c = classifier();
        let v = classify(&c, &t, &Synthetic::new());
        assert_eq!(v.row_provenance, Provenance::Degraded(DegradeReason::SingleLevel));
        assert_eq!(v.hmd_depth, 1);
        assert_eq!(v.rows[0], LevelLabel::Hmd(1));
    }

    #[test]
    fn all_blank_table_degrades_with_no_signal() {
        let t = Table::from_strings(22, &[&["", ""], &["", ""]]);
        let c = classifier();
        let v = classify(&c, &t, &Synthetic::new());
        assert_eq!(v.row_provenance, Provenance::Degraded(DegradeReason::NoSignal));
        assert_eq!(v.col_provenance, Provenance::Degraded(DegradeReason::NoSignal));
        assert_eq!(v.rows[0], LevelLabel::Hmd(1), "positional fallback still labels");
    }

    #[test]
    fn all_oov_table_degrades_with_no_signal() {
        let t = Table::from_strings(23, &[&["zzz", "qqq"], &["xxx", "www"]]);
        let c = classifier();
        let v = classify(&c, &t, &Synthetic::new());
        assert_eq!(v.row_provenance, Provenance::Degraded(DegradeReason::NoSignal));
    }

    #[test]
    fn non_finite_aggregates_degrade_with_reason() {
        struct Poisoned;
        impl TermEmbedder for Poisoned {
            fn dim(&self) -> usize {
                2
            }
            fn accumulate(&self, _term: &str, out: &mut [f32]) -> bool {
                out[0] = f32::NAN;
                out[1] = f32::INFINITY;
                true
            }
        }
        let t = Table::from_strings(24, &[&["header", "header"], &["1", "2"]]);
        let c = classifier();
        let v = classify(&c, &t, &Poisoned);
        assert_eq!(v.row_provenance, Provenance::Degraded(DegradeReason::NonFinite));
        assert_eq!(v.hmd_depth, 1, "fallback, not a panic or a NaN-driven walk");
    }

    #[test]
    fn dimension_mismatch_degrades_with_model_mismatch() {
        struct Wide;
        impl TermEmbedder for Wide {
            fn dim(&self) -> usize {
                7
            }
            fn accumulate(&self, _term: &str, out: &mut [f32]) -> bool {
                out[0] = 1.0;
                true
            }
        }
        let t = Table::from_strings(25, &[&["header", "header"], &["1", "2"]]);
        let c = classifier();
        let v = classify(&c, &t, &Wide);
        assert_eq!(v.row_provenance, Provenance::Degraded(DegradeReason::ModelMismatch));
        assert_eq!(v.col_provenance, Provenance::Degraded(DegradeReason::ModelMismatch));
    }

    #[test]
    fn numeric_first_column_not_claimed_by_fallback() {
        // All-OOV on the column axis is impossible while numerics embed,
        // so poison the centroids instead to force the fallback.
        let mut c = classifier();
        c.centroids.columns.meta_ref = vec![0.0, 0.0];
        let t = Table::from_strings(27, &[&["1", "a"], &["2", "b"], &["3", "c"]]);
        let v = classify(&c, &t, &Synthetic::new());
        assert!(v.col_provenance.is_degraded());
        assert_eq!(v.vmd_depth, 0, "numeric-dominated first column stays data");
        assert_eq!(v.columns[0], LevelLabel::Data);
    }

    #[test]
    fn trace_records_the_walk() {
        let t = Table::from_strings(
            9,
            &[&["header", "header"], &["subheader", "subheader"], &["1", "2"]],
        );
        let c = classifier();
        let (v, trace) = classify_traced(&c, &t, &Synthetic::new());
        assert_eq!(v.hmd_depth, 2);
        let row_steps: Vec<&TraceStep> = trace.iter().filter(|s| s.axis == Axis::Row).collect();
        assert!(row_steps.len() >= 3);
        assert_eq!(row_steps[0].matched, RangeKind::Reference);
        assert_eq!(row_steps[1].matched, RangeKind::Mde);
        assert!(row_steps[1].angle.unwrap() > 20.0 && row_steps[1].angle.unwrap() < 42.0);
        assert_eq!(row_steps[2].decision, LevelLabel::Data);
    }

    #[test]
    fn blank_second_row_ends_the_header_run() {
        let t = Table::from_strings(10, &[&["header", "header"], &["", ""], &["1", "2"]]);
        let c = classifier();
        let v = classify(&c, &t, &Synthetic::new());
        assert_eq!(v.hmd_depth, 1);
        assert_eq!(v.rows[1], LevelLabel::Data);
    }

    #[test]
    fn degraded_trace_is_not_empty_on_dimension_mismatch() {
        // Regression: check_dims failure used to return an EMPTY trace,
        // hiding the positional-fallback labels from the walk-through.
        struct Wide;
        impl TermEmbedder for Wide {
            fn dim(&self) -> usize {
                7
            }
            fn accumulate(&self, _term: &str, out: &mut [f32]) -> bool {
                out[0] = 1.0;
                true
            }
        }
        let t = Table::from_strings(28, &[&["header", "header"], &["1", "2"]]);
        let c = classifier();
        let (v, trace) = classify_traced(&c, &t, &Wide);
        assert_eq!(v.row_provenance, Provenance::Degraded(DegradeReason::ModelMismatch));
        assert_eq!(trace.len(), t.n_rows() + t.n_cols(), "one step per level on both axes");
        assert!(trace.iter().all(|s| s.matched == RangeKind::Degraded && s.angle.is_none()));
        // Each step records the fallback label actually assigned.
        for s in &trace {
            let label = match s.axis {
                Axis::Row => v.rows[s.index],
                Axis::Column => v.columns[s.index],
            };
            assert_eq!(s.decision, label, "{:?} level {}", s.axis, s.index);
        }
    }

    #[test]
    fn degraded_trace_on_unusable_axis() {
        // Only the column axis degrades; its levels still show up in the
        // trace as Degraded steps while the row walk traces normally.
        let mut c = classifier();
        c.centroids.columns.meta_ref = vec![0.0, 0.0];
        let t = Table::from_strings(29, &[&["header", "header"], &["1", "2"]]);
        let (v, trace) = classify_traced(&c, &t, &Synthetic::new());
        assert!(v.col_provenance.is_degraded());
        let col_steps: Vec<&TraceStep> = trace.iter().filter(|s| s.axis == Axis::Column).collect();
        assert_eq!(col_steps.len(), t.n_cols());
        assert!(col_steps.iter().all(|s| s.matched == RangeKind::Degraded));
        let row_steps: Vec<&TraceStep> = trace.iter().filter(|s| s.axis == Axis::Row).collect();
        assert!(!row_steps.is_empty());
        assert!(row_steps.iter().all(|s| s.matched != RangeKind::Degraded));
    }

    #[test]
    fn scratch_reuse_matches_fresh_classification() {
        let c = classifier();
        let e = Synthetic::new();
        let tok = Tokenizer::default();
        let tables = [
            Table::from_strings(30, &[&["header", "header"], &["1", "2"]]),
            Table::from_strings(
                31,
                &[&["header", "header"], &["subheader", "subheader"], &["1", "2"]],
            ),
            Table::from_strings(32, &[&["", ""], &["", ""]]),
            Table::from_strings(33, &[&["header"]]),
        ];
        let mut scratch = c.scratch();
        for t in &tables {
            assert_eq!(c.classify(t, &e, &tok, &mut scratch, None), classify(&c, t, &e));
            let mut tr1 = Vec::new();
            let v1 = c.classify(t, &e, &tok, &mut scratch, Some(&mut tr1));
            let (v2, tr2) = classify_traced(&c, t, &e);
            assert_eq!(v1, v2);
            assert_eq!(tr1, tr2);
        }
        assert!(scratch.interned_terms() > 0);
    }
}
