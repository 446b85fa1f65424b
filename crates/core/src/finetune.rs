//! Contrastive (Siamese) fine-tuning of term embeddings (§III-D, Fig. 4).
//!
//! Training pairs come from the weak labels: *(target, positive)* pairs are
//! two metadata levels or two data levels; *(target, negative)* pairs are a
//! metadata level against a data level. The objective pulls positive pairs'
//! aggregated vectors together (angle → small) and pushes negative pairs
//! apart (angle → large), stopping at configurable margins so the geometry
//! is shaped rather than collapsed.
//!
//! Because an aggregated level vector is the **sum** of its term vectors
//! (Def. 8), the cosine gradient with respect to the aggregate distributes
//! directly onto every constituent term; we scale it by `1/n_terms` to keep
//! per-term step sizes comparable across long and short levels.

use crate::aggregate::{level_terms, level_vector};
use crate::bootstrap::WeakLabels;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use tabmeta_embed::TunableEmbedder;
use tabmeta_linalg::{cosine_similarity, norm};
use tabmeta_tabular::{Axis, Table};
use tabmeta_text::Tokenizer;

/// Fine-tuning hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FinetuneConfig {
    /// Passes over the weakly-labeled tables.
    pub epochs: usize,
    /// Step size applied to the (already normalized) cosine gradient.
    pub learning_rate: f32,
    /// Positive pairs closer than this angle (degrees) are left alone.
    pub positive_margin_deg: f32,
    /// Negative pairs farther than this angle (degrees) are left alone.
    pub negative_margin_deg: f32,
    /// Cap on data↔data pairs per table per epoch.
    pub max_data_pairs: usize,
    /// Cap on metadata↔data pairs per table per epoch.
    pub max_neg_pairs: usize,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for FinetuneConfig {
    fn default() -> Self {
        Self {
            epochs: 10,
            learning_rate: 0.15,
            positive_margin_deg: 20.0,
            negative_margin_deg: 65.0,
            max_data_pairs: 4,
            max_neg_pairs: 6,
            seed: 0xf17e,
        }
    }
}

/// What a fine-tuning run did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FinetuneReport {
    /// Positive pairs that received an update.
    pub positive_updates: u64,
    /// Negative pairs that received an update.
    pub negative_updates: u64,
    /// Pairs skipped because they already satisfied their margin.
    pub satisfied: u64,
}

/// Loop state of a fine-tune run at an epoch boundary: epoch counter, RNG
/// position, and the accumulated report. Serialized into training
/// checkpoints; resuming from it continues the identical
/// negative-mining stream, so a resumed run is bit-identical to an
/// uninterrupted one (fine-tuning is always sequential).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FinetuneResume {
    /// Epochs fully completed.
    pub epochs_done: usize,
    /// xoshiro256++ state of the mining RNG at the boundary.
    pub rng: [u64; 4],
    /// Report accumulated over the completed epochs.
    pub report: FinetuneReport,
}

/// Per-epoch observer for resumable fine-tuning: called with the embedder
/// and loop state after every completed epoch; returning
/// [`std::ops::ControlFlow::Break`] stops the run at that boundary.
pub type FinetuneSink<'s, E> = &'s mut dyn FnMut(&E, &FinetuneResume) -> std::ops::ControlFlow<()>;

/// ∂cos(A,B)/∂A = B/(|A||B|) − cos·A/|A|².
fn cosine_grad_wrt_a(a: &[f32], b: &[f32], cos: f32) -> Vec<f32> {
    let na = norm(a);
    let nb = norm(b);
    let mut g = vec![0.0f32; a.len()];
    if na == 0.0 || nb == 0.0 {
        return g;
    }
    let inv = 1.0 / (na * nb);
    let self_term = cos / (na * na);
    for i in 0..a.len() {
        g[i] = b[i] * inv - a[i] * self_term;
    }
    g
}

/// One pair update: move the aggregates' constituent terms so the pair's
/// cosine moves toward its target side of the margin. The pair's hinge
/// loss (degrees past the margin; zero when satisfied) accumulates into
/// `epoch_loss` so callers can report a loss trajectory.
///
/// Returns whether the pair was actually evaluated (updated or found
/// satisfied). Blank/OOV levels yield no aggregate vector and return
/// `false` — callers budgeting pairs must not spend budget on those.
#[allow(clippy::too_many_arguments)]
fn update_pair<E: TunableEmbedder + ?Sized>(
    table: &Table,
    axis: Axis,
    i: usize,
    j: usize,
    positive: bool,
    config: &FinetuneConfig,
    embedder: &mut E,
    tokenizer: &Tokenizer,
    report: &mut FinetuneReport,
    epoch_loss: &mut f64,
) -> bool {
    let (Some(a), Some(b)) = (
        level_vector(table, axis, i, embedder, tokenizer),
        level_vector(table, axis, j, embedder, tokenizer),
    ) else {
        return false;
    };
    let cos = cosine_similarity(&a, &b);
    let angle = cos.acos().to_degrees();
    let hinge = if positive {
        (angle - config.positive_margin_deg).max(0.0)
    } else {
        (config.negative_margin_deg - angle).max(0.0)
    };
    *epoch_loss += hinge as f64;
    let sign = if positive {
        if angle <= config.positive_margin_deg {
            report.satisfied += 1;
            return true;
        }
        1.0
    } else {
        if angle >= config.negative_margin_deg {
            report.satisfied += 1;
            return true;
        }
        -1.0
    };
    let grad_a = cosine_grad_wrt_a(&a, &b, cos);
    let grad_b = cosine_grad_wrt_a(&b, &a, cos);
    for (level, grad) in [(i, grad_a), (j, grad_b)] {
        let terms = level_terms(table, axis, level, tokenizer);
        if terms.is_empty() {
            continue;
        }
        let step = sign * config.learning_rate / terms.len() as f32;
        let mut scaled = grad;
        tabmeta_linalg::scale(&mut scaled, step);
        for term in &terms {
            embedder.apply_gradient(term, &scaled);
        }
    }
    if positive {
        report.positive_updates += 1;
    } else {
        report.negative_updates += 1;
    }
    true
}

/// Run contrastive fine-tuning over weakly-labeled tables, mutating the
/// embedder's term vectors in place.
pub fn run<E: TunableEmbedder + ?Sized>(
    tables: &[Table],
    weak: &[WeakLabels],
    embedder: &mut E,
    tokenizer: &Tokenizer,
    config: &FinetuneConfig,
) -> FinetuneReport {
    run_resumable(tables, weak, embedder, tokenizer, config, None, None).0
}

/// [`run`] with checkpoint/resume plumbing: `resume` restores the loop
/// state captured at an epoch boundary (the caller restores the embedder
/// weights separately), `sink` observes every completed epoch and may
/// break out. Returns the accumulated report and whether the sink
/// interrupted the run.
pub fn run_resumable<E: TunableEmbedder + ?Sized>(
    tables: &[Table],
    weak: &[WeakLabels],
    embedder: &mut E,
    tokenizer: &Tokenizer,
    config: &FinetuneConfig,
    resume: Option<FinetuneResume>,
    mut sink: Option<FinetuneSink<'_, E>>,
) -> (FinetuneReport, bool) {
    assert_eq!(tables.len(), weak.len(), "tables and weak labels must align");
    let mut state = resume.unwrap_or_else(|| FinetuneResume::fresh(config));
    while state.epochs_done < config.epochs {
        state = epoch(state, |epoch| {
            for (table, labels) in tables.iter().zip(weak) {
                epoch.tune(table, labels, embedder, tokenizer, config);
            }
        })
        .0;
        if let Some(sink) = sink.as_mut() {
            if sink(&*embedder, &state).is_break() {
                return (state.report, true);
            }
        }
    }
    (state.report, false)
}

impl FinetuneResume {
    /// Loop state before the first epoch: the mining RNG at `config.seed`.
    pub fn fresh(config: &FinetuneConfig) -> Self {
        Self {
            epochs_done: 0,
            rng: StdRng::seed_from_u64(config.seed).state(),
            report: FinetuneReport::default(),
        }
    }
}

/// Run epoch `state.epochs_done`: `pass` feeds every weakly-labeled table
/// to [`Epoch::tune`], in corpus order. The epoch is timed by the `epoch`
/// span, its pairs, loss and rate go to the `finetune.*` metrics, and the
/// loop state after it is returned with whatever `pass` returned.
///
/// Every pair the epoch draws lies inside one table and the mining RNG
/// runs in table order, so a pass that streams the corpus in shards tunes
/// exactly as one over a resident slice.
pub(crate) fn epoch<R>(
    state: FinetuneResume,
    pass: impl FnOnce(&mut Epoch) -> R,
) -> (FinetuneResume, R) {
    use tabmeta_obs::names;
    let obs = tabmeta_obs::global();
    let pairs_before = state.report.pairs();
    let mut epoch = Epoch {
        index: state.epochs_done,
        rng: StdRng::from_state(state.rng),
        report: state.report,
        loss: 0.0,
    };
    let (out, elapsed) = obs.timed(names::SPAN_EPOCH, || pass(&mut epoch));
    let epoch_pairs = epoch.report.pairs() - pairs_before;
    obs.counter(names::FINETUNE_PAIRS).add(epoch_pairs);
    let secs = elapsed.as_secs_f64();
    obs.gauge(names::FINETUNE_EPOCH_SECS).set(secs);
    if epoch_pairs > 0 {
        obs.gauge(names::FINETUNE_LOSS).set(epoch.loss / epoch_pairs as f64);
        if secs > 0.0 {
            obs.gauge(names::FINETUNE_PAIRS_PER_SEC).set(epoch_pairs as f64 / secs);
        }
    }
    let next = FinetuneResume {
        epochs_done: epoch.index + 1,
        rng: epoch.rng.state(),
        report: epoch.report,
    };
    (next, out)
}

impl FinetuneReport {
    /// Pairs evaluated: updated either way, or found satisfied.
    fn pairs(&self) -> u64 {
        self.positive_updates + self.negative_updates + self.satisfied
    }
}

/// One fine-tuning epoch in flight: its index (which rotates the negative
/// budget), the mining RNG, the running report and the epoch's hinge
/// loss.
pub(crate) struct Epoch {
    index: usize,
    rng: StdRng,
    report: FinetuneReport,
    loss: f64,
}

impl Epoch {
    /// Tune on one weakly-labeled table.
    pub(crate) fn tune<E: TunableEmbedder + ?Sized>(
        &mut self,
        table: &Table,
        labels: &WeakLabels,
        embedder: &mut E,
        tokenizer: &Tokenizer,
        config: &FinetuneConfig,
    ) {
        let Self { index, rng, report, loss } = self;
        for axis in [Axis::Row, Axis::Column] {
            let meta = labels.metadata_indices(axis);
            let data = labels.data_indices(axis);
            let mut update = |i: usize, j: usize, positive: bool| {
                update_pair(table, axis, i, j, positive, config, embedder, tokenizer, report, loss)
            };
            // Positive: every metadata level pair (runs are ≤5 levels, so
            // this is at most 10 pairs). All-pairs rather than
            // consecutive-only matters for deep hierarchies: level 1 and
            // level 3 must also read as "both metadata".
            for a in 0..meta.len() {
                for b in a + 1..meta.len() {
                    update(meta[a], meta[b], true);
                }
            }
            // Positive: consecutive data levels (capped).
            for w in data.windows(2).take(config.max_data_pairs) {
                update(w[0], w[1], true);
            }
            // Negative: metadata vs random data levels (capped). The
            // starting metadata level rotates each epoch so a run deeper
            // than the budget still gets negative pressure on its tail
            // levels, and budget is only spent on pairs that actually
            // evaluate (blank/OOV levels no-op for free).
            if !data.is_empty() && !meta.is_empty() {
                let mut budget = config.max_neg_pairs;
                for k in 0..meta.len() {
                    if budget == 0 {
                        break;
                    }
                    let m = meta[(k + *index) % meta.len()];
                    let d = data[rng.random_range(0..data.len())];
                    if update(m, d, false) {
                        budget -= 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::BootstrapLabeler;
    use std::collections::HashMap;
    use tabmeta_embed::TermEmbedder;
    use tabmeta_linalg::angle_degrees;

    #[derive(Clone)]
    struct MapEmbedder {
        map: HashMap<String, Vec<f32>>,
    }

    impl TermEmbedder for MapEmbedder {
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

    impl TunableEmbedder for MapEmbedder {
        fn apply_gradient(&mut self, term: &str, grad: &[f32]) {
            if let Some(v) = self.map.get_mut(term) {
                tabmeta_linalg::add_assign(v, grad);
            }
        }
    }

    /// Embedder where header and data terms start only ~40° apart —
    /// a weak separation fine-tuning should widen.
    fn weakly_separated() -> MapEmbedder {
        let mut map = HashMap::new();
        map.insert("age".into(), vec![1.0, 0.6, 0.0]);
        map.insert("sex".into(), vec![1.0, 0.5, 0.1]);
        map.insert("<int>".into(), vec![0.6, 1.0, 0.0]);
        map.insert("<bigint>".into(), vec![0.5, 1.0, 0.1]);
        MapEmbedder { map }
    }

    fn tables() -> Vec<Table> {
        (0..8u64)
            .map(|id| {
                Table::from_strings(id, &[&["age", "sex"], &["1", "14,373"], &["2", "9,201"]])
            })
            .collect()
    }

    #[test]
    fn finetuning_widens_meta_data_angle() {
        let tables = tables();
        let labeler = BootstrapLabeler::default();
        let weak: Vec<WeakLabels> = tables.iter().map(|t| labeler.label(t)).collect();
        let mut e = weakly_separated();
        let tok = Tokenizer::default();

        let header = e.aggregate(["age", "sex"]).unwrap();
        let data = e.aggregate(["<int>", "<bigint>"]).unwrap();
        let before = angle_degrees(&header, &data);

        let config = FinetuneConfig { epochs: 6, learning_rate: 0.1, ..Default::default() };
        let report = run(&tables, &weak, &mut e, &tok, &config);
        assert!(report.negative_updates > 0, "negative pairs should fire: {report:?}");

        let header = e.aggregate(["age", "sex"]).unwrap();
        let data = e.aggregate(["<int>", "<bigint>"]).unwrap();
        let after = angle_degrees(&header, &data);
        assert!(
            after > before + 5.0,
            "fine-tuning should widen the metadata↔data angle: {before:.1}° → {after:.1}°"
        );
    }

    #[test]
    fn satisfied_pairs_are_skipped() {
        let tables = tables();
        let labeler = BootstrapLabeler::default();
        let weak: Vec<WeakLabels> = tables.iter().map(|t| labeler.label(t)).collect();
        let mut e = weakly_separated();
        // Margins nobody can violate: positives always satisfied (180°
        // margin), negatives always satisfied (0° margin).
        let config = FinetuneConfig {
            epochs: 1,
            positive_margin_deg: 180.0,
            negative_margin_deg: 0.0,
            ..Default::default()
        };
        let before = e.clone();
        let report = run(&tables, &weak, &mut e, &Tokenizer::default(), &config);
        assert_eq!(report.positive_updates + report.negative_updates, 0);
        assert!(report.satisfied > 0);
        assert_eq!(e.map.get("age"), before.map.get("age"), "no update may occur");
    }

    #[test]
    fn oov_metadata_levels_do_not_consume_negative_budget() {
        use crate::bootstrap::WeakLabel;
        // First metadata row is entirely OOV: its level vector is None and
        // `update_pair` no-ops. The budget must survive for the second,
        // in-vocab metadata level (this regressed: budget was spent on the
        // no-op and negatives never fired).
        let table = Table::from_strings(0, &[&["zzz", "qqq"], &["age", "sex"], &["1", "14,373"]]);
        let weak = WeakLabels {
            rows: vec![WeakLabel::Metadata, WeakLabel::Metadata, WeakLabel::Data],
            columns: vec![WeakLabel::Unknown, WeakLabel::Unknown],
            from_markup: true,
        };
        let mut e = weakly_separated();
        let config = FinetuneConfig { epochs: 1, max_neg_pairs: 1, ..Default::default() };
        let report = run(&[table], &[weak], &mut e, &Tokenizer::default(), &config);
        assert!(
            report.negative_updates > 0,
            "in-vocab metadata level must still get negative pressure: {report:?}"
        );
    }

    #[test]
    fn negative_mining_rotates_across_epochs() {
        use crate::bootstrap::WeakLabel;
        // Two metadata levels, budget of one negative pair per epoch.
        // Rotation must give each level an update across two epochs; the
        // old code always spent the budget on level 0.
        let table = Table::from_strings(0, &[&["age"], &["sex"], &["1"]]);
        let weak = WeakLabels {
            rows: vec![WeakLabel::Metadata, WeakLabel::Metadata, WeakLabel::Data],
            columns: vec![WeakLabel::Unknown],
            from_markup: true,
        };
        let mut e = weakly_separated();
        let before = e.clone();
        let config = FinetuneConfig {
            epochs: 2,
            max_neg_pairs: 1,
            // Positives never fire, negatives always do.
            positive_margin_deg: 180.0,
            negative_margin_deg: 180.0,
            ..Default::default()
        };
        let report = run(&[table], &[weak], &mut e, &Tokenizer::default(), &config);
        assert_eq!(report.negative_updates, 2, "{report:?}");
        assert_ne!(e.map.get("age"), before.map.get("age"), "epoch 0 updates level 1");
        assert_ne!(e.map.get("sex"), before.map.get("sex"), "epoch 1 rotates to level 2");
    }

    #[test]
    fn resumable_run_is_bit_identical() {
        use std::ops::ControlFlow;
        let tables = tables();
        let labeler = BootstrapLabeler::default();
        let weak: Vec<WeakLabels> = tables.iter().map(|t| labeler.label(t)).collect();
        let config = FinetuneConfig { epochs: 4, ..Default::default() };
        let tok = Tokenizer::default();
        let mut baseline = weakly_separated();
        let base_report = run(&tables, &weak, &mut baseline, &tok, &config);

        // Interrupt after epoch 2, then resume from the snapshot alone.
        let mut e = weakly_separated();
        let mut snap = None;
        let mut sink = |em: &MapEmbedder, s: &FinetuneResume| {
            if s.epochs_done == 2 {
                snap = Some((em.clone(), s.clone()));
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        };
        let (_, interrupted) =
            run_resumable(&tables, &weak, &mut e, &tok, &config, None, Some(&mut sink));
        assert!(interrupted);
        let (mut resumed, state) = snap.unwrap();
        let (report, interrupted) =
            run_resumable(&tables, &weak, &mut resumed, &tok, &config, Some(state), None);
        assert!(!interrupted);
        assert_eq!(report, base_report);
        assert_eq!(resumed.map, baseline.map, "resume must be bit-identical");
    }

    #[test]
    fn cosine_gradient_direction_is_correct() {
        // Moving A along the gradient must increase cos(A, B).
        let a = vec![1.0f32, 0.2, 0.0];
        let b = vec![0.0f32, 1.0, 0.0];
        let cos = cosine_similarity(&a, &b);
        let g = cosine_grad_wrt_a(&a, &b, cos);
        let mut a2 = a.clone();
        tabmeta_linalg::axpy(0.01, &g, &mut a2);
        assert!(cosine_similarity(&a2, &b) > cos);
    }

    #[test]
    fn zero_vectors_produce_zero_gradient() {
        let g = cosine_grad_wrt_a(&[0.0, 0.0], &[1.0, 0.0], 0.0);
        assert_eq!(g, vec![0.0, 0.0]);
    }

    #[test]
    fn report_is_deterministic() {
        let tables = tables();
        let labeler = BootstrapLabeler::default();
        let weak: Vec<WeakLabels> = tables.iter().map(|t| labeler.label(t)).collect();
        let config = FinetuneConfig::default();
        let run_once = || {
            let mut e = weakly_separated();
            run(&tables, &weak, &mut e, &Tokenizer::default(), &config)
        };
        assert_eq!(run_once(), run_once());
    }
}
