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
//!
//! Each table is tokenized once per epoch, at its first pair, into an
//! `aggregate::TermIndex`; every pair of the table reads its two level
//! vectors and writes its two gradients through that index's term ids, in
//! the order the direct path
//! ([`level_vector`](crate::aggregate::level_vector),
//! [`level_terms`](crate::aggregate::level_terms)) would.

use crate::aggregate::TermIndex;
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

/// The update of a pair whose margin does not hold yet: its direction
/// (`+1` pulls the pair together, `-1` pushes it apart) and the cosine
/// gradients on its two aggregates.
struct Step {
    sign: f32,
    grads: [Vec<f32>; 2],
}

/// The contrastive step on one evaluated pair's aggregates `a` and `b`:
/// the pair's hinge loss (degrees past its margin; zero when satisfied)
/// and its [`Step`], `None` when the margin already holds.
fn contrast(a: &[f32], b: &[f32], positive: bool, config: &FinetuneConfig) -> (f32, Option<Step>) {
    let cos = cosine_similarity(a, b);
    let angle = cos.acos().to_degrees();
    let (hinge, satisfied, sign) = if positive {
        ((angle - config.positive_margin_deg).max(0.0), angle <= config.positive_margin_deg, 1.0)
    } else {
        ((config.negative_margin_deg - angle).max(0.0), angle >= config.negative_margin_deg, -1.0)
    };
    if satisfied {
        return (hinge, None);
    }
    (
        hinge,
        Some(Step { sign, grads: [cosine_grad_wrt_a(a, b, cos), cosine_grad_wrt_a(b, a, cos)] }),
    )
}

/// One pair update through the table's term index: move the aggregates'
/// constituent terms so the pair's cosine moves toward its target side of
/// the margin. Each level's step divides by its full token count,
/// embeddable or not, and goes to its embedding terms in level order
/// (CharGram's words share gram rows, so the order is part of the result).
///
/// Returns the pair's hinge loss and whether it updated, or `None` when a
/// level has no aggregate vector (blank/OOV) — callers budgeting pairs
/// must not spend budget on those.
fn update_pair<E: TunableEmbedder + ?Sized>(
    terms: &TermIndex,
    axis: Axis,
    i: usize,
    j: usize,
    positive: bool,
    config: &FinetuneConfig,
    embedder: &mut E,
) -> Option<(f32, bool)> {
    let a = terms.level_vector(axis, i, &*embedder)?;
    let b = terms.level_vector(axis, j, &*embedder)?;
    let (hinge, step) = contrast(&a, &b, positive, config);
    let updated = step.is_some();
    if let Some(Step { sign, grads }) = step {
        for (level, mut grad) in [i, j].into_iter().zip(grads) {
            let n = terms.level_tokens(axis, level);
            tabmeta_linalg::scale(&mut grad, sign * config.learning_rate / n as f32);
            terms.apply_gradient(axis, level, embedder, &grad);
        }
    }
    Some((hinge, updated))
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
    /// Tune on one weakly-labeled table. Its [`TermIndex`] is built at the
    /// first pair the epoch draws on it and serves every later one.
    pub(crate) fn tune<E: TunableEmbedder + ?Sized>(
        &mut self,
        table: &Table,
        labels: &WeakLabels,
        embedder: &mut E,
        tokenizer: &Tokenizer,
        config: &FinetuneConfig,
    ) {
        let mut terms = None;
        self.walk(labels, config, |axis, i, j, positive| {
            let terms = terms.get_or_insert_with(|| TermIndex::build(table, &*embedder, tokenizer));
            update_pair(terms, axis, i, j, positive, config, embedder)
        });
    }

    /// Draw this epoch's pairs on one table's weak labels, in order, and
    /// tally them: `pair(axis, i, j, positive)` evaluates one pair and
    /// returns its hinge loss and whether it updated, or `None` when it
    /// could not evaluate.
    fn walk(
        &mut self,
        labels: &WeakLabels,
        config: &FinetuneConfig,
        mut pair: impl FnMut(Axis, usize, usize, bool) -> Option<(f32, bool)>,
    ) {
        let Self { index, rng, report, loss } = self;
        for axis in [Axis::Row, Axis::Column] {
            let meta = labels.metadata_indices(axis);
            let data = labels.data_indices(axis);
            let mut update = |i: usize, j: usize, positive: bool| {
                let Some((hinge, updated)) = pair(axis, i, j, positive) else {
                    return false;
                };
                *loss += hinge as f64;
                match (updated, positive) {
                    (false, _) => report.satisfied += 1,
                    (true, true) => report.positive_updates += 1,
                    (true, false) => report.negative_updates += 1,
                }
                true
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

    /// The pair update before the term index: both level vectors and both
    /// levels' terms read straight from the table, every term's gradient
    /// applied by string. It shares [`contrast`] and [`Epoch::walk`] with
    /// [`update_pair`], so a difference between the two runs lies in how
    /// the index reads and writes term vectors.
    #[allow(clippy::too_many_arguments)]
    fn direct_update_pair<E: TunableEmbedder + ?Sized>(
        table: &Table,
        axis: Axis,
        i: usize,
        j: usize,
        positive: bool,
        config: &FinetuneConfig,
        embedder: &mut E,
        tokenizer: &Tokenizer,
    ) -> Option<(f32, bool)> {
        use crate::aggregate::{level_terms, level_vector};
        let (Some(a), Some(b)) = (
            level_vector(table, axis, i, &*embedder, tokenizer),
            level_vector(table, axis, j, &*embedder, tokenizer),
        ) else {
            return None;
        };
        let (hinge, step) = contrast(&a, &b, positive, config);
        let updated = step.is_some();
        if let Some(Step { sign, grads }) = step {
            for (level, mut grad) in [i, j].into_iter().zip(grads) {
                let terms = level_terms(table, axis, level, tokenizer);
                if terms.is_empty() {
                    continue;
                }
                tabmeta_linalg::scale(&mut grad, sign * config.learning_rate / terms.len() as f32);
                for term in &terms {
                    embedder.apply_gradient(term, &grad);
                }
            }
        }
        Some((hinge, updated))
    }

    /// [`run`] with [`direct_update_pair`] in place of the indexed update.
    fn direct_run<E: TunableEmbedder + ?Sized>(
        tables: &[Table],
        weak: &[WeakLabels],
        embedder: &mut E,
        tokenizer: &Tokenizer,
        config: &FinetuneConfig,
    ) -> FinetuneReport {
        let mut state = FinetuneResume::fresh(config);
        while state.epochs_done < config.epochs {
            state = epoch(state, |epoch| {
                for (table, labels) in tables.iter().zip(weak) {
                    epoch.walk(labels, config, |axis, i, j, positive| {
                        direct_update_pair(table, axis, i, j, positive, config, embedder, tokenizer)
                    });
                }
            })
            .0;
        }
        state.report
    }

    /// Words the models below never train on: Word2Vec cannot embed them,
    /// CharGram composes them from grams.
    const UNSEEN: [&str; 3] = ["zymurgy", "quokka", "xylophonist"];

    /// Tables with what the generated corpora lack at fine-tune time:
    /// blank cells, null markers, a non-blank cell with no token, words
    /// outside the vocabulary (one metadata row holds nothing else), a term
    /// repeated within one level, multi-token and numeric cells.
    fn edge_tables() -> (Vec<Table>, Vec<WeakLabels>) {
        use crate::bootstrap::WeakLabel::{Data, Metadata};
        let tables = vec![
            Table::from_strings(
                1,
                &[
                    &["age group", "age", "sex by age", "zymurgy"],
                    &["total population", "", "n/a", "population count"],
                    &["1,204", "3.5%", "-", "12"],
                    &["2,411", "( )", "17", "quokka 4"],
                    &["", "9.1%", "33", "1,020,331"],
                    &["total", "12.0%", "n/a", "7"],
                ],
            ),
            Table::from_strings(
                2,
                &[
                    &["zymurgy", "quokka xylophonist", "-", ""],
                    &["region", "popular vote", "population", "totals"],
                    &["north", "41.2%", "1,204", "total 3"],
                    &["south", "n/a", "2,411", "88"],
                    &["east east", "12.5%", "", "-"],
                ],
            ),
        ];
        let weak = vec![
            WeakLabels {
                rows: vec![Metadata, Metadata, Data, Data, Data, Data],
                columns: vec![Metadata, Metadata, Data, Data],
                from_markup: true,
            },
            WeakLabels {
                rows: vec![Metadata, Metadata, Data, Data, Data],
                columns: vec![Metadata, Data, Data, Data],
                from_markup: true,
            },
        ];
        (tables, weak)
    }

    /// Training sentences: every row and column of the edge tables, less
    /// the unseen words.
    fn edge_sentences(tables: &[Table], tok: &Tokenizer) -> Vec<Vec<String>> {
        let mut out = Vec::new();
        for _ in 0..20 {
            for table in tables {
                for axis in [Axis::Row, Axis::Column] {
                    for i in 0..table.n_levels(axis) {
                        let terms: Vec<String> = table
                            .level_texts(axis, i)
                            .iter()
                            .flat_map(|text| tok.terms(text))
                            .filter(|t| !UNSEEN.contains(&t.as_str()))
                            .collect();
                        out.push(terms);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn indexed_run_matches_the_direct_pair_update_bit_for_bit() {
        use tabmeta_embed::{CharGram, CharGramConfig, SgnsConfig, Word2Vec};
        let tok = Tokenizer::default();
        let (tables, weak) = edge_tables();
        let sentences = edge_sentences(&tables, &tok);
        let config = FinetuneConfig { epochs: 5, ..Default::default() };

        fn check<E: TunableEmbedder + Clone>(
            name: &str,
            model: E,
            tables: &[Table],
            weak: &[WeakLabels],
            tok: &Tokenizer,
            config: &FinetuneConfig,
            to_json: impl Fn(&E) -> String,
        ) {
            let (mut indexed, mut direct) = (model.clone(), model.clone());
            let report = run(tables, weak, &mut indexed, tok, config);
            let direct_report = direct_run(tables, weak, &mut direct, tok, config);
            assert_eq!(report, direct_report, "{name}");
            assert!(
                report.positive_updates > 0 && report.negative_updates > 0,
                "{name}: {report:?}"
            );
            assert_ne!(to_json(&indexed), to_json(&model), "{name}: fine-tuning moved nothing");
            assert!(to_json(&indexed) == to_json(&direct), "{name}: tuned models differ");
        }

        let w2v = Word2Vec::train(&sentences, SgnsConfig::tiny(31)).0;
        for word in UNSEEN {
            assert!(!w2v.embeds(word), "{word} must be out of Word2Vec's vocabulary");
        }
        check("word2vec", w2v, &tables, &weak, &tok, &config, Word2Vec::to_json);

        let chargram = CharGram::train(&sentences, CharGramConfig::tiny(32)).0;
        for word in UNSEEN {
            assert!(
                chargram.term_id(word).is_none() && chargram.embeds(word),
                "{word} must compose from CharGram's grams"
            );
        }
        check("chargram", chargram, &tables, &weak, &tok, &config, CharGram::to_json);
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
