//! Skip-gram-with-negative-sampling training, written once for both
//! embedding models.
//!
//! Given sentences of term ids, one pair update takes a `(center,
//! context)` pair plus `k` negatives and performs the classic SGD update:
//!
//! ```text
//!   g = (label − σ(v_in · v_out)) · lr
//!   v_out += g · v_in;   accumulated_grad += g · v_out_old
//! ```
//!
//! then hands the accumulated gradient back to the center's input side.
//! The sigmoid is looked up from a precomputed table (word2vec's standard
//! trick); the learning rate decays linearly over the full training run.
//!
//! Word2Vec and CharGram share one pair update, one epoch loop around it
//! and one resumable driver. The code is generic over two things:
//!
//! * **The model's input side.** For Word2Vec a center's input vector is
//!   its input row. For CharGram it is the mean of the word row and the
//!   word's gram rows, and each of those rows gets `grad / (1 + n)` back.
//! * **Row storage.** Plain [`Matrix`] rows, updated with the slice
//!   kernels, or the relaxed-atomic rows of a [`HogwildView`].
//!
//! Training parallelism is governed by [`SgnsConfig::threads`]:
//!
//! * `threads = 1` (the default) runs the epoch loop on plain rows — one
//!   RNG stream, bit-identical embeddings for a given seed, which is what
//!   every determinism test pins.
//! * `threads > 1` runs lock-free **Hogwild** SGD (Recht et al.; the
//!   word2vec.c threading model): sentences are sharded across workers,
//!   each worker runs the same epoch loop with its own RNG stream
//!   (`seed ⊕ worker_id`) and its own learning-rate decay over its shard,
//!   and all workers update the shared matrices through [`HogwildView`]
//!   rows. Updates may race and occasionally lose a write — the Hogwild
//!   trade-off, which lets workers share rows without locks at a small,
//!   bounded accuracy cost (see DESIGN.md). It has not bought a speed-up
//!   where measured: on a 2-vCPU host, two threads trained Word2Vec in
//!   3.23 s against 2.56 s at one thread, and CharGram in 4.05 s against
//!   2.80 s.
//!
//! Both storages stay. Only the atomic rows can be shared between
//! workers, and one shard through them trains the plain rows' exact
//! bytes: worker 0 draws the sequential stream, and a row read through
//! the view is scored with the same [`tabmeta_linalg::dot`]. But relaxed
//! atomics cost about twice the time at one thread. On classify_bulk's
//! 600-table training mix at dim 48 (medians of 5 trainings, three
//! processes a side, 2-vCPU host), Word2Vec took 1.2–1.5 s on plain rows
//! against 2.3–3.1 s on one Hogwild shard, and CharGram 1.4–1.5 s against
//! 3.0–5.1 s.

use crate::negative::NegativeTable;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use tabmeta_linalg::{HogwildView, Matrix};
use tabmeta_obs::names;
use tabmeta_text::Vocabulary;

/// Hyper-parameters of SGNS training.
///
/// Defaults follow §IV-C: window 3, `min_count` 1. The paper uses
/// dimensionality 300 for Word2Vec; tests and small corpora use less (the
/// paper itself reports no gain beyond 300, and below ~64 the angle ranges
/// merely widen).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SgnsConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Context window radius (paper: 3 before and after the target).
    pub window: usize,
    /// Negative samples per positive pair.
    pub negative: usize,
    /// Initial learning rate (decays linearly to 1e-4 of itself).
    pub learning_rate: f32,
    /// Training epochs over the sentence set.
    pub epochs: usize,
    /// Minimum term count for vocabulary inclusion (paper: 1).
    pub min_count: u64,
    /// RNG seed — all sampling derives from it.
    pub seed: u64,
    /// Worker threads for training. `1` (default) is the sequential,
    /// bit-deterministic path; `>1` enables Hogwild sharding, where the
    /// result depends on update interleaving and is only statistically
    /// reproducible.
    pub threads: usize,
}

impl Default for SgnsConfig {
    fn default() -> Self {
        Self {
            dim: 300,
            window: 3,
            negative: 5,
            learning_rate: 0.025,
            epochs: 5,
            min_count: 1,
            seed: 0x7ab_3e7a,
            threads: 1,
        }
    }
}

impl SgnsConfig {
    /// A small, fast configuration for tests and examples.
    pub fn tiny(seed: u64) -> Self {
        Self { dim: 32, epochs: 3, seed, ..Self::default() }
    }
}

/// Precomputed logistic sigmoid over `[-MAX_EXP, MAX_EXP]`.
#[derive(Debug, Clone)]
pub struct SigmoidTable {
    table: Vec<f32>,
}

impl SigmoidTable {
    const MAX_EXP: f32 = 6.0;
    const SIZE: usize = 1024;

    /// Build the lookup table.
    pub fn new() -> Self {
        let table = (0..Self::SIZE)
            .map(|i| {
                let x = (i as f32 / Self::SIZE as f32 * 2.0 - 1.0) * Self::MAX_EXP;
                1.0 / (1.0 + (-x).exp())
            })
            .collect();
        Self { table }
    }

    /// σ(x), saturating outside ±6.
    #[inline]
    pub fn get(&self, x: f32) -> f32 {
        if x >= Self::MAX_EXP {
            1.0
        } else if x <= -Self::MAX_EXP {
            0.0
        } else {
            let idx = ((x + Self::MAX_EXP) / (2.0 * Self::MAX_EXP) * Self::SIZE as f32) as usize;
            self.table[idx.min(Self::SIZE - 1)]
        }
    }
}

impl Default for SigmoidTable {
    fn default() -> Self {
        Self::new()
    }
}

/// Loop state of an SGNS run at an epoch boundary: everything the epoch
/// loop needs (besides the matrices themselves) to continue a run exactly
/// where it stopped. Serialized into training checkpoints; handing it
/// back to either embedder's `train_resumable` continues the identical
/// RNG stream and learning-rate schedule, so a resumed `threads = 1` run
/// is bit-identical to an uninterrupted one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SgnsResume {
    /// Epochs fully completed.
    pub epochs_done: usize,
    /// xoshiro256++ state of the training RNG at the boundary.
    pub rng: [u64; 4],
    /// Tokens processed so far (drives the linear lr decay).
    pub processed: u64,
    /// (center, context) pairs processed so far.
    pub pairs: u64,
    /// Learning rate after the last completed epoch.
    pub lr: f32,
}

impl SgnsResume {
    /// The loop state of a run that has not started yet: the seed-derived
    /// RNG at its origin, zero work done, undecayed learning rate.
    pub fn fresh(config: &SgnsConfig) -> Self {
        Self {
            epochs_done: 0,
            rng: StdRng::seed_from_u64(config.seed).state(),
            processed: 0,
            pairs: 0,
            lr: config.learning_rate,
        }
    }
}

/// Per-epoch observer for resumable training: called with the model and
/// its loop state after every completed epoch. Returning
/// [`std::ops::ControlFlow::Break`] stops training at that boundary
/// (cooperative cancellation; the crash-injection harness uses it to
/// simulate dying right after a checkpoint write).
pub type EpochSink<'s, M> = &'s mut dyn FnMut(&M, &SgnsResume) -> std::ops::ControlFlow<()>;

/// Progress statistics of an SGNS run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TrainReport {
    /// Total (center, context) pairs processed.
    pub pairs: u64,
    /// Final learning rate after decay.
    pub final_lr: f32,
}

/// The context positions of the center at `pos` in a sentence of `len`
/// tokens, under word2vec's dynamic window: one radius drawn from
/// `1..=window` per center, then every position within it but `pos`,
/// in order. The draw happens before the first position is yielded, so
/// the caller may sample negatives from `rng` between positions.
pub(crate) fn context_positions(
    rng: &mut StdRng,
    window: usize,
    pos: usize,
    len: usize,
) -> impl Iterator<Item = usize> {
    let reduced = rng.random_range(1..=window);
    let lo = pos.saturating_sub(reduced);
    let hi = (pos + reduced).min(len - 1);
    (lo..=hi).filter(move |&ctx_pos| ctx_pos != pos)
}

/// Row storage the pair update reads and writes: plain [`Matrix`] rows
/// on one thread, shared [`HogwildView`] rows on many.
pub(crate) trait Rows {
    /// Row `i`, borrowed in place or copied into `scratch`.
    fn row<'s>(&'s self, i: usize, scratch: &'s mut [f32]) -> &'s [f32];
    /// `out = row i`.
    fn read(&self, i: usize, out: &mut [f32]);
    /// `out += row i`.
    fn add_to(&self, i: usize, out: &mut [f32]);
    /// `row i += alpha · x`.
    fn axpy(&mut self, i: usize, alpha: f32, x: &[f32]);
    /// `row i += x`.
    fn add(&mut self, i: usize, x: &[f32]);
}

impl Rows for Matrix {
    #[inline]
    fn row<'s>(&'s self, i: usize, _scratch: &'s mut [f32]) -> &'s [f32] {
        Matrix::row(self, i)
    }
    #[inline]
    fn read(&self, i: usize, out: &mut [f32]) {
        out.copy_from_slice(Matrix::row(self, i));
    }
    #[inline]
    fn add_to(&self, i: usize, out: &mut [f32]) {
        tabmeta_linalg::add_assign(out, Matrix::row(self, i));
    }
    #[inline]
    fn axpy(&mut self, i: usize, alpha: f32, x: &[f32]) {
        tabmeta_linalg::axpy(alpha, x, self.row_mut(i));
    }
    #[inline]
    fn add(&mut self, i: usize, x: &[f32]) {
        tabmeta_linalg::add_assign(self.row_mut(i), x);
    }
}

/// Each Hogwild worker holds its own copy of the view; every write is a
/// relaxed read-add-store per element inside `tabmeta_linalg`.
impl Rows for HogwildView<'_> {
    #[inline]
    fn row<'s>(&'s self, i: usize, scratch: &'s mut [f32]) -> &'s [f32] {
        self.read_row(i, scratch);
        scratch
    }
    #[inline]
    fn read(&self, i: usize, out: &mut [f32]) {
        self.read_row(i, out);
    }
    #[inline]
    fn add_to(&self, i: usize, out: &mut [f32]) {
        self.accumulate_row(i, out);
    }
    #[inline]
    fn axpy(&mut self, i: usize, alpha: f32, x: &[f32]) {
        self.update_row(i, alpha, x);
    }
    #[inline]
    fn add(&mut self, i: usize, x: &[f32]) {
        self.update_row(i, 1.0, x);
    }
}

/// Borrowed plain rows, for an input side made of several matrices.
impl<R: Rows> Rows for &mut R {
    fn row<'s>(&'s self, i: usize, scratch: &'s mut [f32]) -> &'s [f32] {
        (**self).row(i, scratch)
    }
    fn read(&self, i: usize, out: &mut [f32]) {
        (**self).read(i, out);
    }
    fn add_to(&self, i: usize, out: &mut [f32]) {
        (**self).add_to(i, out);
    }
    fn axpy(&mut self, i: usize, alpha: f32, x: &[f32]) {
        (**self).axpy(i, alpha, x);
    }
    fn add(&mut self, i: usize, x: &[f32]) {
        (**self).add(i, x);
    }
}

/// The input side of an SGNS model: how a center word's input vector is
/// composed from stored rows, and how its accumulated gradient flows back.
pub(crate) trait InputSide {
    /// The input vector of `center`, borrowed in place or composed into
    /// `scratch`.
    fn compose<'s>(&'s self, center: usize, scratch: &'s mut [f32]) -> &'s [f32];
    /// Apply `grad`, the gradient accumulated on `center`'s input vector.
    /// May scale `grad` in place.
    fn spread(&mut self, center: usize, grad: &mut [f32]);
}

/// One row per word: Word2Vec's input matrix.
impl<R: Rows> InputSide for R {
    fn compose<'s>(&'s self, center: usize, scratch: &'s mut [f32]) -> &'s [f32] {
        self.row(center, scratch)
    }
    fn spread(&mut self, center: usize, grad: &mut [f32]) {
        self.add(center, grad);
    }
}

/// A model the shared driver trains: its hyper-parameters and vocabulary,
/// and its input side and output rows handed to the epoch loop as plain
/// rows, or to Hogwild as shared views.
pub(crate) trait SgnsModel {
    /// The SGNS hyper-parameters the model was built with.
    fn sgns_config(&self) -> &SgnsConfig;
    /// The vocabulary negatives are drawn from.
    fn vocab(&self) -> &Vocabulary;
    /// One epoch on the model's plain rows ([`SgnsRun::epoch`]).
    fn epoch(&mut self, run: &SgnsRun, sentences: &[Vec<u32>], st: &mut SgnsResume);
    /// The whole stage on views of the model's rows ([`SgnsRun::hogwild`]).
    fn hogwild(&mut self, run: &SgnsRun, sentences: &[Vec<u32>]) -> TrainReport;
}

/// What every pair update of one training run reads: the
/// hyper-parameters, the negative-sampling table and the sigmoid table.
pub(crate) struct SgnsRun {
    config: SgnsConfig,
    negatives: NegativeTable,
    sigmoid: SigmoidTable,
}

/// The RNG stream and row buffers one epoch loop threads through its pair
/// updates.
struct Scratch {
    rng: StdRng,
    v_in: Vec<f32>,
    v_out: Vec<f32>,
    grad: Vec<f32>,
}

impl SgnsRun {
    /// The constants of a run over `vocab`.
    pub(crate) fn new(config: &SgnsConfig, vocab: &Vocabulary) -> Self {
        Self {
            config: config.clone(),
            negatives: NegativeTable::build(vocab, NegativeTable::DEFAULT_SIZE.min(1 << 18)),
            sigmoid: SigmoidTable::new(),
        }
    }

    /// One epoch over `sentences`, advancing `st` (RNG stream, decay,
    /// counters) in place. An empty sentence set still advances the epoch
    /// counter so zero-work runs terminate.
    pub(crate) fn epoch<I: InputSide, R: Rows>(
        &self,
        sentences: &[Vec<u32>],
        input: &mut I,
        output: &mut R,
        st: &mut SgnsResume,
    ) {
        let config = &self.config;
        let total_tokens: u64 = sentences.iter().map(|s| s.len() as u64).sum();
        let total_work = (total_tokens * config.epochs as u64).max(1);
        let mut scratch = Scratch {
            rng: StdRng::from_state(st.rng),
            v_in: vec![0.0; config.dim],
            v_out: vec![0.0; config.dim],
            grad: vec![0.0; config.dim],
        };
        for sentence in sentences {
            for (pos, &center) in sentence.iter().enumerate() {
                st.processed += 1;
                // Linear decay with the standard floor.
                st.lr = config.learning_rate
                    * (1.0 - st.processed as f32 / total_work as f32).max(1e-4);
                for ctx_pos in
                    context_positions(&mut scratch.rng, config.window, pos, sentence.len())
                {
                    st.pairs += 1;
                    let context = sentence[ctx_pos] as usize;
                    self.pair(input, output, center as usize, context, st.lr, &mut scratch);
                }
            }
        }
        st.rng = scratch.rng.state();
        st.epochs_done += 1;
    }

    /// One pair update: the positive `context` (label 1), then `negative`
    /// sampled words (label 0, skipping a draw of `context` itself), each
    /// scored against `center`'s input vector. Every output row steps by
    /// `g · v_in` while `g · v_out_old` accumulates into the input
    /// gradient, which the input side receives last.
    fn pair<I: InputSide, R: Rows>(
        &self,
        input: &mut I,
        output: &mut R,
        center: usize,
        context: usize,
        lr: f32,
        scratch: &mut Scratch,
    ) {
        let Scratch { rng, v_in, v_out, grad } = scratch;
        grad.fill(0.0);
        let v_in = input.compose(center, v_in);
        let mut step = |target: usize, label: f32| {
            let v_out = output.row(target, v_out);
            let g = (label - self.sigmoid.get(tabmeta_linalg::dot(v_in, v_out))) * lr;
            tabmeta_linalg::axpy(g, v_out, grad);
            output.axpy(target, g, v_in);
        };
        step(context, 1.0);
        for _ in 0..self.config.negative {
            let neg = self.negatives.sample(rng) as usize;
            if neg != context {
                step(neg, 0.0);
            }
        }
        input.spread(center, grad);
    }

    /// The whole stage as Hogwild SGD: `sentences` split into one
    /// contiguous shard per thread, each worker running the epoch loop on
    /// its own copy of the shared views, with its own RNG stream
    /// (`seed ⊕ worker_id`, so worker 0 of a one-shard run draws the
    /// sequential stream) and its own decay over shard-local work.
    pub(crate) fn hogwild<I, R>(&self, sentences: &[Vec<u32>], input: I, output: R) -> TrainReport
    where
        I: InputSide + Copy + Sync,
        R: Rows + Copy + Sync,
    {
        let config = &self.config;
        let chunk = sentences.len().div_ceil(config.threads).max(1);
        let shards: Vec<(u64, &[Vec<u32>])> =
            sentences.chunks(chunk).enumerate().map(|(w, s)| (w as u64, s)).collect();
        let reports: Vec<TrainReport> = shards
            .par_iter()
            .map(|&(worker, shard)| {
                let (mut input, mut output) = (input, output);
                let mut st = SgnsResume {
                    rng: StdRng::seed_from_u64(config.seed ^ worker).state(),
                    ..SgnsResume::fresh(config)
                };
                while st.epochs_done < config.epochs {
                    self.epoch(shard, &mut input, &mut output, &mut st);
                }
                TrainReport { pairs: st.pairs, final_lr: st.lr }
            })
            .collect();
        let pairs = reports.iter().map(|r| r.pairs).sum();
        // Workers decay independently; report the deepest decay reached.
        let final_lr = reports.iter().map(|r| r.final_lr).fold(config.learning_rate, f32::min);
        TrainReport { pairs, final_lr }
    }
}

/// The one resumable SGNS driver behind both embedders'
/// `train_encoded_resumable`. It starts from `resume`, or from `fresh()`
/// and a fresh [`SgnsResume`]; returns early on an empty corpus; builds
/// the negative table; then trains inside the `sgns` span. At
/// `threads > 1` with no epoch done yet, Hogwild runs the whole stage and
/// `sink` sees only its end (mid-stage interleaving state cannot be
/// snapshotted). Otherwise the epoch loop runs on plain rows and `sink`
/// sees every epoch, so a part-done resume at `threads > 1` finishes on
/// the deterministic loop. Returns `true` in the last slot when `sink`
/// broke out early; the model then holds the last completed epoch.
pub(crate) fn train_resumable<M: SgnsModel>(
    encoded: &[Vec<u32>],
    resume: Option<(M, SgnsResume)>,
    fresh: impl FnOnce() -> M,
    mut sink: Option<EpochSink<'_, M>>,
) -> (M, TrainReport, bool) {
    let (mut model, mut st) = resume.unwrap_or_else(|| {
        let model = fresh();
        let st = SgnsResume::fresh(model.sgns_config());
        (model, st)
    });
    if encoded.is_empty() || model.vocab().total_count() == 0 {
        return (model, TrainReport { pairs: st.pairs, final_lr: st.lr }, false);
    }
    let run = SgnsRun::new(model.sgns_config(), model.vocab());
    let config = &run.config;
    let obs = tabmeta_obs::global();
    let _span = obs.span(names::SPAN_SGNS);
    let pair_counter = obs.counter(names::SGNS_PAIRS);
    let lr_gauge = obs.gauge(names::SGNS_LR);

    if config.threads > 1 && st.epochs_done == 0 {
        let report = model.hogwild(&run, encoded);
        pair_counter.add(report.pairs);
        lr_gauge.set(report.final_lr as f64);
        let end = SgnsResume {
            epochs_done: config.epochs,
            pairs: report.pairs,
            lr: report.final_lr,
            ..SgnsResume::fresh(config)
        };
        let interrupted = sink.is_some_and(|sink| sink(&model, &end).is_break());
        return (model, report, interrupted);
    }

    let mut interrupted = false;
    while st.epochs_done < config.epochs && !interrupted {
        let pairs_before = st.pairs;
        {
            let _epoch = obs.span(names::SPAN_EPOCH);
            model.epoch(&run, encoded, &mut st);
        }
        pair_counter.add(st.pairs - pairs_before);
        lr_gauge.set(st.lr as f64);
        interrupted = sink.as_mut().is_some_and(|sink| sink(&model, &st).is_break());
    }
    (model, TrainReport { pairs: st.pairs, final_lr: st.lr }, interrupted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CharGram, CharGramConfig, VocabBuilder, Word2Vec};
    use std::ops::ControlFlow;

    #[test]
    fn sigmoid_table_matches_exact() {
        let s = SigmoidTable::new();
        for &x in &[-5.9f32, -2.0, -0.5, 0.0, 0.5, 2.0, 5.9] {
            let exact = 1.0 / (1.0 + (-x).exp());
            assert!((s.get(x) - exact).abs() < 0.01, "x={x}");
        }
        assert_eq!(s.get(100.0), 1.0);
        assert_eq!(s.get(-100.0), 0.0);
    }

    fn toy_setup() -> (Vocabulary, Vec<Vec<u32>>, SgnsConfig) {
        // Two "topics": {0,1} co-occur, {2,3} co-occur.
        let mut vocab = Vocabulary::new();
        for t in ["a", "b", "c", "d"] {
            vocab.add(t);
        }
        let mut sentences = Vec::new();
        for _ in 0..200 {
            sentences.push(vec![0u32, 1, 0, 1]);
            sentences.push(vec![2u32, 3, 2, 3]);
        }
        let config = SgnsConfig { dim: 16, epochs: 3, window: 2, ..SgnsConfig::tiny(11) };
        (vocab, sentences, config)
    }

    fn train_toy(config: &SgnsConfig) -> (Word2Vec, TrainReport) {
        let (vocab, sentences, _) = toy_setup();
        let (model, report, _) =
            Word2Vec::train_encoded_resumable(vocab, &sentences, config.clone(), None, None);
        (model, report)
    }

    fn assert_topics_separate(model: &Word2Vec) {
        let sim =
            |i: u32, j: u32| tabmeta_linalg::cosine_similarity(model.vector(i), model.vector(j));
        // Within-topic similarity must dominate cross-topic.
        assert!(sim(0, 1) > sim(0, 2), "a~b {} vs a~c {}", sim(0, 1), sim(0, 2));
        assert!(sim(2, 3) > sim(1, 3), "c~d {} vs b~d {}", sim(2, 3), sim(1, 3));
    }

    #[test]
    fn training_separates_topics() {
        let (_, _, config) = toy_setup();
        let (model, report) = train_toy(&config);
        assert!(report.pairs > 1_000, "too few pairs: {}", report.pairs);
        assert_topics_separate(&model);
    }

    #[test]
    fn training_is_deterministic() {
        let (_, _, config) = toy_setup();
        assert_eq!(
            train_toy(&config).0.to_json(),
            train_toy(&config).0.to_json(),
            "same seed must give identical embeddings"
        );
    }

    #[test]
    fn hogwild_training_separates_topics() {
        let (_, _, config) = toy_setup();
        let config = SgnsConfig { threads: 4, ..config };
        let (model, report) = train_toy(&config);
        assert!(report.pairs > 1_000, "too few pairs: {}", report.pairs);
        assert!(report.final_lr < config.learning_rate);
        assert_topics_separate(&model);
    }

    #[test]
    fn explicit_single_thread_matches_default_stream() {
        let (_, _, config) = toy_setup();
        let explicit = SgnsConfig { threads: 1, ..config.clone() };
        assert_eq!(
            train_toy(&config).0.to_json(),
            train_toy(&explicit).0.to_json(),
            "threads=1 must stay the sequential stream"
        );
    }

    #[test]
    fn epoch_resume_matches_uninterrupted() {
        let (vocab, sentences, config) = toy_setup();
        let (model_a, report_a) = train_toy(&config);
        // Run one epoch, snapshot, drop the run, rebuild from the snapshot
        // alone, finish.
        let mut snap = None;
        let mut sink = |m: &Word2Vec, s: &SgnsResume| {
            snap = Some((m.clone(), s.clone()));
            ControlFlow::Break(())
        };
        let (_, _, interrupted) = Word2Vec::train_encoded_resumable(
            vocab.clone(),
            &sentences,
            config.clone(),
            None,
            Some(&mut sink),
        );
        assert!(interrupted);
        assert_eq!(snap.as_ref().map(|(_, s)| s.epochs_done), Some(1));
        let (model_b, report_b, interrupted) =
            Word2Vec::train_encoded_resumable(vocab, &sentences, config, snap, None);
        assert!(!interrupted);
        assert_eq!(model_a.to_json(), model_b.to_json(), "resumed run must be bit-identical");
        assert_eq!(report_a, report_b);
    }

    #[test]
    fn epoch_terminates_on_empty_sentences() {
        let (vocab, _, config) = toy_setup();
        let run = SgnsRun::new(&config, &vocab);
        let mut input = Matrix::zeros(vocab.len(), config.dim);
        let mut output = Matrix::zeros(vocab.len(), config.dim);
        let mut st = SgnsResume::fresh(&config);
        let mut spins = 0;
        while st.epochs_done < config.epochs {
            run.epoch(&[], &mut input, &mut output, &mut st);
            spins += 1;
            assert!(spins <= config.epochs, "empty input must still advance epochs");
        }
        assert_eq!(st.pairs, 0);
    }

    #[test]
    fn learning_rate_decays() {
        let (_, _, config) = toy_setup();
        let (_, report) = train_toy(&config);
        assert!(report.final_lr < config.learning_rate);
        assert!(report.final_lr > 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_matrices_panic() {
        let (vocab, _, config) = toy_setup();
        let run = SgnsRun::new(&config, &vocab);
        let mut input = Matrix::zeros(vocab.len(), config.dim);
        let mut output = Matrix::zeros(vocab.len(), 2 * config.dim);
        let mut st = SgnsResume::fresh(&config);
        run.epoch(&[vec![0, 1]], &mut input, &mut output, &mut st);
    }

    /// One Hogwild shard over atomic rows trains the plain rows' bytes,
    /// for both input sides. Random sentences over 40 terms give enough
    /// distinct dot products that a storage summing in another order moves
    /// some sigmoid-table lookup, and with it the bytes.
    #[test]
    fn one_hogwild_shard_matches_plain_rows_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(5);
        let terms: Vec<String> = (0..40).map(|i| format!("term{i}")).collect();
        let sentences: Vec<Vec<String>> = (0..200)
            .map(|_| (0..8).map(|_| terms[rng.random_range(0..terms.len())].clone()).collect())
            .collect();
        let (vocab, encoded) = VocabBuilder::encode_all(&sentences, 1);
        // dim 18 leaves a tail after the 4-lane chunks of `dot`.
        let sgns = SgnsConfig { dim: 18, ..SgnsConfig::tiny(31) };
        let run = SgnsRun::new(&sgns, &vocab);

        let (plain, plain_report, _) =
            Word2Vec::train_encoded_resumable(vocab.clone(), &encoded, sgns.clone(), None, None);
        let mut shared = Word2Vec::fresh(vocab.clone(), sgns.clone());
        let shared_report = shared.hogwild(&run, &encoded);
        let word2vec = (shared.to_json() == plain.to_json(), shared_report == plain_report);

        let config = CharGramConfig { sgns, ..CharGramConfig::tiny(31) };
        let (plain, plain_report, _) =
            CharGram::train_encoded_resumable(vocab.clone(), &encoded, config.clone(), None, None);
        let mut shared = CharGram::fresh(vocab, config);
        let shared_report = shared.hogwild(&run, &encoded);
        let chargram = (shared.to_json() == plain.to_json(), shared_report == plain_report);

        // (bytes equal, report equal) for Word2Vec, then CharGram.
        assert_eq!((word2vec, chargram), ((true, true), (true, true)));
    }
}
