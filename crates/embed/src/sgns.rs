//! Skip-gram-with-negative-sampling training core, shared by both
//! embedding models.
//!
//! Given sentences of term ids, one training step takes a `(center,
//! context)` pair plus `k` negatives and performs the classic SGD update
//! on the input/output matrices:
//!
//! ```text
//!   g = (label − σ(v_in · v_out)) · lr
//!   v_out += g · v_in;   accumulated_grad += g · v_out_old
//! ```
//!
//! The sigmoid is looked up from a precomputed table (word2vec's standard
//! trick); the learning rate decays linearly over the full training run.
//!
//! Training parallelism is governed by [`SgnsConfig::threads`]:
//!
//! * `threads = 1` (the default) runs the fully deterministic sequential
//!   path — one RNG stream, bit-identical embeddings for a given seed,
//!   which is what every determinism test pins.
//! * `threads > 1` runs lock-free **Hogwild** SGD (Recht et al.; the
//!   word2vec.c threading model): sentences are sharded across workers,
//!   each worker draws from its own RNG stream (`seed ⊕ worker_id`) and
//!   decays its learning rate over its own shard, and all workers update
//!   the shared input/output matrices through relaxed-atomic rows
//!   ([`tabmeta_linalg::HogwildView`]). Updates may race and occasionally
//!   lose a write — the Hogwild trade-off that buys near-linear scaling
//!   at a small, bounded accuracy cost (see DESIGN.md).
// Grid construction walks coordinates; index loops are the clear form here.
#![allow(clippy::needless_range_loop)]

use crate::negative::NegativeTable;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use tabmeta_linalg::Matrix;

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

/// Loop state of an SGNS run at an epoch boundary: everything the
/// sequential path needs (besides the matrices themselves) to continue a
/// run exactly where it stopped. Serialized into training checkpoints;
/// restoring it via [`SgnsTrainer::resume`] continues the identical RNG
/// stream and learning-rate schedule, so a resumed `threads = 1` run is
/// bit-identical to an uninterrupted one.
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

/// The mutable state of one SGNS run over id-encoded sentences.
pub struct SgnsTrainer<'a> {
    config: &'a SgnsConfig,
    sigmoid: SigmoidTable,
    rng: StdRng,
    epochs_done: usize,
    processed: u64,
    pairs: u64,
    lr: f32,
}

/// Progress statistics reported by [`SgnsTrainer::train`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TrainReport {
    /// Total (center, context) pairs processed.
    pub pairs: u64,
    /// Final learning rate after decay.
    pub final_lr: f32,
}

impl<'a> SgnsTrainer<'a> {
    /// New trainer with the config's seed.
    pub fn new(config: &'a SgnsConfig) -> Self {
        Self {
            config,
            sigmoid: SigmoidTable::new(),
            rng: StdRng::seed_from_u64(config.seed),
            epochs_done: 0,
            processed: 0,
            pairs: 0,
            lr: config.learning_rate,
        }
    }

    /// Rebuild a trainer mid-run from a checkpointed [`SgnsResume`]. The
    /// caller must supply the same matrices the snapshot was taken against
    /// for the continuation to be meaningful.
    pub fn resume(config: &'a SgnsConfig, state: &SgnsResume) -> Self {
        Self {
            config,
            sigmoid: SigmoidTable::new(),
            rng: StdRng::from_state(state.rng),
            epochs_done: state.epochs_done,
            processed: state.processed,
            pairs: state.pairs,
            lr: state.lr,
        }
    }

    /// Snapshot the loop state (valid at epoch boundaries).
    pub fn state(&self) -> SgnsResume {
        SgnsResume {
            epochs_done: self.epochs_done,
            rng: self.rng.state(),
            processed: self.processed,
            pairs: self.pairs,
            lr: self.lr,
        }
    }

    /// Whether all configured epochs have run.
    pub fn is_complete(&self) -> bool {
        self.epochs_done >= self.config.epochs
    }

    /// Progress report for the epochs run so far.
    pub fn report(&self) -> TrainReport {
        TrainReport { pairs: self.pairs, final_lr: self.lr }
    }

    /// Run SGNS over `sentences` (term-id sequences), updating `input` and
    /// `output` matrices in place. `negatives` must be built over the same
    /// id space.
    pub fn train(
        &mut self,
        sentences: &[Vec<u32>],
        negatives: &NegativeTable,
        input: &mut Matrix,
        output: &mut Matrix,
    ) -> TrainReport {
        assert_eq!(input.dim(), output.dim(), "SGNS matrices must share dimensionality");
        use tabmeta_obs::names;
        tabmeta_obs::span!(names::SPAN_SGNS);
        let obs = tabmeta_obs::global();
        if self.config.threads > 1 {
            let report = self.train_hogwild(sentences, negatives, input, output);
            // Metrics are aggregated across workers and recorded once.
            obs.counter(names::SGNS_PAIRS).add(report.pairs);
            obs.gauge(names::SGNS_LR).set(report.final_lr as f64);
            return report;
        }
        while !self.is_complete() {
            self.run_epoch(sentences, negatives, input, output);
        }
        self.report()
    }

    /// Run exactly one epoch of the sequential deterministic path,
    /// advancing the trainer's RNG, decay, and counters. Callers that need
    /// per-epoch checkpoints drive this directly ([`SgnsTrainer::state`]
    /// between calls); [`SgnsTrainer::train`] loops it to completion.
    /// No-op once [`SgnsTrainer::is_complete`] — except that an empty
    /// sentence set still advances the epoch counter so zero-work runs
    /// terminate.
    pub fn run_epoch(
        &mut self,
        sentences: &[Vec<u32>],
        negatives: &NegativeTable,
        input: &mut Matrix,
        output: &mut Matrix,
    ) {
        assert_eq!(input.dim(), output.dim(), "SGNS matrices must share dimensionality");
        if self.is_complete() {
            return;
        }
        let obs = tabmeta_obs::global();
        let pair_counter = obs.counter(tabmeta_obs::names::SGNS_PAIRS);
        let lr_gauge = obs.gauge(tabmeta_obs::names::SGNS_LR);
        let _epoch_span = obs.span(tabmeta_obs::names::SPAN_EPOCH);
        let dim = input.dim();
        let total_tokens: u64 = sentences.iter().map(|s| s.len() as u64).sum();
        let total_work = (total_tokens * self.config.epochs as u64).max(1);
        let mut grad = vec![0.0f32; dim];
        let pairs_at_epoch_start = self.pairs;
        for sentence in sentences {
            for (pos, &center) in sentence.iter().enumerate() {
                self.processed += 1;
                // Linear decay with the standard floor.
                self.lr = self.config.learning_rate
                    * (1.0 - self.processed as f32 / total_work as f32).max(1e-4);
                for ctx_pos in
                    context_positions(&mut self.rng, self.config.window, pos, sentence.len())
                {
                    let context = sentence[ctx_pos];
                    self.pairs += 1;
                    let lr = self.lr;
                    self.step(center, context, negatives, input, output, lr, &mut grad);
                }
            }
        }
        self.epochs_done += 1;
        pair_counter.add(self.pairs - pairs_at_epoch_start);
        lr_gauge.set(self.lr as f64);
    }

    /// One positive pair plus `k` negative updates.
    #[allow(clippy::too_many_arguments)]
    fn step(
        &mut self,
        center: u32,
        context: u32,
        negatives: &NegativeTable,
        input: &mut Matrix,
        output: &mut Matrix,
        lr: f32,
        grad: &mut [f32],
    ) {
        grad.fill(0.0);
        let v_in = input.row(center as usize).to_vec();
        // Positive sample: label 1.
        {
            let v_out = output.row_mut(context as usize);
            let score = self.sigmoid.get(tabmeta_linalg::dot(&v_in, v_out));
            let g = (1.0 - score) * lr;
            tabmeta_linalg::axpy(g, v_out, grad);
            tabmeta_linalg::axpy(g, &v_in, v_out);
        }
        // Negative samples: label 0.
        for _ in 0..self.config.negative {
            let neg = negatives.sample(&mut self.rng);
            if neg == context {
                continue;
            }
            let v_out = output.row_mut(neg as usize);
            let score = self.sigmoid.get(tabmeta_linalg::dot(&v_in, v_out));
            let g = (0.0 - score) * lr;
            tabmeta_linalg::axpy(g, v_out, grad);
            tabmeta_linalg::axpy(g, &v_in, v_out);
        }
        tabmeta_linalg::add_assign(input.row_mut(center as usize), grad);
    }

    /// Hogwild data-parallel training: sentences are split into one
    /// contiguous shard per worker; each worker runs the same SGD loop as
    /// the sequential path with its own RNG stream (`seed ⊕ worker_id`,
    /// so worker 0 of a one-shard run reproduces the sequential stream)
    /// and its own linear learning-rate decay over shard-local work,
    /// while all workers write to the shared matrices through relaxed
    /// atomics ([`tabmeta_linalg::HogwildView`]).
    fn train_hogwild(
        &self,
        sentences: &[Vec<u32>],
        negatives: &NegativeTable,
        input: &mut Matrix,
        output: &mut Matrix,
    ) -> TrainReport {
        let config = self.config;
        let sigmoid = &self.sigmoid;
        let dim = input.dim();
        let chunk = sentences.len().div_ceil(config.threads).max(1);
        let shards: Vec<(u64, &[Vec<u32>])> =
            sentences.chunks(chunk).enumerate().map(|(w, s)| (w as u64, s)).collect();
        let in_view = input.hogwild();
        let out_view = output.hogwild();
        let reports: Vec<TrainReport> = shards
            .par_iter()
            .map(|&(worker, shard)| {
                let mut rng = StdRng::seed_from_u64(config.seed ^ worker);
                let shard_tokens: u64 = shard.iter().map(|s| s.len() as u64).sum();
                let total_work = (shard_tokens * config.epochs as u64).max(1);
                let mut processed: u64 = 0;
                let mut pairs: u64 = 0;
                let mut lr = config.learning_rate;
                let mut v_in = vec![0.0f32; dim];
                let mut v_out = vec![0.0f32; dim];
                let mut grad = vec![0.0f32; dim];
                for _epoch in 0..config.epochs {
                    for sentence in shard {
                        for (pos, &center) in sentence.iter().enumerate() {
                            processed += 1;
                            lr = config.learning_rate
                                * (1.0 - processed as f32 / total_work as f32).max(1e-4);
                            for ctx_pos in
                                context_positions(&mut rng, config.window, pos, sentence.len())
                            {
                                let context = sentence[ctx_pos] as usize;
                                pairs += 1;
                                grad.fill(0.0);
                                in_view.read_row(center as usize, &mut v_in);
                                // Positive sample: label 1.
                                out_view.read_row(context, &mut v_out);
                                let score = sigmoid.get(tabmeta_linalg::dot(&v_in, &v_out));
                                let g = (1.0 - score) * lr;
                                tabmeta_linalg::axpy(g, &v_out, &mut grad);
                                out_view.update_row(context, g, &v_in);
                                // Negative samples: label 0.
                                for _ in 0..config.negative {
                                    let neg = negatives.sample(&mut rng) as usize;
                                    if neg == context {
                                        continue;
                                    }
                                    out_view.read_row(neg, &mut v_out);
                                    let score = sigmoid.get(tabmeta_linalg::dot(&v_in, &v_out));
                                    let g = (0.0 - score) * lr;
                                    tabmeta_linalg::axpy(g, &v_out, &mut grad);
                                    out_view.update_row(neg, g, &v_in);
                                }
                                in_view.update_row(center as usize, 1.0, &grad);
                            }
                        }
                    }
                }
                TrainReport { pairs, final_lr: lr }
            })
            .collect();
        let pairs = reports.iter().map(|r| r.pairs).sum();
        // Workers decay independently; report the deepest decay reached.
        let final_lr = reports.iter().map(|r| r.final_lr).fold(config.learning_rate, f32::min);
        TrainReport { pairs, final_lr }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabmeta_text::Vocabulary;

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

    fn toy_setup() -> (Vec<Vec<u32>>, NegativeTable, Matrix, Matrix, SgnsConfig) {
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
        let negatives = NegativeTable::build(&vocab, 4096);
        let config = SgnsConfig { dim: 16, epochs: 3, window: 2, ..SgnsConfig::tiny(11) };
        let mut rng = StdRng::seed_from_u64(config.seed);
        let input = Matrix::uniform_init(4, config.dim, &mut rng);
        let output = Matrix::zeros(4, config.dim);
        (sentences, negatives, input, output, config)
    }

    #[test]
    fn training_separates_topics() {
        let (sentences, negatives, mut input, mut output, config) = toy_setup();
        let mut trainer = SgnsTrainer::new(&config);
        let report = trainer.train(&sentences, &negatives, &mut input, &mut output);
        assert!(report.pairs > 1_000, "too few pairs: {}", report.pairs);

        let sim =
            |i: usize, j: usize| tabmeta_linalg::cosine_similarity(input.row(i), input.row(j));
        // Within-topic similarity must dominate cross-topic.
        assert!(sim(0, 1) > sim(0, 2), "a~b {} vs a~c {}", sim(0, 1), sim(0, 2));
        assert!(sim(2, 3) > sim(1, 3), "c~d {} vs b~d {}", sim(2, 3), sim(1, 3));
    }

    #[test]
    fn training_is_deterministic() {
        let (sentences, negatives, input0, output0, config) = toy_setup();
        let run = || {
            let mut input = input0.clone();
            let mut output = output0.clone();
            SgnsTrainer::new(&config).train(&sentences, &negatives, &mut input, &mut output);
            input
        };
        assert_eq!(run(), run(), "same seed must give identical embeddings");
    }

    #[test]
    fn hogwild_training_separates_topics() {
        let (sentences, negatives, mut input, mut output, config) = toy_setup();
        let config = SgnsConfig { threads: 4, ..config };
        let mut trainer = SgnsTrainer::new(&config);
        let report = trainer.train(&sentences, &negatives, &mut input, &mut output);
        assert!(report.pairs > 1_000, "too few pairs: {}", report.pairs);
        assert!(report.final_lr < config.learning_rate);

        let sim =
            |i: usize, j: usize| tabmeta_linalg::cosine_similarity(input.row(i), input.row(j));
        assert!(sim(0, 1) > sim(0, 2), "a~b {} vs a~c {}", sim(0, 1), sim(0, 2));
        assert!(sim(2, 3) > sim(1, 3), "c~d {} vs b~d {}", sim(2, 3), sim(1, 3));
    }

    #[test]
    fn explicit_single_thread_matches_default_stream() {
        let (sentences, negatives, input0, output0, config) = toy_setup();
        let run = |cfg: &SgnsConfig| {
            let mut input = input0.clone();
            let mut output = output0.clone();
            SgnsTrainer::new(cfg).train(&sentences, &negatives, &mut input, &mut output);
            input
        };
        let explicit = SgnsConfig { threads: 1, ..config.clone() };
        assert_eq!(run(&config), run(&explicit), "threads=1 must stay the sequential stream");
    }

    #[test]
    fn epoch_resume_matches_uninterrupted() {
        let (sentences, negatives, input0, output0, config) = toy_setup();
        // Uninterrupted run.
        let mut input_a = input0.clone();
        let mut output_a = output0.clone();
        let report_a =
            SgnsTrainer::new(&config).train(&sentences, &negatives, &mut input_a, &mut output_a);
        // Run one epoch, snapshot, drop the trainer, rebuild from the
        // snapshot alone, finish.
        let mut input_b = input0.clone();
        let mut output_b = output0.clone();
        let snap = {
            let mut t = SgnsTrainer::new(&config);
            t.run_epoch(&sentences, &negatives, &mut input_b, &mut output_b);
            assert!(!t.is_complete());
            t.state()
        };
        let report_b = SgnsTrainer::resume(&config, &snap).train(
            &sentences,
            &negatives,
            &mut input_b,
            &mut output_b,
        );
        assert_eq!(input_a, input_b, "resumed run must be bit-identical");
        assert_eq!(output_a, output_b);
        assert_eq!(report_a, report_b);
    }

    #[test]
    fn run_epoch_terminates_on_empty_sentences() {
        let config = SgnsConfig::tiny(5);
        let negatives = {
            let mut v = Vocabulary::new();
            v.add("x");
            NegativeTable::build(&v, 64)
        };
        let mut input = Matrix::zeros(1, config.dim);
        let mut output = Matrix::zeros(1, config.dim);
        let mut t = SgnsTrainer::new(&config);
        let mut spins = 0;
        while !t.is_complete() {
            t.run_epoch(&[], &negatives, &mut input, &mut output);
            spins += 1;
            assert!(spins <= config.epochs, "empty input must still advance epochs");
        }
        assert_eq!(t.report().pairs, 0);
    }

    #[test]
    fn learning_rate_decays() {
        let (sentences, negatives, mut input, mut output, config) = toy_setup();
        let report =
            SgnsTrainer::new(&config).train(&sentences, &negatives, &mut input, &mut output);
        assert!(report.final_lr < config.learning_rate);
        assert!(report.final_lr > 0.0);
    }

    #[test]
    #[should_panic(expected = "share dimensionality")]
    fn mismatched_matrices_panic() {
        let config = SgnsConfig::tiny(0);
        let negatives = {
            let mut v = Vocabulary::new();
            v.add("x");
            NegativeTable::build(&v, 64)
        };
        let mut input = Matrix::zeros(1, 8);
        let mut output = Matrix::zeros(1, 16);
        SgnsTrainer::new(&config).train(&[vec![0]], &negatives, &mut input, &mut output);
    }
}
