//! The word-vectors task (paper Section 5.1, Table 2 row 2).
//!
//! Skip-gram with negative sampling (Mikolov et al.): for each
//! (center, context) pair inside a random-width window, one positive
//! update and `n_neg` negatives drawn from the unigram^0.75 noise
//! distribution via the PS sampling API. Frequent words are subsampled.
//! Quality is planted-topic coherence × 100 (the synthetic analogue of
//! analogy accuracy).
//!
//! Key layout: input vector of word `w` → key `w`; output vector → key
//! `vocab + w`. Sampling targets the output layer only, exactly as in the
//! paper's Figure 3b.

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

use nups_core::api::PsWorker;
use nups_core::key::Key;
use nups_core::sampling::{ConformityLevel, DistId, DistributionKind};
use nups_workloads::corpus::Corpus;
use nups_workloads::partition::partition_contiguous;

use crate::complex::{logistic_loss, sigmoid};
use crate::eval::cosine;
use crate::task::{DistSpec, QualityDirection, TrainTask};
use crate::util::init_embedding;

/// Word2Vec task configuration.
#[derive(Debug, Clone)]
pub struct W2vConfig {
    /// Embedding dimension (paper: 1000).
    pub dim: usize,
    /// Negative samples per pair (paper: 3).
    pub n_neg: usize,
    /// Maximum window radius (paper: 5).
    pub window: usize,
    /// Frequent-word subsampling threshold (paper: 0.01).
    pub subsample_t: f64,
    pub lr: f32,
    pub init_scale: f32,
    /// Sentences to localize ahead.
    pub prefetch: usize,
    pub level: ConformityLevel,
    /// Word pairs sampled per class during evaluation.
    pub eval_pairs: usize,
    pub seed: u64,
}

impl Default for W2vConfig {
    fn default() -> W2vConfig {
        W2vConfig {
            dim: 16,
            n_neg: 3,
            window: 5,
            subsample_t: 0.01,
            lr: 0.05,
            init_scale: 0.1,
            prefetch: 2,
            level: ConformityLevel::Bounded,
            eval_pairs: 2000,
            seed: 31,
        }
    }
}

/// The task, pre-partitioned over workers (contiguous sentence ranges).
pub struct W2vTask {
    corpus: Arc<Corpus>,
    cfg: W2vConfig,
    partitions: Vec<Vec<u32>>,
    /// Per-word keep probability under frequent-word subsampling.
    keep_prob: Vec<f32>,
    epoch_loss: Mutex<f64>,
}

impl W2vTask {
    pub fn new(corpus: Arc<Corpus>, cfg: W2vConfig, n_partitions: usize) -> W2vTask {
        let ids: Vec<u32> = (0..corpus.sentences.len() as u32).collect();
        let partitions = partition_contiguous(&ids, n_partitions);
        let total = corpus.n_tokens() as f64;
        let t = cfg.subsample_t;
        let keep_prob = corpus
            .word_counts
            .iter()
            .map(|&c| {
                if c == 0 {
                    return 1.0;
                }
                let f = c as f64 / total;
                (((f / t).sqrt() + 1.0) * (t / f)).min(1.0) as f32
            })
            .collect();
        W2vTask { corpus, cfg, partitions, keep_prob, epoch_loss: Mutex::new(0.0) }
    }

    #[inline]
    fn vocab(&self) -> u64 {
        self.corpus.config.vocab_size as u64
    }

    #[inline]
    fn output_key(&self, w: u32) -> Key {
        self.vocab() + w as Key
    }

    fn sentence_keys(&self, sentence: &[u32], out: &mut Vec<Key>) {
        out.clear();
        for &w in sentence {
            out.push(w as Key);
            out.push(self.output_key(w));
        }
    }

    /// Take the epoch loss accumulated since the last call.
    pub fn take_epoch_loss(&self) -> f64 {
        std::mem::take(&mut *self.epoch_loss.lock())
    }
}

impl TrainTask for W2vTask {
    fn name(&self) -> &'static str {
        "wv"
    }

    fn n_keys(&self) -> u64 {
        2 * self.vocab()
    }

    fn value_len(&self) -> usize {
        self.cfg.dim
    }

    fn init_value(&self, key: Key, out: &mut [f32]) {
        // As in word2vec.c: random input vectors, zero output vectors.
        if key < self.vocab() {
            init_embedding(key, self.cfg.seed, self.cfg.dim, self.cfg.init_scale, out);
        } else {
            out.fill(0.0);
        }
    }

    fn distributions(&self) -> Vec<DistSpec> {
        vec![DistSpec {
            base_key: self.vocab(),
            n: self.vocab(),
            kind: DistributionKind::Weighted(self.corpus.noise_weights()),
            level: self.cfg.level,
        }]
    }

    fn n_partitions(&self) -> usize {
        self.partitions.len()
    }

    fn run_epoch(&self, worker: &mut dyn PsWorker, part: usize, epoch: usize) -> f64 {
        let sentences = &self.partitions[part];
        let dim = self.cfg.dim;
        let n_neg = self.cfg.n_neg;
        let dist = DistId(0);
        let mut rng =
            SmallRng::seed_from_u64(self.cfg.seed ^ ((part as u64) << 16) ^ ((epoch as u64) << 40));

        let mut vu = vec![0.0f32; 2 * dim]; // input (center) | output (context)
        let mut gv = vec![0.0f32; dim];
        let mut keys_scratch = Vec::new();
        let mut kept: Vec<u32> = Vec::new();
        // One batched push per (center, context) pair: the context delta,
        // the negative deltas, and the center delta coalesce into a single
        // multi-key update.
        let mut push_keys: Vec<Key> = Vec::with_capacity(n_neg + 2);
        let mut push_deltas: Vec<f32> = Vec::with_capacity((n_neg + 2) * dim);
        let mut loss = 0.0f64;

        for (si, &sid) in sentences.iter().enumerate() {
            if let Some(&ahead) = sentences.get(si + self.cfg.prefetch) {
                self.sentence_keys(&self.corpus.sentences[ahead as usize], &mut keys_scratch);
                worker.localize(&keys_scratch);
            }
            let sentence = &self.corpus.sentences[sid as usize];
            kept.clear();
            kept.extend(
                sentence.iter().copied().filter(|&w| rng.gen::<f32>() < self.keep_prob[w as usize]),
            );
            for i in 0..kept.len() {
                let center = kept[i];
                let b = rng.gen_range(1..=self.cfg.window);
                let lo = i.saturating_sub(b);
                let hi = (i + b + 1).min(kept.len());
                for (j, &ctx) in kept.iter().enumerate().take(hi).skip(lo) {
                    if j == i {
                        continue;
                    }
                    let mut handle = worker.prepare_sample(dist, n_neg);
                    let pair_keys = [center as Key, self.output_key(ctx)];
                    worker.pull_many(&pair_keys, &mut vu);
                    let (v, u) = vu.split_at(dim);
                    gv.fill(0.0);
                    push_keys.clear();
                    push_deltas.clear();

                    // Positive pair.
                    let sc: f32 = v.iter().zip(u).map(|(a, b)| a * b).sum();
                    loss += logistic_loss(sc, 1.0) as f64;
                    let g = sigmoid(sc) - 1.0;
                    push_keys.push(self.output_key(ctx));
                    for d in 0..dim {
                        gv[d] += g * u[d];
                        push_deltas.push(-self.cfg.lr * g * v[d]);
                    }

                    // Negatives from the noise distribution.
                    for (nk, nv) in worker.pull_sample(&mut handle, n_neg) {
                        let sc: f32 = v.iter().zip(&nv).map(|(a, b)| a * b).sum();
                        loss += logistic_loss(sc, 0.0) as f64;
                        let g = sigmoid(sc);
                        push_keys.push(nk);
                        for d in 0..dim {
                            gv[d] += g * nv[d];
                            push_deltas.push(-self.cfg.lr * g * v[d]);
                        }
                    }

                    push_keys.push(center as Key);
                    push_deltas.extend(gv.iter().map(|&g| -self.cfg.lr * g));
                    worker.push_many(&push_keys, &push_deltas);

                    // ~6 flops per dim per scored pair (dot + two axpys).
                    worker.charge_compute(((1 + n_neg) * 6 * dim) as u64);
                }
            }
            worker.advance_clock();
        }
        *self.epoch_loss.lock() += loss;
        loss
    }

    fn evaluate(&self, model: &[Vec<f32>]) -> f64 {
        // Planted-topic coherence: mean cosine of same-topic word pairs
        // minus mean cosine of cross-topic pairs, on input embeddings,
        // scaled ×100 to resemble an accuracy axis.
        let mut rng = SmallRng::seed_from_u64(self.cfg.seed ^ 0xE7A1);
        let vocab = self.vocab() as usize;
        let topics = &self.corpus.word_topic;
        let mut same = 0.0f64;
        let mut diff = 0.0f64;
        let mut n_same = 0u32;
        let mut n_diff = 0u32;
        for _ in 0..self.cfg.eval_pairs {
            let a = rng.gen_range(0..vocab);
            let b = rng.gen_range(0..vocab);
            if a == b {
                continue;
            }
            let c = cosine(&model[a], &model[b]) as f64;
            if topics[a] == topics[b] {
                same += c;
                n_same += 1;
            } else {
                diff += c;
                n_diff += 1;
            }
        }
        if n_same == 0 || n_diff == 0 {
            return 0.0;
        }
        100.0 * (same / n_same as f64 - diff / n_diff as f64)
    }

    fn quality_direction(&self) -> QualityDirection {
        QualityDirection::HigherIsBetter
    }

    fn direct_frequencies(&self) -> Vec<u64> {
        // Input and output vectors are both accessed per occurrence.
        let mut f = self.corpus.word_counts.clone();
        f.extend_from_slice(&self.corpus.word_counts);
        f
    }

    fn clip_policy(&self) -> nups_core::value::ClipPolicy {
        nups_core::value::ClipPolicy::AverageNorm { factor: 2.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nups_core::config::NupsConfig;
    use nups_core::system::{run_epoch, ParameterServer};
    use nups_sim::cost::CostModel;
    use nups_workloads::corpus::CorpusConfig;

    fn tiny_task(n_parts: usize) -> W2vTask {
        let corpus = Arc::new(Corpus::generate(CorpusConfig {
            vocab_size: 300,
            n_sentences: 800,
            sentence_len: 8,
            n_topics: 6,
            zipf_alpha: 0.9,
            noise: 0.05,
            seed: 2,
        }));
        W2vTask::new(
            corpus,
            W2vConfig { dim: 8, n_neg: 2, eval_pairs: 3000, ..W2vConfig::default() },
            n_parts,
        )
    }

    #[test]
    fn layout_and_partitions() {
        let t = tiny_task(3);
        assert_eq!(t.n_keys(), 600);
        assert_eq!(t.value_len(), 8);
        assert_eq!(t.n_partitions(), 3);
        let total: usize = t.partitions.iter().map(|p| p.len()).sum();
        assert_eq!(total, 800);
        // Output keys map beyond the vocabulary.
        assert_eq!(t.output_key(5), 305);
    }

    #[test]
    fn subsampling_keeps_rare_words_more() {
        let t = tiny_task(1);
        // Word 0 is the most frequent; a rare word's keep prob must be
        // at least as high.
        let rare = t.keep_prob[299];
        let hot = t.keep_prob[0];
        assert!(rare >= hot, "rare {rare} vs hot {hot}");
        assert!(t.keep_prob.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn single_node_training_improves_coherence() {
        let task = tiny_task(2);
        let cfg = NupsConfig::single_node(2, task.n_keys(), task.value_len())
            .with_cost(CostModel::zero());
        let ps = ParameterServer::new(cfg, |k, v| task.init_value(k, v));
        for d in task.distributions() {
            ps.register_distribution(d.base_key, d.n, d.kind, d.level);
        }
        let mut workers = ps.workers();
        let before = task.evaluate(&ps.read_all());
        for epoch in 0..3 {
            run_epoch(&mut workers, |i, w| {
                task.run_epoch(w, i, epoch);
            });
        }
        let after = task.evaluate(&ps.read_all());
        assert!(after > before + 3.0, "coherence did not improve: {before:.2} → {after:.2}");
        ps.shutdown();
    }
}
