//! Synthetic text corpus (the One-Billion-Word-Benchmark substitute).
//!
//! What Word2Vec training exposes to the parameter server is (i) direct
//! access skewed by word frequency (Zipf, as in real text) and (ii)
//! sampling access from the unigram^0.75 noise distribution. This
//! generator reproduces both and plants *semantic clusters*: each sentence
//! is about one topic, and most of its words are drawn from that topic's
//! vocabulary. Skip-gram training then pulls same-topic embeddings
//! together, so the quality metric — cluster coherence, the synthetic
//! analogue of the paper's analogy accuracy — improves with training.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::zipf::Zipf;

/// Generation parameters.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    pub vocab_size: usize,
    pub n_sentences: usize,
    pub sentence_len: usize,
    /// Planted topics.
    pub n_topics: usize,
    /// Zipf exponent of word frequencies (English text ≈ 1.0).
    pub zipf_alpha: f64,
    /// Probability a word ignores the sentence topic.
    pub noise: f64,
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> CorpusConfig {
        CorpusConfig {
            vocab_size: 10_000,
            n_sentences: 20_000,
            sentence_len: 12,
            n_topics: 20,
            zipf_alpha: 1.0,
            noise: 0.1,
            seed: 11,
        }
    }
}

/// A generated corpus.
#[derive(Debug)]
pub struct Corpus {
    pub config: CorpusConfig,
    pub sentences: Vec<Vec<u32>>,
    /// Corpus frequency of every word.
    pub word_counts: Vec<u64>,
    /// Planted topic of every word (evaluation only).
    pub word_topic: Vec<u16>,
}

impl Corpus {
    pub fn generate(config: CorpusConfig) -> Corpus {
        assert!(config.vocab_size >= config.n_topics && config.n_topics > 0);
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Word w has global popularity rank w and topic w % n_topics, so
        // popularity and topics are independent.
        let word_topic: Vec<u16> =
            (0..config.vocab_size).map(|w| (w % config.n_topics) as u16).collect();
        let mut topic_words: Vec<Vec<u32>> = vec![Vec::new(); config.n_topics];
        for (w, &t) in word_topic.iter().enumerate() {
            topic_words[t as usize].push(w as u32);
        }
        let global = Zipf::new(config.vocab_size, config.zipf_alpha);
        // Per-topic samplers that preserve the global popularity shape
        // within the topic.
        let per_topic: Vec<Zipf> = topic_words
            .iter()
            .map(|words| {
                Zipf::from_weights(words.iter().map(|&w| global.weights()[w as usize]).collect())
            })
            .collect();

        let mut word_counts = vec![0u64; config.vocab_size];
        let sentences: Vec<Vec<u32>> = (0..config.n_sentences)
            .map(|_| {
                let topic = rng.gen_range(0..config.n_topics);
                (0..config.sentence_len)
                    .map(|_| {
                        let w = if rng.gen::<f64>() < config.noise {
                            global.sample(&mut rng) as u32
                        } else {
                            topic_words[topic][per_topic[topic].sample(&mut rng)]
                        };
                        word_counts[w as usize] += 1;
                        w
                    })
                    .collect()
            })
            .collect();

        Corpus { config, sentences, word_counts, word_topic }
    }

    /// Total tokens in the corpus.
    pub fn n_tokens(&self) -> u64 {
        self.word_counts.iter().sum()
    }

    /// The noise distribution for negative sampling: unigram counts raised
    /// to 0.75, as in Mikolov et al. (the paper's WV task).
    pub fn noise_weights(&self) -> Vec<f64> {
        self.word_counts.iter().map(|&c| (c as f64).powf(0.75)).collect()
    }

    /// Word frequencies as direct-access statistics for the technique
    /// heuristic (input + output layer access are both frequency-driven).
    pub fn word_frequencies(&self) -> &[u64] {
        &self.word_counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Corpus {
        Corpus::generate(CorpusConfig {
            vocab_size: 500,
            n_sentences: 2000,
            sentence_len: 10,
            n_topics: 10,
            zipf_alpha: 1.0,
            noise: 0.1,
            seed: 3,
        })
    }

    #[test]
    fn shape_and_determinism() {
        let c = small();
        assert_eq!(c.sentences.len(), 2000);
        assert!(c.sentences.iter().all(|s| s.len() == 10));
        assert_eq!(c.n_tokens(), 20_000);
        let d = small();
        assert_eq!(c.sentences, d.sentences);
    }

    #[test]
    fn word_frequencies_are_zipf_skewed() {
        let c = small();
        let mut sorted = c.word_counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = sorted.iter().sum();
        let top1pct: u64 = sorted[..5].iter().sum();
        assert!(
            top1pct as f64 > 0.10 * total as f64,
            "top-1% share {:.3}",
            top1pct as f64 / total as f64
        );
    }

    #[test]
    fn sentences_are_topically_coherent() {
        let c = small();
        // In most sentences, a plurality of words share one topic.
        let coherent = c
            .sentences
            .iter()
            .filter(|s| {
                let mut counts = vec![0u32; c.config.n_topics];
                for &w in s.iter() {
                    counts[c.word_topic[w as usize] as usize] += 1;
                }
                let max = *counts.iter().max().unwrap();
                max as usize * 2 > s.len()
            })
            .count();
        assert!(
            coherent as f64 > 0.8 * c.sentences.len() as f64,
            "coherent share {:.3}",
            coherent as f64 / c.sentences.len() as f64
        );
    }

    #[test]
    fn noise_weights_flatten_the_distribution() {
        let c = small();
        let w = c.noise_weights();
        let f = &c.word_counts;
        // unigram^0.75 compresses the ratio between hot and cold words.
        let (hot, cold) = (0usize, 400usize);
        if f[cold] > 0 {
            let raw_ratio = f[hot] as f64 / f[cold] as f64;
            let noise_ratio = w[hot] / w[cold];
            assert!(noise_ratio < raw_ratio);
        }
    }
}
