//! Synthetic knowledge graph (the Wikidata5M substitute).
//!
//! Wikidata5M is a real graph with heavily skewed entity degrees. What the
//! parameter server *sees* of it is (i) Zipf-skewed direct access to entity
//! and relation embeddings and (ii) uniform sampling access from negative
//! sampling. This generator reproduces both, and additionally *plants*
//! learnable structure so that model quality (filtered MRR) is a
//! meaningful, improving signal: entities belong to latent clusters and
//! each relation is a deterministic map between clusters. A ComplEx model
//! can represent such relational structure, so training recovers it and
//! MRR rises — while a broken parameter server (lost updates, wild
//! staleness) measurably hurts it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::zipf::Zipf;

/// One subject–relation–object triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Triple {
    pub s: u32,
    pub r: u32,
    pub o: u32,
}

/// Generation parameters.
#[derive(Debug, Clone)]
pub struct KgConfig {
    pub n_entities: usize,
    pub n_relations: usize,
    pub n_train: usize,
    pub n_test: usize,
    /// Latent clusters planted into the graph.
    pub n_clusters: usize,
    /// Skew of entity popularity (Wikidata-like degree skew ≈ 1.0).
    pub popularity_alpha: f64,
    /// Fraction of triples that ignore the planted structure (noise).
    pub noise: f64,
    pub seed: u64,
}

impl Default for KgConfig {
    fn default() -> KgConfig {
        KgConfig {
            n_entities: 10_000,
            n_relations: 32,
            n_train: 100_000,
            n_test: 2_000,
            n_clusters: 16,
            popularity_alpha: 1.0,
            noise: 0.05,
            seed: 7,
        }
    }
}

/// A generated knowledge graph with train/test split.
#[derive(Debug)]
pub struct KnowledgeGraph {
    pub config: KgConfig,
    pub train: Vec<Triple>,
    pub test: Vec<Triple>,
    /// Entity cluster assignment (ground truth; evaluation only).
    pub entity_cluster: Vec<u16>,
    /// Relation cluster maps (ground truth; evaluation only).
    pub relation_map: Vec<Vec<u16>>,
}

impl KnowledgeGraph {
    pub fn generate(config: KgConfig) -> KnowledgeGraph {
        assert!(config.n_entities >= config.n_clusters && config.n_clusters > 0);
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Cluster assignment: round-robin so every cluster is populated,
        // then popularity is independent of cluster.
        let entity_cluster: Vec<u16> =
            (0..config.n_entities).map(|e| (e % config.n_clusters) as u16).collect();
        let mut cluster_members: Vec<Vec<u32>> = vec![Vec::new(); config.n_clusters];
        for (e, &c) in entity_cluster.iter().enumerate() {
            cluster_members[c as usize].push(e as u32);
        }

        // Each relation is a random permutation over clusters.
        let relation_map: Vec<Vec<u16>> = (0..config.n_relations)
            .map(|_| {
                let mut perm: Vec<u16> = (0..config.n_clusters as u16).collect();
                for i in (1..perm.len()).rev() {
                    perm.swap(i, rng.gen_range(0..=i));
                }
                perm
            })
            .collect();

        let popularity = Zipf::new(config.n_entities, config.popularity_alpha);
        // Relations are also skewed, but mildly.
        let relation_pop = Zipf::new(config.n_relations, 0.5);

        let mut triples = Vec::with_capacity(config.n_train + config.n_test);
        let total = config.n_train + config.n_test;
        let mut seen = rustc_hash::FxHashSet::default();
        while triples.len() < total {
            let s = popularity.sample(&mut rng) as u32;
            let r = relation_pop.sample(&mut rng) as u32;
            let o = if rng.gen::<f64>() < config.noise {
                popularity.sample(&mut rng) as u32
            } else {
                // Planted structure: object lies in the relation's image
                // cluster of the subject; popularity-biased within it.
                let target = relation_map[r as usize][entity_cluster[s as usize] as usize];
                let members = &cluster_members[target as usize];
                // Popularity-biased member pick: rejection against global
                // popularity, falling back to uniform.
                let mut pick = members[rng.gen_range(0..members.len())];
                for _ in 0..4 {
                    let cand = popularity.sample(&mut rng) as u32;
                    if entity_cluster[cand as usize] == target {
                        pick = cand;
                        break;
                    }
                }
                pick
            };
            let t = Triple { s, r, o };
            // Keep test triples unique so filtered ranking is meaningful.
            if triples.len() >= config.n_train && !seen.insert(t) {
                continue;
            }
            triples.push(t);
        }

        let test = triples.split_off(config.n_train);
        KnowledgeGraph { config, train: triples, test, entity_cluster, relation_map }
    }

    /// Direct-access frequency of every entity (subject + object
    /// occurrences in the training data). Input to the technique heuristic.
    pub fn entity_frequencies(&self) -> Vec<u64> {
        let mut f = vec![0u64; self.config.n_entities];
        for t in &self.train {
            f[t.s as usize] += 1;
            f[t.o as usize] += 1;
        }
        f
    }

    /// Direct-access frequency of every relation.
    pub fn relation_frequencies(&self) -> Vec<u64> {
        let mut f = vec![0u64; self.config.n_relations];
        for t in &self.train {
            f[t.r as usize] += 1;
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> KnowledgeGraph {
        KnowledgeGraph::generate(KgConfig {
            n_entities: 1000,
            n_relations: 8,
            n_train: 20_000,
            n_test: 500,
            n_clusters: 10,
            popularity_alpha: 1.0,
            noise: 0.05,
            seed: 42,
        })
    }

    #[test]
    fn sizes_and_ranges() {
        let kg = small();
        assert_eq!(kg.train.len(), 20_000);
        assert_eq!(kg.test.len(), 500);
        for t in kg.train.iter().chain(kg.test.iter()) {
            assert!((t.s as usize) < 1000);
            assert!((t.o as usize) < 1000);
            assert!((t.r as usize) < 8);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = small();
        let b = small();
        assert_eq!(a.train, b.train);
        assert_eq!(a.test, b.test);
    }

    #[test]
    fn entity_access_is_skewed() {
        // The paper measures: a small share of parameters receives a large
        // share of accesses (Figure 3a). Entity 0 (most popular) must be
        // orders of magnitude hotter than the median.
        let kg = small();
        let f = kg.entity_frequencies();
        let total: u64 = f.iter().sum();
        assert_eq!(total, 2 * kg.train.len() as u64);
        let mut sorted = f.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u64 = sorted[..10].iter().sum();
        assert!(
            top10 as f64 > 0.15 * total as f64,
            "top-10 share {:.3}",
            top10 as f64 / total as f64
        );
    }

    #[test]
    fn planted_structure_dominates_noise() {
        let kg = small();
        let consistent = kg
            .train
            .iter()
            .filter(|t| {
                kg.relation_map[t.r as usize][kg.entity_cluster[t.s as usize] as usize]
                    == kg.entity_cluster[t.o as usize]
            })
            .count();
        let share = consistent as f64 / kg.train.len() as f64;
        assert!(share > 0.9, "structure share {share}");
    }

    #[test]
    fn test_triples_are_unique() {
        let kg = small();
        let set: rustc_hash::FxHashSet<_> = kg.test.iter().collect();
        assert_eq!(set.len(), kg.test.len());
    }
}
