//! Key-space partitioning: which node owns a key.

use treaty_crypto::hash;

/// Hash-partitions the key space over the cluster's nodes (§V-A:
//  "Treaty partitions data into shards that may be stored on separate
//  machines that fail independently").
#[derive(Debug, Clone)]
pub struct ShardMap {
    nodes: Vec<u32>,
    seed: u64,
}

impl ShardMap {
    /// Creates a map over `nodes` (fabric endpoints, in shard order) with
    /// the CAS-distributed `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub fn new(nodes: Vec<u32>, seed: u64) -> Self {
        assert!(!nodes.is_empty(), "a cluster needs nodes");
        ShardMap { nodes, seed }
    }

    /// The owning node's fabric endpoint for `key`.
    pub fn owner(&self, key: &[u8]) -> u32 {
        let mut buf = Vec::with_capacity(key.len() + 8);
        buf.extend_from_slice(&self.seed.to_le_bytes());
        buf.extend_from_slice(key);
        let h = hash::sha256(&buf);
        let x = u64::from_le_bytes(std::array::from_fn(|i| h.0[i]));
        self.nodes[(x % self.nodes.len() as u64) as usize]
    }

    /// All nodes, in shard order.
    pub fn nodes(&self) -> &[u32] {
        &self.nodes
    }

    /// Number of shards (= nodes).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always false — the constructor rejects empty clusters.
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ownership_is_deterministic_and_total() {
        let m = ShardMap::new(vec![1, 2, 3], 42);
        for i in 0..100u32 {
            let k = format!("key-{i}").into_bytes();
            let o1 = m.owner(&k);
            let o2 = m.owner(&k);
            assert_eq!(o1, o2);
            assert!(m.nodes().contains(&o1));
        }
    }

    #[test]
    fn keys_spread_over_all_nodes() {
        let m = ShardMap::new(vec![1, 2, 3], 7);
        let mut counts = std::collections::HashMap::new();
        for i in 0..300u32 {
            *counts
                .entry(m.owner(format!("key-{i}").as_bytes()))
                .or_insert(0u32) += 1;
        }
        assert_eq!(counts.len(), 3, "all nodes must own keys");
        for (_, c) in counts {
            assert!(c > 50, "distribution badly skewed: {c}");
        }
    }

    #[test]
    fn seed_changes_placement() {
        let a = ShardMap::new(vec![1, 2, 3], 1);
        let b = ShardMap::new(vec![1, 2, 3], 2);
        let moved = (0..100u32)
            .filter(|i| {
                let k = format!("key-{i}").into_bytes();
                a.owner(&k) != b.owner(&k)
            })
            .count();
        assert!(moved > 20);
    }
}
