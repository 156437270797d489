//! A read-mostly social-feed workload.
//!
//! Models the canonical "timeline read" pattern that motivates lock-free
//! snapshot reads: each user follows a fixed, seed-deterministic set of
//! other users; the dominant transaction reads the profile row of every
//! followed user in one shot (a pure-read, naturally multi-shard
//! transaction), and a small fraction of transactions post — updating the
//! poster's own profile row. Reads outnumber writes roughly 20:1 by
//! default, so the benefit of taking read-only transactions off the 2PC
//! lock table shows up directly in the tail latency of feed loads.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Social-feed workload parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SocialConfig {
    /// Number of users (= number of profile rows).
    pub users: u64,
    /// How many users each user follows.
    pub follows_per_user: usize,
    /// Percentage of transactions that post (write); the rest load feeds
    /// (pure reads).
    pub post_pct: u8,
    /// Profile-row value size in bytes.
    pub value_size: usize,
}

impl SocialConfig {
    /// Default feed mix: 1000 users, 8 follows each, 5 % posts, 256 B rows.
    pub fn feed() -> Self {
        SocialConfig {
            users: 1000,
            follows_per_user: 8,
            post_pct: 5,
            value_size: 256,
        }
    }
}

/// One social-feed transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SocialTxn {
    /// Load the feed: read every followed user's profile row. Pure read —
    /// eligible for the lock-free snapshot path.
    LoadFeed {
        /// Profile keys of the followed users.
        keys: Vec<Vec<u8>>,
    },
    /// Post: rewrite the posting user's own profile row.
    Post {
        /// The poster's profile key.
        key: Vec<u8>,
        /// The new row.
        value: Vec<u8>,
    },
}

/// Deterministic social-feed transaction stream.
///
/// The follow graph is derived from the config alone (not the per-client
/// seed), so every client — and every run at the same config — sees the
/// same graph while drawing independent transaction streams.
#[derive(Debug, Clone)]
pub struct SocialGenerator {
    cfg: SocialConfig,
    rng: ChaCha8Rng,
}

/// Profile-row key for `user` (same keyspace shape as the YCSB workloads).
fn profile_key(user: u64) -> Vec<u8> {
    format!("feed{user:010}").into_bytes()
}

impl SocialGenerator {
    /// Creates a generator; distinct seeds give independent client streams.
    pub fn new(cfg: SocialConfig, seed: u64) -> Self {
        SocialGenerator {
            cfg,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SocialConfig {
        &self.cfg
    }

    /// The users `user` follows — a fixed function of the config.
    pub fn follows(cfg: &SocialConfig, user: u64) -> Vec<u64> {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5050_11A1 ^ user);
        let mut out = Vec::with_capacity(cfg.follows_per_user);
        while out.len() < cfg.follows_per_user.min(cfg.users as usize - 1) {
            let f = rng.gen_range(0..cfg.users);
            if f != user && !out.contains(&f) {
                out.push(f);
            }
        }
        out
    }

    /// The next transaction.
    pub fn next_txn(&mut self) -> SocialTxn {
        let user = self.rng.gen_range(0..self.cfg.users);
        if self.rng.gen_range(0..100u8) < self.cfg.post_pct {
            let tag: u64 = self.rng.gen();
            let mut value = vec![b'p'; self.cfg.value_size];
            let tag_bytes = tag.to_le_bytes();
            let n = tag_bytes.len().min(value.len());
            value[..n].copy_from_slice(&tag_bytes[..n]);
            SocialTxn::Post {
                key: profile_key(user),
                value,
            }
        } else {
            SocialTxn::LoadFeed {
                keys: Self::follows(&self.cfg, user)
                    .into_iter()
                    .map(profile_key)
                    .collect(),
            }
        }
    }

    /// Runs one generated transaction against `txn`.
    ///
    /// # Errors
    ///
    /// Propagates the first failing operation.
    pub fn run_txn(&mut self, txn: &mut impl crate::KvTxn) -> Result<(), String> {
        match self.next_txn() {
            SocialTxn::LoadFeed { keys } => {
                for key in keys {
                    txn.get(&key)?;
                }
                Ok(())
            }
            SocialTxn::Post { key, value } => txn.put(&key, &value),
        }
    }

    /// All profile keys (for pre-loading).
    pub fn all_keys(cfg: &SocialConfig) -> impl Iterator<Item = Vec<u8>> {
        (0..cfg.users).map(profile_key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SocialGenerator::new(SocialConfig::feed(), 7);
        let mut b = SocialGenerator::new(SocialConfig::feed(), 7);
        for _ in 0..50 {
            assert_eq!(a.next_txn(), b.next_txn());
        }
    }

    #[test]
    fn follow_graph_is_config_stable() {
        let cfg = SocialConfig::feed();
        let f1 = SocialGenerator::follows(&cfg, 42);
        let f2 = SocialGenerator::follows(&cfg, 42);
        assert_eq!(f1, f2);
        assert_eq!(f1.len(), cfg.follows_per_user);
        assert!(!f1.contains(&42), "no self-follow");
    }

    #[test]
    fn mostly_reads() {
        let mut g = SocialGenerator::new(SocialConfig::feed(), 3);
        let mut posts = 0;
        for _ in 0..1000 {
            if matches!(g.next_txn(), SocialTxn::Post { .. }) {
                posts += 1;
            }
        }
        assert!((10..=100).contains(&posts), "post count {posts}");
    }

    #[test]
    fn feed_reads_are_pure() {
        use crate::KvTxn as _;
        struct Mock {
            gets: u32,
            puts: u32,
        }
        impl crate::KvTxn for Mock {
            fn get(&mut self, _: &[u8]) -> Result<Option<Vec<u8>>, String> {
                self.gets += 1;
                Ok(None)
            }
            fn put(&mut self, _: &[u8], _: &[u8]) -> Result<(), String> {
                self.puts += 1;
                Ok(())
            }
        }
        let mut g = SocialGenerator::new(SocialConfig::feed(), 2);
        let mut m = Mock { gets: 0, puts: 0 };
        for _ in 0..200 {
            match g.next_txn() {
                SocialTxn::LoadFeed { keys } => {
                    assert_eq!(keys.len(), 8);
                    let puts_before = m.puts;
                    for k in keys {
                        m.get(&k).unwrap();
                    }
                    assert_eq!(m.puts, puts_before, "feed loads never write");
                }
                SocialTxn::Post { key, value } => {
                    m.put(&key, &value).unwrap();
                }
            }
        }
        assert!(m.gets > 0 && m.puts < m.gets);
    }

    #[test]
    fn all_keys_enumerates_profiles() {
        let cfg = SocialConfig {
            users: 4,
            ..SocialConfig::feed()
        };
        let keys: Vec<_> = SocialGenerator::all_keys(&cfg).collect();
        assert_eq!(keys.len(), 4);
        assert_eq!(keys[0], b"feed0000000000".to_vec());
    }
}
