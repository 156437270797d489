//! A probabilistic skip list — the MemTable's ordered index (§VII-B:
//! "we implement a MemTable skip list that supports parallel updates for
//! concurrent Tx processing"). [`crate::memtable`] keeps one list behind
//! one `RefCell`: fibers run one at a time, so updates never overlap.
//!
//! Arena-based (indices instead of pointers) so it is safe Rust, and
//! seeded deterministically so simulations reproduce exactly.

const MAX_LEVEL: usize = 16;
const NIL: usize = usize::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    forward: Vec<usize>,
}

/// An ordered map on a skip list.
pub struct SkipList<K, V> {
    arena: Vec<Node<K, V>>,
    /// Head forwards, one per level.
    head: Vec<usize>,
    level: usize,
    len: usize,
    rng: u64,
}

impl<K: Ord, V> Default for SkipList<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord, V> SkipList<K, V> {
    /// Creates an empty list.
    pub fn new() -> Self {
        SkipList {
            arena: Vec::new(),
            head: vec![NIL; MAX_LEVEL],
            level: 1,
            len: 0,
            rng: 0x9E3779B97F4A7C15,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn random_level(&mut self) -> usize {
        // xorshift64*; deterministic across runs.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        let r = x.wrapping_mul(0x2545F4914F6CDD1D);
        // P(level increase) = 1/4 per level, capped.
        let mut lvl = 1;
        let mut bits = r;
        while lvl < MAX_LEVEL && (bits & 3) == 0 {
            lvl += 1;
            bits >>= 2;
        }
        lvl
    }

    /// Finds the per-level predecessors of `key`.
    fn predecessors(&self, key: &K) -> [usize; MAX_LEVEL] {
        let mut update = [NIL; MAX_LEVEL];
        let mut cur = NIL; // NIL as predecessor means "head"
        for lvl in (0..self.level).rev() {
            let mut next = match cur {
                NIL => self.head[lvl],
                c => self.arena[c].forward[lvl],
            };
            while next != NIL && self.arena[next].key < *key {
                cur = next;
                next = self.arena[cur].forward[lvl];
            }
            update[lvl] = cur;
        }
        update
    }

    /// Inserts `key -> value`. Returns the previous value if the key was
    /// present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let update = self.predecessors(&key);
        // Check for an existing key at level 0.
        let at = match update[0] {
            NIL => self.head[0],
            c => self.arena[c].forward[0],
        };
        if at != NIL && self.arena[at].key == key {
            return Some(std::mem::replace(&mut self.arena[at].value, value));
        }

        let lvl = self.random_level();
        if lvl > self.level {
            self.level = lvl;
        }
        let idx = self.arena.len();
        let mut forward = vec![NIL; lvl];
        #[allow(clippy::needless_range_loop)]
        for l in 0..lvl {
            // `update` holds predecessors for levels < the old list level;
            // above that (and when the predecessor is the head) we splice
            // directly after the head.
            match update[l] {
                NIL => {
                    forward[l] = self.head[l];
                    self.head[l] = idx;
                }
                p => {
                    forward[l] = self.arena[p].forward[l];
                    self.arena[p].forward[l] = idx;
                }
            }
        }
        self.arena.push(Node {
            key,
            value,
            forward,
        });
        self.len += 1;
        None
    }

    /// Looks up an exact key.
    pub fn get(&self, key: &K) -> Option<&V> {
        let update = self.predecessors(key);
        let at = match update[0] {
            NIL => self.head[0],
            c => self.arena[c].forward[0],
        };
        if at != NIL && self.arena[at].key == *key {
            Some(&self.arena[at].value)
        } else {
            None
        }
    }

    /// Iterates entries with `key >= from` in ascending key order.
    pub fn range_from<'a>(&'a self, from: &K) -> Iter<'a, K, V> {
        let update = self.predecessors(from);
        let start = match update[0] {
            NIL => self.head[0],
            c => self.arena[c].forward[0],
        };
        Iter {
            list: self,
            cur: start,
        }
    }

    /// Iterates all entries in ascending key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter {
            list: self,
            cur: self.head[0],
        }
    }
}

/// Ascending iterator over a [`SkipList`].
pub struct Iter<'a, K, V> {
    list: &'a SkipList<K, V>,
    cur: usize,
}

impl<'a, K: Ord, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur == NIL {
            return None;
        }
        let node = &self.list.arena[self.cur];
        self.cur = node.forward[0];
        Some((&node.key, &node.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut l = SkipList::new();
        assert!(l.is_empty());
        for i in [5u32, 1, 9, 3, 7] {
            assert_eq!(l.insert(i, i * 10), None);
        }
        assert_eq!(l.len(), 5);
        for i in [1u32, 3, 5, 7, 9] {
            assert_eq!(l.get(&i), Some(&(i * 10)));
        }
        assert_eq!(l.get(&2), None);
    }

    #[test]
    fn insert_replaces_existing() {
        let mut l = SkipList::new();
        l.insert("k", 1);
        assert_eq!(l.insert("k", 2), Some(1));
        assert_eq!(l.get(&"k"), Some(&2));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn iteration_is_sorted() {
        let mut l = SkipList::new();
        let mut keys: Vec<u64> = (0..500).map(|i| (i * 2654435761) % 10_000).collect();
        for &k in &keys {
            l.insert(k, ());
        }
        keys.sort_unstable();
        keys.dedup();
        let got: Vec<u64> = l.iter().map(|(k, _)| *k).collect();
        assert_eq!(got, keys);
    }

    #[test]
    fn range_from_starts_at_lower_bound() {
        let mut l = SkipList::new();
        for k in [10u32, 20, 30, 40] {
            l.insert(k, ());
        }
        let got: Vec<u32> = l.range_from(&25).map(|(k, _)| *k).collect();
        assert_eq!(got, vec![30, 40]);
        let all: Vec<u32> = l.range_from(&5).map(|(k, _)| *k).collect();
        assert_eq!(all, vec![10, 20, 30, 40]);
        let none: Vec<u32> = l.range_from(&41).map(|(k, _)| *k).collect();
        assert!(none.is_empty());
    }

    #[test]
    fn large_random_workload_matches_btreemap() {
        use std::collections::BTreeMap;
        let mut l = SkipList::new();
        let mut m = BTreeMap::new();
        let mut x: u64 = 88172645463325252;
        for _ in 0..5_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 1_000;
            let v = x % 97;
            l.insert(k, v);
            m.insert(k, v);
        }
        assert_eq!(l.len(), m.len());
        let lv: Vec<_> = l.iter().map(|(k, v)| (*k, *v)).collect();
        let mv: Vec<_> = m.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(lv, mv);
    }

    #[test]
    fn byte_vec_keys() {
        let mut l: SkipList<Vec<u8>, u32> = SkipList::new();
        l.insert(b"banana".to_vec(), 2);
        l.insert(b"apple".to_vec(), 1);
        l.insert(b"cherry".to_vec(), 3);
        let keys: Vec<Vec<u8>> = l.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(
            keys,
            vec![b"apple".to_vec(), b"banana".to_vec(), b"cherry".to_vec()]
        );
    }
}
