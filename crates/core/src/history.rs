//! Serializability checking for list-append histories (Elle-style).
//!
//! The test workloads use *list-append* transactions: every write reads a
//! key's current list and appends its own transaction id. The final value
//! of each key is then the key's complete version order, which lets us
//! reconstruct the three conflict-edge kinds and check the conflict graph
//! for cycles — a sound serializability test, without trusting the system
//! under test for anything except the observed reads.

use std::collections::{HashMap, HashSet};

use treaty_store::GlobalTxId;

/// What one committed transaction observed and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnObservation {
    /// The transaction.
    pub id: GlobalTxId,
    /// For each read key: the full list observed (its own append excluded).
    pub reads: Vec<(Vec<u8>, Vec<GlobalTxId>)>,
    /// Keys this transaction appended itself to.
    pub appends: Vec<Vec<u8>>,
}

/// A violation found by [`check_list_append`].
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub enum HistoryError {
    /// A read observed a list that is not a prefix of the final version
    /// order — intermediate or fabricated state.
    #[error("txn {txn} read a non-prefix list of key {key:?}")]
    NonPrefixRead {
        /// Reader.
        txn: GlobalTxId,
        /// Key.
        key: Vec<u8>,
    },
    /// A committed append is missing from the final list — a lost update.
    #[error("txn {txn} committed an append to {key:?} that is missing from the final state")]
    LostAppend {
        /// Writer.
        txn: GlobalTxId,
        /// Key.
        key: Vec<u8>,
    },
    /// The conflict graph has a cycle — the history is not serializable.
    #[error("conflict cycle involving {0} transactions")]
    Cycle(usize),
}

/// Checks a committed list-append history against the final per-key lists.
///
/// # Errors
///
/// Returns the first [`HistoryError`] found.
pub fn check_list_append(
    txns: &[TxnObservation],
    finals: &HashMap<Vec<u8>, Vec<GlobalTxId>>,
) -> Result<(), HistoryError> {
    // Position of each writer in each key's version order.
    let mut position: HashMap<(&[u8], GlobalTxId), usize> = HashMap::new();
    for (key, order) in finals {
        for (i, w) in order.iter().enumerate() {
            position.insert((key.as_slice(), *w), i);
        }
    }

    // Every committed append must appear in the final order.
    for t in txns {
        for key in &t.appends {
            if !position.contains_key(&(key.as_slice(), t.id)) {
                return Err(HistoryError::LostAppend {
                    txn: t.id,
                    key: key.clone(),
                });
            }
        }
    }

    // Build conflict edges.
    let ids: HashSet<GlobalTxId> = txns.iter().map(|t| t.id).collect();
    let mut edges: HashMap<GlobalTxId, HashSet<GlobalTxId>> = HashMap::new();
    let mut add_edge = |from: GlobalTxId, to: GlobalTxId| {
        if from != to && ids.contains(&from) && ids.contains(&to) {
            edges.entry(from).or_default().insert(to);
        }
    };

    // ww: adjacency in each final order.
    for order in finals.values() {
        for pair in order.windows(2) {
            add_edge(pair[0], pair[1]);
        }
    }

    for t in txns {
        for (key, observed) in &t.reads {
            let order = match finals.get(key) {
                Some(o) => o,
                None => {
                    if observed.is_empty() {
                        continue;
                    }
                    return Err(HistoryError::NonPrefixRead {
                        txn: t.id,
                        key: key.clone(),
                    });
                }
            };
            // A read-modify-write observes the list *before* its own
            // append; compare against the prefix excluding self.
            if observed.len() > order.len() || observed.as_slice() != &order[..observed.len()] {
                return Err(HistoryError::NonPrefixRead {
                    txn: t.id,
                    key: key.clone(),
                });
            }
            match observed.last() {
                Some(last) => {
                    // wr: writer of the observed tail precedes the reader.
                    add_edge(*last, t.id);
                    // rw: the reader precedes the next writer.
                    let pos = position[&(key.as_slice(), *last)];
                    if pos + 1 < order.len() {
                        add_edge(t.id, order[pos + 1]);
                    }
                }
                None => {
                    // Read of the initial (empty) state precedes the first
                    // writer.
                    if let Some(first) = order.first() {
                        add_edge(t.id, *first);
                    }
                }
            }
        }
    }

    // Cycle detection via iterative three-colour DFS.
    #[derive(Clone, Copy, PartialEq)]
    enum Colour {
        White,
        Grey,
        Black,
    }
    let mut colour: HashMap<GlobalTxId, Colour> =
        ids.iter().map(|&id| (id, Colour::White)).collect();
    for &start in &ids {
        if colour[&start] != Colour::White {
            continue;
        }
        let mut stack: Vec<(GlobalTxId, bool)> = vec![(start, false)];
        while let Some((n, processed)) = stack.pop() {
            if processed {
                colour.insert(n, Colour::Black);
                continue;
            }
            match colour[&n] {
                Colour::Black => continue,
                Colour::Grey => continue,
                Colour::White => {}
            }
            colour.insert(n, Colour::Grey);
            stack.push((n, true));
            if let Some(next) = edges.get(&n) {
                for &m in next {
                    match colour[&m] {
                        Colour::White => stack.push((m, false)),
                        Colour::Grey => {
                            let grey = colour.values().filter(|c| **c == Colour::Grey).count();
                            return Err(HistoryError::Cycle(grey));
                        }
                        Colour::Black => {}
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gtx(seq: u64) -> GlobalTxId {
        GlobalTxId { node: 1, seq }
    }

    fn k(s: &str) -> Vec<u8> {
        s.as_bytes().to_vec()
    }

    #[test]
    fn serial_history_passes() {
        // t1 appends to x (read []); t2 appends to x (read [t1]).
        let txns = vec![
            TxnObservation {
                id: gtx(1),
                reads: vec![(k("x"), vec![])],
                appends: vec![k("x")],
            },
            TxnObservation {
                id: gtx(2),
                reads: vec![(k("x"), vec![gtx(1)])],
                appends: vec![k("x")],
            },
        ];
        let mut finals = HashMap::new();
        finals.insert(k("x"), vec![gtx(1), gtx(2)]);
        check_list_append(&txns, &finals).unwrap();
    }

    #[test]
    fn lost_update_detected() {
        // t2's append never made it into the final list.
        let txns = vec![
            TxnObservation {
                id: gtx(1),
                reads: vec![],
                appends: vec![k("x")],
            },
            TxnObservation {
                id: gtx(2),
                reads: vec![],
                appends: vec![k("x")],
            },
        ];
        let mut finals = HashMap::new();
        finals.insert(k("x"), vec![gtx(1)]);
        assert_eq!(
            check_list_append(&txns, &finals),
            Err(HistoryError::LostAppend {
                txn: gtx(2),
                key: k("x")
            })
        );
    }

    #[test]
    fn non_prefix_read_detected() {
        // t2 observed [t3] but the final order is [t1, t3].
        let txns = vec![
            TxnObservation {
                id: gtx(1),
                reads: vec![],
                appends: vec![k("x")],
            },
            TxnObservation {
                id: gtx(2),
                reads: vec![(k("x"), vec![gtx(3)])],
                appends: vec![],
            },
            TxnObservation {
                id: gtx(3),
                reads: vec![],
                appends: vec![k("x")],
            },
        ];
        let mut finals = HashMap::new();
        finals.insert(k("x"), vec![gtx(1), gtx(3)]);
        assert!(matches!(
            check_list_append(&txns, &finals),
            Err(HistoryError::NonPrefixRead { .. })
        ));
    }

    #[test]
    fn write_skew_style_cycle_detected() {
        // t1 reads y (sees t2's write missing), appends x.
        // t2 reads x (sees t1's write missing), appends y.
        // rw edges both ways -> cycle.
        let txns = vec![
            TxnObservation {
                id: gtx(1),
                reads: vec![(k("y"), vec![])],
                appends: vec![k("x")],
            },
            TxnObservation {
                id: gtx(2),
                reads: vec![(k("x"), vec![])],
                appends: vec![k("y")],
            },
        ];
        let mut finals = HashMap::new();
        finals.insert(k("x"), vec![gtx(1)]);
        finals.insert(k("y"), vec![gtx(2)]);
        assert!(matches!(
            check_list_append(&txns, &finals),
            Err(HistoryError::Cycle(_))
        ));
    }

    #[test]
    fn concurrent_disjoint_txns_pass() {
        let txns = vec![
            TxnObservation {
                id: gtx(1),
                reads: vec![(k("a"), vec![])],
                appends: vec![k("a")],
            },
            TxnObservation {
                id: gtx(2),
                reads: vec![(k("b"), vec![])],
                appends: vec![k("b")],
            },
        ];
        let mut finals = HashMap::new();
        finals.insert(k("a"), vec![gtx(1)]);
        finals.insert(k("b"), vec![gtx(2)]);
        check_list_append(&txns, &finals).unwrap();
    }

    #[test]
    fn read_of_unwritten_key_ok() {
        let txns = vec![TxnObservation {
            id: gtx(1),
            reads: vec![(k("nope"), vec![])],
            appends: vec![],
        }];
        check_list_append(&txns, &HashMap::new()).unwrap();
    }

    /// Read-only scanners against cross-shard writers: w1 appends to x,
    /// then w2 reads x (seeing w1) and appends to y. A scanner that saw
    /// w2's y but an empty x read a cut no serial order produces — it
    /// follows w2 (wr on y) yet precedes w1 (rw on x), and w1 precedes w2.
    /// Consistent cuts, before, between and after the writers, pass.
    #[test]
    fn torn_read_only_scan_is_a_cycle_and_consistent_cuts_pass() {
        let writers = vec![
            TxnObservation {
                id: gtx(1),
                reads: vec![(k("x"), vec![])],
                appends: vec![k("x")],
            },
            TxnObservation {
                id: gtx(2),
                reads: vec![(k("x"), vec![gtx(1)]), (k("y"), vec![])],
                appends: vec![k("y")],
            },
        ];
        let mut finals = HashMap::new();
        finals.insert(k("x"), vec![gtx(1)]);
        finals.insert(k("y"), vec![gtx(2)]);
        let scan = |id: u64, x: Vec<GlobalTxId>, y: Vec<GlobalTxId>| TxnObservation {
            id: gtx(id),
            reads: vec![(k("x"), x), (k("y"), y)],
            appends: vec![],
        };

        let mut torn = writers.clone();
        torn.push(scan(9, vec![], vec![gtx(2)]));
        assert!(matches!(
            check_list_append(&torn, &finals),
            Err(HistoryError::Cycle(_))
        ));

        let mut consistent = writers;
        consistent.push(scan(10, vec![], vec![]));
        consistent.push(scan(11, vec![gtx(1)], vec![]));
        consistent.push(scan(12, vec![gtx(1)], vec![gtx(2)]));
        check_list_append(&consistent, &finals).unwrap();
    }

    #[test]
    fn long_serial_chain_passes() {
        let mut txns = Vec::new();
        let mut order = Vec::new();
        for i in 1..=50 {
            txns.push(TxnObservation {
                id: gtx(i),
                reads: vec![(k("x"), order.clone())],
                appends: vec![k("x")],
            });
            order.push(gtx(i));
        }
        let mut finals = HashMap::new();
        finals.insert(k("x"), order);
        check_list_append(&txns, &finals).unwrap();
    }
}
