//! Virtual time prices exactly the storage crypto that runs (DESIGN.md
//! §6). A sequential store script runs on each single-node profile, and
//! each of its steps is held to the crypto ledger (`treaty_crypto::ledger`):
//! per primitive, the calls and bytes that ran are the calls and bytes a
//! `Sealer` priced, plus the framing it stated, plus the work DESIGN.md §6
//! names as unpriced — nothing more and nothing less.

use std::rc::Rc;

use treaty_crypto::ledger::{self, Ledger, Primitive};
use treaty_sim::SecurityProfile;
use treaty_store::{EngineConfig, EngineTxn, Env, TreatyStore, TxnMode};

/// The label a MemTable's value key is derived under: one HMAC when a
/// MemTable is made.
const MEMTABLE_LABEL: usize = "memtable-values".len();
/// A log's name, hashed into its nonce prefix when its `Sealer` is made.
const MANIFEST: usize = "manifest".len();
const WAL: usize = "wal-000001".len();

const KEYS: u64 = 40;
const VALUE: usize = 100;

/// Unpriced SHA-256-family work, as (calls, bytes).
type Unpriced = (u64, u64);

/// Runs `step` and returns what the ledger tallied during it.
fn tally(step: impl FnOnce()) -> Ledger {
    let before = ledger::read();
    step();
    ledger::read().since(&before)
}

/// Every line on which `l` fails to balance, as text.
fn imbalance(step: &str, l: &Ledger, unpriced: Unpriced) -> Vec<String> {
    let mut out = Vec::new();
    for p in Primitive::ALL {
        let (ran, priced) = (l.ran(p), l.priced(p));
        let (calls, bytes) = match p {
            Primitive::Aes => (0, 0),
            Primitive::Sha => unpriced,
        };
        let (want_calls, want_bytes) = (priced.calls + calls, priced.bytes + l.framing(p) + bytes);
        if ran.calls != want_calls || ran.bytes != want_bytes {
            out.push(format!(
                "{step}: {p:?} ran {} calls / {} bytes; priced {} calls / {} bytes + {} framing, \
                 named unpriced {calls} calls / {bytes} bytes",
                ran.calls,
                ran.bytes,
                priced.calls,
                priced.bytes,
                l.framing(p),
            ));
        }
    }
    out
}

fn key(i: u64) -> Vec<u8> {
    format!("key{i:04}").into_bytes()
}

fn run(profile: SecurityProfile) -> Vec<String> {
    let dir = tempfile::tempdir().unwrap();
    let config = EngineConfig {
        block_cache_bytes: 0,
        ..EngineConfig::tiny()
    };
    let env = Env::for_testing_with(profile, dir.path(), config);
    let store = TreatyStore::open(Rc::clone(&env)).unwrap();
    let auth_only = profile.authentication && !profile.encryption;
    let mut broken = Vec::new();
    let mut check = |step: &str, l: Ledger, unpriced: Unpriced| {
        broken.extend(imbalance(
            &format!("{} {step}", profile.label()),
            &l,
            unpriced,
        ));
    };

    // Puts: under AuthOnly, `HostBytes::integrity_pinned` hashes each value
    // again (the boundary type's own check, DESIGN.md §8).
    let puts = tally(|| {
        for i in 0..KEYS {
            let mut tx = store.begin_mode(TxnMode::Pessimistic);
            tx.put(&key(i), &[i as u8; VALUE]).unwrap();
            tx.commit().unwrap();
        }
    });
    let rehash = if auth_only {
        (KEYS, KEYS * VALUE as u64)
    } else {
        (0, 0)
    };
    check("puts", puts, rehash);

    let hits = tally(|| {
        for i in 0..KEYS {
            assert!(store.get_committed(&key(i)).unwrap().is_some());
        }
    });
    check("memtable hits", hits, (0, 0));

    // A flush makes a MemTable and a WAL generation, each with its Sealer.
    let flush = tally(|| store.flush().unwrap());
    check("flush", flush, (2, (MEMTABLE_LABEL + WAL) as u64));

    let reads = tally(|| {
        for i in 0..KEYS {
            assert!(store.get_committed(&key(i)).unwrap().is_some());
        }
    });
    check("table reads", reads, (0, 0));

    let scan = tally(|| {
        let rows = store.scan(&key(0), &key(KEYS), u64::MAX, 0).unwrap();
        assert_eq!(rows.len(), KEYS as usize);
    });
    check("scan", scan, (0, 0));

    // A reopen resumes the MANIFEST (one Sealer reads it back and appends),
    // makes a MemTable, recovers the live WAL and opens a new one.
    drop(store);
    let reopen = tally(|| {
        let store = TreatyStore::open(Rc::clone(&env)).unwrap();
        assert!(store.get_committed(&key(0)).unwrap().is_some());
    });
    let made = (MANIFEST + MEMTABLE_LABEL + 2 * WAL) as u64;
    check("reopen", reopen, (4, made));
    broken
}

#[test]
fn each_single_node_profile_prices_exactly_the_storage_crypto_it_runs() {
    let broken: Vec<String> = SecurityProfile::single_node_lineup()
        .into_iter()
        .flat_map(run)
        .collect();
    assert!(broken.is_empty(), "{}", broken.join("\n"));
}
