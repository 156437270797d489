//! Isolated per-layer probes (source **P**): each times calls into one
//! crate's public functions, at least 2 000 iterations in 5 batches, and
//! keeps the fastest batch. Probes that charge virtual time run inside the
//! simulator and report the virtual cost per call as well; that number is
//! exact and needs no batches.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use treaty_core::messages::{self, ClientCommitReq, WriteCmd};
use treaty_counter::{RoteGroup, RoteReplica, TrustedCounter};
use treaty_crypto::{
    aead_open, aead_seal, hmac_sign, sha256, Key, KeyHierarchy, MsgKind, SecureEnvelope, TxMeta,
    WireCrypto,
};
use treaty_net::rpc::RpcConfig;
use treaty_net::{Fabric, Rpc};
use treaty_sim::runtime::{self, join, spawn, yield_now};
use treaty_sim::{CostModel, SecurityProfile, Sim, MILLIS};
use treaty_store::env::Env;
use treaty_store::log::LogWriter;
use treaty_store::{EngineConfig, EngineTxn as _, LockMode, LockTable, TreatyStore, TxnMode};
use treaty_tee::{HostBytes, HostVault};
use treaty_workload::{YcsbConfig, YcsbGenerator};

const BATCHES: usize = 5;

/// Wall and virtual nanoseconds per call of `f`. Outside the simulator the
/// virtual part is 0.
fn per_call(iters_per_batch: usize, mut f: impl FnMut(usize)) -> (f64, f64) {
    let vt_start = if runtime::in_fiber() {
        runtime::now()
    } else {
        0
    };
    let mut best = f64::INFINITY;
    for batch in 0..BATCHES {
        let start = Instant::now();
        for i in 0..iters_per_batch {
            f(batch * iters_per_batch + i);
        }
        best = best.min(start.elapsed().as_nanos() as f64 / iters_per_batch as f64);
    }
    let vt = if runtime::in_fiber() {
        runtime::now() - vt_start
    } else {
        0
    };
    (best, vt as f64 / (BATCHES * iters_per_batch) as f64)
}

type Results = Vec<(&'static str, f64)>;

fn crypto_probes(out: &mut Results) {
    let key = KeyHierarchy::for_testing().network;
    let nonce = |i: usize| {
        let mut n = [0u8; 12];
        n[..8].copy_from_slice(&(i as u64).to_le_bytes());
        n
    };
    let small = [7u8; 64];
    let kib = [7u8; 1024];
    let block = [7u8; 4096];
    out.push((
        "crypto.aead_seal_64_wall_ns",
        per_call(2000, |i| {
            black_box(aead_seal(&key, &nonce(i), b"aad", black_box(&small)));
        })
        .0,
    ));
    out.push((
        "crypto.aead_seal_1k_wall_ns",
        per_call(2000, |i| {
            black_box(aead_seal(&key, &nonce(i), b"aad", black_box(&kib)));
        })
        .0,
    ));
    let sealed = aead_seal(&key, &nonce(0), b"aad", &kib);
    out.push((
        "crypto.aead_open_1k_wall_ns",
        per_call(2000, |_| {
            black_box(
                aead_open(&key, &nonce(0), b"aad", black_box(sealed.as_slice())).expect("opens"),
            );
        })
        .0,
    ));
    out.push((
        "crypto.sha256_4k_wall_ns",
        per_call(2000, |_| {
            black_box(sha256(black_box(&block)));
        })
        .0,
    ));
    out.push((
        "crypto.hmac_64_wall_ns",
        per_call(2000, |_| {
            black_box(hmac_sign(&key, black_box(&small)));
        })
        .0,
    ));
    let envelope = SecureEnvelope::new(WireCrypto::Full);
    let meta = TxMeta {
        node_id: 1,
        tx_id: 2,
        op_id: 3,
        kind: MsgKind::Data,
    };
    out.push((
        "crypto.envelope_roundtrip_1k_wall_ns",
        per_call(2000, |i| {
            let wire = envelope.seal(&key, nonce(i), &meta, black_box(&kib));
            black_box(envelope.open(&key, wire.as_slice()).expect("opens"));
        })
        .0,
    ));
}

fn tee_probe(out: &mut Results) {
    let vault = HostVault::new();
    out.push((
        "tee.vault_store_load_1k_wall_ns",
        per_call(2000, |_| {
            let handle = vault.store(HostBytes::declassified(vec![7u8; 1024], "benchmark probe"));
            black_box(vault.load(handle).expect("live handle"));
            vault.free(handle).expect("live handle");
        })
        .0,
    ));
}

fn codec_and_workload_probes(out: &mut Results) {
    let batch = ClientCommitReq {
        writes: (0..10)
            .map(|i| WriteCmd::put(format!("user{i:010}").as_bytes(), &[b'x'; 1000]))
            .collect(),
    };
    out.push((
        "core.codec_roundtrip_wall_ns",
        per_call(2000, |_| {
            let wire = messages::encode(black_box(&batch));
            black_box(messages::decode::<ClientCommitReq>(&wire).expect("decodes"));
        })
        .0,
    ));
    let mut gen = YcsbGenerator::new(YcsbConfig::balanced(), 42);
    out.push((
        "workload.gen_wall_ns_per_txn",
        per_call(2000, |_| {
            for op in gen.next_txn() {
                if op.kind == treaty_workload::YcsbOpKind::Update {
                    black_box(gen.next_value());
                }
                black_box(op);
            }
        })
        .0,
    ));
}

const ECHO: u8 = 1;

fn net_probe(out: &mut Results, key: Key) {
    let fabric = Fabric::new(CostModel::default(), 42);
    let server = Rpc::new(&fabric, 1, RpcConfig::client(WireCrypto::Full, key));
    server.register_handler(
        ECHO,
        true,
        Arc::new(|_src, meta, payload| {
            Some((
                TxMeta {
                    kind: MsgKind::Ack,
                    ..meta
                },
                payload,
            ))
        }),
    );
    server.start();
    let client = Rpc::new(&fabric, 100, RpcConfig::client(WireCrypto::Full, key));
    client.start();
    let payload = [7u8; 1024];
    let (wall, vt) = per_call(400, |i| {
        let meta = TxMeta {
            node_id: 100,
            tx_id: i as u64 + 1,
            op_id: 1,
            kind: MsgKind::Data,
        };
        black_box(client.call(1, ECHO, &meta, &payload).expect("echo"));
    });
    out.push(("net.rpc_roundtrip_1k_wall_ns", wall));
    out.push(("net.rpc_roundtrip_1k_vt_ns", vt));
    client.stop();
    server.stop();
}

fn counter_probe(out: &mut Results, keys: &KeyHierarchy, dir: &Path) {
    let fabric = Fabric::new(CostModel::default(), 42);
    let endpoints = [1000, 1001, 1002];
    let replicas: Vec<_> = endpoints
        .iter()
        .map(|&e| RoteReplica::start(&fabric, e, keys.counter, keys.sealing, dir))
        .collect();
    // The round floor the cluster uses (crates/core/src/cluster.rs).
    let group = RoteGroup::connect(&fabric, 2000, keys.counter, endpoints.to_vec(), 2 * MILLIS);
    let counter = TrustedCounter::new("probe", group, 0);
    let (wall, vt) = per_call(400, |_| {
        let v = counter.assign();
        counter.wait_stable(v).expect("stabilizes");
    });
    out.push(("counter.stabilize_wall_us", wall / 1e3));
    out.push(("counter.stabilize_vt_us", vt / 1e3));
    for r in replicas {
        r.stop();
    }
}

const STORE_KEYS: usize = 4000;

fn store_key(i: usize) -> Vec<u8> {
    format!("probe{:08}", i % STORE_KEYS).into_bytes()
}

/// A treaty_full single-node store holding [`STORE_KEYS`] 1000-byte rows,
/// all of them in a memtable too large to rotate until the caller flushes:
/// what is in the memtable and what is in the one SSTable is the probe's
/// choice, not the engine's.
fn open_store(dir: &Path, block_cache_bytes: usize) -> TreatyStore {
    let config = EngineConfig {
        block_cache_bytes,
        memtable_bytes: 64 << 20,
        ..EngineConfig::default()
    };
    let env = Env::for_testing_with(SecurityProfile::treaty_full(), dir, config);
    let store = TreatyStore::open(env).expect("store opens");
    for chunk in (0..STORE_KEYS).collect::<Vec<_>>().chunks(500) {
        let mut txn = store.begin_mode(TxnMode::Pessimistic);
        for &i in chunk {
            txn.put(&store_key(i), &[b'v'; 1000]).expect("put");
        }
        txn.commit().expect("commit");
    }
    store
}

fn get_probe(store: &TreatyStore) -> (f64, f64) {
    per_call(2000, |i| {
        // A stride coprime to the key count visits every block.
        let key = store_key(i * 37);
        black_box(store.get_committed(&key).expect("get").expect("present"));
    })
}

fn store_probes(out: &mut Results, dir: &Path) {
    let cached = open_store(&dir.join("cached"), 32 << 20);
    let (wall, vt) = per_call(400, |i| {
        let mut txn = cached.begin_mode(TxnMode::Pessimistic);
        txn.put(&store_key(i), &[b'w'; 1000]).expect("put");
        txn.commit().expect("commit");
    });
    out.push(("store.put_commit_wall_us", wall / 1e3));
    out.push(("store.put_commit_vt_us", vt / 1e3));
    out.push(("store.get_mem_wall_ns", get_probe(&cached).0));
    assert_eq!(
        cached.stats().flushes,
        0,
        "the put and memtable-get probes ran against a rotated memtable"
    );
    cached.flush().expect("flush");
    get_probe(&cached); // fills the block cache
    out.push(("store.get_sst_hit_wall_ns", get_probe(&cached).0));
    let (wall, vt) = per_call(2000, |i| {
        let start = store_key(i * 37);
        black_box(cached.scan(&start, b"probe~", u64::MAX, 20).expect("scan"));
    });
    out.push(("store.scan20_wall_us", wall / 1e3));
    out.push(("store.scan20_vt_us", vt / 1e3));

    // No block cache: every get fetches, verifies and decrypts its block.
    let uncached = open_store(&dir.join("uncached"), 0);
    uncached.flush().expect("flush");
    let (wall, vt) = get_probe(&uncached);
    out.push(("store.get_sst_miss_wall_ns", wall));
    out.push(("store.get_sst_miss_vt_ns", vt));

    let locks = LockTable::new(1024, 10 * MILLIS);
    out.push((
        "store.lock_cycle_wall_ns",
        per_call(2000, |i| {
            let key = store_key(i);
            locks
                .lock(1, &key, LockMode::Exclusive)
                .expect("uncontended");
            locks.release(1, [key]);
        })
        .0,
    ));

    let wal_dir = dir.join("wal");
    std::fs::create_dir_all(&wal_dir).expect("probe dir");
    let env = Env::for_testing_with(
        SecurityProfile::treaty_full(),
        &wal_dir,
        EngineConfig::default(),
    );
    let wal = LogWriter::open(env, "probe-wal", &wal_dir.join("probe.wal"), 0).expect("log opens");
    out.push((
        "store.wal_append_1k_wall_us",
        per_call(400, |_| {
            black_box(wal.append(&[7u8; 1000]).expect("append"));
        })
        .0 / 1e3,
    ));
}

fn fiber_switch_probe(out: &mut Results) {
    const YIELDS: usize = 10_000;
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let start = Instant::now();
        let pair: Vec<_> = (0..2)
            .map(|_| {
                spawn(|| {
                    for _ in 0..YIELDS {
                        yield_now();
                    }
                })
            })
            .collect();
        pair.into_iter().for_each(join);
        best = best.min(start.elapsed().as_nanos() as f64 / (2 * YIELDS) as f64);
    }
    out.push(("sim.fiber_switch_wall_ns", best));
}

/// Runs every probe; `dir` is scratch space for the ones that touch files.
pub fn run_all(dir: &Path) -> Results {
    let mut out = Results::new();
    crypto_probes(&mut out);
    tee_probe(&mut out);
    codec_and_workload_probes(&mut out);
    crate::run::progress("probes", out.len());

    let in_sim = Arc::new(Mutex::new(Results::new()));
    let slot = Arc::clone(&in_sim);
    let dir = dir.to_path_buf();
    Sim::new()
        .run(move || {
            let keys = KeyHierarchy::for_testing();
            let mut out = Results::new();
            fiber_switch_probe(&mut out);
            net_probe(&mut out, keys.network);
            crate::run::progress("probes", out.len());
            counter_probe(&mut out, &keys, &dir);
            crate::run::progress("probes", out.len());
            store_probes(&mut out, &dir);
            *slot.lock() = out;
        })
        .expect("probe simulation failed");
    out.extend(std::mem::take(&mut *in_sim.lock()));
    out
}
