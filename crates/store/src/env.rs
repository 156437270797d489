//! The engine environment: profile, cost model, enclave, host memory,
//! cores, keys, counter backend and the node's storage directory.

use std::path::{Path, PathBuf};
use std::rc::Rc;

use treaty_counter::{CounterBackend, NullBackend};
use treaty_crypto::{Key, KeyHierarchy, Protection, Sealer};
use treaty_sched::CorePool;
use treaty_sim::obs::Counter;
use treaty_sim::{runtime, CostModel, FiberCell, Nanos, SecurityProfile};
use treaty_tee::{Enclave, HostVault};

use crate::cache::BlockCache;
use crate::engine::EngineStats;

/// The one mapping from a profile to what the wire and storage apply: full
/// protection under encryption, tags under authentication alone, none
/// otherwise.
pub fn protection(profile: &SecurityProfile) -> Protection {
    match (profile.encryption, profile.authentication) {
        (true, _) => Protection::Full,
        (false, true) => Protection::AuthOnly,
        (false, false) => Protection::Plain,
    }
}

/// Sizing and behaviour knobs for [`crate::TreatyStore`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// MemTable flush threshold in bytes (values + keys).
    pub memtable_bytes: usize,
    /// Target uncompressed block size inside SSTables.
    pub block_bytes: usize,
    /// Target SSTable file size produced by flush/compaction.
    pub sstable_bytes: usize,
    /// L0 file count that triggers a compaction into L1.
    pub l0_compaction_trigger: usize,
    /// Base size of L1 in bytes.
    pub l1_bytes: usize,
    /// Capacity of the trusted (enclave-resident) block cache in bytes.
    /// Zero disables the cache.
    pub block_cache_bytes: usize,
    /// Bits per key for the per-table Bloom filters. Zero disables filters.
    pub bloom_bits_per_key: usize,
    /// Soft write backpressure: when the flush backlog plus L0 file count
    /// reaches this, each committer absorbs one bounded stall so
    /// maintenance can catch up.
    pub l0_slowdown_trigger: usize,
    /// Hard write backpressure: at this backlog + L0 count committers
    /// block (they stall in a loop — never error) until pressure drops.
    pub l0_stop_trigger: usize,
    /// Virtual-time stall injected per backpressure step.
    pub backpressure_stall: Nanos,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            memtable_bytes: 4 << 20,
            block_bytes: 4096,
            sstable_bytes: 2 << 20,
            l0_compaction_trigger: 4,
            l1_bytes: 8 << 20,
            block_cache_bytes: 32 << 20,
            bloom_bits_per_key: 10,
            l0_slowdown_trigger: 8,
            l0_stop_trigger: 20,
            backpressure_stall: 200_000,
        }
    }
}

impl EngineConfig {
    /// A small configuration that exercises flush/compaction quickly in
    /// tests.
    pub fn tiny() -> Self {
        EngineConfig {
            memtable_bytes: 16 << 10,
            block_bytes: 1024,
            sstable_bytes: 16 << 10,
            l0_compaction_trigger: 2,
            l1_bytes: 64 << 10,
            block_cache_bytes: 256 << 10,
            l0_slowdown_trigger: 4,
            l0_stop_trigger: 10,
            ..Self::default()
        }
    }
}

/// Everything the engine needs to know about the node it runs on.
pub struct Env {
    /// Which protections are active.
    pub profile: SecurityProfile,
    /// Virtual-time cost model.
    pub costs: CostModel,
    /// The node's enclave (EPC accounting).
    pub enclave: Rc<Enclave>,
    /// Untrusted host memory for encrypted values and buffers. Stores only
    /// accept boundary-typed [`treaty_tee::HostBytes`]: ciphertext,
    /// integrity-pinned plaintext (digest registered with [`Env::enclave`]),
    /// or explicitly declassified baseline data.
    pub vault: Rc<HostVault>,
    /// The node's CPU cores; `None` means uncontended (unit tests).
    pub cores: Option<Rc<CorePool>>,
    /// Key hierarchy from the CAS.
    pub keys: KeyHierarchy,
    /// Trusted counter backend for log stabilization.
    pub backend: Rc<dyn CounterBackend>,
    /// Node-local storage directory (WAL, MANIFEST, Clog, SSTables).
    pub dir: PathBuf,
    /// Engine sizing.
    pub config: EngineConfig,
    /// Trusted block cache over decrypted SSTable blocks; `None` when the
    /// cache is disabled (`block_cache_bytes == 0`).
    pub block_cache: Option<Rc<BlockCache>>,
    /// The store's counters behind [`crate::TreatyStore::stats`].
    pub(crate) stats: FiberCell<EngineStats>,
}

impl std::fmt::Debug for Env {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Env")
            .field("profile", &self.profile)
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

impl Env {
    /// The one constructor: a fresh enclave, host vault, block cache (sized
    /// by `config`) and zeroed counters around the given parts.
    pub fn new(
        profile: SecurityProfile,
        costs: CostModel,
        cores: Option<Rc<CorePool>>,
        keys: KeyHierarchy,
        backend: Rc<dyn CounterBackend>,
        dir: PathBuf,
        config: EngineConfig,
    ) -> Rc<Self> {
        let enclave = Rc::new(Enclave::new(profile.tee));
        let block_cache =
            BlockCache::new_shared(Rc::clone(&enclave), config.block_cache_bytes as u64);
        Rc::new(Env {
            profile,
            costs,
            enclave,
            vault: HostVault::new(),
            cores,
            keys,
            backend,
            dir,
            config,
            block_cache,
            stats: FiberCell::default(),
        })
    }

    /// An environment for tests: given profile, default costs, fresh
    /// enclave/vault, no core contention, test keys, instant stabilization.
    pub fn for_testing(profile: SecurityProfile, dir: &Path) -> Rc<Self> {
        Self::for_testing_with(profile, dir, EngineConfig::tiny())
    }

    /// Like [`Env::for_testing`] but with an explicit engine configuration
    /// (cache ablations, filter sizing).
    pub fn for_testing_with(
        profile: SecurityProfile,
        dir: &Path,
        config: EngineConfig,
    ) -> Rc<Self> {
        Self::new(
            profile,
            CostModel::default(),
            None,
            KeyHierarchy::for_testing(),
            NullBackend::new(),
            dir.to_path_buf(),
            config,
        )
    }

    /// Charges `ns` of CPU to this node (core pool if present, otherwise
    /// plain virtual sleep). A no-op outside the simulation runtime, which
    /// lets plain unit tests drive the engine directly.
    pub fn charge(&self, ns: Nanos) {
        if ns == 0 || !runtime::in_fiber() {
            return;
        }
        match &self.cores {
            Some(pool) => pool.charge(ns),
            None => runtime::sleep(ns),
        }
    }

    /// Charges an operation on enclave-resident data (MEE multiplier and
    /// expected paging per the enclave's current footprint).
    pub fn charge_enclave_op(&self, bytes: usize, base: Nanos) {
        let ns = self.enclave.access_cost(&self.costs, bytes, base);
        self.charge(ns);
    }

    /// A [`Sealer`] under `key` whose nonces begin with `prefix`, its mode
    /// fixed by the profile ([`protection`]).
    pub(crate) fn sealer<const N: usize>(&self, key: Key, prefix: [u8; N]) -> Sealer {
        Sealer::new(key, prefix, protection(&self.profile))
    }

    /// Charges pure CPU work, applying the enclave multiplier under SCONE.
    pub fn charge_cpu(&self, ns: Nanos) {
        self.charge(self.costs.enclave_cpu(self.profile.tee, ns));
    }

    /// Charges encryption/decryption of `bytes` if the profile encrypts.
    pub fn charge_crypto(&self, bytes: usize) {
        if self.profile.encryption {
            self.charge_cpu(self.costs.aes_ns(bytes));
        }
    }

    /// Charges hashing of `bytes` if the profile authenticates.
    pub fn charge_hash(&self, bytes: usize) {
        if self.profile.authentication {
            self.charge_cpu(self.costs.sha_ns(bytes));
        }
    }

    /// Charges an SSD log append + flush of `bytes`.
    pub fn charge_ssd_append(&self, bytes: usize) {
        // Two syscalls (write + fsync), each an enclave↔host boundary
        // crossing under a TEE (world switch or its SCONE async equivalent).
        if self.profile.tee == treaty_sim::TeeMode::Scone {
            treaty_sim::obs::counter_add(Counter::TeeWorldSwitch, 2);
        }
        self.charge(self.costs.ssd_append_ns(self.profile.tee, bytes));
    }

    /// Charges a (page-cache-resident) storage read of `bytes`.
    pub fn charge_storage_read(&self, bytes: usize) {
        if self.profile.tee == treaty_sim::TeeMode::Scone {
            treaty_sim::obs::counter_add(Counter::TeeWorldSwitch, 1);
        }
        self.charge(self.costs.storage_read_ns(self.profile.tee, bytes));
    }

    /// Charges a trusted block-cache hit: an in-enclave lookup over
    /// `bytes` of cached records — no syscall, no boundary copy, no
    /// decrypt. Strictly cheaper than [`Env::charge_storage_read`] plus
    /// decryption as long as the enclave is not pathologically
    /// overcommitted (the cache sheds itself under EPC pressure precisely
    /// to stay out of that regime).
    pub fn charge_cache_hit(&self, bytes: usize) {
        self.charge_enclave_op(bytes, self.costs.block_cache_hit_ns);
    }

    /// Charges one Bloom-filter probe (k bit tests over the in-enclave
    /// filter; the touched footprint is a few cache lines).
    pub fn charge_bloom_probe(&self) {
        self.charge_enclave_op(64, self.costs.bloom_probe_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treaty_sched::block_on;
    use treaty_sim::runtime::now;

    #[test]
    fn charge_is_noop_outside_runtime() {
        let dir = tempfile::tempdir().unwrap();
        let env = Env::for_testing(SecurityProfile::treaty_full(), dir.path());
        env.charge(1_000_000); // must not panic or block
    }

    #[test]
    fn charge_advances_virtual_time_in_fiber() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().to_path_buf();
        block_on(move || {
            let env = Env::for_testing(SecurityProfile::treaty_full(), &path);
            env.charge(5_000);
            assert_eq!(now(), 5_000);
        });
    }

    #[test]
    fn crypto_charge_respects_profile() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().to_path_buf();
        block_on(move || {
            let plain = Env::for_testing(SecurityProfile::rocksdb(), &path);
            plain.charge_crypto(4096);
            assert_eq!(now(), 0, "no encryption => no charge");
            let enc = Env::for_testing(SecurityProfile::treaty_enc(), &path);
            enc.charge_crypto(4096);
            assert!(now() > 0);
        });
    }

    #[test]
    fn scone_storage_ops_cost_more() {
        let dir = tempfile::tempdir().unwrap();
        let env_native = Env::for_testing(SecurityProfile::rocksdb(), dir.path());
        let env_scone = Env::for_testing(SecurityProfile::treaty_enc(), dir.path());
        let n = env_native.costs.ssd_append_ns(env_native.profile.tee, 4096);
        let s = env_scone.costs.ssd_append_ns(env_scone.profile.tee, 4096);
        assert!(s > n);
    }
}
