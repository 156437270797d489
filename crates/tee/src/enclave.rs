//! Enclave memory accounting and the untrusted host memory vault.

use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;

use treaty_crypto::Digest32;
use treaty_sim::obs::Counter;
use treaty_sim::{CostModel, FiberCell, Nanos, TeeMode};

use crate::hostbytes::HostBytes;
use crate::TeeError;

/// EPC size of SGX v1 (94 MiB usable).
pub const EPC_V1_BYTES: u64 = 94 * 1024 * 1024;
/// EPC size of SGX v2 (256 MiB usable).
pub const EPC_V2_BYTES: u64 = 256 * 1024 * 1024;

/// One node's enclave: tracks how much trusted memory the resident data
/// structures use and prices accesses accordingly.
///
/// The paper's designs (MemTable key/value split, host-resident message
/// buffers, `std::string` transaction buffers) all exist to keep this
/// number below the EPC limit; the accounting here is what lets the
/// benchmarks show *why*.
#[derive(Debug)]
pub struct Enclave {
    mode: TeeMode,
    epc_capacity: u64,
    resident: Cell<u64>,
    faults: Cell<u64>,
    /// Digests of plaintext buffers the enclave vouches for in untrusted
    /// memory (the "w/o Enc" profiles): refcounted so identical values
    /// stored twice stay pinned until both are freed. This map is what
    /// [`HostBytes::integrity_pinned`] checks.
    integrity: FiberCell<HashMap<Digest32, u64>>,
}

impl Enclave {
    /// Creates an enclave in the given mode with an SGX-v1-sized EPC.
    pub fn new(mode: TeeMode) -> Self {
        Self::with_epc(mode, EPC_V1_BYTES)
    }

    /// Creates an enclave with an explicit EPC budget (for the paging
    /// ablation benchmarks).
    pub fn with_epc(mode: TeeMode, epc_capacity: u64) -> Self {
        Enclave {
            mode,
            epc_capacity,
            resident: Cell::new(0),
            faults: Cell::new(0),
            integrity: FiberCell::new(HashMap::new()),
        }
    }

    /// The execution mode of this enclave.
    pub fn mode(&self) -> TeeMode {
        self.mode
    }

    /// Registers `bytes` of trusted allocation (MemTable keys, lock table,
    /// transaction buffers).
    pub fn alloc_trusted(&self, bytes: u64) {
        self.resident.update(|n| n + bytes);
    }

    /// Releases `bytes` of trusted allocation.
    pub fn free_trusted(&self, bytes: u64) {
        // Saturating: double-frees in tests shouldn't wrap.
        self.resident.set(self.resident.get().saturating_sub(bytes));
    }

    /// Bytes currently resident in trusted memory.
    pub fn resident_bytes(&self) -> u64 {
        self.resident.get()
    }

    /// The EPC budget of this enclave in bytes. Resident sets above this
    /// pay paging costs; cache-like structures use it to shed load.
    pub fn epc_capacity(&self) -> u64 {
        self.epc_capacity
    }

    /// Virtual-time cost of touching `bytes` of enclave memory.
    ///
    /// Native mode is free. In SCONE mode the MEE multiplier applies and,
    /// when the working set exceeds the EPC, an expected paging cost
    /// proportional to the overcommit ratio is added (deterministic
    /// expected-value charging keeps the simulation reproducible).
    pub fn access_cost(&self, costs: &CostModel, bytes: usize, base_cpu: Nanos) -> Nanos {
        match self.mode {
            TeeMode::Native => base_cpu,
            TeeMode::Scone => {
                let mut ns = costs.enclave_cpu(TeeMode::Scone, base_cpu);
                let resident = self.resident.get();
                if resident > self.epc_capacity {
                    let over = resident - self.epc_capacity;
                    // Probability that this access touches an evicted page.
                    let prob = over as f64 / resident as f64;
                    let pages = (bytes as u64).div_ceil(4096).max(1);
                    let paging = (costs.epc_fault_ns as f64 * prob * pages as f64) as Nanos;
                    ns += paging;
                    self.faults.update(|n| n + 1);
                    treaty_sim::obs::counter_add(Counter::TeeEpcFault, 1);
                    treaty_sim::obs::counter_add(Counter::TeePagingNs, paging);
                }
                ns
            }
        }
    }

    /// Number of accesses that incurred (expected) paging cost.
    pub fn fault_count(&self) -> u64 {
        self.faults.get()
    }

    // ---- integrity map (the trusted side of `HostBytes::integrity_pinned`) ----

    /// Registers `digest` as vouched-for plaintext in untrusted memory.
    /// Refcounted: pin twice, unpin twice.
    pub fn pin_integrity(&self, digest: Digest32) {
        *self.integrity.borrow_mut().entry(digest).or_insert(0) += 1;
    }

    /// Releases one pin on `digest`; the entry disappears when the
    /// refcount reaches zero.
    pub fn unpin_integrity(&self, digest: &Digest32) {
        let mut map = self.integrity.borrow_mut();
        if let Some(count) = map.get_mut(digest) {
            *count -= 1;
            if *count == 0 {
                map.remove(digest);
            }
        }
    }

    /// True iff `digest` is currently pinned.
    pub fn is_pinned(&self, digest: &Digest32) -> bool {
        self.integrity.borrow().contains_key(digest)
    }

    /// Number of distinct pinned digests (enclave-resident state the
    /// integrity map costs — useful for EPC accounting tests).
    pub fn pinned_digests(&self) -> usize {
        self.integrity.borrow().len()
    }
}

/// Handle to a buffer stored in untrusted host memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HostHandle(pub u64);

#[derive(Debug, Default)]
struct VaultInner {
    slots: HashMap<u64, Vec<u8>>,
    next: u64,
    bytes: u64,
}

/// Untrusted host memory.
///
/// Everything Treaty stores here must already be encrypted (values, message
/// buffers) or be integrity-pinned by a hash kept in the enclave. The
/// adversary API ([`HostVault::corrupt`], [`HostVault::dump`]) exists so
/// the test suite can mount the §III attacks.
#[derive(Debug, Default)]
pub struct HostVault {
    inner: FiberCell<VaultInner>,
}

impl HostVault {
    /// Creates an empty vault.
    pub fn new() -> Rc<Self> {
        Rc::new(HostVault::default())
    }

    /// Stores a buffer, returning its handle.
    ///
    /// The vault is untrusted host memory, so callers must prove the bytes
    /// are safe to expose by constructing a [`HostBytes`] first. Handing
    /// over raw plaintext no longer typechecks:
    ///
    /// ```compile_fail,E0308
    /// let vault = treaty_tee::HostVault::new();
    /// // A raw Vec<u8> is plaintext with no provenance: rejected.
    /// vault.store(vec![1u8, 2, 3]);
    /// ```
    pub fn store(&self, data: HostBytes) -> HostHandle {
        let data = data.into_vec();
        let mut inner = self.inner.borrow_mut();
        let id = inner.next;
        inner.next += 1;
        inner.bytes += data.len() as u64;
        inner.slots.insert(id, data);
        HostHandle(id)
    }

    /// Reads a copy of a stored buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::BadHandle`] if the handle was never issued or
    /// already freed.
    pub fn load(&self, h: HostHandle) -> Result<Vec<u8>, TeeError> {
        self.inner
            .borrow()
            .slots
            .get(&h.0)
            .cloned()
            .ok_or(TeeError::BadHandle(h.0))
    }

    /// Frees a stored buffer. Double-frees are errors.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::BadHandle`] if the handle is not live.
    pub fn free(&self, h: HostHandle) -> Result<(), TeeError> {
        let mut inner = self.inner.borrow_mut();
        match inner.slots.remove(&h.0) {
            Some(buf) => {
                inner.bytes -= buf.len() as u64;
                Ok(())
            }
            None => Err(TeeError::BadHandle(h.0)),
        }
    }

    /// Total bytes currently stored.
    pub fn resident_bytes(&self) -> u64 {
        self.inner.borrow().bytes
    }

    /// Number of live buffers.
    pub fn live_buffers(&self) -> usize {
        self.inner.borrow().slots.len()
    }

    // ---- adversary interface (used by the security test suite) ----

    /// Flips a byte in a stored buffer, simulating host-memory tampering.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::BadHandle`] if the handle is not live.
    pub fn corrupt(&self, h: HostHandle, offset: usize) -> Result<(), TeeError> {
        let mut inner = self.inner.borrow_mut();
        let buf = inner.slots.get_mut(&h.0).ok_or(TeeError::BadHandle(h.0))?;
        if let Some(b) = buf.get_mut(offset) {
            *b ^= 0xFF;
        }
        Ok(())
    }

    /// Returns a concatenated snapshot of every live buffer — what a
    /// privileged attacker reading host memory would see. Confidentiality
    /// tests scan this for plaintext.
    pub fn dump(&self) -> Vec<u8> {
        let inner = self.inner.borrow();
        let mut ids: Vec<_> = inner.slots.keys().copied().collect();
        ids.sort_unstable();
        let mut out = Vec::new();
        for id in ids {
            out.extend_from_slice(&inner.slots[&id]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_access_is_base_cost() {
        let e = Enclave::new(TeeMode::Native);
        let costs = CostModel::default();
        assert_eq!(e.access_cost(&costs, 4096, 1000), 1000);
    }

    #[test]
    fn scone_access_applies_mee_multiplier() {
        let e = Enclave::new(TeeMode::Scone);
        let costs = CostModel::default();
        assert_eq!(e.access_cost(&costs, 4096, 1000), 1900);
        assert_eq!(e.fault_count(), 0);
    }

    #[test]
    fn epc_overcommit_adds_paging_cost() {
        let e = Enclave::with_epc(TeeMode::Scone, 1024);
        let costs = CostModel::default();
        e.alloc_trusted(4096); // 4x overcommitted
        let cost = e.access_cost(&costs, 4096, 1000);
        assert!(cost > 1900, "paging must add cost, got {cost}");
        assert_eq!(e.fault_count(), 1);
    }

    #[test]
    fn alloc_free_accounting() {
        let e = Enclave::new(TeeMode::Scone);
        e.alloc_trusted(100);
        e.alloc_trusted(50);
        assert_eq!(e.resident_bytes(), 150);
        e.free_trusted(100);
        assert_eq!(e.resident_bytes(), 50);
        e.free_trusted(1_000_000); // saturates, never wraps
        assert_eq!(e.resident_bytes(), 0);
    }

    fn test_bytes(data: Vec<u8>) -> HostBytes {
        HostBytes::declassified(data, "vault unit-test buffer")
    }

    #[test]
    fn vault_store_load_free() {
        let v = HostVault::new();
        let h = v.store(test_bytes(vec![1, 2, 3]));
        assert_eq!(v.load(h).unwrap(), vec![1, 2, 3]);
        assert_eq!(v.resident_bytes(), 3);
        v.free(h).unwrap();
        assert_eq!(v.resident_bytes(), 0);
        assert_eq!(v.load(h), Err(TeeError::BadHandle(h.0)));
        assert_eq!(v.free(h), Err(TeeError::BadHandle(h.0)));
    }

    #[test]
    fn vault_corrupt_flips_bytes() {
        let v = HostVault::new();
        let h = v.store(test_bytes(vec![0u8; 4]));
        v.corrupt(h, 2).unwrap();
        assert_eq!(v.load(h).unwrap(), vec![0, 0, 0xFF, 0]);
    }

    #[test]
    fn vault_dump_sees_all_buffers() {
        let v = HostVault::new();
        v.store(test_bytes(b"aaa".to_vec()));
        v.store(test_bytes(b"bbb".to_vec()));
        let dump = v.dump();
        assert!(dump.windows(3).any(|w| w == b"aaa"));
        assert!(dump.windows(3).any(|w| w == b"bbb"));
    }

    #[test]
    fn integrity_map_is_refcounted() {
        let e = Enclave::new(TeeMode::Native);
        let digest = treaty_crypto::sha256(b"pinned-value");
        e.pin_integrity(digest);
        e.pin_integrity(digest);
        assert_eq!(e.pinned_digests(), 1);
        e.unpin_integrity(&digest);
        assert!(e.is_pinned(&digest), "one pin still outstanding");
        e.unpin_integrity(&digest);
        assert!(!e.is_pinned(&digest));
        assert_eq!(e.pinned_digests(), 0);
        // Unpinning an unknown digest is a no-op, not a panic.
        e.unpin_integrity(&digest);
    }
}
