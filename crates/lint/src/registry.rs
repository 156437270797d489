//! The declared lock registry and yield-point vocabulary backing rules
//! L007–L010.
//!
//! The analyzer (`crate::analyzer`) is a lexer, not a type checker: it
//! cannot see what a `.lock()` receiver *is*, only what it is *called*.
//! This module closes that gap by declaration — every mutex in the
//! concurrency-bearing crates (`core`, `store`, `sim`, `net`), `RwLock`s
//! included, is registered here as `(file, receiver identifier) → lock
//! class`, and L010 fails any `.lock()` / `.read()` / `.write()` site
//! that does not resolve, so the L009 lock-order graph can never
//! silently miss an edge.
//!
//! Two flags qualify a class:
//!
//! * `fiber` — the lock is fiber-aware (`treaty_sched::FiberMutex`, or a
//!   lock deliberately held across a charge): holding it across a yield
//!   point is the *intended* usage, so L007 exempts its guards.
//!   Acquiring a fiber lock still *is* a yield point (the acquire can
//!   park), so doing so while holding a non-fiber guard is flagged.
//! * `ordered` — a sharded/striped family registered as one class whose
//!   members are only ever taken one at a time or in a defined order;
//!   self-edges inside the class are allowed. Unordered classes with a
//!   self-edge are reported as a one-node cycle.

/// A declared lock class: one node in the L009 lock-order graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockClass {
    /// Stable class name, e.g. `"store.commit_lock"`.
    pub name: &'static str,
    /// Fiber-aware lock: guards may be held across yields (L007 exempt),
    /// but acquisition itself is a yield point.
    pub fiber: bool,
    /// Sharded family with a defined intra-class order; self-edges OK.
    pub ordered: bool,
}

/// Maps one `.lock()` receiver identifier in one file to its class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockSpec {
    /// Repo-relative file the receiver lives in.
    pub file: &'static str,
    /// The identifier immediately before `.lock()` — a field name, a
    /// local binding, or the method that returns the lock.
    pub receiver: &'static str,
    /// Name of the [`LockClass`] this receiver resolves to.
    pub class: &'static str,
}

/// Every lock class in the workspace. Kept sorted by name.
#[rustfmt::skip] // a table: one entry per line
pub const LOCK_CLASSES: &[LockClass] = &[
    LockClass { name: "core.clog.state", fiber: false, ordered: false },
    LockClass { name: "core.node.active_coord", fiber: false, ordered: false },
    LockClass { name: "core.node.active_part", fiber: false, ordered: false },
    LockClass { name: "core.node.recently_aborted", fiber: false, ordered: false },
    LockClass { name: "core.node.stats", fiber: false, ordered: false },
    LockClass { name: "net.fabric.adversary", fiber: false, ordered: false },
    LockClass { name: "net.fabric.capture", fiber: false, ordered: false },
    LockClass { name: "net.fabric.endpoints", fiber: false, ordered: false },
    LockClass { name: "net.fabric.inbox_closed", fiber: false, ordered: false },
    LockClass { name: "net.fabric.inbox_queue", fiber: false, ordered: false },
    // The NIC port is deliberately occupied across the serialization
    // sleep — the egress link is a shared resource (fabric.rs).
    LockClass { name: "net.fabric.nic", fiber: true, ordered: false },
    LockClass { name: "net.fabric.rng", fiber: false, ordered: false },
    LockClass { name: "net.rpc.guard", fiber: false, ordered: false },
    LockClass { name: "net.rpc.handlers", fiber: false, ordered: false },
    LockClass { name: "net.rpc.numbering", fiber: false, ordered: false },
    LockClass { name: "net.rpc.outbox", fiber: false, ordered: false },
    LockClass { name: "net.rpc.sessions", fiber: false, ordered: false },
    LockClass { name: "sim.crash.handlers", fiber: false, ordered: false },
    LockClass { name: "sim.crash.state", fiber: false, ordered: false },
    LockClass { name: "store.cache", fiber: false, ordered: false },
    // Group-commit leader lock (`GroupCommit::lock`): the critical section
    // spans WAL I/O and flush hand-off by design (a FiberMutex inside).
    LockClass { name: "store.commit_lock", fiber: true, ordered: false },
    LockClass { name: "store.frontier", fiber: false, ordered: false },
    LockClass { name: "store.frozen", fiber: false, ordered: false },
    LockClass { name: "store.levels", fiber: false, ordered: false },
    LockClass { name: "store.live_wal_gens", fiber: false, ordered: false },
    // Hash-sharded lock-table: shards are only ever taken one at a time.
    LockClass { name: "store.lock_table_shard", fiber: false, ordered: true },
    // Maintenance daemon lock: held across flush/compaction I/O by design.
    LockClass { name: "store.maintenance_lock", fiber: true, ordered: false },
    LockClass { name: "store.mem", fiber: false, ordered: false },
    LockClass { name: "store.memtable_index", fiber: false, ordered: false },
    LockClass { name: "store.memtable_tombstones", fiber: false, ordered: false },
    LockClass { name: "store.null_engine_data", fiber: false, ordered: false },
    LockClass { name: "store.null_engine_prepared", fiber: false, ordered: false },
    LockClass { name: "store.pending_gc", fiber: false, ordered: false },
    LockClass { name: "store.prepared_key_index", fiber: false, ordered: false },
    LockClass { name: "store.prepared_ranges", fiber: false, ordered: false },
    LockClass { name: "store.prepared_txns", fiber: false, ordered: false },
    LockClass { name: "store.flush_backlog", fiber: false, ordered: false },
    // Log write lock (`GroupCommit::lock`): spans encrypt + counter-assign
    // + SSD charge (a FiberMutex inside, per the log.rs doc comment).
    LockClass { name: "store.wal", fiber: false, ordered: false },
    LockClass { name: "store.wal_write", fiber: true, ordered: false },
    LockClass { name: "store.wal_file", fiber: false, ordered: false },
];

/// Every `.lock()` receiver in the analyzed crates. L010 fails any call
/// site that does not resolve through this table.
#[rustfmt::skip] // a table: one entry per line
pub const LOCK_REGISTRY: &[LockSpec] = &[
    // -- crates/sim ---------------------------------------------------
    LockSpec { file: "crates/sim/src/crashpoint.rs", receiver: "state", class: "sim.crash.state" },
    LockSpec { file: "crates/sim/src/crashpoint.rs", receiver: "handlers", class: "sim.crash.handlers" },
    // -- crates/net ---------------------------------------------------
    LockSpec { file: "crates/net/src/fabric.rs", receiver: "endpoints", class: "net.fabric.endpoints" },
    LockSpec { file: "crates/net/src/fabric.rs", receiver: "adversary", class: "net.fabric.adversary" },
    LockSpec { file: "crates/net/src/fabric.rs", receiver: "rng", class: "net.fabric.rng" },
    LockSpec { file: "crates/net/src/fabric.rs", receiver: "capture", class: "net.fabric.capture" },
    LockSpec { file: "crates/net/src/fabric.rs", receiver: "queue", class: "net.fabric.inbox_queue" },
    LockSpec { file: "crates/net/src/fabric.rs", receiver: "closed", class: "net.fabric.inbox_closed" },
    LockSpec { file: "crates/net/src/fabric.rs", receiver: "nic", class: "net.fabric.nic" },
    LockSpec { file: "crates/net/src/rpc.rs", receiver: "numbering", class: "net.rpc.numbering" },
    LockSpec { file: "crates/net/src/rpc.rs", receiver: "handlers", class: "net.rpc.handlers" },
    LockSpec { file: "crates/net/src/rpc.rs", receiver: "sessions", class: "net.rpc.sessions" },
    LockSpec { file: "crates/net/src/rpc.rs", receiver: "guard", class: "net.rpc.guard" },
    LockSpec { file: "crates/net/src/rpc.rs", receiver: "outbox", class: "net.rpc.outbox" },
    // -- crates/core --------------------------------------------------
    LockSpec { file: "crates/core/src/node.rs", receiver: "stats", class: "core.node.stats" },
    LockSpec { file: "crates/core/src/node.rs", receiver: "active_coord", class: "core.node.active_coord" },
    LockSpec { file: "crates/core/src/node.rs", receiver: "active_part", class: "core.node.active_part" },
    LockSpec { file: "crates/core/src/node.rs", receiver: "recently_aborted", class: "core.node.recently_aborted" },
    LockSpec { file: "crates/core/src/clog.rs", receiver: "state", class: "core.clog.state" },
    // -- crates/store -------------------------------------------------
    LockSpec { file: "crates/store/src/engine.rs", receiver: "commits", class: "store.commit_lock" },
    LockSpec { file: "crates/store/src/engine.rs", receiver: "maintenance_lock", class: "store.maintenance_lock" },
    LockSpec { file: "crates/store/src/engine.rs", receiver: "pending_gc", class: "store.pending_gc" },
    LockSpec { file: "crates/store/src/engine.rs", receiver: "live_wal_gens", class: "store.live_wal_gens" },
    LockSpec { file: "crates/store/src/engine.rs", receiver: "flush_backlog", class: "store.flush_backlog" },
    LockSpec { file: "crates/store/src/engine.rs", receiver: "state", class: "store.frontier" },
    LockSpec { file: "crates/store/src/engine.rs", receiver: "txns", class: "store.prepared_txns" },
    LockSpec { file: "crates/store/src/engine.rs", receiver: "key_index", class: "store.prepared_key_index" },
    LockSpec { file: "crates/store/src/engine.rs", receiver: "mem", class: "store.mem" },
    LockSpec { file: "crates/store/src/engine.rs", receiver: "frozen", class: "store.frozen" },
    LockSpec { file: "crates/store/src/engine.rs", receiver: "levels", class: "store.levels" },
    LockSpec { file: "crates/store/src/engine.rs", receiver: "wal", class: "store.wal" },
    LockSpec { file: "crates/store/src/engine.rs", receiver: "ranges", class: "store.prepared_ranges" },
    LockSpec { file: "crates/store/src/memtable.rs", receiver: "index", class: "store.memtable_index" },
    LockSpec { file: "crates/store/src/memtable.rs", receiver: "range_tombstones", class: "store.memtable_tombstones" },
    LockSpec { file: "crates/store/src/locks.rs", receiver: "locks", class: "store.lock_table_shard" },
    LockSpec { file: "crates/store/src/log.rs", receiver: "writes", class: "store.wal_write" },
    LockSpec { file: "crates/store/src/log.rs", receiver: "file", class: "store.wal_file" },
    LockSpec { file: "crates/store/src/cache.rs", receiver: "inner", class: "store.cache" },
    LockSpec { file: "crates/store/src/txn.rs", receiver: "data", class: "store.null_engine_data" },
    LockSpec { file: "crates/store/src/txn.rs", receiver: "prepared", class: "store.null_engine_prepared" },
];

/// Path prefixes of the crates the concurrency analyzer covers. Files
/// outside (notably `crates/sched`, which *implements* the yield
/// primitives, and `tests/`/`benches/`) are out of scope. Only `src/`
/// files count: integration tests under `crates/*/tests/` build ad-hoc
/// mutexes that are not part of the production lock-order story.
pub const ANALYZER_SCOPE_PREFIXES: &[&str] = &[
    "crates/core/src/",
    "crates/store/src/",
    "crates/sim/src/",
    "crates/net/src/",
];

/// Free functions that yield the current fiber (matched when called as a
/// plain or path-qualified function, never as a method).
pub const FREE_YIELDS: &[&str] = &[
    "sleep",
    "park",
    "park_timeout",
    "yield_now",
    "join",
    "block_on",
];

/// Methods that yield the calling fiber: scheduler primitives
/// (`WaitQueue`, `CorePool`), the RPC
/// send/recv entry points in `crates/net`, CPU/I-O charges, and log
/// stabilization. Matched as `.name(`.
pub const METHOD_YIELDS: &[&str] = &[
    // treaty-sched primitives
    "wait",
    "wait_timeout",
    "recv",
    "charge",
    // CPU / storage charges (pool.charge or runtime::sleep underneath)
    "charge_enclave_op",
    "charge_cpu",
    "charge_crypto",
    "charge_hash",
    "charge_ssd_append",
    "charge_storage_read",
    "charge_cache_hit",
    // RPC entry points (seal/open charge crypto; wait parks)
    "call",
    "tx_burst",
    "send_oneway",
    "enqueue_request",
    "enqueue_request_on",
    // log durability (parks on the trusted-counter service)
    "stabilize",
    "wait_stable",
];

/// The audit marker that documents an L008 exception.
pub const CRASH_SAFE_MARKER: &str = "LINT-CRASH-SAFE:";

/// Looks up a lock class by name.
pub fn class_by_name(name: &str) -> Option<&'static LockClass> {
    LOCK_CLASSES.iter().find(|c| c.name == name)
}

/// Resolves a `.lock()` receiver in `file` through a registry. Returns
/// the class, or `None` if the receiver is unregistered (an L010
/// violation in scope).
pub fn resolve<'r>(registry: &'r [LockSpec], file: &str, receiver: &str) -> Option<&'r LockSpec> {
    registry
        .iter()
        .find(|s| s.file == file && s.receiver == receiver)
}

/// True if `file` falls under the analyzer's crate scope.
pub fn in_scope(file: &str) -> bool {
    ANALYZER_SCOPE_PREFIXES.iter().any(|p| file.starts_with(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_classes_all_declared() {
        for spec in LOCK_REGISTRY {
            assert!(
                class_by_name(spec.class).is_some(),
                "spec {}:{} names undeclared class {}",
                spec.file,
                spec.receiver,
                spec.class
            );
        }
    }

    #[test]
    fn registry_has_no_duplicate_keys() {
        for (i, a) in LOCK_REGISTRY.iter().enumerate() {
            for b in &LOCK_REGISTRY[i + 1..] {
                assert!(
                    !(a.file == b.file && a.receiver == b.receiver),
                    "duplicate registry key {}:{}",
                    a.file,
                    a.receiver
                );
            }
        }
    }

    #[test]
    fn class_names_unique_and_sorted_lookup_works() {
        for (i, a) in LOCK_CLASSES.iter().enumerate() {
            for b in &LOCK_CLASSES[i + 1..] {
                assert_ne!(a.name, b.name, "duplicate class {}", a.name);
            }
        }
        assert!(class_by_name("store.commit_lock").unwrap().fiber);
        assert!(class_by_name("store.lock_table_shard").unwrap().ordered);
        assert!(class_by_name("no.such.class").is_none());
    }
}
