//! The declared lock registry and yield-point vocabulary backing rules
//! L007, L009 and L010.
//!
//! A simulation runs on one OS thread, so shared state sits in `RefCell`s
//! and `Cell`s: a borrow never waits, it panics when it conflicts. The
//! only locks left that can block are the fiber locks
//! (`treaty_sched::FiberMutex`, and `GroupCommit` built on one), which park
//! the acquiring fiber and may be held across yields by design. Only they
//! can form a lock-order cycle, so only they are registered here.
//!
//! The analyzer (`crate::analyzer`) is a lexer, not a type checker: it
//! cannot see what a `.lock()` receiver *is*, only what it is *called*.
//! This module closes that gap by declaration — every fiber lock in the
//! analyzed crates (`core`, `store`, `sim`, `net`) is registered as
//! `(file, receiver identifier) → lock class`, and L010 fails any
//! `.lock()` site that does not resolve, so the L009 lock-order graph can
//! never silently miss an edge.

/// A declared lock class: one node in the L009 lock-order graph. Every
/// class is a fiber lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockClass {
    /// Stable class name, e.g. `"store.commit_lock"`.
    pub name: &'static str,
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

/// Every fiber lock class in the analyzed crates. Kept sorted by name.
#[rustfmt::skip] // a table: one entry per line
pub const LOCK_CLASSES: &[LockClass] = &[
    // The NIC port is deliberately occupied across the serialization
    // sleep — the egress link is a shared resource (fabric.rs).
    LockClass { name: "net.fabric.nic" },
    // Group-commit leader lock (`GroupCommit::lock`): the critical section
    // spans WAL I/O and flush hand-off by design.
    LockClass { name: "store.commit_lock" },
    // Maintenance daemon lock: held across flush/compaction I/O by design.
    LockClass { name: "store.maintenance_lock" },
    // Log write lock (`GroupCommit`): spans encrypt + counter-assign + SSD
    // charge.
    LockClass { name: "store.wal_write" },
];

/// Every `.lock()` receiver in the analyzed crates. L010 fails any call
/// site that does not resolve through this table.
#[rustfmt::skip] // a table: one entry per line
pub const LOCK_REGISTRY: &[LockSpec] = &[
    LockSpec { file: "crates/net/src/fabric.rs", receiver: "nic", class: "net.fabric.nic" },
    LockSpec { file: "crates/store/src/engine.rs", receiver: "commits", class: "store.commit_lock" },
    LockSpec { file: "crates/store/src/engine.rs", receiver: "maintenance_lock", class: "store.maintenance_lock" },
    LockSpec { file: "crates/store/src/log.rs", receiver: "writes", class: "store.wal_write" },
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
        assert!(class_by_name("store.commit_lock").is_some());
        assert!(class_by_name("no.such.class").is_none());
    }
}
