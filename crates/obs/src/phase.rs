//! The catalogue of phases: every span and instant the workspace records,
//! each with its attribution [`Category`](crate::Category) on its line.

/// Declares a phase catalogue from one `Variant => "name", Category;` line
/// per phase, `, waiting` before the `;` marking a phase that parks for a
/// remote reply. `ALL`, `name()`, `category()`, `is_waiting()` and the
/// literal mapping `from_name()` all come from the one list.
///
/// ```
/// treaty_obs::phases! {
///     pub enum Toy {
///         Work => "toy.work", Other;
///         Call => "toy.call", Network, waiting;
///     }
/// }
/// assert_eq!(Toy::Call.category(), treaty_obs::Category::Network);
/// assert!(Toy::Call.is_waiting() && !Toy::Work.is_waiting());
/// assert_eq!(Toy::from_name("toy.work"), Some(Toy::Work));
/// ```
///
/// A line with no category does not compile:
///
/// ```compile_fail,E0080
/// treaty_obs::phases! {
///     pub enum Toy {
///         Work => "toy.work";
///     }
/// }
/// ```
#[macro_export]
macro_rules! phases {
    ($(#[$attr:meta])* pub enum $ty:ident {
        $($variant:ident => $name:literal $(, $cat:ident $(, $waiting:ident)?)?;)*
    }) => {
        $crate::phases!(@catalogue "phase", $(#[$attr])* $ty { $($variant => $name;)* });

        impl $ty {
            /// The category the phase's own time is attributed to.
            pub const fn category(self) -> $crate::Category {
                match self {
                    $($ty::$variant => $crate::phases!(@category $name $($cat)?),)*
                }
            }

            /// True for a phase that parks waiting for a remote reply.
            pub const fn is_waiting(self) -> bool {
                match self {
                    $($ty::$variant => $crate::phases!(@waiting $($($waiting)?)?),)*
                }
            }
        }
    };
    (@category $name:literal $cat:ident) => { $crate::Category::$cat };
    // A line with no category fails constant evaluation (E0080), naming it.
    (@category $name:literal) => {{
        const _: () = panic!(concat!("phase ", $name, " names no category"));
        $crate::Category::Other
    }};
    (@waiting waiting) => { true };
    (@waiting) => { false };
    (@catalogue $noun:literal, $(#[$attr:meta])* $ty:ident {
        $($variant:ident => $name:literal;)*
    }) => {
        $(#[$attr])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        pub enum $ty {
            $($variant,)*
        }

        impl $ty {
            /// Every variant, in declaration order: `ALL[i] as usize == i`.
            pub const ALL: [$ty; [$($name),*].len()] = [$($ty::$variant),*];

            /// The variant's dotted name, what every export prints.
            pub const fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)*
                }
            }

            /// The variant a dotted name spells, if the catalogue has it.
            pub fn from_name(name: &str) -> Option<$ty> {
                match name {
                    $($name => Some($ty::$variant),)*
                    _ => None,
                }
            }
        }

        impl std::fmt::Display for $ty {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(self.name())
            }
        }

        impl $crate::Named<$ty> for &str {
            fn resolve(self) -> $ty {
                $ty::from_name(self).unwrap_or_else(|| {
                    let ty = stringify!($ty);
                    panic!("unknown {} {self:?}: declare it in treaty_obs::{ty}", $noun)
                })
            }
        }
    };
}

phases! {
    /// Every span and instant recorded in the workspace. A call site names
    /// a variant, so a misspelt one does not compile:
    ///
    /// ```compile_fail,E0599
    /// let _ = treaty_obs::Phase::ClientComit;
    /// ```
    pub enum Phase {
        // Client (treaty-core client.rs): the spans attribution anchors on.
        ClientBegin => "client.begin", Other;
        ClientBeginReadOnly => "client.begin_read_only", Other;
        ClientOp => "client.op", Other, waiting;
        ClientCommit => "client.commit", Other, waiting;
        ClientCommitted => "client.committed", Other;
        ClientSnapshotRead => "client.snapshot_read", Other, waiting;
        ClientSnapshotValidate => "client.snapshot_validate", Other, waiting;
        // Coordinator (treaty-core node.rs, Fig. 2).
        CoordOp => "2pc.coordinate_op", Other, waiting;
        CoordCommit => "2pc.commit", Other;
        CoordPrepare => "2pc.prepare", Other, waiting;
        CoordStartStable => "2pc.start_stable", ClogDurability, waiting;
        CoordDecide => "2pc.decide", Other;
        CoordFinish => "2pc.finish", Other, waiting;
        CoordReadOnlyFinish => "2pc.read_only_finish", Other, waiting;
        CoordSendDecision => "2pc.send_decision", Other, waiting;
        CoordDecisionRetry => "2pc.decision_retry", Other;
        CoordDecisionUnstable => "2pc.decision_unstable", Other;
        CoordRollback => "2pc.rollback", Other, waiting;
        CoordRedriveFailed => "2pc.recovery_redrive_failed", Other;
        // Participant (treaty-core node.rs, peer handler).
        PartOp => "2pc.participant.op", Other;
        PartPrepare => "2pc.participant.prepare", Other;
        PartCommit => "2pc.participant.commit", Other;
        PartCommitPoint => "2pc.participant.commit_point", Other;
        PartAbort => "2pc.participant.abort", Other;
        PartQuery => "2pc.participant.query", Other;
        // Snapshot lane (treaty-core node.rs).
        SnapshotRead => "core.snapshot_read", StoreRead;
        SnapshotValidate => "core.snapshot_validate", StoreRead;
        // Log durability: the Clog (treaty-core clog.rs) and the WAL.
        ClogLogStart => "clog.log_start", ClogDurability;
        ClogLogDecision => "clog.log_decision", ClogDurability;
        ClogStabilize => "clog.stabilize", ClogDurability;
        WalStabilize => "wal.stabilize", ClogDurability;
        // Storage engine (treaty-store engine.rs, locks.rs).
        StoreGet => "store.get", StoreRead;
        StoreScan => "store.scan", StoreRead;
        StoreLockWait => "store.lock_wait", LockWait;
        StoreCommit => "store.commit", StoreWrite;
        StoreFlushRotate => "store.flush_rotate", StoreWrite;
        StoreFlush => "store.flush", StoreWrite;
        StoreCompact => "store.compact", StoreWrite;
        // Network (treaty-net fabric.rs, rpc.rs).
        NetSend => "net.send", Network;
        NetRecv => "net.recv", Network;
        RpcHandle => "rpc.handle", Tee;
        // Fault injection (treaty-sim crashpoint.rs).
        CrashFired => "crash.fired", Other;
        // The benchmark harness's own spans, named by literal there.
        BenchGet => "bench.get", Other;
        BenchPut => "bench.put", Other;
        BenchScan => "bench.scan", Other;
        BenchCommit => "bench.commit", Other;
    }
}

/// A catalogue's variant as a call site names it: the variant, or the name
/// the catalogue declares for it (the benchmark harness spells its
/// `bench.*` spans and reads four counters so).
pub trait Named<T> {
    /// The variant; panics on a name the catalogue lacks.
    fn resolve(self) -> T;
}

impl<T> Named<T> for T {
    fn resolve(self) -> T {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_map_back_to_their_variant() {
        for (i, phase) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(phase as usize, i);
            assert_eq!(Phase::from_name(phase.name()), Some(phase));
            assert_eq!(Named::<Phase>::resolve(phase.name()), phase);
            assert!(
                Phase::ALL[..i].iter().all(|p| p.name() != phase.name()),
                "{phase} is declared twice"
            );
        }
        for name in ["bench.get", "bench.put", "bench.scan", "bench.commit"] {
            assert_eq!(Named::<Phase>::resolve(name).name(), name);
        }
    }

    #[test]
    #[should_panic(expected = "unknown phase \"bench.gte\"")]
    fn an_unknown_literal_fails_loudly() {
        Named::<Phase>::resolve("bench.gte");
    }
}
