//! Typed identifiers.
//!
//! StreamLake routes every request through several naming layers (topic →
//! stream → stream object → shard → PLog). Newtype ids keep those layers from
//! being mixed up at compile time; all of them are cheap `Copy` wrappers
//! around `u64`.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u64);

        impl $name {
            /// Raw numeric value of the identifier.
            pub fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "-{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                $name(v)
            }
        }
    };
}

define_id!(
    /// A storage object in the store layer (stream object or table-object file).
    ObjectId,
    "obj"
);
define_id!(
    /// One of the 4096 logical shards the DHT spreads slices over.
    ShardId,
    "shard"
);
define_id!(
    /// A persistence-log unit controlling a fixed span of storage space.
    PlogId,
    "plog"
);
define_id!(
    /// A stream within a topic (one stream maps to one stream object).
    StreamId,
    "stream"
);
define_id!(
    /// A stream worker in the data-service layer.
    WorkerId,
    "worker"
);
define_id!(
    /// A lakehouse table registered in the catalog.
    TableId,
    "table"
);
define_id!(
    /// A lakehouse snapshot (one per committed transaction).
    SnapshotId,
    "snap"
);
define_id!(
    /// A stream transaction coordinated with two-phase commit.
    TxnId,
    "txn"
);

/// Monotonic id generator shared by services that mint new identifiers.
///
/// Ids are process-local and start from 1 so that 0 can serve as a sentinel.
#[derive(Debug)]
pub struct IdGen {
    next: AtomicU64,
}

impl IdGen {
    /// Create a generator whose first issued id is 1.
    pub fn new() -> Self {
        IdGen { next: AtomicU64::new(1) }
    }

    /// Issue the next id.
    pub fn next(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }
}

impl Default for IdGen {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(ObjectId(7).to_string(), "obj-7");
        assert_eq!(ShardId(4095).to_string(), "shard-4095");
        assert_eq!(TxnId(1).to_string(), "txn-1");
    }

    #[test]
    fn idgen_is_monotonic_and_starts_at_one() {
        let g = IdGen::new();
        assert_eq!(g.next(), 1);
        assert_eq!(g.next(), 2);
    }

    #[test]
    fn idgen_is_safe_across_threads() {
        let g = std::sync::Arc::new(IdGen::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let g = g.clone();
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| g.next()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000, "ids must be unique across threads");
    }

    #[test]
    fn ids_order_by_raw_value() {
        assert!(SnapshotId(1) < SnapshotId(2));
        assert_eq!(TableId::from(9).raw(), 9);
    }
}
