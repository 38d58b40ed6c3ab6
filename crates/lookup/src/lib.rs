//! # catrisk-lookup
//!
//! Event-loss lookup structures.
//!
//! The paper identifies the representation of Event Loss Tables as *the*
//! key design decision of the aggregate risk engine (§III.B): the analysis
//! performs billions of random-key lookups (1 M trials × 1000 events × 15
//! ELTs = 15 × 10⁹ lookups for the standard workload), so the engine is
//! memory-access bound and the number of memory accesses per lookup
//! dominates everything else.  The paper chooses a **direct access table** —
//! a dense array indexed by event id, extremely sparse (e.g. 20 K non-zero
//! losses in a 2 M-event catalog) but answering every lookup with exactly
//! one memory access.
//!
//! This crate implements that structure plus the alternatives the paper
//! discusses and rejects, so the trade-off can be measured (the perf
//! ledger's `lookup.*.mlookups_per_s` rows and `figures ablation-lookup`):
//!
//! * [`DirectAccessTable`] — dense `Vec<f64>` indexed by event id (paper's
//!   choice; one access per lookup, `O(catalog)` memory);
//! * [`SortedTable`] — sorted `(event, loss)` pairs with binary search
//!   (`O(log n)` accesses, compact);
//! * [`HashedTable`] — open-addressing hash table with a Fibonacci/Fx-style
//!   integer hash (amortised `O(1)` accesses, compact, but with probing);
//! * [`CuckooTable`] — two-choice cuckoo hashing (worst-case 2 accesses per
//!   lookup, compact, expensive construction) — the paper cites cuckoo
//!   hashing as the constant-time alternative it declined to use;
//! * [`CountingLookup`] — a wrapper that counts lookups/probes, used by the
//!   instrumentation and the ablation benchmarks.
//!
//! All structures implement [`EventLookup`] and are validated against a
//! `BTreeMap` reference in unit and property tests.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod counting;
pub mod cuckoo;
pub mod direct;
pub mod hashed;
pub mod sorted;

pub use counting::CountingLookup;
pub use cuckoo::CuckooTable;
pub use direct::DirectAccessTable;
pub use hashed::HashedTable;
pub use sorted::SortedTable;

use serde::{Deserialize, Serialize};

/// Identifier of an event in the stochastic catalog.
///
/// Event ids are dense small integers (`0..catalog_size`), which is what
/// makes the direct access table representation possible.
pub type EventId = u32;

/// A read-only mapping from event id to loss.
///
/// `get` returns 0.0 for events that have no entry — an event that does not
/// appear in an ELT produces no loss for that exposure set, so the zero is
/// semantically meaningful and lets the engine avoid branching.
pub trait EventLookup: Send + Sync {
    /// Returns the loss for `event`, or 0.0 when the event has no entry.
    fn get(&self, event: EventId) -> f64;

    /// Number of entries (events with a stored loss, including explicit zeros).
    fn len(&self) -> usize;

    /// True when the table holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap memory used by the structure, in bytes.
    fn memory_bytes(&self) -> usize;

    /// Short name used in benchmark output.
    fn kind(&self) -> LookupKind;
}

/// The available lookup-structure implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LookupKind {
    /// Dense direct access table (the paper's choice).
    Direct,
    /// Sorted array with binary search.
    Sorted,
    /// Open-addressing hash table.
    Hashed,
    /// Cuckoo hash table.
    Cuckoo,
}

impl LookupKind {
    /// All implemented kinds, in the order used by the ablation benchmark.
    pub const ALL: [LookupKind; 4] = [
        LookupKind::Direct,
        LookupKind::Sorted,
        LookupKind::Hashed,
        LookupKind::Cuckoo,
    ];

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            LookupKind::Direct => "direct",
            LookupKind::Sorted => "sorted",
            LookupKind::Hashed => "hashed",
            LookupKind::Cuckoo => "cuckoo",
        }
    }
}

impl std::fmt::Display for LookupKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Builds the lookup structure of the requested kind from `(event, loss)`
/// pairs.
///
/// `catalog_size` is the size of the event catalog (one past the largest
/// possible event id); only the direct access table uses it, but passing it
/// uniformly keeps construction generic.
pub fn build_lookup(
    kind: LookupKind,
    pairs: &[(EventId, f64)],
    catalog_size: u32,
) -> Box<dyn EventLookup> {
    match kind {
        LookupKind::Direct => Box::new(DirectAccessTable::from_pairs(pairs, catalog_size)),
        LookupKind::Sorted => Box::new(SortedTable::from_pairs(pairs)),
        LookupKind::Hashed => Box::new(HashedTable::from_pairs(pairs)),
        LookupKind::Cuckoo => Box::new(CuckooTable::from_pairs(pairs)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn sample_pairs() -> Vec<(EventId, f64)> {
        vec![
            (3, 10.0),
            (17, 2.5),
            (1_000, 7.0),
            (999_999, 123.0),
            (42, 0.0),
        ]
    }

    #[test]
    fn build_lookup_all_kinds_agree_with_reference() {
        let pairs = sample_pairs();
        let reference: BTreeMap<EventId, f64> = pairs.iter().copied().collect();
        for kind in LookupKind::ALL {
            let table = build_lookup(kind, &pairs, 1_000_000);
            assert_eq!(table.kind(), kind);
            assert_eq!(table.len(), pairs.len(), "{kind}");
            assert!(!table.is_empty());
            assert!(table.memory_bytes() > 0);
            for ev in [0u32, 3, 17, 42, 1_000, 500_000, 999_999] {
                let expected = reference.get(&ev).copied().unwrap_or(0.0);
                assert_eq!(table.get(ev), expected, "{kind} event {ev}");
            }
        }
    }

    #[test]
    fn kind_labels_unique() {
        let mut labels: Vec<&str> = LookupKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), LookupKind::ALL.len());
        assert_eq!(LookupKind::Direct.to_string(), "direct");
    }

    #[test]
    fn direct_table_uses_most_memory() {
        let pairs = sample_pairs();
        let direct = build_lookup(LookupKind::Direct, &pairs, 1_000_000);
        let sorted = build_lookup(LookupKind::Sorted, &pairs, 1_000_000);
        assert!(
            direct.memory_bytes() > 100 * sorted.memory_bytes(),
            "direct access table should be much larger on sparse data: {} vs {}",
            direct.memory_bytes(),
            sorted.memory_bytes()
        );
    }
}
