//! The generation-keyed caches: whole query results, and per-cell
//! partial aggregates for catalogs cut into more than one cell.
//!
//! Every entry remembers the generation stamps (see
//! [`SourceProvider::with_source`](crate::source::SourceProvider::with_source))
//! it was computed under.  A lookup hits only when the stamps match
//! exactly, so a shard's entries go stale precisely when its refresh
//! observes a new commit — cached replies are always bit-identical to a
//! fresh scan of the current snapshot, never a stale approximation.
//!
//! [`ResultCache`] keys `(query, whole generation vector)` — `Query` is
//! `Eq + Hash` with a total, NaN-free float treatment precisely so this
//! map can neither collide nor miss: any shard's refresh retires the
//! entry, because the final result mixes every shard's data.  It
//! memoises *finalisation*, which cells do not.  [`PartialCache`] is the
//! per-cell refinement, on either axis: it keys `(scan spec, cell)` and
//! stamps each entry with only *that cell's shard's* generation plus a
//! segment-count check, so a refresh of one shard leaves every other
//! cell's cached partial valid — the whole point of caching partials
//! instead of results.  Entries hand out [`Arc`]s: a hit is a pointer
//! bump, and publishing a freshly scanned partial shares the same
//! allocation the combine is about to read.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use catrisk_riskquery::{Dimension, Filter, Query, QueryResult, TrialPartial};

/// The recency bookkeeping both caches share: a map whose entries
/// remember when they were last touched, so the coldest can be dropped.
#[derive(Debug)]
struct Lru<K, V> {
    tick: u64,
    entries: HashMap<K, (u64, V)>,
}

impl<K: Clone + Eq + Hash, V> Lru<K, V> {
    fn new() -> Self {
        Self {
            tick: 0,
            entries: HashMap::new(),
        }
    }

    /// The value under `key`, marked most recently used.
    fn touch(&mut self, key: &K) -> Option<&mut V> {
        self.tick += 1;
        let (used, value) = self.entries.get_mut(key)?;
        *used = self.tick;
        Some(value)
    }

    /// Inserts (or replaces) `key` as the most recently used entry.
    fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        self.entries.insert(key, (self.tick, value));
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        self.entries.remove(key).map(|(_, value)| value)
    }

    /// Removes the least recently used entry other than `keep`'s.
    fn evict_coldest(&mut self, keep: &K) -> Option<V> {
        let coldest = self
            .entries
            .iter()
            .filter(|(key, _)| *key != keep)
            .min_by_key(|(_, (used, _))| *used)
            .map(|(key, _)| key.clone())?;
        self.remove(&coldest)
    }
}

/// A bounded result cache keyed on `(Query, generation vector)`: each
/// entry is one result and the stamps of the snapshot it is valid for.
#[derive(Debug)]
pub(crate) struct ResultCache {
    capacity: usize,
    lru: Lru<Query, (Vec<u64>, QueryResult)>,
}

impl ResultCache {
    /// A cache holding at most `capacity` entries (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            lru: Lru::new(),
        }
    }

    /// Looks up `query` under the current `generations`.  A stale entry
    /// (any shard refreshed since it was cached) is evicted on sight.
    pub fn get(&mut self, query: &Query, generations: &[u64]) -> Option<QueryResult> {
        match self.lru.touch(query) {
            Some((stamps, result)) if stamps.as_slice() == generations => Some(result.clone()),
            Some(_) => {
                self.lru.remove(query);
                None
            }
            None => None,
        }
    }

    /// Caches `result` for `query` under `generations`, evicting the
    /// least-recently-used entry when full.
    pub fn insert(&mut self, query: Query, generations: &[u64], result: QueryResult) {
        if self.capacity == 0 {
            return;
        }
        if self.len() >= self.capacity && !self.lru.entries.contains_key(&query) {
            self.lru.evict_coldest(&query);
        }
        self.lru.insert(query, (generations.to_vec(), result));
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.lru.entries.len()
    }
}

/// An owned [`Query::scan_spec`]: the filter and grouping — everything a
/// cell partial depends on besides the data.  Aggregates are absent on
/// purpose: queries that differ only in aggregates share their cells.
pub(crate) type SpecKey = (Filter, Vec<Dimension>);

/// What a cached cell partial is valid for: the owning shard's generation
/// stamp, and the segment count of the cell's segment range, both as of
/// the scan.  On an uncut segment axis the count is the union's committed
/// prefix — when a lagging trial shard catches up and the prefix grows,
/// *every* cell covers too few segments, even cells whose own stamp did
/// not move; on a cut one it is the shard's own count.
pub(crate) type CellStamp = (u64, usize);

/// One cached cell partial and the per-cell snapshot it is valid for.
#[derive(Debug)]
struct CellEntry {
    stamp: CellStamp,
    partial: Arc<TrialPartial>,
}

/// A bounded cell-partial cache keyed on `(scan spec, cell)`, each entry
/// validated against its [`CellStamp`].
///
/// This is what turns a single-shard refresh from "invalidate every
/// cached answer" into "rescan one cell": the server re-combines the
/// surviving partials with the freshly scanned one through the exact
/// combine, bit-identical to a full rescan.  It is laid out spec → cell
/// slots (indexed by [`Cell::slot`](catrisk_riskquery::Cell::slot)), so a
/// probe borrows its key, and a spec's cells are evicted (or purged)
/// together — they are only ever useful together.
#[derive(Debug)]
pub(crate) struct PartialCache {
    capacity: usize,
    /// Filled cell slots across all specs — what `capacity` bounds.
    len: usize,
    lru: Lru<SpecKey, Vec<Option<CellEntry>>>,
}

impl PartialCache {
    /// A cache holding at most `capacity` cell partials (0 disables cell
    /// caching).  Because a spec's cells go together, the bound can be
    /// exceeded by at most one spec's own cell count.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            len: 0,
            lru: Lru::new(),
        }
    }

    /// Looks up `spec`'s partial for cell `slot` under the cell's current
    /// `stamp`.  A stale entry is evicted on sight.  The returned `Arc`
    /// shares the cached allocation — a hit never copies the loss vectors.
    pub fn get(
        &mut self,
        spec: &SpecKey,
        slot: usize,
        stamp: CellStamp,
    ) -> Option<Arc<TrialPartial>> {
        let cell = self.lru.touch(spec)?.get_mut(slot)?;
        match cell {
            Some(entry) if entry.stamp == stamp => Some(Arc::clone(&entry.partial)),
            Some(_) => {
                *cell = None;
                self.len -= 1;
                None
            }
            None => None,
        }
    }

    /// Caches one cell's partial, first evicting least-recently-used
    /// *other* specs while the cache is full.  Takes an `Arc` so the
    /// caller publishes the same allocation it is about to combine from,
    /// without a copy; the key is cloned only when the spec is new.
    pub fn insert(
        &mut self,
        spec: &SpecKey,
        slot: usize,
        stamp: CellStamp,
        partial: Arc<TrialPartial>,
    ) {
        if self.capacity == 0 {
            return;
        }
        while self.len >= self.capacity {
            match self.lru.evict_coldest(spec) {
                Some(cells) => self.len -= cells.iter().flatten().count(),
                None => break,
            }
        }
        if self.lru.touch(spec).is_none() {
            self.lru.insert(spec.clone(), Vec::new());
        }
        let cells = self.lru.touch(spec).expect("inserted above");
        if cells.len() <= slot {
            cells.resize_with(slot + 1, || None);
        }
        if cells[slot].replace(CellEntry { stamp, partial }).is_none() {
            self.len += 1;
        }
    }

    /// Drops every cell of `spec` — the self-heal path after a failed
    /// combine: entries that cannot combine disagree with each other, so
    /// none of them can be trusted and the next execution must rescan
    /// from scratch.
    pub fn purge(&mut self, spec: &SpecKey) {
        if let Some(cells) = self.lru.remove(spec) {
            self.len -= cells.iter().flatten().count();
        }
    }

    /// Live entries (diagnostics).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catrisk_riskquery::prelude::*;

    fn query(points: usize) -> Query {
        QueryBuilder::new()
            .aggregate(Aggregate::EpCurve {
                basis: Basis::Aep,
                points: points + 2,
            })
            .build()
            .unwrap()
    }

    fn result(trials: usize) -> QueryResult {
        QueryResult {
            group_by: vec![],
            aggregates: vec![Aggregate::Mean],
            trials,
            rows: vec![],
        }
    }

    #[test]
    fn hits_only_under_matching_generations() {
        let mut cache = ResultCache::new(4);
        assert!(cache.get(&query(1), &[1, 1]).is_none());
        cache.insert(query(1), &[1, 1], result(10));
        assert_eq!(cache.get(&query(1), &[1, 1]), Some(result(10)));
        // One shard refreshed: the entry is stale, and evicted on sight.
        assert!(cache.get(&query(1), &[1, 2]).is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let mut cache = ResultCache::new(2);
        cache.insert(query(1), &[0], result(1));
        cache.insert(query(2), &[0], result(2));
        // Touch query(1) so query(2) is the cold one.
        assert!(cache.get(&query(1), &[0]).is_some());
        cache.insert(query(3), &[0], result(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&query(1), &[0]).is_some());
        assert!(cache.get(&query(2), &[0]).is_none(), "LRU entry evicted");
        assert!(cache.get(&query(3), &[0]).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = ResultCache::new(0);
        cache.insert(query(1), &[0], result(1));
        assert!(cache.get(&query(1), &[0]).is_none());
        assert_eq!(cache.len(), 0);
    }

    fn partial(window: (usize, usize)) -> TrialPartial {
        TrialPartial {
            keys: vec![vec![]],
            segment_counts: vec![1],
            window,
            aggregate: catrisk_riskquery::PartialAggregate::identity(1, window.1 - window.0),
        }
    }

    /// Distinct scan specs (the `query` helper's shapes all share one).
    fn spec(layer: u32) -> SpecKey {
        let filter = Filter {
            layers: Some(vec![layer]),
            ..Filter::all()
        };
        (filter, vec![Dimension::Peril])
    }

    #[test]
    fn partials_hit_per_cell_generation_only() {
        let mut cache = PartialCache::new(8);
        cache.insert(&spec(1), 0, (7, 3), Arc::new(partial((0, 2))));
        cache.insert(&spec(1), 1, (9, 3), Arc::new(partial((2, 5))));
        // Cell 1's shard generation moves: only cell 1's entry goes stale.
        assert_eq!(
            cache.get(&spec(1), 0, (7, 3)).as_deref(),
            Some(&partial((0, 2))),
            "untouched cell must keep hitting"
        );
        assert!(cache.get(&spec(1), 1, (10, 3)).is_none());
        assert_eq!(cache.len(), 1, "stale entries are evicted on sight");
        // Never-filled slots and unknown specs are plain misses.
        assert!(cache.get(&spec(1), 5, (7, 3)).is_none());
        assert!(cache.get(&spec(2), 0, (7, 3)).is_none());
    }

    #[test]
    fn partial_hits_share_the_cached_allocation() {
        let mut cache = PartialCache::new(8);
        let published = Arc::new(partial((0, 2)));
        cache.insert(&spec(1), 0, (7, 3), Arc::clone(&published));
        let hit = cache.get(&spec(1), 0, (7, 3)).expect("hit");
        assert!(
            Arc::ptr_eq(&published, &hit),
            "a hit must be a pointer bump, not a copy"
        );
    }

    #[test]
    fn partials_go_stale_when_the_segment_prefix_grows() {
        let mut cache = PartialCache::new(8);
        cache.insert(&spec(1), 0, (7, 3), Arc::new(partial((0, 2))));
        // A lagging shard caught up: the union now serves 4 segments, so
        // every 3-segment partial is too narrow even at the same stamp.
        assert!(cache.get(&spec(1), 0, (7, 4)).is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn purge_drops_every_cell_of_one_spec() {
        let mut cache = PartialCache::new(8);
        for slot in 0..3 {
            cache.insert(&spec(1), slot, (1, 1), Arc::new(partial((0, 2))));
        }
        cache.insert(&spec(2), 0, (1, 1), Arc::new(partial((0, 2))));
        cache.purge(&spec(1));
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&spec(1), 0, (1, 1)).is_none());
        assert!(cache.get(&spec(2), 0, (1, 1)).is_some());
    }

    #[test]
    fn partial_capacity_evicts_least_recently_used() {
        let mut cache = PartialCache::new(2);
        cache.insert(&spec(1), 0, (1, 1), Arc::new(partial((0, 2))));
        cache.insert(&spec(2), 0, (1, 1), Arc::new(partial((0, 2))));
        assert!(cache.get(&spec(1), 0, (1, 1)).is_some());
        cache.insert(&spec(3), 0, (1, 1), Arc::new(partial((0, 2))));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&spec(1), 0, (1, 1)).is_some());
        assert!(cache.get(&spec(2), 0, (1, 1)).is_none(), "LRU evicted");
        assert!(cache.get(&spec(3), 0, (1, 1)).is_some());

        // A spec is never evicted to make room for its own cells.
        let mut tight = PartialCache::new(1);
        tight.insert(&spec(1), 0, (1, 1), Arc::new(partial((0, 2))));
        tight.insert(&spec(1), 1, (1, 1), Arc::new(partial((2, 4))));
        assert!(tight.get(&spec(1), 0, (1, 1)).is_some());
        assert!(tight.get(&spec(1), 1, (1, 1)).is_some());

        let mut off = PartialCache::new(0);
        off.insert(&spec(1), 0, (1, 1), Arc::new(partial((0, 2))));
        assert!(off.get(&spec(1), 0, (1, 1)).is_none());
    }
}
