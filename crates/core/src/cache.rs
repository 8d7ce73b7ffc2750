//! The effect-keyed query-result cache.
//!
//! Theorem 7 licenses this: a query whose inferred effect is `new`-free
//! (no `A(C)` atom, and syntactically no `new` so even oid allocation is
//! untouched) is *deterministic* — its value is a pure function of the
//! store contents its effect lets it read. Translating the effect to
//! concrete extents ([`ioql_effects::effect_extents`]) and pairing each
//! with the store's monotonic version counter gives a fingerprint of
//! exactly that input: while every extent in the read set still reports
//! the version recorded at evaluation time, the cached value is the
//! value, and no `A(C)`/`U(C)` anywhere can have invalidated it without
//! bumping a counter. Invalidation is therefore *passive* — mutators
//! bump versions, the cache never needs an explicit flush.
//!
//! Entries are keyed on the **elaborated, pre-optimization** query: the
//! optimizer's output depends on catalogue statistics (extent sizes)
//! which drift with the store, so post-optimization queries are not
//! stable keys; elaborated queries are (resolution and typing depend
//! only on the schema, which is immutable per database).

use ioql_ast::{ExtentName, Query, Value};
use ioql_effects::Effect;
use ioql_store::Store;
use ioql_telemetry::Counter;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};

/// One memoized result.
#[derive(Clone, Debug)]
pub(crate) struct CacheEntry {
    /// The version of every extent in the query's read set at the time
    /// the result was computed. The entry is valid while each still
    /// matches the live store.
    pub versions: BTreeMap<ExtentName, u64>,
    /// The memoized value.
    pub value: Value,
    /// The runtime effect trace of the original run (replayed verbatim
    /// on a hit — determinism means a re-run would trace the same).
    pub runtime_effect: Effect,
    /// Evaluation cells the original run charged to its governor. A hit
    /// re-charges these so resource accounting cannot be laundered
    /// through the cache (see `Database::run`).
    pub cells: u64,
}

/// Hit/miss counters, surfaced through `Database::cache_stats`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (including stale entries lazily evicted).
    pub misses: u64,
    /// Entries removed to stay within capacity or because their version
    /// fingerprint went stale.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Configured capacity (0 = caching disabled).
    pub capacity: usize,
}

/// A FIFO-bounded map from elaborated query to [`CacheEntry`].
///
/// Stale entries (version mismatch) are evicted lazily at lookup; FIFO
/// order bounds residency when many distinct queries flow through.
#[derive(Clone, Debug, Default)]
pub(crate) struct QueryCache {
    /// Each live entry with its insertion sequence number.
    map: HashMap<Query, (u64, CacheEntry)>,
    /// The live keys by insertion sequence — exactly the keys of `map`,
    /// oldest first. A stale eviction removes its key here too, so a
    /// key that writes keep invalidating occupies one slot, and the
    /// FIFO front is always the oldest *live* entry.
    order: BTreeMap<u64, Query>,
    next_seq: u64,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Registry mirrors of the counters above — write-only telemetry;
    /// no cache decision reads them.
    m_hits: Counter,
    m_misses: Counter,
    m_evictions: Counter,
}

impl QueryCache {
    pub fn new(capacity: usize) -> QueryCache {
        QueryCache {
            capacity,
            ..QueryCache::default()
        }
    }

    /// Attaches registry counters mirroring hits/misses/evictions.
    pub fn with_metrics(mut self, hits: Counter, misses: Counter, evictions: Counter) -> Self {
        self.m_hits = hits;
        self.m_misses = misses;
        self.m_evictions = evictions;
        self
    }

    /// Looks up `key`, validating the recorded version vector against
    /// `store`. A stale entry is removed and counted as a miss.
    pub fn lookup(&mut self, key: &Query, store: &Store) -> Option<CacheEntry> {
        if self.capacity == 0 {
            return None;
        }
        match self.map.get(key) {
            Some((_, entry))
                if entry
                    .versions
                    .iter()
                    .all(|(e, v)| store.extent_version(e) == *v) =>
            {
                self.hits += 1;
                self.m_hits.inc();
                Some(entry.clone())
            }
            Some(&(seq, _)) => {
                self.map.remove(key);
                self.order.remove(&seq);
                self.misses += 1;
                self.m_misses.inc();
                self.evictions += 1;
                self.m_evictions.inc();
                None
            }
            None => {
                self.misses += 1;
                self.m_misses.inc();
                None
            }
        }
    }

    /// Inserts (or refreshes in place, keeping its FIFO position) an
    /// entry, evicting oldest-first past capacity.
    pub fn insert(&mut self, key: Query, entry: CacheEntry) {
        if self.capacity == 0 {
            return;
        }
        match self.map.entry(key) {
            Entry::Occupied(mut live) => live.get_mut().1 = entry,
            Entry::Vacant(slot) => {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.order.insert(seq, slot.key().clone());
                slot.insert((seq, entry));
            }
        }
        while self.map.len() > self.capacity {
            let Some((_, oldest)) = self.order.pop_first() else {
                break; // unreachable: `order` holds every key of `map`
            };
            self.map.remove(&oldest);
            self.evictions += 1;
            self.m_evictions.inc();
        }
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.map.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: i64) -> Query {
        Query::Lit(Value::Int(n))
    }

    fn entry(versions: &[(&str, u64)]) -> CacheEntry {
        CacheEntry {
            versions: versions
                .iter()
                .map(|(e, v)| (ExtentName::new(*e), *v))
                .collect(),
            value: Value::Int(0),
            runtime_effect: Effect::empty(),
            cells: 0,
        }
    }

    #[test]
    fn hit_requires_matching_versions() {
        let mut store = Store::new();
        store.declare_extent(
            ExtentName::new("Persons"),
            ioql_ast::ClassName::new("Person"),
        );
        let mut cache = QueryCache::new(4);
        cache.insert(key(1), entry(&[("Persons", 0)]));
        assert!(cache.lookup(&key(1), &store).is_some());
        store.bump_version(&ExtentName::new("Persons"));
        // Stale: removed, counted as both a miss and an eviction.
        assert!(cache.lookup(&key(1), &store).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 0));
        assert_eq!(s.evictions, 1);
    }

    #[test]
    fn fifo_eviction_bounds_residency() {
        let store = Store::new();
        let mut cache = QueryCache::new(2);
        cache.insert(key(1), entry(&[]));
        cache.insert(key(2), entry(&[]));
        cache.insert(key(3), entry(&[]));
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup(&key(1), &store).is_none()); // oldest evicted
        assert!(cache.lookup(&key(2), &store).is_some());
        assert!(cache.lookup(&key(3), &store).is_some());
    }

    #[test]
    fn zero_capacity_disables() {
        let store = Store::new();
        let mut cache = QueryCache::new(0);
        cache.insert(key(1), entry(&[]));
        assert!(cache.lookup(&key(1), &store).is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn invalidation_churn_keeps_order_bounded_and_evicts_oldest_live() {
        let persons = ExtentName::new("Persons");
        let mut store = Store::new();
        store.declare_extent(persons.clone(), ioql_ast::ClassName::new("Person"));
        let fresh = |store: &Store| entry(&[("Persons", store.extent_version(&persons))]);
        let mut cache = QueryCache::new(4);
        cache.insert(key(0), fresh(&store));
        cache.insert(key(1), entry(&[]));
        // A hot key that writes keep invalidating: each round evicts it
        // as stale and re-inserts it.
        for _ in 0..10_000 {
            store.bump_version(&persons);
            assert!(cache.lookup(&key(0), &store).is_none());
            cache.insert(key(0), fresh(&store));
            assert!(
                cache.order.len() <= 4,
                "order grew to {}",
                cache.order.len()
            );
        }
        cache.insert(key(2), entry(&[]));
        cache.insert(key(3), entry(&[]));
        cache.insert(key(4), entry(&[]));
        // Key 0's first insertion went stale long ago; the oldest live
        // entry is key 1, and that is the one capacity evicts.
        assert!(cache.lookup(&key(1), &store).is_none());
        for k in [0, 2, 3, 4] {
            assert!(cache.lookup(&key(k), &store).is_some(), "key {k} evicted");
        }
        assert_eq!(cache.order.len(), 4);
    }

    #[test]
    fn reinsert_refreshes_without_duplicating_order() {
        let store = Store::new();
        let mut cache = QueryCache::new(2);
        cache.insert(key(1), entry(&[]));
        cache.insert(key(1), entry(&[]));
        cache.insert(key(2), entry(&[]));
        // Capacity 2 with one logical re-insert: both keys resident.
        assert!(cache.lookup(&key(1), &store).is_some());
        assert!(cache.lookup(&key(2), &store).is_some());
    }
}
