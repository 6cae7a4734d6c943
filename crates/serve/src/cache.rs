//! Bounded, thread-safe LRU cache over generated snapshot sequences.
//!
//! The generator is seed-addressed and deterministic: a
//! `(model, t_len, seed)` triple always yields the same sequence (the
//! contract `tests/cache_determinism.rs` locks down). That makes whole
//! sequences perfectly cacheable — a [`SnapshotCache`] entry is the
//! `Arc<DynamicGraph>` a cold generation produced, keyed by
//! [`CacheKey`], and a hit is bit-identical to regenerating.
//!
//! The model component of the key is the **artifact fingerprint**
//! (`vrdag::artifact_fingerprint` over the serialized bytes), not the
//! registry name: re-registering identical bytes under another name (or
//! in another registry) still hits, while any retrain misses.
//!
//! Bounded by a [`CacheBudget`] — max entries *and* max bytes. Byte
//! accounting charges `DynamicGraph::approx_bytes_reserved`, the lifetime
//! upper bound that pre-accounts each snapshot's lazily-built undirected
//! projection: metrics code touching a *cached* graph can materialize
//! those projections after admission, and charging the reserve keeps the
//! budget honest instead of drifting over it. Eviction is
//! least-recently-used; every `get` hit refreshes recency. The traffic
//! counters are live `vrdag_cache_*_total` handles in the metrics
//! registry passed to [`SnapshotCache::new`]; [`CacheStats`] reads them.

use crate::tenant::TenantId;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::sync::Mutex;
use vrdag_graph::DynamicGraph;
use vrdag_obs::{Counter, Registry};

/// Identity of a cached generation: which artifact, how many snapshots,
/// which seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// `vrdag::artifact_fingerprint` of the serialized model artifact.
    pub model_fingerprint: u64,
    /// Serialized artifact length in bytes — a second, free
    /// discriminator so two artifacts must collide in *both* hash and
    /// size before the cache could ever conflate them (the fingerprint
    /// alone is a probabilistic 64-bit content hash).
    pub model_size: usize,
    /// Number of snapshots generated.
    pub t_len: usize,
    /// RNG seed of the request.
    pub seed: u64,
}

/// Capacity limits of a [`SnapshotCache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheBudget {
    /// Maximum number of cached sequences; `0` disables the cache.
    pub max_entries: usize,
    /// Maximum total `approx_bytes_reserved` across cached sequences. A
    /// single sequence larger than this is never admitted.
    pub max_bytes: usize,
}

impl Default for CacheBudget {
    fn default() -> Self {
        CacheBudget { max_entries: 64, max_bytes: 256 << 20 }
    }
}

impl CacheBudget {
    /// Budget of `max_entries` sequences with the default byte cap.
    pub fn entries(max_entries: usize) -> Self {
        CacheBudget { max_entries, ..CacheBudget::default() }
    }

    /// A budget that admits nothing (every request is a miss).
    pub fn disabled() -> Self {
        CacheBudget { max_entries: 0, max_bytes: 0 }
    }

    /// True when the budget can admit at least one entry.
    pub fn is_enabled(&self) -> bool {
        self.max_entries > 0 && self.max_bytes > 0
    }
}

/// Point-in-time counters of a [`SnapshotCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `get` calls that returned a cached sequence.
    pub hits: u64,
    /// `get` calls that found nothing.
    pub misses: u64,
    /// Sequences admitted by `insert`.
    pub insertions: u64,
    /// Sequences evicted to satisfy the budget.
    pub evictions: u64,
    /// Total bytes (reserved accounting) freed by those evictions —
    /// replacement removals don't count, only budget pressure does.
    pub evicted_bytes: u64,
    /// Sequences currently resident.
    pub entries: usize,
    /// Approximate bytes currently resident (reserved accounting, an
    /// upper bound on the actual resident size).
    pub bytes: usize,
}

impl CacheStats {
    /// Hit fraction of all lookups so far (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    graph: Arc<DynamicGraph>,
    bytes: usize,
    /// Tenant whose insertion this entry is charged against.
    owner: TenantId,
    /// Stamp of this entry's newest ticket in `recency`; older tickets
    /// for the same key are stale and skipped during eviction.
    stamp: u64,
}

struct Inner {
    map: HashMap<CacheKey, Entry>,
    /// Recency tickets, oldest first. Touching a key pushes a new ticket
    /// instead of moving the old one (O(1)); stale tickets are discarded
    /// lazily during eviction and compaction.
    recency: VecDeque<(u64, CacheKey)>,
    /// Resident bytes charged to each tenant (see
    /// [`SnapshotCache::insert_charged`]); entries are removed when a
    /// tenant's residency drops to zero.
    by_owner: HashMap<TenantId, usize>,
    clock: u64,
    bytes: usize,
}

impl Inner {
    /// Remove `key` from the map, keeping the byte accounting (global
    /// and per-owner) consistent. The entry's recency tickets become
    /// stale and are discarded lazily.
    fn remove_entry(&mut self, key: &CacheKey) -> Option<Entry> {
        let entry = self.map.remove(key)?;
        self.bytes -= entry.bytes;
        match self.by_owner.get_mut(&entry.owner) {
            Some(owned) if *owned > entry.bytes => *owned -= entry.bytes,
            _ => {
                self.by_owner.remove(&entry.owner);
            }
        }
        Some(entry)
    }
}

/// Bounded, thread-safe LRU over generated [`DynamicGraph`] sequences.
///
/// Cloneable and `Send + Sync`; clones share the same storage. All
/// operations take one short mutex-guarded critical section — the cached
/// sequences themselves are shared immutably behind `Arc`, so a hit never
/// copies graph data.
#[derive(Clone)]
pub struct SnapshotCache {
    inner: Arc<Mutex<Inner>>,
    /// Traffic counters (`vrdag_cache_*_total`). They only move under
    /// the lock, so [`stats`](Self::stats) reads one consistent snapshot.
    hits: Counter,
    misses: Counter,
    insertions: Counter,
    evictions: Counter,
    evicted_bytes: Counter,
    budget: CacheBudget,
}

impl SnapshotCache {
    /// An empty cache bounded by `budget`, counting its traffic into
    /// `registry` (caches sharing a registry share those counters).
    pub fn new(budget: CacheBudget, registry: &Registry) -> Self {
        let counter = |name: &str| registry.counter(name, &[]);
        SnapshotCache {
            inner: Arc::new(Mutex::new(Inner {
                map: HashMap::new(),
                recency: VecDeque::new(),
                by_owner: HashMap::new(),
                clock: 0,
                bytes: 0,
            })),
            hits: counter("vrdag_cache_hits_total"),
            misses: counter("vrdag_cache_misses_total"),
            insertions: counter("vrdag_cache_insertions_total"),
            evictions: counter("vrdag_cache_evictions_total"),
            evicted_bytes: counter("vrdag_cache_evicted_bytes_total"),
            budget,
        }
    }

    /// The budget this cache enforces.
    pub fn budget(&self) -> CacheBudget {
        self.budget
    }

    /// True when the budget can admit at least one entry.
    pub fn is_enabled(&self) -> bool {
        self.budget.is_enabled()
    }

    /// True when `key` is currently resident. Unlike [`get`](Self::get)
    /// this touches neither the hit/miss counters nor the entry's
    /// recency — it is a scheduling peek (the job queue uses it to
    /// decide whether a duplicate of an in-flight request still needs to
    /// be held back), not a lookup.
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.inner.lock().expect("cache lock poisoned").map.contains_key(key)
    }

    /// Look up a sequence, refreshing its recency on a hit. Counts a hit
    /// or miss either way.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<DynamicGraph>> {
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        let inner = &mut *inner;
        match inner.map.get_mut(key) {
            Some(entry) => {
                inner.clock += 1;
                entry.stamp = inner.clock;
                inner.recency.push_back((inner.clock, *key));
                self.hits.inc();
                let graph = Arc::clone(&entry.graph);
                Self::maybe_compact(inner);
                Some(graph)
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Admit a sequence with no tenant charge (anonymous owner, no
    /// share cap) — see [`insert_charged`](Self::insert_charged) for the
    /// semantics shared by both entry points.
    pub fn insert(&self, key: CacheKey, graph: Arc<DynamicGraph>) -> bool {
        self.insert_charged(key, graph, TenantId::anonymous(), None)
    }

    /// Admit a sequence on behalf of `owner`, evicting entries until the
    /// budgets hold. Returns `false` (and stores nothing) when the cache
    /// is disabled, the sequence alone exceeds the byte budget, or it
    /// alone exceeds `owner_cap`. Re-inserting an existing key replaces
    /// the entry (and re-charges the new owner) and refreshes recency.
    ///
    /// `owner_cap` is the owner's byte share: while the owner's resident
    /// bytes would exceed it, the owner's *own* least-recently-used
    /// entries are evicted first — so one tenant's burst can evict at
    /// most its own share, never the whole working set. The global
    /// entry/byte budget then applies as before (LRU across all
    /// tenants).
    pub fn insert_charged(
        &self,
        key: CacheKey,
        graph: Arc<DynamicGraph>,
        owner: TenantId,
        owner_cap: Option<usize>,
    ) -> bool {
        let bytes = graph.approx_bytes_reserved();
        if !self.budget.is_enabled() || bytes > self.budget.max_bytes {
            return false;
        }
        if owner_cap.is_some_and(|cap| bytes > cap) {
            return false;
        }
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        let inner = &mut *inner;
        inner.clock += 1;
        let stamp = inner.clock;
        // Replacement first, so the owner-share check below sees the
        // accounting without the key's previous incarnation.
        inner.remove_entry(&key);
        if let Some(cap) = owner_cap {
            // Evict the owner's own LRU entries until the share holds.
            // Walking the shared recency queue without popping keeps
            // other tenants' tickets intact; the removed entries'
            // tickets go stale and are discarded lazily.
            while inner.by_owner.get(&owner).copied().unwrap_or(0) + bytes > cap {
                let victim = inner
                    .recency
                    .iter()
                    .find(|(s, k)| {
                        inner.map.get(k).is_some_and(|e| e.stamp == *s && e.owner == owner)
                    })
                    .map(|&(_, k)| k);
                match victim {
                    Some(k) => {
                        let freed = inner.remove_entry(&k).map_or(0, |e| e.bytes);
                        self.evicted(freed);
                    }
                    None => break,
                }
            }
        }
        inner.map.insert(key, Entry { graph, bytes, owner: owner.clone(), stamp });
        inner.bytes += bytes;
        *inner.by_owner.entry(owner).or_insert(0) += bytes;
        inner.recency.push_back((stamp, key));
        self.insertions.inc();
        while inner.map.len() > self.budget.max_entries || inner.bytes > self.budget.max_bytes {
            let (old_stamp, old_key) =
                inner.recency.pop_front().expect("budget exceeded with empty recency queue");
            // Skip stale tickets (the key was touched or replaced since).
            let is_current = inner.map.get(&old_key).is_some_and(|e| e.stamp == old_stamp);
            if is_current {
                let freed = inner.remove_entry(&old_key).expect("checked above").bytes;
                self.evicted(freed);
            }
        }
        Self::maybe_compact(inner);
        true
    }

    /// Resident bytes currently charged to `owner`.
    pub fn owner_bytes(&self, owner: &TenantId) -> usize {
        self.inner.lock().expect("cache lock poisoned").by_owner.get(owner).copied().unwrap_or(0)
    }

    /// Drop every cached sequence (counters keep their totals).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        inner.map.clear();
        inner.recency.clear();
        inner.by_owner.clear();
        inner.bytes = 0;
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock poisoned");
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            insertions: self.insertions.get(),
            evictions: self.evictions.get(),
            evicted_bytes: self.evicted_bytes.get(),
            entries: inner.map.len(),
            bytes: inner.bytes,
        }
    }

    fn evicted(&self, bytes: usize) {
        self.evictions.inc();
        self.evicted_bytes.add(bytes as u64);
    }

    /// Keep the ticket queue proportional to the live entry count: when
    /// touches have piled up stale tickets, rebuild the queue from the
    /// live stamps.
    fn maybe_compact(inner: &mut Inner) {
        if inner.recency.len() > 8 * inner.map.len() + 16 {
            let mut live: Vec<(u64, CacheKey)> =
                inner.map.iter().map(|(k, e)| (e.stamp, *k)).collect();
            live.sort_unstable_by_key(|&(stamp, _)| stamp);
            inner.recency = live.into();
        }
    }
}

impl std::fmt::Debug for SnapshotCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("SnapshotCache")
            .field("budget", &self.budget)
            .field("stats", &stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrdag_graph::Snapshot;
    use vrdag_tensor::Matrix;

    fn key(seed: u64) -> CacheKey {
        CacheKey { model_fingerprint: 7, model_size: 100, t_len: 2, seed }
    }

    fn tiny_graph(edge_count: usize) -> Arc<DynamicGraph> {
        let n = 8;
        let edges: Vec<(u32, u32)> = (0..edge_count as u32).map(|i| (i % n, (i + 1) % n)).collect();
        let s = Snapshot::new(n as usize, edges, Matrix::zeros(n as usize, 1));
        Arc::new(DynamicGraph::new(vec![s]))
    }

    #[test]
    fn hit_returns_the_same_arc() {
        let cache = SnapshotCache::new(CacheBudget::entries(4), &Registry::new());
        let g = tiny_graph(3);
        assert!(cache.insert(key(1), Arc::clone(&g)));
        let hit = cache.get(&key(1)).expect("hit");
        assert!(Arc::ptr_eq(&hit, &g));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 0, 1));
    }

    #[test]
    fn miss_on_any_key_component_change() {
        let cache = SnapshotCache::new(CacheBudget::entries(4), &Registry::new());
        cache.insert(key(1), tiny_graph(1));
        assert!(cache.get(&CacheKey { seed: 2, ..key(1) }).is_none());
        assert!(cache.get(&CacheKey { t_len: 3, ..key(1) }).is_none());
        assert!(cache.get(&CacheKey { model_fingerprint: 8, ..key(1) }).is_none());
        assert!(cache.get(&CacheKey { model_size: 101, ..key(1) }).is_none());
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let cache = SnapshotCache::new(CacheBudget::entries(2), &Registry::new());
        cache.insert(key(1), tiny_graph(1));
        cache.insert(key(2), tiny_graph(1));
        // Touch key 1 so key 2 becomes the LRU entry.
        cache.get(&key(1)).unwrap();
        cache.insert(key(3), tiny_graph(1));
        assert!(cache.get(&key(1)).is_some(), "recently used entry survived");
        assert!(cache.get(&key(2)).is_none(), "LRU entry evicted");
        assert!(cache.get(&key(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn byte_budget_evicts_and_rejects() {
        let unit = tiny_graph(2).approx_bytes_reserved();
        let cache = SnapshotCache::new(
            CacheBudget { max_entries: 100, max_bytes: 2 * unit + unit / 2 },
            &Registry::new(),
        );
        assert!(cache.insert(key(1), tiny_graph(2)));
        assert!(cache.insert(key(2), tiny_graph(2)));
        // Third entry exceeds the byte budget: the oldest is evicted.
        assert!(cache.insert(key(3), tiny_graph(2)));
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes <= cache.budget().max_bytes);
        assert!(cache.get(&key(1)).is_none());

        // A single oversized sequence is never admitted.
        let n = 4096;
        let huge = Snapshot::new(n, vec![(0, 1)], Matrix::zeros(n, 8));
        let huge = Arc::new(DynamicGraph::new(vec![huge]));
        assert!(huge.approx_bytes_reserved() > cache.budget().max_bytes);
        assert!(!cache.insert(key(9), huge));
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn accounting_covers_lazily_built_projections() {
        // The resident accounting is the *reserved* size: building the
        // undirected CSR on a cached snapshot (as metrics do) must never
        // push actual residency past what the budget was charged.
        let cache = SnapshotCache::new(CacheBudget::default(), &Registry::new());
        let g = tiny_graph(6);
        assert!(cache.insert(key(1), Arc::clone(&g)));
        let charged = cache.stats().bytes;
        assert!(charged >= g.approx_bytes());
        g.snapshot(0).undirected_adj();
        assert!(charged >= g.approx_bytes(), "projection build outgrew the charge");
    }

    #[test]
    fn disabled_cache_stores_nothing() {
        let cache = SnapshotCache::new(CacheBudget::disabled(), &Registry::new());
        assert!(!cache.is_enabled());
        assert!(!cache.insert(key(1), tiny_graph(1)));
        assert!(cache.get(&key(1)).is_none());
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.insertions, stats.misses), (0, 0, 1));
    }

    #[test]
    fn reinsert_replaces_and_accounts_bytes() {
        let cache = SnapshotCache::new(CacheBudget::entries(4), &Registry::new());
        cache.insert(key(1), tiny_graph(1));
        let small = cache.stats().bytes;
        cache.insert(key(1), tiny_graph(6));
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > small);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn heavy_touching_compacts_recency_queue() {
        let cache = SnapshotCache::new(CacheBudget::entries(2), &Registry::new());
        cache.insert(key(1), tiny_graph(1));
        cache.insert(key(2), tiny_graph(1));
        for _ in 0..10_000 {
            cache.get(&key(1)).unwrap();
            cache.get(&key(2)).unwrap();
        }
        let inner = cache.inner.lock().unwrap();
        assert!(
            inner.recency.len() <= 8 * inner.map.len() + 16,
            "recency queue unbounded: {}",
            inner.recency.len()
        );
    }

    #[test]
    fn tenant_share_evicts_own_entries_first() {
        let unit = tiny_graph(2).approx_bytes_reserved();
        // Room for ~6 units globally; tenant `a` is capped at ~2 units.
        let cache = SnapshotCache::new(
            CacheBudget { max_entries: 100, max_bytes: 6 * unit + 8 },
            &Registry::new(),
        );
        let a = TenantId::new("a").unwrap();
        let b = TenantId::new("b").unwrap();
        let a_share = 2 * unit + 8;
        let a_cap = Some(a_share);
        // Tenant b fills three entries (no cap of its own).
        for seed in 0..3 {
            assert!(cache.insert_charged(key(seed), tiny_graph(2), b.clone(), None));
        }
        let b_resident = cache.owner_bytes(&b);
        assert_eq!(b_resident, 3 * unit);
        // Tenant a bursts five entries under a two-unit share: each
        // insertion past the share evicts a's own LRU entry, never b's.
        for seed in 10..15 {
            assert!(cache.insert_charged(key(seed), tiny_graph(2), a.clone(), a_cap));
            assert!(cache.owner_bytes(&a) <= a_share, "share exceeded");
        }
        assert_eq!(cache.owner_bytes(&b), b_resident, "b's working set survived a's burst");
        for seed in 0..3 {
            assert!(cache.get(&key(seed)).is_some(), "b's entry {seed} evicted");
        }
        // a holds exactly its two newest entries.
        assert_eq!(cache.owner_bytes(&a), 2 * unit);
        assert!(cache.get(&key(14)).is_some());
        assert!(cache.get(&key(10)).is_none());
        // A single sequence larger than the share is never admitted.
        assert!(!cache.insert_charged(key(20), tiny_graph(64), a.clone(), Some(unit / 2)));
    }

    #[test]
    fn replacing_a_key_transfers_the_owner_charge() {
        let cache = SnapshotCache::new(CacheBudget::default(), &Registry::new());
        let a = TenantId::new("a").unwrap();
        let b = TenantId::new("b").unwrap();
        assert!(cache.insert_charged(key(1), tiny_graph(2), a.clone(), None));
        let charged = cache.owner_bytes(&a);
        assert!(charged > 0);
        // Same key re-inserted by another tenant: the charge moves.
        assert!(cache.insert_charged(key(1), tiny_graph(2), b.clone(), None));
        assert_eq!(cache.owner_bytes(&a), 0);
        assert_eq!(cache.owner_bytes(&b), charged);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn concurrent_inserters_under_a_tight_budget_stay_consistent() {
        // Two threads hammer a byte budget that holds only a couple of
        // entries: no panic, the budget is never exceeded (observed from
        // a third thread mid-flight and at the end), and the counters
        // add up.
        let unit = tiny_graph(2).approx_bytes_reserved();
        let cache = SnapshotCache::new(
            CacheBudget { max_entries: 64, max_bytes: 2 * unit + 8 },
            &Registry::new(),
        );
        let writers: Vec<_> = (0..2u64)
            .map(|thread| {
                let cache = cache.clone();
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        let seed = thread * 10_000 + i;
                        cache.insert(key(seed), tiny_graph(2));
                        let stats = cache.stats();
                        assert!(
                            stats.bytes <= cache.budget().max_bytes,
                            "budget exceeded mid-flight: {stats:?}"
                        );
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().expect("inserter panicked");
        }
        let stats = cache.stats();
        assert_eq!(stats.insertions, 1000);
        assert!(stats.bytes <= cache.budget().max_bytes, "{stats:?}");
        assert_eq!(stats.entries as u64, stats.insertions - stats.evictions, "{stats:?}");
        assert!(stats.entries >= 1 && stats.entries <= 2, "{stats:?}");
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache = SnapshotCache::new(CacheBudget::entries(4), &Registry::new());
        cache.insert(key(1), tiny_graph(1));
        cache.get(&key(1)).unwrap();
        cache.clear();
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.bytes), (0, 0));
        assert_eq!((stats.hits, stats.insertions), (1, 1));
        assert!(cache.get(&key(1)).is_none());
    }

    #[test]
    fn traffic_is_counted_in_the_given_registry() {
        let registry = Registry::new();
        let cache = SnapshotCache::new(CacheBudget::entries(1), &registry);
        cache.insert(key(1), tiny_graph(1));
        cache.insert(key(2), tiny_graph(1));
        cache.get(&key(2)).unwrap();
        assert!(cache.get(&key(1)).is_none());
        let count = |name: &str| registry.counter(name, &[]).get();
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.insertions, stats.evictions, stats.evicted_bytes),
            (
                count("vrdag_cache_hits_total"),
                count("vrdag_cache_misses_total"),
                count("vrdag_cache_insertions_total"),
                count("vrdag_cache_evictions_total"),
                count("vrdag_cache_evicted_bytes_total"),
            )
        );
        assert_eq!((stats.hits, stats.misses, stats.insertions, stats.evictions), (1, 1, 2, 1));
        assert!(stats.evicted_bytes > 0);
    }
}
