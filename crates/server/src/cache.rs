//! Fingerprint-keyed DIR→OPT plan cache.
//!
//! Rewriting a DIR statement onto the optimized schema walks the whole
//! pattern and the schema's provenance maps, and compiling the rewrite
//! resolves its slots, steps and output columns; on the serving hot path
//! that work is pure overhead after the first request of a given statement.
//! The cache maps a [`pgso_query::fingerprint_statement`] to the plan — the
//! server caches the compiled rewrite ([`pgso_query::PhysicalPlan`]) with
//! the workload tracker's resolved counters — tagged with the schema
//! **generation** it was rewritten against. A schema swap bumps the
//! generation, which implicitly invalidates every cached plan: a lookup
//! whose entry carries a stale generation is a miss (and the entry is
//! dropped), so no serving thread can ever execute a plan rewritten for a
//! schema that is no longer loaded.
//!
//! Cached plans are **parameterized statements**: `$name` placeholders are
//! part of the plan, and each execution executes the compiled plan with the
//! request's values, read by name. Value-varying workloads therefore share
//! plans by construction — one prepared statement (or one
//! auto-parameterized ad-hoc shape) is one entry, with no literal splicing
//! at lookup time.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Snapshot of the cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to rewrite (absent or stale entry).
    pub misses: u64,
    /// Entries dropped because their epoch went stale.
    pub invalidations: u64,
    /// Entries dropped by capacity eviction.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache; 1.0 when never queried.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct CachedPlan<P> {
    epoch: u64,
    plan: Arc<P>,
    /// Logical insertion/access stamp for eviction.
    stamp: u64,
}

/// Concurrent plan cache keyed by query fingerprint, holding plans of type
/// `P`.
pub struct PlanCache<P> {
    capacity: usize,
    map: RwLock<HashMap<u64, CachedPlan<P>>>,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    evictions: AtomicU64,
}

impl<P> PlanCache<P> {
    /// Creates a cache holding at most `capacity` plans.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            map: RwLock::new(HashMap::new()),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks up the plan for `fingerprint` rewritten against schema `epoch`.
    ///
    /// An entry from an older epoch counts as a miss and is removed so the
    /// caller re-rewrites against the current schema.
    pub fn get(&self, fingerprint: u64, epoch: u64) -> Option<Arc<P>> {
        {
            let map = self.map.read();
            if let Some(cached) = map.get(&fingerprint) {
                if cached.epoch == epoch {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Some(cached.plan.clone());
                }
            } else {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        }
        // Entry exists but is stale: drop it under the write lock.
        let mut map = self.map.write();
        if map.get(&fingerprint).is_some_and(|c| c.epoch != epoch) {
            map.remove(&fingerprint);
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Whether a current-epoch plan for `fingerprint` is resident, without
    /// touching the hit/miss counters or dropping stale entries — EXPLAIN
    /// inspects the cache, it does not serve from it.
    pub fn peek(&self, fingerprint: u64, epoch: u64) -> bool {
        self.map.read().get(&fingerprint).is_some_and(|c| c.epoch == epoch)
    }

    /// Inserts a freshly rewritten plan.
    pub fn insert(&self, fingerprint: u64, epoch: u64, plan: Arc<P>) {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut map = self.map.write();
        if map.len() >= self.capacity && !map.contains_key(&fingerprint) {
            // Evict the least recently inserted entry. Linear scan is fine:
            // capacity is small and eviction only happens at the boundary.
            if let Some(&victim) = map.iter().min_by_key(|(_, c)| c.stamp).map(|(k, _)| k) {
                map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        map.insert(fingerprint, CachedPlan { epoch, plan, stamp });
    }

    /// Drops every entry not rewritten against `current_epoch`. Called after
    /// a schema swap so stale plans free their memory immediately instead of
    /// lingering until their next (missing) lookup.
    pub fn invalidate_stale(&self, current_epoch: u64) {
        let mut map = self.map.write();
        let before = map.len();
        map.retain(|_, c| c.epoch == current_epoch);
        let dropped = (before - map.len()) as u64;
        self.invalidations.fetch_add(dropped, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.map.read().len(),
        }
    }
}

impl<P> std::fmt::Debug for PlanCache<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgso_query::Statement;

    fn plan(name: &str) -> Arc<Statement> {
        Arc::new(Statement::builder(name).node("a", "A").ret_vertex("a").build())
    }

    #[test]
    fn hit_after_insert_same_epoch() {
        let cache = PlanCache::new(8);
        assert!(cache.get(1, 0).is_none());
        cache.insert(1, 0, plan("p"));
        assert!(cache.get(1, 0).is_some());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert!((stats.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stale_epoch_is_a_miss_and_drops_the_entry() {
        let cache = PlanCache::new(8);
        cache.insert(1, 0, plan("p"));
        assert!(cache.get(1, 1).is_none(), "epoch 1 must not see an epoch-0 plan");
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.entries, 0);
    }

    #[test]
    fn invalidate_stale_purges_old_epochs() {
        let cache = PlanCache::new(8);
        cache.insert(1, 0, plan("a"));
        cache.insert(2, 0, plan("b"));
        cache.insert(3, 1, plan("c"));
        cache.invalidate_stale(1);
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.invalidations, 2);
        assert!(cache.get(3, 1).is_some());
    }

    #[test]
    fn capacity_eviction_drops_oldest() {
        let cache = PlanCache::new(2);
        cache.insert(1, 0, plan("a"));
        cache.insert(2, 0, plan("b"));
        cache.insert(3, 0, plan("c"));
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert!(cache.get(1, 0).is_none(), "oldest entry evicted");
        assert!(cache.get(3, 0).is_some());
    }

    #[test]
    fn empty_cache_reports_perfect_ratio() {
        assert_eq!(PlanCache::<Statement>::new(4).stats().hit_ratio(), 1.0);
    }
}
