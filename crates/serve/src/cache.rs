//! The dominance-aware result cache.
//!
//! Completed per-product answers are memoized under `(t, cost-fn)` and
//! survive competitor mutations *selectively* instead of being flushed
//! wholesale on every epoch swap. An answer for product `t` depends only
//! on `t`'s dominator skyline `D(t) = {s ∈ skyline(P) : s ≻ t}`:
//!
//! * **Insert of competitor `p`** — `D(t)` can change only if `p`
//!   dominates `t`: a new member must dominate `t`, and a member
//!   `s ≻ t` leaves the skyline only for a `p ≻ s`, which dominates `t`
//!   too. The eviction test is [`skyup_geom::point_in_adr`]`(p, t)`,
//!   which also covers the boundary case `p == t` — conservative (may
//!   evict a still-valid entry when `p` merely ties `t` on every
//!   dimension) but never keeps a stale one.
//! * **Delete of competitor `c`** — every entry still cached was
//!   computed from the current `D(t)`: an insert that could change it
//!   evicted it, and so did any earlier delete by this rule. Removing a
//!   non-member changes no `D(t)`, so nothing is evicted and nothing is
//!   scanned. Removing a member `c` exposes only points `c` dominated,
//!   and none of those can dominate a `t` that `c` does not, so exactly
//!   the entries with [`dominates`]`(c, t)` go. This test is exact.
//!
//! Keys hash the product's coordinate *bits*, so two requests must
//! agree to the last ulp to share an entry — the right call for a
//! bit-identity serving contract. The eviction tests read `t` back
//! from those bits.
//!
//! Epoch discipline: the cache belongs to the engine's shared state and
//! is mutated under the same lock that swaps the snapshot. A worker
//! that computed an answer against epoch `E` may insert it only while
//! the published epoch is still `E` ([`ResultCache::insert_if_current`]);
//! anything later is dropped, because the worker cannot know whether
//! the intervening mutations affected its product.

use crate::snapshot::Answer;
use skyup_geom::dominance::dominates;
use skyup_geom::point_in_adr;
use std::collections::HashMap;

/// Identifies the cost function a cached answer was computed under.
/// Carries the parameter as raw bits so the key is `Eq + Hash`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CostTag {
    /// `SumCost::reciprocal(dims, eps)` with these `eps` bits.
    Reciprocal(u64),
    /// The CLI's linear cost with these slope bits.
    Linear(u64),
}

/// Cache key: the product's exact coordinate bits plus the cost tag.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    t_bits: Vec<u64>,
    cost: CostTag,
}

impl CacheKey {
    /// Builds the key for product coordinates `t` under `cost`.
    pub fn new(t: &[f64], cost: CostTag) -> Self {
        CacheKey {
            t_bits: t.iter().map(|v| v.to_bits()).collect(),
            cost,
        }
    }
}

/// The dominance-aware result cache. Not internally synchronized: the
/// engine guards it with the shared-state lock.
pub struct ResultCache {
    entries: HashMap<CacheKey, Answer>,
    capacity: usize,
}

impl ResultCache {
    /// An empty cache holding at most `capacity` answers; once full,
    /// new answers are simply not admitted (mutation evictions free
    /// space over time).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            entries: HashMap::new(),
            capacity,
        }
    }

    /// Number of cached answers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a completed answer.
    pub fn get(&self, key: &CacheKey) -> Option<&Answer> {
        self.entries.get(key)
    }

    /// Admits an answer computed against epoch `computed_at`, provided
    /// the published epoch is still `current`. Returns whether the
    /// answer was admitted.
    pub fn insert_if_current(
        &mut self,
        key: CacheKey,
        answer: Answer,
        computed_at: u64,
        current: u64,
    ) -> bool {
        if computed_at != current {
            return false;
        }
        // Overwriting an existing key does not grow the map, so the
        // capacity gate only applies to new keys.
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            return false;
        }
        self.entries.insert(key, answer);
        true
    }

    /// Insert-invalidation: evicts every entry whose product lies in the
    /// ADR of the new competitor `p`. Returns the eviction count.
    pub fn evict_dominated_by(&mut self, p: &[f64]) -> u64 {
        self.evict_where(|t| point_in_adr(p, t))
    }

    /// Delete-invalidation for a removed skyline member `s`: evicts
    /// every entry whose product `s` strictly dominates. Returns the
    /// eviction count.
    pub fn evict_strictly_dominated_by(&mut self, s: &[f64]) -> u64 {
        self.evict_where(|t| dominates(s, t))
    }

    /// Evicts the entries whose product coordinates, read back from the
    /// key bits, satisfy `doomed`.
    fn evict_where(&mut self, mut doomed: impl FnMut(&[f64]) -> bool) -> u64 {
        let before = self.entries.len();
        let mut t = Vec::new();
        self.entries.retain(|key, _| {
            t.clear();
            t.extend(key.t_bits.iter().map(|&b| f64::from_bits(b)));
            !doomed(&t)
        });
        (before - self.entries.len()) as u64
    }

    /// Drops everything (rebuilds don't need this — answers hold
    /// no point ids — but warm-start replacement does).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(cost: f64) -> Answer {
        Answer {
            cost,
            upgraded: vec![0.5, 0.5],
        }
    }

    fn key(t: &[f64]) -> CacheKey {
        CacheKey::new(t, CostTag::Reciprocal(0))
    }

    fn put(cache: &mut ResultCache, t: &[f64]) {
        assert!(cache.insert_if_current(key(t), answer(1.0), 3, 3));
    }

    #[test]
    fn stale_epoch_insert_dropped() {
        let mut c = ResultCache::new(16);
        assert!(!c.insert_if_current(key(&[1.0, 1.0]), answer(1.0), 2, 3));
        assert!(c.is_empty());
    }

    #[test]
    fn insert_evicts_only_dominated_products() {
        let mut c = ResultCache::new(16);
        put(&mut c, &[0.9, 0.9]);
        put(&mut c, &[0.2, 0.9]);
        put(&mut c, &[0.9, 0.2]);
        // New competitor dominates only the first product.
        assert_eq!(c.evict_dominated_by(&[0.5, 0.5]), 1);
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(&[0.9, 0.9])).is_none());
    }

    #[test]
    fn removed_member_evicts_only_strictly_dominated_products() {
        let mut c = ResultCache::new(16);
        put(&mut c, &[0.9, 0.9]);
        put(&mut c, &[0.5, 0.9]); // ties on dim 0, still strictly dominated
        put(&mut c, &[0.5, 0.5]); // equal: never in the member's D(t)
        put(&mut c, &[0.4, 0.9]);
        assert_eq!(c.evict_strictly_dominated_by(&[0.5, 0.5]), 2);
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(&[0.5, 0.5])).is_some());
        assert!(c.get(&key(&[0.4, 0.9])).is_some());
    }

    #[test]
    fn capacity_caps_admission() {
        let mut c = ResultCache::new(1);
        put(&mut c, &[0.9, 0.9]);
        assert!(!c.insert_if_current(key(&[0.8, 0.8]), answer(1.0), 3, 3));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn full_cache_still_overwrites_existing_key() {
        let mut c = ResultCache::new(1);
        put(&mut c, &[0.9, 0.9]);
        assert!(c.insert_if_current(key(&[0.9, 0.9]), answer(2.0), 3, 3));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&key(&[0.9, 0.9])).unwrap().cost, 2.0);
    }
}
