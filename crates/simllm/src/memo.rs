//! Memoization of next-token distributions.
//!
//! Contexts are Markov-order-[`crate::LmContext::MARKOV_ORDER`], so the
//! same trailing window recurs constantly inside one serving run: the
//! draft pass evaluates the target model on every candidate-tree node,
//! verification re-evaluates the accepted path, and successive iterations
//! re-expand overlapping windows. A [`DistMemo`] caches each model's
//! distribution keyed by the context hash, turning those repeats into a
//! refcount bump.
//!
//! The memo lives behind an `Arc`, so cloning a model **shares** its cache
//! — in particular [`crate::DraftLm::from_target`] clones the target, and
//! the verification pass then hits the distributions the draft pass
//! already computed. Serving engines compute through
//! [`crate::ModelPair::for_engine`]: each engine's models count their own
//! lookups, engines of one config that are alive together share one
//! target table (a deployment's worth of replicas costs one table), and
//! an engine built after the others are gone starts cold. Interior
//! mutability uses a `Mutex` (uncontended in practice: one engine steps on
//! one thread at a time) so models stay `Send + Sync` for parallel replica
//! stepping.
//!
//! The table is **direct-mapped**: keys are already full-avalanche mixed
//! hashes, so `key & mask` picks the slot and a conflicting insert simply
//! overwrites. That keeps lookups and inserts O(1) with no hashing, no
//! rehash pauses and bounded memory — a conflict only costs a recompute,
//! never correctness, because memoization is exact: a hit returns the
//! same bit-identical [`SparseDist`] the miss path would compute.
//!
//! Two properties keep the memo cheap on the serving path:
//!
//! * **lazy** — the slot table is allocated on the first insert, so a
//!   memo that is never consulted (the draft-blend memo, on every
//!   engine's serving path) costs no memory;
//! * **recycling** — a miss that evicts an entry nobody else holds
//!   rebuilds that entry's [`SparseDist`] in place, reusing its `Arc` and
//!   head allocation, so a steady-state miss allocates nothing.

use crate::dist::SparseDist;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default slot count (a power of two) of the direct-mapped table.
///
/// A distribution's head holds a few dozen entries (~½ KiB); 8 Ki slots
/// keep the slot array itself cache-resident (128 KiB) while covering
/// far more contexts than a serving iteration touches — hits come
/// overwhelmingly from the current iteration's draft/verify overlap, so
/// a larger, cache-colder table measures slower, not faster.
pub const DEFAULT_MEMO_CAPACITY: usize = 1 << 13;

/// Hit/miss counters of one (or several merged) [`DistMemo`]s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute the distribution.
    pub misses: u64,
}

impl MemoStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in percent (0 when no lookups happened).
    pub fn hit_rate_pct(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            100.0 * self.hits as f64 / self.lookups() as f64
        }
    }

    /// Accumulates another memo's counters.
    pub fn merge(&mut self, other: MemoStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// Lookup counters of one model handle. A memo may be shared by several
/// engines' models; each engine's models count their own lookups here,
/// so per-engine reports never include a sibling's work.
#[derive(Debug, Default)]
pub(crate) struct LookupCounts {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl LookupCounts {
    /// Records one lookup.
    pub(crate) fn record(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The counts so far.
    pub(crate) fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[derive(Debug)]
struct MemoInner {
    /// Direct-mapped slots: `slots[key & mask]` holds the entry (if any)
    /// whose full key is stored alongside for exactness. Empty until the
    /// first insert.
    slots: Vec<Option<(u64, Arc<SparseDist>)>>,
    stats: MemoStats,
}

/// A shared, direct-mapped distribution cache (see the module docs).
#[derive(Debug)]
pub struct DistMemo {
    inner: Mutex<MemoInner>,
    /// Slot count minus one (the slot count is a power of two).
    mask: u64,
}

impl Default for DistMemo {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_MEMO_CAPACITY)
    }
}

impl DistMemo {
    /// Creates a memo with `capacity` slots (rounded up to a power of two).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(1);
        Self {
            inner: Mutex::new(MemoInner {
                slots: Vec::new(),
                stats: MemoStats::default(),
            }),
            mask: cap as u64 - 1,
        }
    }

    /// A fresh memo wrapped for sharing across model clones.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Returns the cached distribution for `key` and whether it was a
    /// hit; on a miss (or slot conflict) `fill` computes it into a
    /// [`SparseDist`] that is then cached and returned.
    ///
    /// The lock is taken once per lookup and held while `fill` runs, so
    /// `fill` may consult *other* memos but never this one. On a miss
    /// `fill` receives the evicted entry when no one else holds it, to
    /// rebuild in place (reusing the allocation), or else a fresh empty
    /// distribution; either way it must overwrite the whole value.
    pub fn get_or_fill(
        &self,
        key: u64,
        fill: impl FnOnce(&mut SparseDist),
    ) -> (Arc<SparseDist>, bool) {
        let mut guard = self.inner.lock().expect("memo lock");
        let inner = &mut *guard;
        if inner.slots.is_empty() {
            inner.slots = vec![None; self.mask as usize + 1];
        }
        let slot = &mut inner.slots[(key & self.mask) as usize];
        if let Some((k, dist)) = slot {
            if *k == key {
                inner.stats.hits += 1;
                return (Arc::clone(dist), true);
            }
        }
        inner.stats.misses += 1;
        let mut dist = match slot.take() {
            Some((_, evicted)) if Arc::strong_count(&evicted) == 1 => evicted,
            _ => Arc::new(SparseDist::unfilled()),
        };
        fill(Arc::get_mut(&mut dist).expect("recycled or fresh entry is unique"));
        *slot = Some((key, Arc::clone(&dist)));
        (dist, false)
    }

    /// [`DistMemo::get_or_fill`] for a computed value: returns the cached
    /// distribution for `key`, computing and inserting it via `compute`
    /// on a miss (or slot conflict). `compute` runs under the lock, so it
    /// may consult other memos but never this one.
    pub fn get_or_compute(
        &self,
        key: u64,
        compute: impl FnOnce() -> SparseDist,
    ) -> Arc<SparseDist> {
        self.get_or_fill(key, |dist| *dist = compute()).0
    }

    /// Current hit/miss counters of every lookup in this memo, whichever
    /// model made it.
    pub fn stats(&self) -> MemoStats {
        self.inner.lock().expect("memo lock").stats
    }

    /// Occupied slots right now.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("memo lock")
            .slots
            .iter()
            .filter(|s| s.is_some())
            .count()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the slot table exists, i.e. anything was ever inserted.
    pub fn has_table(&self) -> bool {
        !self.inner.lock().expect("memo lock").slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::TokenId;

    fn dist(t: u32) -> SparseDist {
        SparseDist::delta(TokenId(t), 100)
    }

    #[test]
    fn hit_returns_identical_distribution() {
        let memo = DistMemo::default();
        let a = memo.get_or_compute(7, || dist(3));
        let b = memo.get_or_compute(7, || panic!("must not recompute"));
        assert_eq!(*a, *b);
        assert_eq!(memo.stats(), MemoStats { hits: 1, misses: 1 });
    }

    #[test]
    fn distinct_keys_compute_independently() {
        let memo = DistMemo::default();
        let a = memo.get_or_compute(1, || dist(1));
        let b = memo.get_or_compute(2, || dist(2));
        assert_ne!(*a, *b);
        assert_eq!(memo.stats().misses, 2);
    }

    #[test]
    fn slot_conflicts_overwrite_and_recompute_exactly() {
        // Capacity 2: keys 1 and 3 map to the same slot (1 & 1 == 3 & 1).
        let memo = DistMemo::with_capacity(2);
        memo.get_or_compute(1, || dist(1));
        let b = memo.get_or_compute(3, || dist(3));
        assert_eq!(*b, dist(3), "conflict evicts, never corrupts");
        // Key 1 was evicted: recomputation yields the exact same value.
        let again = memo.get_or_compute(1, || dist(1));
        assert_eq!(*again, dist(1));
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn table_is_allocated_on_first_insert() {
        let memo = DistMemo::default();
        assert!(!memo.has_table());
        assert_eq!(memo.stats(), MemoStats::default());
        memo.get_or_compute(5, || dist(5));
        assert!(memo.has_table());
    }

    #[test]
    fn unique_evicted_entry_is_rebuilt_in_place() {
        let memo = DistMemo::with_capacity(1);
        let first = Arc::as_ptr(&memo.get_or_compute(1, || dist(1)));
        // Nobody holds key 1's entry any more: key 2 reuses its Arc.
        let (second, hit) = memo.get_or_fill(2, |d| {
            assert_eq!(*d, dist(1), "fill sees the evicted entry");
            *d = dist(2);
        });
        assert!(!hit);
        assert_eq!(Arc::as_ptr(&second), first);
        assert_eq!(*second, dist(2));
        // A held entry is left alone: the next miss gets a fresh one.
        let third = memo.get_or_compute(3, || dist(3));
        assert_ne!(Arc::as_ptr(&third), first);
        assert_eq!(*second, dist(2));
        assert_eq!(*third, dist(3));
    }

    #[test]
    fn stats_hit_rate() {
        let mut s = MemoStats { hits: 3, misses: 1 };
        assert!((s.hit_rate_pct() - 75.0).abs() < 1e-12);
        s.merge(MemoStats { hits: 1, misses: 3 });
        assert!((s.hit_rate_pct() - 50.0).abs() < 1e-12);
        assert_eq!(MemoStats::default().hit_rate_pct(), 0.0);
    }
}
