//! Pluggable method-summary stores.
//!
//! The analysis memoizes context-sensitive method summaries keyed by
//! `(method, in-policy, const-params, privileged)`. Where those summaries
//! live is a policy decision: the serial analyzer keeps them in a
//! single-threaded [`LocalStore`]; the parallel engine shares a sharded,
//! lock-striped [`SharedStore`] between workers so a summary computed by
//! one worker is reused by all others.
//!
//! Sharing is safe because only *clean* summaries — those whose subtree was
//! not cut by recursion — are ever inserted, and a clean summary is a pure
//! function of its [`MemoKey`]: a hit returns exactly what recomputation
//! would produce, so analysis results are independent of which store (and
//! how many threads) produced them.

use crate::events::EventKey;
use crate::ispa::PolicyDomain;
use spo_dataflow::AbsVal;
use spo_jir::MethodId;
use spo_obs::{trace, HistSnapshot, Histogram};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Number of lock stripes in a [`SharedStore::default`] store, the pair
/// each global-memo engine run builds.
pub const DEFAULT_SHARDS: usize = 16;

/// The memoization key of a context-sensitive method summary: the paper's
/// `(method, in-policy, const-params, privileged)` context.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MemoKey<P> {
    pub(crate) method: MethodId,
    pub(crate) policy: P,
    pub(crate) consts: Vec<AbsVal>,
    pub(crate) privileged: bool,
}

/// One recorded security-sensitive event inside a summary.
#[derive(Clone, Debug)]
pub(crate) struct EventRec<P> {
    pub(crate) key: EventKey,
    pub(crate) policy: P,
    pub(crate) origin: MethodId,
}

/// A context-sensitive method summary: the exit policy plus everything the
/// subtree recorded.
#[derive(Debug)]
pub struct Summary<P> {
    pub(crate) exit: P,
    pub(crate) events: Vec<EventRec<P>>,
    pub(crate) checks: Vec<(crate::checks::Check, MethodId)>,
}

/// Storage backend for memoized method summaries.
///
/// Implementations use interior mutability so a store can be shared by
/// reference — between the two passes of a serial run, or between worker
/// threads of a parallel run.
pub trait SummaryStore<P: PolicyDomain> {
    /// Looks up the summary for `key`, if one was recorded.
    fn get(&self, key: &MemoKey<P>) -> Option<Arc<Summary<P>>>;

    /// Records the summary computed for `key`. Returns `true` if the key
    /// was newly inserted, `false` if another computation (a concurrent
    /// worker, in the shared store) got there first — the signal the
    /// observability layer uses to count each memoized frame exactly once
    /// regardless of worker count.
    fn insert(&self, key: MemoKey<P>, summary: Arc<Summary<P>>) -> bool;

    /// Drops all recorded summaries ([`MemoScope::PerEntry`] runs clear
    /// between entry points).
    ///
    /// [`MemoScope::PerEntry`]: crate::MemoScope::PerEntry
    fn clear(&self);

    /// Number of summaries currently stored.
    fn len(&self) -> usize;

    /// Returns `true` if the store holds no summaries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The serial store: one thread, no locking.
#[derive(Debug)]
pub struct LocalStore<P> {
    map: std::cell::RefCell<HashMap<MemoKey<P>, Arc<Summary<P>>>>,
}

impl<P> Default for LocalStore<P> {
    fn default() -> Self {
        LocalStore {
            map: std::cell::RefCell::new(HashMap::new()),
        }
    }
}

impl<P: PolicyDomain> SummaryStore<P> for LocalStore<P> {
    fn get(&self, key: &MemoKey<P>) -> Option<Arc<Summary<P>>> {
        self.map.borrow().get(key).map(Arc::clone)
    }

    fn insert(&self, key: MemoKey<P>, summary: Arc<Summary<P>>) -> bool {
        self.map.borrow_mut().insert(key, summary).is_none()
    }

    fn clear(&self) {
        self.map.borrow_mut().clear();
    }

    fn len(&self) -> usize {
        self.map.borrow().len()
    }
}

struct Shard<P> {
    map: RwLock<HashMap<MemoKey<P>, Arc<Summary<P>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    contended: AtomicU64,
    /// Nanoseconds spent blocked on this shard's lock, one observation
    /// per contended acquisition. Always enabled: the histogram is only
    /// touched on the already-slow `WouldBlock` path.
    wait: Histogram,
}

impl<P> Default for Shard<P> {
    fn default() -> Self {
        Shard {
            map: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            wait: Histogram::standalone(),
        }
    }
}

/// Blocks on a contended shard lock acquisition, recording the wait into
/// the shard's histogram and — when the calling thread has a trace lane
/// bound — as a `lock_wait` timeline event.
fn blocking_acquire<G>(wait: &Histogram, acquire: impl FnOnce() -> G) -> G {
    let start = Instant::now();
    let guard = acquire();
    wait.record(start.elapsed().as_nanos() as u64);
    trace::complete_since(start, "lock_wait", "store");
    guard
}

/// Counters of one [`SharedStore`] shard, snapshot by
/// [`SharedStore::shard_stats`].
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ShardStats {
    /// Lookups that found a summary.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Lock acquisitions that had to wait for another thread.
    pub contended: u64,
    /// Summaries currently stored in the shard.
    pub entries: usize,
    /// Histogram of nanoseconds spent blocked on the shard lock — one
    /// observation per contended acquisition.
    pub lock_wait: HistSnapshot,
}

/// The concurrent store: lock-striped shards shared between worker threads.
///
/// Keys are distributed over shards by hash so concurrent workers mostly
/// touch different locks; each shard counts its hits, misses, and contended
/// acquisitions for the engine's per-run statistics.
pub struct SharedStore<P> {
    shards: Vec<Shard<P>>,
}

impl<P: PolicyDomain> SharedStore<P> {
    /// Creates a store with `shards` lock stripes (rounded up to 1).
    pub fn new(shards: usize) -> Self {
        SharedStore {
            shards: (0..shards.max(1)).map(|_| Shard::default()).collect(),
        }
    }

    fn shard(&self, key: &MemoKey<P>) -> &Shard<P> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Snapshots the per-shard counters.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| ShardStats {
                hits: s.hits.load(Ordering::Relaxed),
                misses: s.misses.load(Ordering::Relaxed),
                contended: s.contended.load(Ordering::Relaxed),
                entries: s.map.read().unwrap_or_else(|e| e.into_inner()).len(),
                lock_wait: s.wait.snapshot(),
            })
            .collect()
    }
}

impl<P: PolicyDomain> Default for SharedStore<P> {
    /// [`DEFAULT_SHARDS`] stripes: enough that 8–16 workers rarely
    /// collide.
    fn default() -> Self {
        SharedStore::new(DEFAULT_SHARDS)
    }
}

impl<P: PolicyDomain> SummaryStore<P> for SharedStore<P> {
    fn get(&self, key: &MemoKey<P>) -> Option<Arc<Summary<P>>> {
        let shard = self.shard(key);
        let map = match shard.map.try_read() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                shard.contended.fetch_add(1, Ordering::Relaxed);
                blocking_acquire(&shard.wait, || {
                    shard.map.read().unwrap_or_else(|e| e.into_inner())
                })
            }
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
        };
        let hit = map.get(key).map(Arc::clone);
        match hit {
            Some(_) => shard.hits.fetch_add(1, Ordering::Relaxed),
            None => shard.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    fn insert(&self, key: MemoKey<P>, summary: Arc<Summary<P>>) -> bool {
        let shard = self.shard(&key);
        let mut map = match shard.map.try_write() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                shard.contended.fetch_add(1, Ordering::Relaxed);
                blocking_acquire(&shard.wait, || {
                    shard.map.write().unwrap_or_else(|e| e.into_inner())
                })
            }
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
        };
        // First writer wins: a racing worker's identical summary is
        // discarded so `true` is returned for exactly one insert per key.
        match map.entry(key) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(summary);
                true
            }
        }
    }

    fn clear(&self) {
        for shard in &self.shards {
            shard.map.write().unwrap_or_else(|e| e.into_inner()).clear();
        }
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.map.read().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spo_dataflow::Dnf;

    fn key(i: u32) -> MemoKey<Dnf> {
        MemoKey {
            method: MethodId {
                class: spo_jir::ClassId(0),
                index: i,
            },
            policy: Dnf::empty_path(),
            consts: Vec::new(),
            privileged: false,
        }
    }

    fn summary() -> Arc<Summary<Dnf>> {
        Arc::new(Summary {
            exit: Dnf::empty_path(),
            events: Vec::new(),
            checks: Vec::new(),
        })
    }

    #[test]
    fn local_store_roundtrip() {
        let store = LocalStore::default();
        assert!(store.get(&key(1)).is_none());
        store.insert(key(1), summary());
        assert!(store.get(&key(1)).is_some());
        assert_eq!(store.len(), 1);
        store.clear();
        assert!(store.is_empty());
    }

    #[test]
    fn shared_store_roundtrip_and_stats() {
        let store: SharedStore<Dnf> = SharedStore::new(4);
        for i in 0..64 {
            store.insert(key(i), summary());
        }
        assert_eq!(store.len(), 64);
        for i in 0..64 {
            assert!(store.get(&key(i)).is_some(), "key {i}");
        }
        assert!(store.get(&key(1000)).is_none());
        let stats = store.shard_stats();
        assert_eq!(stats.len(), 4);
        assert_eq!(stats.iter().map(|s| s.hits).sum::<u64>(), 64);
        assert_eq!(stats.iter().map(|s| s.misses).sum::<u64>(), 1);
        assert_eq!(stats.iter().map(|s| s.entries).sum::<usize>(), 64);
        // Keys spread over more than one stripe.
        assert!(stats.iter().filter(|s| s.entries > 0).count() > 1);
        store.clear();
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn insert_reports_newness() {
        let local = LocalStore::default();
        assert!(local.insert(key(1), summary()));
        assert!(!local.insert(key(1), summary()));
        assert!(local.insert(key(2), summary()));

        let shared: SharedStore<Dnf> = SharedStore::default();
        assert!(shared.insert(key(1), summary()));
        assert!(!shared.insert(key(1), summary()));
        assert_eq!(shared.len(), 1);
    }

    #[test]
    fn shared_store_counts_contention_under_concurrent_access() {
        // A single shard forces every key onto one lock; two threads
        // hammering it must observe at least one contended acquisition.
        // Scheduling is non-deterministic, so retry a few rounds rather
        // than assert on a single racy window.
        for round in 0..20 {
            let store: SharedStore<Dnf> = SharedStore::new(1);
            std::thread::scope(|s| {
                s.spawn(|| {
                    for i in 0..2000 {
                        store.insert(key(i), summary());
                    }
                });
                s.spawn(|| {
                    for i in 0..2000 {
                        let _ = store.get(&key(i));
                    }
                });
            });
            let stats = store.shard_stats();
            let contended: u64 = stats.iter().map(|s| s.contended).sum();
            if contended > 0 {
                // Every contended acquisition records one wait observation.
                let waits: u64 = stats.iter().map(|s| s.lock_wait.count).sum();
                assert_eq!(waits, contended);
                return;
            }
            eprintln!("round {round}: no contention observed, retrying");
        }
        panic!("no contention observed in 20 rounds of concurrent access");
    }

    #[test]
    fn shared_store_is_usable_across_threads() {
        let store: SharedStore<Dnf> = SharedStore::default();
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let store = &store;
                s.spawn(move || {
                    for i in 0..32 {
                        store.insert(key(t * 32 + i), summary());
                        assert!(store.get(&key(t * 32 + i)).is_some());
                    }
                });
            }
        });
        assert_eq!(store.len(), 128);
    }
}
