//! The one memo store: a content-keyed, single-flight map per pipeline
//! stage.
//!
//! Every memoized value in the workspace goes through a [`StageStore`]:
//! the CRPD pairwise cells ([`crate::CrpdCellCache`], stage `crpd_cell`)
//! here, and the `assemble`/`analyze` artifacts of `rtcli`'s
//! `ArtifactStore`. Values are immutable once computed (the analysis is
//! deterministic), so no invalidation is ever needed: changed content
//! hashes to a new key, and stale keys age out only when the store is
//! dropped.
//!
//! Concurrent requests for one key elect a leader under the map lock,
//! the leader computes outside the lock, and everyone else blocks on a
//! condvar until the value is ready. A hit is one lock, one map probe and
//! one [`Clone`] of the value — a plain copy for a cell's line count, an
//! `Arc` clone for a shared artifact.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Hit/miss/entry counters of one stage, for the server's `metrics`.
#[derive(Debug, Clone, Copy)]
pub struct StageStats {
    /// Stage name (`"assemble"`, `"analyze"`, `"crpd_cell"`).
    pub stage: &'static str,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that ran the stage (single-flight leaders only).
    pub misses: u64,
    /// Distinct values currently held.
    pub entries: u64,
    /// Lookups that blocked on another thread's in-flight computation.
    pub single_flight_waits: u64,
}

enum Slot<V> {
    /// A leader is computing this key; waiters block on the condvar.
    InFlight,
    /// The computed value.
    Ready(V),
}

/// One memoized pipeline stage: a content-keyed map with single-flight
/// deduplication and hit/miss counters.
///
/// `get_or_compute` elects exactly one *leader* per missing key (under
/// the map lock), so concurrent requests for the same key run the stage
/// once; the others wait and then clone the leader's value. A leader
/// that fails (or panics) clears its slot, so errors are never cached
/// and waiters retry — possibly becoming the next leader.
pub struct StageStore<K, V> {
    stage: &'static str,
    entries: Mutex<HashMap<K, Slot<V>>>,
    ready: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    waits: AtomicU64,
}

impl<K: Eq + Hash + Clone, V: Clone> StageStore<K, V> {
    /// An empty store whose lookups are recorded under `stage`.
    pub fn new(stage: &'static str) -> Self {
        StageStore {
            stage,
            entries: Mutex::new(HashMap::new()),
            ready: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            waits: AtomicU64::new(0),
        }
    }

    /// Returns the memoized value for `key`, running `compute` (as the
    /// single-flight leader, outside the map lock) on first use.
    ///
    /// Exactly one concurrent caller per key counts a miss and computes;
    /// the rest count a hit (plus a single-flight wait if they had to
    /// block). Every lookup is also recorded with
    /// [`rtobs::record_stage_lookup`] under this store's stage name.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error to the leader; the slot is cleared so
    /// the key stays uncached and waiters retry.
    pub fn get_or_compute<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        let mut waited = false;
        {
            let mut entries = self.entries.lock().expect("stage store lock");
            loop {
                match entries.get(&key) {
                    Some(Slot::Ready(value)) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        rtobs::record_stage_lookup(self.stage, true);
                        return Ok(value.clone());
                    }
                    Some(Slot::InFlight) => {
                        if !waited {
                            waited = true;
                            self.waits.fetch_add(1, Ordering::Relaxed);
                        }
                        entries = self.ready.wait(entries).expect("stage store lock");
                    }
                    None => {
                        entries.insert(key.clone(), Slot::InFlight);
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        rtobs::record_stage_lookup(self.stage, false);
                        break;
                    }
                }
            }
        }
        // Leader path: compute outside the lock so distinct keys proceed
        // in parallel. The guard clears the in-flight slot on error *or*
        // panic, so waiters never deadlock on an abandoned slot.
        let mut guard = InFlightGuard { store: self, key: Some(key) };
        let value = compute()?;
        let key = guard.key.take().expect("leader key");
        let mut entries = self.entries.lock().expect("stage store lock");
        entries.insert(key, Slot::Ready(value.clone()));
        drop(entries);
        self.ready.notify_all();
        Ok(value)
    }

    /// Number of lookups served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that ran the stage (single-flight leaders).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of lookups that blocked on another thread's computation.
    pub fn single_flight_waits(&self) -> u64 {
        self.waits.load(Ordering::Relaxed)
    }

    /// Number of ready values currently held.
    pub fn len(&self) -> usize {
        let entries = self.entries.lock().expect("stage store lock");
        entries.values().filter(|slot| matches!(slot, Slot::Ready(_))).count()
    }

    /// `true` if no value is ready yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// This stage's counters as one [`StageStats`] row.
    pub fn stats(&self) -> StageStats {
        StageStats {
            stage: self.stage,
            hits: self.hits(),
            misses: self.misses(),
            entries: self.len() as u64,
            single_flight_waits: self.single_flight_waits(),
        }
    }
}

impl<K, V> std::fmt::Debug for StageStore<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageStore")
            .field("stage", &self.stage)
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

struct InFlightGuard<'a, K: Eq + Hash + Clone, V> {
    store: &'a StageStore<K, V>,
    key: Option<K>,
}

impl<K: Eq + Hash + Clone, V> Drop for InFlightGuard<'_, K, V> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            let mut entries = self.store.entries.lock().expect("stage store lock");
            entries.remove(&key);
            drop(entries);
            self.store.ready.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn concurrent_same_key_requests_are_single_flight() {
        const THREADS: usize = 8;
        let store: StageStore<u32, u64> = StageStore::new("analyze");
        let barrier = Barrier::new(THREADS);
        let runs = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        store.get_or_compute(7, || {
                            runs.fetch_add(1, Ordering::Relaxed);
                            // Hold the in-flight slot long enough that the
                            // other threads demonstrably arrive meanwhile.
                            std::thread::sleep(std::time::Duration::from_millis(50));
                            Ok::<u64, String>(42)
                        })
                    })
                })
                .collect();
            for handle in handles {
                assert_eq!(handle.join().expect("worker").expect("compute"), 42);
            }
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1, "exactly one leader runs the stage");
        assert_eq!(store.misses(), 1, "single-flight: one miss per key, however many racers");
        assert_eq!(store.hits(), THREADS as u64 - 1);
        assert!(store.single_flight_waits() > 0, "the non-leaders blocked on the in-flight slot");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn failed_leader_lets_waiters_retry() {
        const THREADS: usize = 4;
        let store: StageStore<u32, u64> = StageStore::new("analyze");
        let barrier = Barrier::new(THREADS);
        let attempts = AtomicU64::new(0);
        let successes = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    barrier.wait();
                    let result = store.get_or_compute(7, || {
                        // The first leader fails; whoever retries succeeds.
                        if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Err("transient".to_string())
                        } else {
                            Ok(99)
                        }
                    });
                    if let Ok(v) = result {
                        assert_eq!(v, 99);
                        successes.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(successes.load(Ordering::SeqCst), THREADS as u64 - 1);
        assert_eq!(store.len(), 1, "the retried computation is cached");
    }
}
