//! A small vendored parallel runtime for the analysis pipeline.
//!
//! The workspace builds fully offline, so rayon is not an option; this
//! crate provides the minimal subset the WCRT pipeline needs — a
//! fixed-size thread pool with [`Pool::par_map`], [`Pool::par_map_range`]
//! and [`Pool::join`] — under one hard guarantee:
//!
//! **results are byte-identical regardless of the thread count.**
//!
//! Determinism comes from the execution model, not from luck:
//!
//! - every `par_map` result is written into a slot addressed by its input
//!   index, and the output `Vec` is assembled in index order — which
//!   thread computed an element never shows;
//! - reductions over the results are the caller's (sequential, in index
//!   order); the runtime never merges anything itself;
//! - work distribution is self-scheduling: threads claim the next unclaimed
//!   index from an atomic cursor, so scheduling affects only timing.
//!
//! The pool has `threads - 1` background workers and the **caller always
//! participates**: a `Pool::new(1)` pool spawns no threads at all and runs
//! every closure inline on the calling thread. A thread that waits for a
//! batch first claims and runs items of that batch until the cursor is
//! exhausted, so nested parallelism (an item of one batch starting a
//! sub-batch) cannot deadlock: a thread only ever blocks on work that
//! other threads are actively executing.
//!
//! Blocking callers and pool sizing are process-level concerns: a global
//! pool (sized by the `RTPAR_THREADS` environment variable, or the
//! available parallelism capped at 8) serves the free functions
//! [`par_map`], [`par_map_range`] and [`join`]; a specific pool
//! can be made current for a closure with [`Pool::install`], and the
//! global pool can be resized with [`configure_global`] (the `serve
//! --threads` knob).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Environment variable that sizes the global pool (a positive integer;
/// anything else is ignored).
pub const THREADS_ENV: &str = "RTPAR_THREADS";

// ---------------------------------------------------------------------------
// Batch: one par_map call in flight.
// ---------------------------------------------------------------------------

/// Completion state of a batch, updated under its mutex.
struct Completion {
    done: usize,
    panic: Option<Box<dyn Any + Send>>,
}

/// A type-erased in-flight `par_map` call. The owner keeps the typed data
/// (`BatchData`) on its stack; helpers reach it through the raw pointer.
///
/// Lifecycle protocol (this is what makes the raw pointer sound):
///
/// 1. The owning call constructs the batch, publishes up to
///    `workers` helper tokens (`Arc<Batch>` clones) on the pool queue,
///    then itself claims indices from `next` until the cursor passes
///    `total`.
/// 2. Having exhausted the cursor, the owner blocks until `done == total`.
///    Every claimed index is therefore finished before the owner's stack
///    frame (and `data`) can be invalidated.
/// 3. A helper popping a token after that only touches `next`: it sees a
///    cursor at or past `total` and returns without dereferencing `data`.
///    Stale queue tokens are inert.
struct Batch {
    /// Claim cursor: `fetch_add` hands out item indices exactly once.
    next: AtomicUsize,
    total: usize,
    /// Points at the owning call's stack-resident `BatchData`.
    data: *const (),
    /// Monomorphized executor for one item of `data`.
    run_one: unsafe fn(*const (), usize),
    completion: Mutex<Completion>,
    finished: Condvar,
    /// The submitting thread's recording context (its `rtobs` session
    /// and flight frame, either possibly absent), installed on whichever
    /// thread executes the batch so recording survives work stealing.
    context: rtobs::Context,
}

// SAFETY: `data` is only dereferenced through `run_one` for indices
// claimed from `next`, and the constructing call (`Shared::par_map_range`)
// guarantees the pointee outlives all such claims (see the lifecycle
// protocol above) and requires `F: Sync` / `R: Send` for the pointee's
// contents.
unsafe impl Send for Batch {}
// SAFETY: as above; all interior mutability is via atomics and mutexes.
unsafe impl Sync for Batch {}

impl Batch {
    /// Claims and runs items until the cursor is exhausted. Panics from
    /// items are captured into `completion` so `done` always reaches
    /// `total`; the batch owner rethrows after the wait. Every claimed
    /// item is tallied into `claimed` *before* its `done` increment, so
    /// once the owner observes a finished batch the inline/stolen split
    /// is fully accounted (a batched add on loop exit would race the
    /// owner's `stats()` read).
    fn run_to_exhaustion(&self, claimed: &AtomicU64) {
        // Record everything this thread claims exactly where the
        // submitting thread records, and nowhere if it records nowhere.
        let _context = rtobs::adopt(self.context.clone());
        loop {
            let index = self.next.fetch_add(1, Ordering::Relaxed);
            if index >= self.total {
                break;
            }
            // SAFETY: `index < total`, so the owner is still inside
            // `par_map_range` (it cannot return before `done == total`)
            // and `data` is alive.
            let outcome =
                catch_unwind(AssertUnwindSafe(|| unsafe { (self.run_one)(self.data, index) }));
            claimed.fetch_add(1, Ordering::Relaxed);
            let mut completion = self.completion.lock().expect("batch completion lock");
            if let Err(payload) = outcome {
                completion.panic.get_or_insert(payload);
            }
            completion.done += 1;
            if completion.done == self.total {
                self.finished.notify_all();
            }
        }
    }
}

/// The typed side of a batch, owned by the `par_map_range` stack frame.
struct BatchData<'call, R, F> {
    f: &'call F,
    /// One slot per index; written by whichever thread claims the index,
    /// drained in index order by the owner.
    slots: Vec<Mutex<Option<R>>>,
}

/// Runs item `index`: calls the closure and parks the result in its slot.
///
/// # Safety
///
/// `data` must point at a live `BatchData<R, F>` and `index` must be a
/// uniquely claimed in-range index (both guaranteed by the `Batch`
/// lifecycle protocol).
unsafe fn run_one_erased<R, F: Fn(usize) -> R>(data: *const (), index: usize) {
    // SAFETY: the caller upholds validity of `data` per this function's
    // contract; `F: Sync` makes the shared borrow across threads sound.
    let data = unsafe { &*data.cast::<BatchData<'_, R, F>>() };
    let value = (data.f)(index);
    *data.slots[index].lock().expect("batch slot lock") = Some(value);
}

// ---------------------------------------------------------------------------
// Shared pool state and workers.
// ---------------------------------------------------------------------------

struct Queue {
    jobs: VecDeque<Arc<Batch>>,
    shutdown: bool,
}

struct Shared {
    /// Total parallelism: background workers + the participating caller.
    threads: usize,
    queue: Mutex<Queue>,
    work_ready: Condvar,
    /// Lifetime activity gauges, exposed via [`Pool::stats`]. Purely
    /// observational: nothing in the scheduling path reads them.
    batches: AtomicU64,
    items_inline: AtomicU64,
    items_stolen: AtomicU64,
}

impl Shared {
    fn worker_count(&self) -> usize {
        self.threads - 1
    }

    /// The deterministic fan-out primitive everything else builds on.
    fn par_map_range<R, F>(self: &Arc<Self>, len: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if len == 0 {
            return Vec::new();
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        let data = BatchData { f: &f, slots: (0..len).map(|_| Mutex::new(None)).collect() };
        let batch = Arc::new(Batch {
            next: AtomicUsize::new(0),
            total: len,
            data: (&data as *const BatchData<'_, R, F>).cast(),
            run_one: run_one_erased::<R, F>,
            completion: Mutex::new(Completion { done: 0, panic: None }),
            finished: Condvar::new(),
            context: rtobs::context(),
        });
        // The caller takes one item itself, so at most `len - 1` helpers
        // can ever be useful.
        let helpers = self.worker_count().min(len - 1);
        if helpers > 0 {
            let mut queue = self.queue.lock().expect("pool queue lock");
            for _ in 0..helpers {
                queue.jobs.push_back(Arc::clone(&batch));
            }
            drop(queue);
            self.work_ready.notify_all();
        }
        // Caller participation: exhaust the cursor, then wait for claimed
        // stragglers. After this, no thread will dereference `data` again.
        batch.run_to_exhaustion(&self.items_inline);
        let mut completion = batch.completion.lock().expect("batch completion lock");
        while completion.done < len {
            completion = batch.finished.wait(completion).expect("batch completion lock");
        }
        let panic = completion.panic.take();
        drop(completion);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        data.slots
            .into_iter()
            .map(|slot| {
                slot.into_inner().expect("batch slot lock").expect("every claimed index completed")
            })
            .collect()
    }

    fn join<RA, RB, A, B>(self: &Arc<Self>, a: A, b: B) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
    {
        enum Either<X, Y> {
            A(X),
            B(Y),
        }
        let a = Mutex::new(Some(a));
        let b = Mutex::new(Some(b));
        let mut results = self
            .par_map_range(2, |index| {
                if index == 0 {
                    let a = a.lock().expect("join lock").take().expect("a runs once");
                    Either::A(a())
                } else {
                    let b = b.lock().expect("join lock").take().expect("b runs once");
                    Either::B(b())
                }
            })
            .into_iter();
        match (results.next(), results.next()) {
            (Some(Either::A(ra)), Some(Either::B(rb))) => (ra, rb),
            _ => unreachable!("par_map_range(2) yields index-ordered results"),
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    // Nested free-function calls from inside batch items must target this
    // worker's own pool, not the global one.
    CURRENT.with(|current| current.borrow_mut().push(Arc::clone(&shared)));
    loop {
        let batch = {
            let mut queue = shared.queue.lock().expect("pool queue lock");
            loop {
                if let Some(batch) = queue.jobs.pop_front() {
                    break batch;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared.work_ready.wait(queue).expect("pool queue lock");
            }
        };
        batch.run_to_exhaustion(&shared.items_stolen);
    }
}

// ---------------------------------------------------------------------------
// Pool handle.
// ---------------------------------------------------------------------------

struct Inner {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().expect("pool queue lock");
            queue.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        let current = std::thread::current().id();
        for handle in self.workers.drain(..) {
            // Never join the current thread: if a batch item holds the
            // last clone of its own pool, detaching beats deadlocking.
            if handle.thread().id() != current {
                let _ = handle.join();
            }
        }
    }
}

/// A fixed-size analysis pool. Cloning is cheap and shares the pool; the
/// workers shut down when the last clone is dropped.
#[derive(Clone)]
pub struct Pool {
    inner: Arc<Inner>,
}

impl fmt::Debug for Pool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads())
            .field("background_workers", &self.background_workers())
            .finish()
    }
}

impl Pool {
    /// Creates a pool with a total parallelism of `threads`: the caller of
    /// each operation plus `threads - 1` background workers. `Pool::new(1)`
    /// spawns no threads and runs everything inline on the caller.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Pool {
        assert!(threads >= 1, "a pool needs at least the calling thread");
        let shared = Arc::new(Shared {
            threads,
            queue: Mutex::new(Queue { jobs: VecDeque::new(), shutdown: false }),
            work_ready: Condvar::new(),
            batches: AtomicU64::new(0),
            items_inline: AtomicU64::new(0),
            items_stolen: AtomicU64::new(0),
        });
        let workers = (0..threads - 1)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rtpar-worker-{index}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn rtpar worker")
            })
            .collect();
        Pool { inner: Arc::new(Inner { shared, workers }) }
    }

    /// Total parallelism (background workers + the participating caller).
    pub fn threads(&self) -> usize {
        self.inner.shared.threads
    }

    /// Number of background worker threads actually spawned
    /// (`threads() - 1`; zero for a single-threaded pool).
    pub fn background_workers(&self) -> usize {
        self.inner.workers.len()
    }

    /// Maps `f` over `0..len` on this pool; results are returned in index
    /// order regardless of which thread computed them.
    pub fn par_map_range<R, F>(&self, len: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.inner.shared.par_map_range(len, f)
    }

    /// Maps `f` over a slice on this pool; results are in input order.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.inner.shared.par_map_range(items.len(), |index| f(&items[index]))
    }

    /// Runs `a` and `b`, potentially in parallel, and returns both results
    /// as `(a(), b())`.
    pub fn join<RA, RB, A, B>(&self, a: A, b: B) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
    {
        self.inner.shared.join(a, b)
    }

    /// A point-in-time snapshot of the pool's activity counters.
    pub fn stats(&self) -> PoolStats {
        let shared = &self.inner.shared;
        PoolStats {
            batches: shared.batches.load(Ordering::Relaxed),
            items_inline: shared.items_inline.load(Ordering::Relaxed),
            items_stolen: shared.items_stolen.load(Ordering::Relaxed),
        }
    }

    /// Makes this pool the current pool for the duration of `f`: the free
    /// functions ([`par_map`], [`join`], …) called from `f` — directly or
    /// from nested batch items on this thread — run here instead of the
    /// global pool.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        CURRENT.with(|current| current.borrow_mut().push(Arc::clone(&self.inner.shared)));
        let _guard = PopCurrent;
        f()
    }
}

/// Lifetime activity counters of a [`Pool`], snapshotted by
/// [`Pool::stats`]; monotone over the pool's life. Tests read them to
/// check which work fanned out and who ran it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Fan-out batches executed (`par_map`/`par_map_range`/`join`).
    pub batches: u64,
    /// Work items run inline by the thread that submitted the batch.
    pub items_inline: u64,
    /// Work items claimed ("stolen") by background workers.
    pub items_stolen: u64,
}

/// Drop guard for [`Pool::install`]: pops the thread-local stack even if
/// `f` panics.
struct PopCurrent;

impl Drop for PopCurrent {
    fn drop(&mut self) {
        CURRENT.with(|current| {
            current.borrow_mut().pop();
        });
    }
}

// ---------------------------------------------------------------------------
// The current pool: thread-local override stack over a process global.
// ---------------------------------------------------------------------------

thread_local! {
    static CURRENT: RefCell<Vec<Arc<Shared>>> = const { RefCell::new(Vec::new()) };
}

static GLOBAL: Mutex<Option<Pool>> = Mutex::new(None);

/// Parses a thread count from the `RTPAR_THREADS` value; `None` for
/// absent, non-numeric or zero values.
fn parse_threads(value: Option<&str>) -> Option<usize> {
    value.and_then(|v| v.trim().parse::<usize>().ok()).filter(|n| *n >= 1)
}

/// The default pool size: `RTPAR_THREADS` if set to a positive integer,
/// else the available parallelism capped at 8 (analysis is CPU-bound).
pub fn default_threads() -> usize {
    parse_threads(std::env::var(THREADS_ENV).ok().as_deref())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(2, NonZeroUsize::get).min(8))
}

/// The process-wide pool, created on first use with [`default_threads`].
pub fn global() -> Pool {
    let mut slot = GLOBAL.lock().expect("global pool lock");
    slot.get_or_insert_with(|| Pool::new(default_threads())).clone()
}

/// Resizes the global pool (the `serve --threads` knob). A no-op when the
/// pool already has `threads`; otherwise the old pool's workers drain and
/// shut down once its last clone drops. Returns the (new) global pool.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn configure_global(threads: usize) -> Pool {
    let previous;
    let pool;
    {
        let mut slot = GLOBAL.lock().expect("global pool lock");
        if let Some(existing) = slot.as_ref() {
            if existing.threads() == threads {
                return existing.clone();
            }
        }
        pool = Pool::new(threads);
        previous = slot.replace(pool.clone());
    }
    // Join the displaced pool's workers outside the lock.
    drop(previous);
    pool
}

fn current_shared() -> Arc<Shared> {
    if let Some(shared) = CURRENT.with(|current| current.borrow().last().cloned()) {
        return shared;
    }
    global().inner.shared.clone()
}

/// Total parallelism of the current pool (installed, worker-local or
/// global — whichever [`par_map`] would use from this thread).
pub fn current_threads() -> usize {
    current_shared().threads
}

/// [`Pool::par_map_range`] on the current pool.
pub fn par_map_range<R, F>(len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    current_shared().par_map_range(len, f)
}

/// [`Pool::par_map`] on the current pool.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    current_shared().par_map_range(items.len(), |index| f(&items[index]))
}

/// [`Pool::join`] on the current pool.
pub fn join<RA, RB, A, B>(a: A, b: B) -> (RA, RB)
where
    RA: Send,
    RB: Send,
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
{
    current_shared().join(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

    fn reference(len: usize) -> Vec<u64> {
        (0..len).map(|i| (i as u64).wrapping_mul(0x9E37_79B9).rotate_left(7)).collect()
    }

    #[test]
    fn par_map_matches_sequential_at_every_pool_size() {
        for threads in [1, 2, 3, 8] {
            let pool = Pool::new(threads);
            for len in [0usize, 1, 2, 7, 64, 257] {
                let out = pool
                    .par_map_range(len, |i| (i as u64).wrapping_mul(0x9E37_79B9).rotate_left(7));
                assert_eq!(out, reference(len), "threads={threads}, len={len}");
            }
        }
    }

    #[test]
    fn par_map_over_slice_preserves_input_order() {
        let pool = Pool::new(4);
        let items: Vec<String> = (0..50).map(|i| format!("item-{i}")).collect();
        let lens = pool.par_map(&items, |s| s.len());
        assert_eq!(lens, items.iter().map(String::len).collect::<Vec<_>>());
    }

    #[test]
    fn single_threaded_pool_runs_inline_on_the_caller() {
        let pool = Pool::new(1);
        assert_eq!(pool.background_workers(), 0, "no analysis workers may be spawned");
        let caller = std::thread::current().id();
        let ids = pool.par_map_range(64, |_| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == caller), "threads=1 must single-thread the work");
    }

    #[test]
    fn workers_participate_in_large_batches() {
        let pool = Pool::new(4);
        assert_eq!(pool.background_workers(), 3);
        let ids = pool.par_map_range(64, |_| {
            std::thread::sleep(Duration::from_millis(2));
            std::thread::current().id()
        });
        let distinct: HashSet<_> = ids.into_iter().collect();
        assert!(distinct.len() >= 2, "expected workers to claim items, saw {}", distinct.len());
    }

    #[test]
    fn batches_carry_flight_frames_onto_worker_threads() {
        let recorder = rtobs::flight::FlightRecorder::new(1);
        let scope = recorder.begin("wcrt", 0);
        let pool = Pool::new(4);
        let sum: u64 = pool
            .install(|| {
                par_map_range(64, |i| {
                    // Workers only see the frame if the batch carried it.
                    rtobs::record_stage_lookup("analyze", true);
                    std::thread::sleep(Duration::from_millis(1));
                    i as u64
                })
            })
            .into_iter()
            .sum();
        assert_eq!(sum, 64 * 63 / 2);
        let record = scope.finish(true);
        let analyze = rtobs::flight::stage_index("analyze").unwrap();
        assert_eq!(
            record.stage_hits[analyze], 64,
            "every item attributes to the submitting request, wherever it ran"
        );
    }

    #[test]
    fn batches_carry_recorder_sessions_onto_worker_threads() {
        const ITEMS: usize = 64;
        let pool = Pool::new(8);
        let item = |_| {
            let enabled = rtobs::enabled();
            rtobs::record_explore_points(1);
            std::thread::sleep(Duration::from_millis(1));
            enabled
        };
        let session = rtobs::begin();
        let traced = pool.par_map_range(ITEMS, item);
        assert!(traced.iter().all(|&e| e), "every item ran under the submitter's session");
        assert!(pool.stats().items_stolen > 0, "helpers must have claimed some items");
        assert_eq!(session.recorder().counters().explore.points, ITEMS as u64);

        // The same helpers, now running a batch submitted from a thread
        // with no session, record nothing anywhere.
        let stolen_before = pool.stats().items_stolen;
        let untraced = std::thread::scope(|scope| {
            scope.spawn(|| pool.par_map_range(ITEMS, item)).join().expect("untraced submitter")
        });
        assert!(untraced.iter().all(|&e| !e), "no item may see a session");
        assert!(pool.stats().items_stolen > stolen_before, "helpers claimed untraced items");
        assert_eq!(session.recorder().counters().explore.points, ITEMS as u64);
    }

    #[test]
    fn nested_par_map_terminates_and_stays_deterministic() {
        let expected: Vec<Vec<u64>> =
            (0..8u64).map(|i| (0..8u64).map(|j| i * 100 + j).collect()).collect();
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let out = pool
                .install(|| par_map_range(8, |i| par_map_range(8, |j| i as u64 * 100 + j as u64)));
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn panics_propagate_and_the_pool_survives() {
        let pool = Pool::new(3);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map_range(16, |i| {
                assert!(i != 11, "planted failure");
                i
            })
        }));
        assert!(outcome.is_err(), "an item panic must surface at the par_map call");
        // The pool keeps working after a batch panicked.
        assert_eq!(pool.par_map_range(4, |i| i * 2), vec![0, 2, 4, 6]);
    }

    #[test]
    fn join_returns_results_in_order_and_overlaps() {
        let pool = Pool::new(2);
        let b_started = AtomicBool::new(false);
        let (ra, rb) = pool.join(
            || {
                // Proof of overlap: `a` (on the caller) watches `b` start on
                // the worker. The deadline keeps a pathological scheduler
                // from hanging the test; the assertion below still catches
                // a runtime that serializes the two closures on one thread.
                let deadline = Instant::now() + Duration::from_secs(10);
                while !b_started.load(Ordering::SeqCst) && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                b_started.load(Ordering::SeqCst)
            },
            || {
                b_started.store(true, Ordering::SeqCst);
                "b"
            },
        );
        assert!(ra, "b must have started while a was still running");
        assert_eq!(rb, "b");
    }

    #[test]
    fn install_overrides_the_current_pool() {
        let pool = Pool::new(3);
        assert_eq!(pool.install(current_threads), 3);
        let nested = Pool::new(5);
        let (outer, inner) = pool.install(|| (current_threads(), nested.install(current_threads)));
        assert_eq!((outer, inner), (3, 5));
    }

    #[test]
    fn installed_pool_serves_free_functions() {
        let pool = Pool::new(1);
        let caller = std::thread::current().id();
        let ids = pool.install(|| par_map_range(32, |_| std::thread::current().id()));
        assert!(ids.iter().all(|id| *id == caller));
        let (a, b) = pool.install(|| join(|| 1, || 2));
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn configure_global_resizes_and_is_idempotent() {
        let pool = configure_global(2);
        assert_eq!(pool.threads(), 2);
        assert_eq!(global().threads(), 2);
        // Same size: the existing pool is kept.
        let again = configure_global(2);
        assert!(Arc::ptr_eq(&pool.inner, &again.inner));
        let resized = configure_global(3);
        assert_eq!(resized.threads(), 3);
        assert_eq!(global().threads(), 3);
    }

    #[test]
    fn env_parsing_accepts_only_positive_integers() {
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 8 ")), Some(8));
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("many")), None);
        assert_eq!(parse_threads(None), None);
        assert!(default_threads() >= 1);
    }

    #[test]
    fn dropping_a_pool_joins_its_workers() {
        let pool = Pool::new(4);
        let results = pool.par_map_range(8, |i| i + 1);
        assert_eq!(results.len(), 8);
        drop(pool); // must not hang
    }

    #[test]
    fn stats_account_for_every_item() {
        let pool = Pool::new(1);
        assert_eq!(pool.stats().batches, 0);
        pool.par_map_range(5, |i| i);
        pool.par_map_range(3, |i| i);
        let stats = pool.stats();
        assert_eq!(stats.batches, 2);
        // A single-threaded pool has nobody to steal: all items inline.
        assert_eq!((stats.items_inline, stats.items_stolen), (8, 0));
    }

    #[test]
    fn stats_split_inline_and_stolen_items_on_a_multithreaded_pool() {
        let pool = Pool::new(4);
        // Slow items so the background workers reliably claim some.
        pool.par_map_range(64, |i| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            i
        });
        let stats = pool.stats();
        assert_eq!(stats.items_inline + stats.items_stolen, 64);
        assert!(stats.items_inline > 0, "the caller always participates: {stats:?}");
    }
}
