//! Deterministic parallel runtime for the osa workspace.
//!
//! Every other crate in this repository is pinned by bit-exactness tests:
//! the GEMM kernels promise ascending-`k` f32 accumulation, trace corpora
//! are replayed byte-for-byte in CI, and the A2C quickstart gate retrains
//! twice and compares final parameters with `f32::to_bits`. A parallel
//! runtime is only admissible here if it is *invisible* to all of those
//! checks, which pins the design:
//!
//! - **Determinism contract.** Work is split into chunks whose boundaries
//!   depend only on the problem size, never on the number of workers, and
//!   every output element is written by exactly one lane. A reduction
//!   writes one partial per fixed-size chunk and folds the partials
//!   serially on the caller. Consequently the bits produced by a pool
//!   with 1, 2, 4, or 64 workers are identical — worker count is purely
//!   a throughput knob.
//! - **Persistent workers.** [`ThreadPool::new`] spawns its threads once;
//!   dispatch re-uses them via a `Mutex`/`Condvar` epoch hand-off. The
//!   steady-state dispatch path performs **zero heap allocations**, so
//!   pooled hot loops keep the 0-allocs/update invariant enforced by
//!   `crates/bench/tests/zero_alloc*.rs`.
//! - **Caller participation.** The dispatching thread runs lane 0 itself;
//!   a pool of `w` workers therefore owns `w - 1` OS threads. With
//!   `workers == 1` nothing is ever spawned and [`ThreadPool::
//!   parallel_for`] degenerates to a plain inline call with zero
//!   synchronization.
//! - **Graceful nesting.** A `parallel_for` issued from inside a pool
//!   task (for example a GEMM called from an A2C stream that is itself a
//!   pool task) runs inline on the current lane instead of deadlocking on
//!   the dispatch lock.
//! - **Panic hygiene.** A panicking task never poisons the pool: worker
//!   panics are caught, counted, and re-raised on the caller *after* the
//!   epoch has fully drained, so the pool stays usable afterwards.
//!
//! The pool size for library code that does not thread an explicit pool
//! through its API comes from `global`, which honours the `OSA_THREADS`
//! environment variable (see [`thread_budget`]). Tests and benches that
//! need to sweep worker counts on one machine use [`with_pool`] to
//! override the pool seen by [`with_current`] for a scope.
//!
//! `unsafe` in this workspace is confined to this crate and to the
//! counting allocator in `osa-bench`: the two lifetime erasures below
//! (the task pointer handed to workers, and the disjoint sub-slice split
//! of [`ThreadPool::parallel_for_lockstep`]) are documented at the site
//! and wrapped in APIs that safe code cannot misuse.
#![warn(unreachable_pub)]

use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

mod lockstep;
mod slots;
pub use lockstep::{Lockstep, Rows};
pub use slots::LaneSlots;

/// Upper bound on pool size: protects against a typo in `OSA_THREADS`
/// spawning thousands of threads, while still allowing heavy
/// oversubscription (workers ≫ cores) for torture tests.
pub(crate) const MAX_WORKERS: usize = 256;

/// A task dispatched to the pool for one epoch. The `'static` lifetime is
/// a lie told to the type system: `run_epoch` transmutes a stack-borrowed
/// closure in, and guarantees it does not return until every worker is
/// done with the reference.
type Task = &'static (dyn Fn(usize) + Sync);

struct State {
    /// Incremented once per dispatch; workers run exactly one task per
    /// epoch, so a slow worker can never miss or re-run an epoch.
    epoch: u64,
    task: Option<Task>,
    /// Workers still running the current epoch (caller lane excluded).
    active: usize,
    /// Worker lanes that panicked during the current epoch.
    panicked: usize,
    shutdown: bool,
}

struct Shared {
    /// Held by the one thread whose epoch is in flight. `State` describes
    /// a single epoch, so a second dispatcher must not post over it.
    dispatch: Mutex<()>,
    state: Mutex<State>,
    /// Signalled by the caller when a new epoch (or shutdown) is posted.
    start: Condvar,
    /// Signalled by the last worker to finish an epoch.
    done: Condvar,
}

impl Shared {
    /// Lock the state, shrugging off poisoning: the mutex is only ever
    /// held for state-machine bookkeeping, never across user code, so a
    /// panicked task cannot leave the state inconsistent.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

thread_local! {
    /// Set while the current thread is executing a pool task; nested
    /// dispatches check it and run inline instead of deadlocking.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
    /// Scoped pool override installed by [`with_pool`].
    static CURRENT: Cell<Option<*const ThreadPool>> = const { Cell::new(None) };
}

/// Marks the current thread as running a pool task for the duration of
/// `f`, restoring the previous value even if `f` panics.
fn run_lane(task: &(dyn Fn(usize) + Sync), lane: usize) {
    struct Reset(bool);
    impl Drop for Reset {
        fn drop(&mut self) {
            IN_TASK.with(|f| f.set(self.0));
        }
    }
    let _reset = Reset(IN_TASK.with(|f| f.replace(true)));
    task(lane);
}

/// A persistent pool of `workers` deterministic lanes (lane 0 is the
/// dispatching thread itself). See the crate docs for the contract.
pub struct ThreadPool {
    lanes: usize,
    shared: &'static Shared,
    handles: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Create a pool with `workers` lanes, spawning `workers - 1` OS
    /// threads. `workers` is clamped to `1..=MAX_WORKERS`; `workers == 1`
    /// spawns nothing and every dispatch runs inline.
    pub fn new(workers: usize) -> Self {
        let lanes = workers.clamp(1, MAX_WORKERS);
        // The shared block is leaked rather than Arc'd so that worker
        // loops and dispatch share it without reference-count traffic;
        // a process holds a handful of pools for its whole lifetime, so
        // the one-off leak on `Drop` is immaterial (and keeps `Drop`
        // panic-safe: threads that outlive a failed join still hold a
        // valid reference).
        let shared: &'static Shared = Box::leak(Box::new(Shared {
            dispatch: Mutex::new(()),
            state: Mutex::new(State {
                epoch: 0,
                task: None,
                active: 0,
                panicked: 0,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        }));
        let handles = (1..lanes)
            .map(|lane| {
                std::thread::Builder::new()
                    .name(format!("osa-pool-{lane}"))
                    .spawn(move || worker_loop(shared, lane))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            lanes,
            shared,
            handles,
        }
    }

    /// Number of lanes (including the caller's lane 0).
    pub fn workers(&self) -> usize {
        self.lanes
    }

    /// Run `f(lane, range)` over a partition of `0..n` into at most
    /// `workers()` contiguous ranges. Chunk boundaries depend only on `n`
    /// and the lane count; each index is visited by exactly one lane.
    ///
    /// Runs inline (lane 0, full range, no synchronization) when the pool
    /// has one lane, when `n <= 1`, or when called from inside another
    /// pool task.
    pub fn parallel_for(&self, n: usize, f: impl Fn(usize, Range<usize>) + Sync) {
        if n == 0 {
            return;
        }
        if self.lanes == 1 || n == 1 || IN_TASK.with(|t| t.get()) {
            f(0, 0..n);
            return;
        }
        let lanes = self.lanes;
        let task = move |lane: usize| {
            let range = lane_range(n, lanes, lane);
            if !range.is_empty() {
                f(lane, range);
            }
        };
        self.run_epoch(&task);
    }

    /// Split `data` into `data.len() / stride` groups of `stride`
    /// elements and hand each lane a contiguous run of whole groups as
    /// `f(lane, first_group_index, sub_slice)`. This is the mutable-output
    /// workhorse: GEMM shards output rows (`stride = n`), the trainer
    /// shards streams (`stride = 1`).
    ///
    /// # Panics
    /// If `stride == 0` or `data.len()` is not a multiple of `stride`.
    pub fn parallel_for_slice<T: Send>(
        &self,
        data: &mut [T],
        stride: usize,
        f: impl Fn(usize, usize, &mut [T]) + Sync,
    ) {
        if data.is_empty() {
            return;
        }
        assert!(stride >= 1, "parallel_for_slice: stride must be >= 1");
        assert!(
            data.len().is_multiple_of(stride),
            "parallel_for_slice: len {} not a multiple of stride {stride}",
            data.len()
        );
        self.parallel_for_lockstep(data.len() / stride, Rows::new(data, stride), f);
    }

    /// Split every slice of `parts` at the same item boundaries — the
    /// [`parallel_for`](Self::parallel_for) partition of `0..items` —
    /// and hand each lane its cut as `f(lane, first_item, part)`. A lane
    /// that walks a range of sessions gets each of their per-session
    /// buffers in one dispatch.
    ///
    /// # Panics
    /// If a slice of `parts` does not hold exactly `items` items.
    pub fn parallel_for_lockstep<P: Lockstep>(
        &self,
        items: usize,
        parts: P,
        f: impl Fn(usize, usize, P::Part) + Sync,
    ) {
        assert!(
            parts.fits(items),
            "parallel_for_lockstep: a part does not hold {items} items"
        );
        let raw = parts.into_raw();
        self.parallel_for(items, |lane, range| {
            // SAFETY: `parallel_for` hands each lane a disjoint range
            // within `0..items`, every slice holds `items` items (checked
            // above), and the borrow behind `raw` outlives the dispatch
            // because `parallel_for` blocks until every lane is done.
            let part = unsafe { P::part(raw, range.clone()) };
            f(lane, range.start, part);
        });
    }

    /// Post one epoch: publish the task, run lane 0 on the calling
    /// thread, wait for all workers to drain, then propagate panics.
    /// Allocation-free on the success path.
    ///
    /// Epochs from different threads (two test threads sharing the
    /// [`global`] pool, say) are serialised by the dispatch lock, so
    /// neither overwrites the other's task or counters. Nested dispatches
    /// never get here (they run inline), so the lock cannot deadlock.
    fn run_epoch(&self, task: &(dyn Fn(usize) + Sync)) {
        // Poisoned only by a caller-lane panic that was re-raised after
        // its epoch had fully drained; the pool is idle then.
        let _dispatch = self
            .shared
            .dispatch
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        // SAFETY: the task reference is only reachable through
        // `state.task`, which is cleared below before this stack frame —
        // and with it the closure — can go away. Workers that panicked
        // still decrement `active` (see `worker_loop`), and a caller-lane
        // panic is caught so the drain loop below always runs; the
        // reference therefore never dangles.
        let task: Task = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
        };
        {
            let mut st = self.shared.lock();
            st.epoch += 1;
            st.task = Some(task);
            st.active = self.lanes - 1;
            st.panicked = 0;
            self.shared.start.notify_all();
        }
        let caller = catch_unwind(AssertUnwindSafe(|| run_lane(task, 0)));
        let panicked = {
            let mut st = self.shared.lock();
            while st.active > 0 {
                st = self.shared.done.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            st.task = None;
            st.panicked
        };
        if let Err(payload) = caller {
            resume_unwind(payload);
        }
        if panicked > 0 {
            panic!("osa-runtime: {panicked} pool worker(s) panicked during parallel_for");
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
            self.shared.start.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &'static Shared, lane: usize) {
    let mut seen = 0u64;
    loop {
        let task = {
            let mut st = shared.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    if let Some(task) = st.task {
                        seen = st.epoch;
                        break task;
                    }
                }
                st = shared.start.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        let result = catch_unwind(AssertUnwindSafe(|| run_lane(task, lane)));
        let mut st = shared.lock();
        if result.is_err() {
            st.panicked += 1;
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done.notify_one();
        }
    }
}

/// Balanced contiguous partition of `0..n` into `lanes` ranges: the first
/// `n % lanes` lanes get one extra element. Depends only on `n` and the
/// lane count, so the element→lane mapping is reproducible.
fn lane_range(n: usize, lanes: usize, lane: usize) -> Range<usize> {
    let base = n / lanes;
    let extra = n % lanes;
    let start = lane * base + lane.min(extra);
    let len = base + usize::from(lane < extra);
    start..start + len
}

/// The process-wide thread budget: `OSA_THREADS` if set to a positive
/// integer (clamped to `MAX_WORKERS`), otherwise
/// `std::thread::available_parallelism()`. This is what benches record in
/// their `hardware_threads` field, so reports taken under different
/// budgets refuse to compare.
pub fn thread_budget() -> usize {
    match std::env::var("OSA_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n.min(MAX_WORKERS),
            _ => fallback_parallelism(),
        },
        Err(_) => fallback_parallelism(),
    }
}

fn fallback_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_WORKERS))
}

/// The lazily created process-wide pool, sized by [`thread_budget`] at
/// first use. Library code reaches it through [`with_current`].
pub(crate) fn global() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| ThreadPool::new(thread_budget()))
}

/// Run `f` with `pool` installed as the current pool for this thread:
/// every [`with_current`] call inside `f` (e.g. from `Tensor::matmul`)
/// sees `pool` instead of `global`. Restores the previous override on
/// exit, including on panic. This is how tests and benches sweep worker
/// counts without re-plumbing every call site.
pub fn with_pool<R>(pool: &ThreadPool, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<*const ThreadPool>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(CURRENT.with(|c| c.replace(Some(pool as *const ThreadPool))));
    f()
}

/// Hand the current pool — the innermost [`with_pool`] override, or
/// `global` — to `f`. Allocation-free.
pub fn with_current<R>(f: impl FnOnce(&ThreadPool) -> R) -> R {
    match CURRENT.with(|c| c.get()) {
        // SAFETY: the pointer was installed by `with_pool` from a live
        // shared reference and is cleared (scope-restored) before that
        // reference expires, so it is valid for the duration of this
        // call.
        Some(ptr) => f(unsafe { &*ptr }),
        None => f(global()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn lane_range_partitions_exactly() {
        for n in 0..40 {
            for lanes in 1..9 {
                let mut covered = vec![0u8; n];
                let mut prev_end = 0;
                for lane in 0..lanes {
                    let r = lane_range(n, lanes, lane);
                    assert_eq!(r.start, prev_end, "contiguous: n={n} lanes={lanes}");
                    prev_end = r.end;
                    for i in r {
                        covered[i] += 1;
                    }
                }
                assert_eq!(prev_end, n);
                assert!(covered.iter().all(|&c| c == 1), "n={n} lanes={lanes}");
            }
        }
    }

    #[test]
    fn parallel_for_visits_every_index_once() {
        for workers in [1, 2, 3, 5] {
            let pool = ThreadPool::new(workers);
            let hits: Vec<AtomicUsize> = (0..103).map(|_| AtomicUsize::new(0)).collect();
            pool.parallel_for(hits.len(), |_, range| {
                for i in range {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn parallel_for_slice_writes_are_disjoint_and_complete() {
        for workers in [1, 2, 4] {
            let pool = ThreadPool::new(workers);
            let mut data = vec![0u32; 7 * 13];
            pool.parallel_for_slice(&mut data, 13, |_, first, chunk| {
                for (offset, v) in chunk.iter_mut().enumerate() {
                    *v = (first * 13 + offset) as u32;
                }
            });
            assert!(data.iter().enumerate().all(|(i, &v)| v as usize == i));
        }
    }

    #[test]
    fn parallel_for_lockstep_cuts_every_part_at_the_same_items() {
        for workers in [1, 2, 3, 5] {
            let pool = ThreadPool::new(workers);
            let (mut ids, mut rows, mut none) =
                (vec![0usize; 11], vec![0usize; 33], Vec::<u8>::new());
            let parts = (
                Rows::new(&mut ids, 1),
                Rows::new(&mut rows, 3),
                Rows::new(&mut none, 0),
            );
            pool.parallel_for_lockstep(11, parts, |_, first, (ids, rows, none)| {
                assert_eq!((rows.len(), none.len()), (3 * ids.len(), 0));
                for (j, id) in ids.iter_mut().enumerate() {
                    *id = first + j;
                    rows[3 * j..3 * j + 3].fill(first + j);
                }
            });
            assert!(ids.iter().enumerate().all(|(i, &v)| v == i));
            assert!(rows.iter().enumerate().all(|(e, &v)| v == e / 3));
        }
    }

    #[test]
    #[should_panic(expected = "does not hold 4 items")]
    fn parallel_for_lockstep_rejects_a_short_part() {
        let (mut a, mut b) = (vec![0u8; 4], vec![0u8; 7]);
        ThreadPool::new(2).parallel_for_lockstep(
            4,
            (Rows::new(&mut a, 1), Rows::new(&mut b, 2)),
            |_, _, _| {},
        );
    }

    #[test]
    fn with_pool_overrides_and_restores() {
        let pool = ThreadPool::new(3);
        with_current(|p| assert_eq!(p.workers(), global().workers()));
        with_pool(&pool, || {
            with_current(|p| assert_eq!(p.workers(), 3));
            let inner = ThreadPool::new(2);
            with_pool(&inner, || with_current(|p| assert_eq!(p.workers(), 2)));
            with_current(|p| assert_eq!(p.workers(), 3));
        });
        with_current(|p| assert_eq!(p.workers(), global().workers()));
    }

    #[test]
    fn thread_budget_is_positive() {
        assert!(thread_budget() >= 1);
    }
}
