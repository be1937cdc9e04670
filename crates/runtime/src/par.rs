//! Persistent scoped thread pool with deterministic chunk ordering.
//!
//! A single global [`ThreadPool`] is initialised lazily on first use; its
//! size comes from [`crate::RuntimeConfig::global`] (`MESHFREE_THREADS`,
//! falling back to `std::thread::available_parallelism`). Work is
//! submitted as a fixed set
//! of index chunks; workers and the submitting thread claim chunks from a
//! shared atomic counter, so every chunk runs exactly once and results
//! written by index are bit-identical for any thread count.
//!
//! The pool is deliberately simple — one job in flight, broadcast via an
//! epoch counter, no work stealing. The kernels it serves (row-blocked
//! matmul, per-row SpMV, per-node stencil solves) are uniform enough that
//! chunk claiming balances them.

use std::cell::{Cell, RefCell};
use std::mem::{ManuallyDrop, MaybeUninit};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

/// How many chunks to cut an index range into per available thread.
/// More than one so a straggler chunk does not serialise the tail.
const CHUNKS_PER_THREAD: usize = 4;

thread_local! {
    /// True on pool workers and on threads currently inside a parallel
    /// region; nested calls fall back to serial execution instead of
    /// deadlocking on the single job slot.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
    /// Incremented by [`serial_scope`]; forces serial execution.
    static SERIAL_DEPTH: Cell<u32> = const { Cell::new(0) };
    /// Stack of pools installed by [`with_pool`]; the innermost one serves
    /// this thread's free-function `par_*` calls instead of the global pool.
    static POOL_OVERRIDE: RefCell<Vec<Arc<ThreadPool>>> = const { RefCell::new(Vec::new()) };
}

/// A chunk executor shared with workers by reference. The raw pointer is a
/// borrow of a stack closure in [`ThreadPool::run_job`], which does not
/// return until every claimed chunk has finished (see the safety argument
/// there), and the closure is `Sync`, so sharing it across threads is sound.
#[derive(Clone, Copy)]
struct TaskRef(*const (dyn Fn(usize) + Sync));

unsafe impl Send for TaskRef {}
unsafe impl Sync for TaskRef {}

struct Job {
    task: TaskRef,
    chunks: usize,
    /// Per-job claim counter. Owned by the job (not the slot) so a worker
    /// that wakes late and still holds a previous job's counter finds it
    /// exhausted instead of claiming chunks of the wrong job.
    next: Arc<AtomicUsize>,
}

#[derive(Default)]
struct Slot {
    epoch: u64,
    job: Option<Job>,
    /// Chunks claimed but not yet finished plus chunks not yet claimed.
    remaining: usize,
    panicked: bool,
    shutdown: bool,
}

/// Poison-tolerant lock: a panic that unwound through a guard (e.g. the
/// re-raised job panic while holding the submit lock) must not brick the
/// pool — the protected state is always left consistent before panicking.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

struct Shared {
    state: Mutex<Slot>,
    work_cv: Condvar,
    done_cv: Condvar,
}

/// A fixed-size pool of worker threads. One global instance serves the
/// whole process; explicit instances exist so tests can compare results
/// across pool sizes in a single process.
pub struct ThreadPool {
    shared: Arc<Shared>,
    /// Serialises whole parallel operations; the slot holds one job.
    submit: Mutex<()>,
    threads: usize,
    workers: Vec<thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Creates a pool with `threads` total lanes of parallelism (the
    /// submitting thread counts as one, so `threads - 1` workers spawn and
    /// `threads <= 1` means fully serial execution).
    pub fn new(threads: usize) -> ThreadPool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(Slot::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|k| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("meshfree-worker-{k}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            submit: Mutex::new(()),
            threads,
            workers,
        }
    }

    /// The pool size chosen from [`crate::RuntimeConfig::global`]
    /// (`MESHFREE_THREADS`, the builder layer, or the machine).
    pub fn global() -> &'static ThreadPool {
        static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
        GLOBAL.get_or_init(|| ThreadPool::new(threads_from_env()))
    }

    /// Total lanes of parallelism (workers + the submitting thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `task(c)` for every chunk index `c in 0..chunks`, using the
    /// submitting thread plus the pool workers. Panics in chunks are
    /// captured and re-raised on the submitting thread after all chunks
    /// complete, keeping the pool reusable.
    fn run_job(&self, chunks: usize, task: &(dyn Fn(usize) + Sync)) {
        if chunks == 0 {
            return;
        }
        if chunks == 1 || self.threads == 1 || in_parallel() || serial_forced() {
            for c in 0..chunks {
                task(c);
            }
            return;
        }
        let next = Arc::new(AtomicUsize::new(0));
        let _submit = lock(&self.submit);
        {
            let mut g = lock(&self.shared.state);
            g.epoch += 1;
            g.remaining = chunks;
            g.panicked = false;
            // SAFETY: the reference outlives the job — this function clears
            // the slot and only returns once `remaining == 0`, and stale
            // workers cannot claim past an exhausted per-job counter. The
            // transmute only erases the borrow lifetime for storage.
            let task_erased: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
            g.job = Some(Job {
                task: TaskRef(task_erased as *const (dyn Fn(usize) + Sync)),
                chunks,
                next: Arc::clone(&next),
            });
            self.shared.work_cv.notify_all();
        }
        // The submitting thread claims chunks too.
        let was = IN_PARALLEL.with(|c| c.replace(true));
        claim_chunks(&self.shared, task, chunks, &next);
        IN_PARALLEL.with(|c| c.set(was));
        let mut g = lock(&self.shared.state);
        while g.remaining != 0 {
            g = self.shared.done_cv.wait(g).unwrap();
        }
        g.job = None;
        let panicked = g.panicked;
        drop(g);
        if panicked {
            panic!("a task submitted to the meshfree thread pool panicked");
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut g = lock(&self.shared.state);
            g.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    IN_PARALLEL.with(|c| c.set(true));
    let mut seen = 0u64;
    loop {
        let (task, chunks, next) = {
            let mut g = lock(&shared.state);
            loop {
                if g.shutdown {
                    return;
                }
                if g.epoch != seen {
                    seen = g.epoch;
                    if let Some(job) = &g.job {
                        break (job.task, job.chunks, Arc::clone(&job.next));
                    }
                }
                g = shared.work_cv.wait(g).unwrap();
            }
        };
        claim_chunks(shared, unsafe { &*task.0 }, chunks, &next);
    }
}

/// Claims and runs chunks until the counter is exhausted, decrementing
/// `remaining` (and flagging panics) under the slot lock per chunk.
fn claim_chunks(shared: &Shared, task: &(dyn Fn(usize) + Sync), chunks: usize, next: &AtomicUsize) {
    loop {
        let c = next.fetch_add(1, Ordering::Relaxed);
        if c >= chunks {
            return;
        }
        let ok = catch_unwind(AssertUnwindSafe(|| task(c))).is_ok();
        let mut g = lock(&shared.state);
        if !ok {
            g.panicked = true;
        }
        g.remaining -= 1;
        if g.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

fn threads_from_env() -> usize {
    crate::config::RuntimeConfig::global().threads
}

fn in_parallel() -> bool {
    IN_PARALLEL.with(|c| c.get())
}

fn serial_forced() -> bool {
    SERIAL_DEPTH.with(|c| c.get() > 0)
}

/// Resolves the pool serving this thread's free-function `par_*` calls: the
/// innermost [`with_pool`] override, else the global pool.
fn with_current<R>(f: impl FnOnce(&ThreadPool) -> R) -> R {
    let over = POOL_OVERRIDE.with(|p| p.borrow().last().cloned());
    match over {
        Some(pool) => f(&pool),
        None => f(ThreadPool::global()),
    }
}

/// Pool size serving this thread (`MESHFREE_THREADS`, the machine, or the
/// innermost [`with_pool`] override).
pub fn num_threads() -> usize {
    with_current(|p| p.threads())
}

/// Runs `f` with all free-function `par_*` calls on this thread routed to
/// `pool` instead of the global pool.
///
/// The cache-equivalence tests use this to run the same solver at pool sizes
/// 1, 2 and 8 inside one process and assert the results are bit-identical;
/// the chunk decomposition never depends on the thread count, so they are.
pub fn with_pool<R>(pool: &Arc<ThreadPool>, f: impl FnOnce() -> R) -> R {
    POOL_OVERRIDE.with(|p| p.borrow_mut().push(Arc::clone(pool)));
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            POOL_OVERRIDE.with(|p| {
                p.borrow_mut().pop();
            });
        }
    }
    let _g = Guard;
    f()
}

/// Runs `f` with all `par_*` calls on this thread forced serial — the
/// determinism baseline thread-count-invariance tests compare against.
pub fn serial_scope<R>(f: impl FnOnce() -> R) -> R {
    SERIAL_DEPTH.with(|c| c.set(c.get() + 1));
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            SERIAL_DEPTH.with(|c| c.set(c.get() - 1));
        }
    }
    let _g = Guard;
    f()
}

/// Splits `0..n` into deterministic chunks and calls `f(i)` for every `i`,
/// in parallel across the current pool (global or [`with_pool`] override).
pub fn par_for<F: Fn(usize) + Sync>(n: usize, f: F) {
    with_current(|p| p.par_for(n, f))
}

/// Splits `data` into consecutive `chunk`-sized pieces and calls
/// `f(chunk_index, piece)` for each, in parallel across the current pool.
/// Chunk boundaries depend only on `chunk`, never on the thread count.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    with_current(|p| p.par_chunks_mut(data, chunk, f))
}

/// Computes `f(i)` for `i in 0..n` in parallel and collects the results in
/// index order. Each result is written to its own slot, so the output is
/// identical for any thread count.
pub fn par_map_collect<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    with_current(|p| p.par_map_collect(n, f))
}

/// [`par_map_collect`] with a reusable per-chunk workspace: `init()` runs
/// once per claimed chunk and the workspace is threaded through every
/// `f(&mut w, i)` in that chunk. Use this when each element needs scratch
/// buffers (e.g. the per-stencil local systems of RBF-FD assembly) — the
/// scratch is allocated O(chunks) times instead of O(n).
///
/// Results are written by index, so the output is identical for any thread
/// count; the workspace must not carry state between elements that affects
/// the result.
pub fn par_map_collect_with<W, R, IF, F>(n: usize, init: IF, f: F) -> Vec<R>
where
    R: Send,
    IF: Fn() -> W + Sync,
    F: Fn(&mut W, usize) -> R + Sync,
{
    with_current(|p| p.par_map_collect_with(n, init, f))
}

/// Raw pointer to an output buffer, shared with workers for disjoint
/// by-index writes.
#[derive(Clone, Copy)]
struct OutPtr<T>(*mut T);

unsafe impl<T: Send> Send for OutPtr<T> {}
unsafe impl<T: Send> Sync for OutPtr<T> {}

impl<T> OutPtr<T> {
    /// Accessor so closures capture the `Sync` wrapper, not the raw
    /// pointer field (2021 disjoint-field capture).
    fn get(&self) -> *mut T {
        self.0
    }
}

impl ThreadPool {
    /// [`par_for`] on this pool.
    pub fn par_for<F: Fn(usize) + Sync>(&self, n: usize, f: F) {
        if n == 0 {
            return;
        }
        let size = chunk_size(n, self.threads);
        let chunks = n.div_ceil(size);
        self.run_job(chunks, &|c| {
            let lo = c * size;
            for i in lo..(lo + size).min(n) {
                f(i);
            }
        });
    }

    /// [`par_chunks_mut`] on this pool.
    pub fn par_chunks_mut<T, F>(&self, data: &mut [T], chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk > 0, "chunk size must be positive");
        let len = data.len();
        let chunks = len.div_ceil(chunk);
        let base = OutPtr(data.as_mut_ptr());
        let run = |c: usize| {
            let p = base.get();
            let lo = c * chunk;
            let hi = (lo + chunk).min(len);
            // SAFETY: chunks are disjoint subranges of `data`, each visited
            // by exactly one claimant.
            let piece = unsafe { std::slice::from_raw_parts_mut(p.add(lo), hi - lo) };
            f(c, piece);
        };
        self.run_job(chunks, &run);
    }

    /// [`par_map_collect`] on this pool.
    pub fn par_map_collect<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let mut out: Vec<MaybeUninit<R>> = Vec::with_capacity(n);
        // SAFETY: MaybeUninit slots need no initialisation.
        unsafe { out.set_len(n) };
        let ptr = OutPtr(out.as_mut_ptr());
        // If a chunk panics, already-initialised elements leak rather than
        // double-drop; the panic propagates out of run_job regardless.
        self.par_for(n, |i| {
            // SAFETY: each index is written exactly once, disjointly.
            unsafe { (*ptr.get().add(i)).write(f(i)) };
        });
        // SAFETY: all n slots are initialised; MaybeUninit<R> and R share
        // layout.
        let mut out = ManuallyDrop::new(out);
        unsafe { Vec::from_raw_parts(out.as_mut_ptr() as *mut R, n, out.capacity()) }
    }

    /// [`par_map_collect_with`] on this pool.
    pub fn par_map_collect_with<W, R, IF, F>(&self, n: usize, init: IF, f: F) -> Vec<R>
    where
        R: Send,
        IF: Fn() -> W + Sync,
        F: Fn(&mut W, usize) -> R + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let mut out: Vec<MaybeUninit<R>> = Vec::with_capacity(n);
        // SAFETY: MaybeUninit slots need no initialisation.
        unsafe { out.set_len(n) };
        let ptr = OutPtr(out.as_mut_ptr());
        let size = chunk_size(n, self.threads);
        let chunks = n.div_ceil(size);
        let run = |c: usize| {
            let mut w = init();
            let lo = c * size;
            for i in lo..(lo + size).min(n) {
                // SAFETY: each index is written exactly once, disjointly.
                unsafe { (*ptr.get().add(i)).write(f(&mut w, i)) };
            }
        };
        self.run_job(chunks, &run);
        // SAFETY: all n slots are initialised; MaybeUninit<R> and R share
        // layout.
        let mut out = ManuallyDrop::new(out);
        unsafe { Vec::from_raw_parts(out.as_mut_ptr() as *mut R, n, out.capacity()) }
    }
}

fn chunk_size(n: usize, threads: usize) -> usize {
    n.div_ceil((threads * CHUNKS_PER_THREAD).min(n).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn reference(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.37).sin() * (i as f64))
            .collect()
    }

    #[test]
    fn map_collect_matches_serial_across_pool_sizes_1_4_16() {
        let n = 10_007;
        let want = reference(n);
        for threads in [1usize, 4, 16] {
            let pool = ThreadPool::new(threads);
            let got = pool.par_map_collect(n, |i| (i as f64 * 0.37).sin() * (i as f64));
            assert_eq!(got, want, "pool size {threads} diverged");
        }
    }

    #[test]
    fn par_for_visits_every_index_exactly_once() {
        let n = 4_096;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let pool = ThreadPool::new(8);
        pool.par_for(n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_chunks_mut_boundaries_are_thread_count_invariant() {
        let n = 1_000;
        let mut want = vec![0usize; n];
        serial_scope(|| {
            par_chunks_mut(&mut want, 7, |c, piece| {
                for v in piece.iter_mut() {
                    *v = c;
                }
            });
        });
        for threads in [1usize, 4, 16] {
            let pool = ThreadPool::new(threads);
            let mut got = vec![0usize; n];
            pool.par_chunks_mut(&mut got, 7, |c, piece| {
                for v in piece.iter_mut() {
                    *v = c;
                }
            });
            assert_eq!(got, want, "pool size {threads} changed chunk layout");
        }
    }

    #[test]
    fn global_pool_matches_serial_scope() {
        let n = 2_048;
        let serial = serial_scope(|| par_map_collect(n, |i| (i * i) as u64 % 97));
        let parallel = par_map_collect(n, |i| (i * i) as u64 % 97);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn nested_calls_fall_back_to_serial() {
        let pool = ThreadPool::new(4);
        let total = AtomicU64::new(0);
        pool.par_for(64, |i| {
            // Nested region runs inline on the claiming thread.
            par_for(8, |j| {
                total.fetch_add((i * 8 + j) as u64, Ordering::Relaxed);
            });
        });
        let n = 64u64 * 8;
        assert_eq!(total.load(Ordering::Relaxed), n * (n - 1) / 2);
    }

    #[test]
    fn panics_propagate_and_pool_stays_usable() {
        let pool = ThreadPool::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.par_for(128, |i| {
                if i == 77 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        let again = pool.par_map_collect(64, |i| i * 2);
        assert_eq!(again, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn with_pool_overrides_free_functions_and_restores() {
        let pool = Arc::new(ThreadPool::new(3));
        let before = num_threads();
        assert_eq!(with_pool(&pool, num_threads), 3);
        assert_eq!(num_threads(), before);
    }

    #[test]
    fn map_collect_with_matches_plain_across_pool_sizes_1_2_8() {
        let n = 5_003;
        let want = par_map_collect(n, |i| (i as f64).sqrt() * 3.0 - 1.0);
        for threads in [1usize, 2, 8] {
            let pool = Arc::new(ThreadPool::new(threads));
            let got = with_pool(&pool, || {
                par_map_collect_with(
                    n,
                    || vec![0.0f64; 8],
                    |w, i| {
                        // Dirty the scratch to prove reuse cannot leak.
                        w[0] = i as f64;
                        w[0].sqrt() * 3.0 - 1.0
                    },
                )
            });
            assert_eq!(got, want, "pool size {threads} diverged");
        }
    }

    #[test]
    fn map_collect_with_initialises_one_workspace_per_chunk() {
        let inits = AtomicUsize::new(0);
        let pool = ThreadPool::new(4);
        let n = 1_000;
        let got = pool.par_map_collect_with(
            n,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
            },
            |_, i| i * 2,
        );
        assert_eq!(got, (0..n).map(|i| i * 2).collect::<Vec<_>>());
        // One workspace per claimed chunk, far fewer than one per element.
        assert!(inits.load(Ordering::Relaxed) <= 4 * CHUNKS_PER_THREAD);
    }

    #[test]
    fn zero_and_tiny_sizes() {
        let pool = ThreadPool::new(4);
        pool.par_for(0, |_| panic!("must not run"));
        assert!(pool.par_map_collect(0, |i| i).is_empty());
        assert_eq!(pool.par_map_collect(1, |i| i + 41), vec![41]);
        let mut one = [5u8];
        pool.par_chunks_mut(&mut one, 3, |_, p| p[0] = 9);
        assert_eq!(one[0], 9);
    }
}
