//! The request batcher: coalesces same-operator Laplace evaluations
//! arriving within a window into one blocked multi-RHS solve.
//!
//! Full `run` requests are iterative optimizations and execute
//! individually; lightweight `eval` requests (one objective value per
//! control vector) are the batchable workload — the "millions of users
//! with distinct objectives on shared geometry" shape. When several
//! clients' evals against the same [`build_key`] land within the
//! batching window, the worker drains them together and calls
//! [`cost_many`], which forwards the whole block to the backend's
//! `solve_many` — one pass over the cached `Lu` factors instead of one
//! per request.
//!
//! [`build_key`]: control::api::ProblemSpec::build_key
//! [`cost_many`]: pde::LaplaceControlProblem::cost_many
//!
//! Coalescing is invisible in the answers: `solve_many`'s bitwise
//! contract guarantees each client receives exactly the bits of a
//! standalone evaluation, whatever batch its request rode in. The
//! `batch` scalar on the response reports how many requests shared the
//! solve, purely as telemetry.
//!
//! Window semantics: the worker sleeps until a first request arrives,
//! then keeps the window open for at most [`Batcher::window`] and drains
//! everything queued when it closes. Each client session answers one
//! request at a time and registers itself with the batcher for its whole
//! lifetime (`Batcher::session`), so once every live session has an
//! eval queued no further request can join and the window closes early;
//! a session that ends wakes the worker, since its leaving may complete
//! the batch. Evals submitted with no session registered wait out the
//! full window. A zero window degrades gracefully to per-request solves
//! under light load.
//!
//! Telemetry: every batched solve reports `serve_batch_width` (requests
//! sharing the solve) and `serve_batch_wait_ms` (from the first
//! request's arrival until its solve starts) on the serve trace layer.

use control::api::BuiltProblem;
use linalg::DVec;
use meshfree_runtime::trace;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Environment variable holding the batching window in milliseconds
/// (re-exported from [`meshfree_runtime::config`], where all
/// `MESHFREE_*` knobs now resolve).
pub const BATCH_WINDOW_ENV: &str = meshfree_runtime::config::BATCH_WINDOW_ENV;

/// Default batching window (the longest an eval waits for company) when
/// [`BATCH_WINDOW_ENV`] is unset.
pub const DEFAULT_BATCH_WINDOW: Duration = meshfree_runtime::config::DEFAULT_BATCH_WINDOW;

/// One batched evaluation answer: the objective value and the size of
/// the batch that computed it.
pub type EvalAnswer = Result<(f64, usize), String>;

struct Pending {
    key: String,
    problem: Arc<BuiltProblem>,
    control: DVec,
    reply: Sender<EvalAnswer>,
    /// Arrival time, taken only while tracing (for `serve_batch_wait_ms`).
    arrived: Option<Instant>,
}

#[derive(Default)]
struct Queue {
    pending: Vec<Pending>,
    /// Live client sessions (unreleased [`Session`] guards).
    sessions: usize,
    shutdown: bool,
}

impl Queue {
    /// True once every live session has an eval queued: nobody else can
    /// join the batch.
    fn complete(&self) -> bool {
        self.sessions > 0 && self.pending.len() >= self.sessions
    }
}

struct Shared {
    queue: Mutex<Queue>,
    arrived: Condvar,
}

impl Shared {
    /// Locks the queue. A thread that panicked while holding the lock
    /// left it consistent (every critical section is a push, a counter
    /// step or a take), so poisoning is ignored.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A client session registered with the [`Batcher`] (see the module's
/// window semantics). Dropping it, on unwind too, unregisters the
/// session and wakes the worker.
pub(crate) struct Session<'a> {
    shared: &'a Shared,
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        self.shared.lock().sessions -= 1;
        self.shared.arrived.notify_all();
    }
}

/// Handle to the batching worker. Dropping it drains the queue and joins
/// the worker thread.
pub struct Batcher {
    shared: Arc<Shared>,
    window: Duration,
    worker: Option<JoinHandle<()>>,
}

impl Batcher {
    /// Starts the batching worker with the given window.
    pub fn new(window: Duration) -> Batcher {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue::default()),
            arrived: Condvar::new(),
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("serve-batcher".into())
            .spawn(move || worker_loop(&worker_shared, window))
            .expect("spawn batcher worker");
        Batcher {
            shared,
            window,
            worker: Some(worker),
        }
    }

    /// Starts the worker with the window from the process-wide
    /// [`RuntimeConfig`](meshfree_runtime::RuntimeConfig) — i.e.
    /// [`BATCH_WINDOW_ENV`] when set, [`DEFAULT_BATCH_WINDOW`] otherwise.
    pub fn from_env() -> Batcher {
        Batcher::new(meshfree_runtime::RuntimeConfig::global().batch_window)
    }

    /// The configured batching window: the longest an eval waits for
    /// company.
    pub fn window(&self) -> Duration {
        self.window
    }

    /// Registers one client session until the guard drops. A session
    /// must submit at most one eval at a time: the window closes early
    /// once the queue holds as many evals as there are live sessions.
    pub(crate) fn session(&self) -> Session<'_> {
        self.shared.lock().sessions += 1;
        Session {
            shared: &self.shared,
        }
    }

    /// Enqueues one evaluation; the answer arrives on the returned
    /// receiver once the window closes and the batch solves.
    pub fn submit(
        &self,
        key: String,
        problem: Arc<BuiltProblem>,
        control: DVec,
    ) -> Receiver<EvalAnswer> {
        let (reply, rx) = channel();
        let arrived = trace::enabled().then(Instant::now);
        let mut q = self.shared.lock();
        q.pending.push(Pending {
            key,
            problem,
            control,
            reply,
            arrived,
        });
        self.shared.arrived.notify_all();
        rx
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        {
            let mut q = self.shared.lock();
            q.shutdown = true;
            self.shared.arrived.notify_all();
        }
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared, window: Duration) {
    loop {
        let drained = {
            // Sleep until the first request opens a window (or shutdown).
            let mut q = shared.lock();
            while q.pending.is_empty() && !q.shutdown {
                q = shared
                    .arrived
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if q.pending.is_empty() {
                return;
            }
            // Hold the window open while another live session could still
            // join the batch.
            let deadline = Instant::now() + window;
            while !q.complete() && !q.shutdown {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                q = shared
                    .arrived
                    .wait_timeout(q, left)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            std::mem::take(&mut q.pending)
        };
        solve_batches(drained);
    }
}

/// Groups the drained requests by build key (first-arrival order) and
/// answers each group with one batched solve.
fn solve_batches(drained: Vec<Pending>) {
    let mut order: Vec<String> = Vec::new();
    let mut groups: HashMap<String, Vec<Pending>> = HashMap::new();
    for p in drained {
        if !groups.contains_key(&p.key) {
            order.push(p.key.clone());
        }
        groups.entry(p.key.clone()).or_default().push(p);
    }
    for key in order {
        let group = groups.remove(&key).expect("key registered above");
        let size = group.len();
        trace::counter("serve_batch_width", size as f64);
        if let Some(first) = group[0].arrived {
            trace::counter("serve_batch_wait_ms", first.elapsed().as_secs_f64() * 1e3);
        }
        match group[0].problem.laplace() {
            Some(problem) => {
                let controls: Vec<DVec> = group.iter().map(|p| p.control.clone()).collect();
                match problem.cost_many(&controls) {
                    Ok(costs) => {
                        for (p, cost) in group.iter().zip(costs) {
                            let _ = p.reply.send(Ok((cost, size)));
                        }
                    }
                    Err(e) => {
                        for p in &group {
                            let _ = p.reply.send(Err(format!("batched solve failed: {e}")));
                        }
                    }
                }
            }
            None => {
                for p in &group {
                    let _ = p
                        .reply
                        .send(Err(format!("eval is Laplace-only, got key {key:?}")));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use control::api::{ProblemSpec, RunSpec};

    fn laplace_built(nx: usize) -> (String, Arc<BuiltProblem>) {
        let spec: ProblemSpec = RunSpec::laplace().nx(nx).build().problem;
        (
            spec.build_key(),
            Arc::new(BuiltProblem::build(&spec).unwrap()),
        )
    }

    #[test]
    fn concurrent_evals_coalesce_and_match_standalone_costs_bitwise() {
        let (key, built) = laplace_built(8);
        let problem = built
            .laplace()
            .expect("laplace spec builds a laplace problem");
        let n = problem.n_controls();
        let batcher = Batcher::new(Duration::from_millis(40));
        let controls: Vec<DVec> = (0..6)
            .map(|k| DVec::from_fn(n, |i| 0.2 * ((i + 2 * k) as f64).cos()))
            .collect();
        let receivers: Vec<_> = controls
            .iter()
            .map(|c| batcher.submit(key.clone(), Arc::clone(&built), c.clone()))
            .collect();
        let mut max_batch = 0;
        for (c, rx) in controls.iter().zip(receivers) {
            let (cost, batch) = rx.recv().unwrap().unwrap();
            assert_eq!(cost.to_bits(), problem.cost(c).unwrap().to_bits());
            max_batch = max_batch.max(batch);
        }
        assert!(
            max_batch >= 2,
            "submissions within the window must coalesce (largest batch {max_batch})"
        );
    }

    #[test]
    fn non_laplace_evals_answer_with_an_error() {
        let spec: ProblemSpec = RunSpec::synthetic(4).build().problem;
        let built = Arc::new(BuiltProblem::build(&spec).unwrap());
        let batcher = Batcher::new(Duration::ZERO);
        let rx = batcher.submit(spec.build_key(), built, DVec::zeros(4));
        let err = rx.recv().unwrap().unwrap_err();
        assert!(err.contains("Laplace-only"), "{err}");
    }

    #[test]
    fn the_window_closes_once_every_live_session_has_an_eval_queued() {
        let (key, built) = laplace_built(8);
        let n = built.laplace().expect("laplace build").n_controls();
        let window = Duration::from_secs(10);
        let batcher = Batcher::new(window);
        let start = Instant::now();
        let (a, b) = (batcher.session(), batcher.session());
        let first = batcher.submit(key.clone(), Arc::clone(&built), DVec::zeros(n));
        let second = batcher.submit(key.clone(), Arc::clone(&built), DVec::zeros(n));
        assert_eq!(first.recv().unwrap().unwrap().1, 2);
        assert_eq!(second.recv().unwrap().unwrap().1, 2);
        // One session leaves while the other's eval waits for it.
        let waiting = batcher.submit(key, built, DVec::zeros(n));
        drop(b);
        assert_eq!(waiting.recv().unwrap().unwrap().1, 1);
        drop(a);
        assert!(start.elapsed() < window / 2, "{:?}", start.elapsed());
    }

    #[test]
    fn a_panic_while_holding_the_queue_lock_does_not_stop_later_evals() {
        let (key, built) = laplace_built(8);
        let n = built.laplace().expect("laplace build").n_controls();
        let batcher = Batcher::new(Duration::ZERO);
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = batcher.shared.queue.lock().unwrap();
                panic!("panic while holding the batch queue lock");
            })
            .join()
        });
        assert!(panicked.is_err() && batcher.shared.queue.is_poisoned());
        let (cost, batch) = batcher
            .submit(key, Arc::clone(&built), DVec::zeros(n))
            .recv()
            .unwrap()
            .unwrap();
        let direct = built.laplace().unwrap().cost(&DVec::zeros(n)).unwrap();
        assert_eq!((cost.to_bits(), batch), (direct.to_bits(), 1));
    }

    #[test]
    fn drop_joins_the_worker_cleanly() {
        let batcher = Batcher::new(Duration::ZERO);
        drop(batcher); // must not hang
    }
}
