//! Persistent worker pool behind [`crate::parallel::par_map_chunked_costed`].
//!
//! The original executor spawned fresh `std::thread::scope` workers on every
//! call — several spawns per query phase, several phases per query.  On a
//! multi-core machine that is avoidable kernel work on the hot path; on a
//! one-core container it made automatic threading *lose* to the sequential
//! path outright.  This module replaces the pattern with one process-wide
//! pool of parked workers that is spawned lazily on the first parallel
//! dispatch and reused by every later call.
//!
//! ## Dispatch model
//!
//! A call submits one `Job`: a chunk count plus a `Fn(usize)` task invoked
//! once per chunk index.  Jobs sit in a FIFO queue; workers (and the
//! submitting thread itself) claim chunk indices with an atomic counter and
//! run them.  The *submitter participates*, which gives two properties:
//!
//! * **progress without workers** — even if every pool worker is busy (or the
//!   pool is brand new and empty), the submitting thread drives its own job
//!   to completion, so nested dispatch from inside a worker can never
//!   deadlock;
//! * **no oversubscription cliff** — a dispatch for `n` workers needs only
//!   `n − 1` pool threads.
//!
//! ## Determinism contract (DESIGN.md §8 and §12)
//!
//! The pool schedules *which thread* runs a chunk, never *what* a chunk is:
//! chunk boundaries and the global item indices handed to the mapping closure
//! are fixed by the caller before dispatch.  Since every closure in this
//! codebase derives its randomness from the global index or item identity
//! (see [`crate::parallel::derive_seed`]), results are byte-identical no
//! matter how many workers exist or which of them claims which chunk.
//!
//! ## Panics
//!
//! A panicking chunk does not kill a worker: the payload is caught, the
//! remaining chunks still complete (so borrowed inputs stay valid for the
//! stragglers), and the *first* payload is re-raised on the submitting thread
//! with [`std::panic::resume_unwind`], preserving the original message.

// The one unsafe operation in the crate: erasing the task lifetime when
// handing it to 'static worker threads.  `Pool::run` blocks until every chunk
// has finished, which is what makes the erasure sound; see the SAFETY comment.
#![allow(unsafe_code)]

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Hard ceiling on worker threads.  Explicit `threads` knobs are clamped here
/// by [`crate::parallel::resolve_threads`]; `EngineConfig` validation rejects
/// larger values with a typed error before any query work starts (a literal
/// `threads = 100_000` used to attempt one hundred thousand OS threads).
pub const MAX_THREADS: usize = 64;

/// A task reference whose lifetime has been erased (see `Pool::run` for the
/// soundness argument).  `&dyn Fn + Sync` is `Send + Sync` by composition, so
/// no manual marker impls are needed.
type ErasedTask = &'static (dyn Fn(usize) + Sync);

/// Completion state of one job, guarded by `Job::done`.
struct JobDone {
    /// Chunks that have finished running (successfully or by panicking).
    completed: usize,
    /// First panic payload observed across all chunks, re-raised by the
    /// submitter once the job has fully drained.
    panic: Option<Box<dyn Any + Send>>,
}

/// One dispatched `par_map` call: `chunks` invocations of `task`, claimed
/// greedily by whichever threads get there first.
struct Job {
    task: ErasedTask,
    chunks: usize,
    /// Next unclaimed chunk index; `fetch_add` past `chunks` means exhausted.
    next: AtomicUsize,
    done: Mutex<JobDone>,
    done_cv: Condvar,
}

impl Job {
    /// Claims and runs chunks until the job is exhausted.  Never panics:
    /// chunk panics are recorded in [`JobDone`] for the submitter to re-raise.
    fn run_chunks(&self) {
        loop {
            let ci = self.next.fetch_add(1, Ordering::Relaxed);
            if ci >= self.chunks {
                return;
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| (self.task)(ci)));
            // pgs-lint: allow(panic-in-library, lock poisoning means a sibling worker panicked; propagating is the designed behavior)
            let mut done = self.done.lock().expect("pool job state poisoned");
            if let Err(payload) = outcome {
                done.panic.get_or_insert(payload);
            }
            done.completed += 1;
            if done.completed == self.chunks {
                self.done_cv.notify_all();
            }
        }
    }

    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.chunks
    }
}

/// State shared between the pool handle and its workers.
struct Shared {
    queue: Mutex<VecDeque<Arc<Job>>>,
    work_cv: Condvar,
}

/// A persistent pool of parked worker threads.
///
/// Most code should go through [`crate::parallel::par_map_chunked_costed`], which
/// dispatches on the process-wide [`global`] pool; constructing a private
/// pool is useful in tests that need to observe worker counts in isolation.
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// Workers spawned so far (they are never torn down).
    spawned: Mutex<usize>,
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::new()
    }
}

impl WorkerPool {
    /// Creates an empty pool; workers are spawned lazily by [`Self::run`].
    pub fn new() -> WorkerPool {
        WorkerPool {
            shared: Arc::new(Shared {
                queue: Mutex::new(VecDeque::new()),
                work_cv: Condvar::new(),
            }),
            spawned: Mutex::new(0),
        }
    }

    /// Worker threads spawned so far.  Stable across repeated dispatches at
    /// the same worker count — the reuse guarantee the leak tests pin.
    pub fn spawned_workers(&self) -> usize {
        // pgs-lint: allow(panic-in-library, lock poisoning means a sibling worker panicked; propagating is the designed behavior)
        *self.spawned.lock().expect("pool spawn count poisoned")
    }

    /// Runs `task(0..chunks)` across up to `workers` threads (the submitting
    /// thread counts as one) and returns once every chunk has completed.
    ///
    /// If any chunk panicked, the first payload is re-raised here *after* the
    /// job has drained, so the task's borrows stay valid for straggling
    /// workers.
    pub fn run(&self, chunks: usize, workers: usize, task: &(dyn Fn(usize) + Sync)) {
        if chunks == 0 {
            return;
        }
        // The submitter participates, so `workers` executors need only
        // `workers − 1` pool threads; never park more than the chunks we
        // could hand out concurrently.
        self.ensure_workers(workers.min(chunks).min(MAX_THREADS).saturating_sub(1));

        // SAFETY: `task` only needs to outlive every invocation through the
        // erased reference.  All invocations happen between the queue push
        // below and the completion wait: a chunk is only ever *called* after
        // an atomic claim of `next` below `chunks`, and this function does
        // not return (or unwind — the panic is re-raised after the wait)
        // until `completed == chunks`.  Stragglers that cloned the job Arc
        // after exhaustion read only the atomics, never the task pointer.
        let task: ErasedTask =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), ErasedTask>(task) };
        let job = Arc::new(Job {
            task,
            chunks,
            next: AtomicUsize::new(0),
            done: Mutex::new(JobDone {
                completed: 0,
                panic: None,
            }),
            done_cv: Condvar::new(),
        });
        {
            // pgs-lint: allow(panic-in-library, lock poisoning means a sibling worker panicked; propagating is the designed behavior)
            let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
            queue.push_back(job.clone());
        }
        self.shared.work_cv.notify_all();

        job.run_chunks();

        let payload = {
            // pgs-lint: allow(panic-in-library, lock poisoning means a sibling worker panicked; propagating is the designed behavior)
            let mut done = job.done.lock().expect("pool job state poisoned");
            while done.completed < job.chunks {
                done = job
                    .done_cv
                    .wait(done)
                    // pgs-lint: allow(panic-in-library, lock poisoning means a sibling worker panicked; propagating is the designed behavior)
                    .expect("pool job state poisoned while waiting");
            }
            done.panic.take()
        };
        // Drop our queue entry eagerly instead of leaving it for the next
        // worker scan (the job is exhausted, so workers would skip it anyway).
        {
            // pgs-lint: allow(panic-in-library, lock poisoning means a sibling worker panicked; propagating is the designed behavior)
            let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
            if let Some(pos) = queue.iter().position(|j| Arc::ptr_eq(j, &job)) {
                queue.remove(pos);
            }
        }
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Tops the pool up to `target` parked workers.
    fn ensure_workers(&self, target: usize) {
        // pgs-lint: allow(panic-in-library, lock poisoning means a sibling worker panicked; propagating is the designed behavior)
        let mut spawned = self.spawned.lock().expect("pool spawn count poisoned");
        while *spawned < target {
            let shared = self.shared.clone();
            std::thread::Builder::new()
                .name(format!("pgs-pool-{spawned}"))
                .spawn(move || worker_loop(&shared))
                // pgs-lint: allow(panic-in-library, no worker threads means no executor; spawn failure is fatal by design)
                .expect("spawning a pool worker thread");
            *spawned += 1;
        }
    }
}

/// Park on the queue, drain claimable jobs, repeat forever.  Workers are
/// detached and die with the process.
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            // pgs-lint: allow(panic-in-library, lock poisoning means a sibling worker panicked; propagating is the designed behavior)
            let mut queue = shared.queue.lock().expect("pool queue poisoned");
            loop {
                // Exhausted jobs at the front are finished work whose
                // submitter has not unlinked them yet; skip past them.
                while queue.front().is_some_and(|j| j.exhausted()) {
                    queue.pop_front();
                }
                if let Some(job) = queue.front() {
                    break job.clone();
                }
                queue = shared
                    .work_cv
                    .wait(queue)
                    // pgs-lint: allow(panic-in-library, lock poisoning means a sibling worker panicked; propagating is the designed behavior)
                    .expect("pool queue poisoned while parked");
            }
        };
        job.run_chunks();
    }
}

static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();

/// The process-wide pool used by [`crate::parallel::par_map_chunked_costed`].
pub fn global() -> &'static WorkerPool {
    GLOBAL.get_or_init(WorkerPool::new)
}

/// Workers spawned by the process-wide pool so far (0 until the first
/// parallel dispatch; never exceeds [`MAX_THREADS`]).
pub fn global_worker_count() -> usize {
    GLOBAL.get().map_or(0, WorkerPool::spawned_workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn run_invokes_every_chunk_exactly_once() {
        let pool = WorkerPool::new();
        let hits: Vec<AtomicUsize> = (0..23).map(|_| AtomicUsize::new(0)).collect();
        pool.run(hits.len(), 4, &|ci| {
            hits[ci].fetch_add(1, Ordering::Relaxed);
        });
        for (ci, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "chunk {ci}");
        }
        assert_eq!(pool.spawned_workers(), 3);
    }

    #[test]
    fn workers_are_reused_across_dispatches() {
        let pool = WorkerPool::new();
        for round in 0..50 {
            let sum = AtomicUsize::new(0);
            pool.run(8, 4, &|ci| {
                sum.fetch_add(ci + 1, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 36, "round {round}");
            assert_eq!(
                pool.spawned_workers(),
                3,
                "round {round} grew the pool — workers leaked"
            );
        }
    }

    #[test]
    fn pool_grows_lazily_and_respects_the_ceiling() {
        let pool = WorkerPool::new();
        assert_eq!(pool.spawned_workers(), 0, "no dispatch, no workers");
        pool.run(2, 2, &|_| {});
        assert_eq!(pool.spawned_workers(), 1);
        // Fewer chunks than workers: no point parking extra threads.
        pool.run(2, 16, &|_| {});
        assert_eq!(pool.spawned_workers(), 1);
        pool.run(1000, MAX_THREADS + 500, &|_| {});
        assert_eq!(pool.spawned_workers(), MAX_THREADS - 1);
    }

    #[test]
    fn submitter_participates_even_with_zero_workers() {
        let pool = WorkerPool::new();
        let sum = AtomicUsize::new(0);
        // workers = 1 spawns nothing; the submitting thread does all chunks.
        pool.run(5, 1, &|ci| {
            sum.fetch_add(ci, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 10);
        assert_eq!(pool.spawned_workers(), 0);
    }

    #[test]
    fn nested_dispatch_completes() {
        let pool = global();
        let total = AtomicUsize::new(0);
        pool.run(4, 4, &|_| {
            // Re-entrant dispatch on the same pool from inside a chunk: the
            // inner submitter participates, so this cannot deadlock even
            // with every worker busy on the outer job.
            global().run(4, 4, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn panic_payload_is_preserved_and_the_pool_survives() {
        let pool = WorkerPool::new();
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, 4, &|ci| {
                if ci == 5 {
                    panic!("chunk {ci} exploded");
                }
            });
        }))
        .expect_err("the chunk panic must propagate");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("panic! with a formatted message yields a String payload");
        assert_eq!(msg, "chunk 5 exploded");
        // The pool is still serviceable afterwards.
        let sum = AtomicUsize::new(0);
        pool.run(8, 4, &|ci| {
            sum.fetch_add(ci, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 28);
    }

    #[test]
    fn zero_chunks_is_a_no_op() {
        let pool = WorkerPool::new();
        pool.run(0, 4, &|_| panic!("must never be called"));
        assert_eq!(pool.spawned_workers(), 0);
    }
}
