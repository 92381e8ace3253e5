//! Chunked parallelism shared by the PMI build and the query pipeline,
//! dispatched on the persistent worker pool ([`crate::pool`]).
//!
//! The workspace deliberately avoids external thread-pool crates (the build
//! environment is offline), so both the index fill and the query phases share
//! the same pattern: split the items into one contiguous chunk per worker,
//! map each item with its *global* index, and reassemble the results in input
//! order.  Determinism is therefore the caller's duty — the mapping closure
//! must not depend on shared mutable state, which in practice means deriving
//! any randomness from the item's identity (see [`derive_seed`]) rather than
//! from a shared RNG.
//!
//! Dispatch is gated by a small cost model ([`CostHint`]): handing work to
//! the pool costs on the order of ten microseconds of wake-up and
//! synchronisation, so inputs whose *predicted total work* is below
//! [`DISPATCH_FLOOR_NANOS`] run inline on the caller instead of paying
//! dispatch overhead that dwarfs the work itself.

use crate::pool;
pub use crate::pool::MAX_THREADS;
use std::sync::{Mutex, OnceLock};

/// Resolves a `threads` knob: `0` means automatic, any other value is taken
/// literally but clamped to [`MAX_THREADS`] (a literal `100_000` used to
/// attempt one hundred thousand OS threads).
///
/// Automatic resolution is memoized: the first call reads `PGS_QUERY_THREADS`
/// (when set to a positive integer it pins the automatic worker count — CI
/// uses it to run the whole suite at fixed counts) or falls back to
/// [`std::thread::available_parallelism`] clamped to 8, and every later call
/// returns the cached value.  `available_parallelism` is a syscall, and it
/// used to be re-issued on every `par_map_chunked` call in every phase of
/// every query — pure hot-path overhead for an answer that never changes.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        auto_threads()
    } else {
        threads.min(MAX_THREADS)
    }
}

/// The memoized automatic worker count (see [`resolve_threads`]).
fn auto_threads() -> usize {
    static AUTO: OnceLock<usize> = OnceLock::new();
    *AUTO.get_or_init(|| {
        match std::env::var("PGS_QUERY_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            Some(n) if n > 0 => n.min(MAX_THREADS),
            _ => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .clamp(1, 8),
        }
    })
}

/// Predicted total work below which a map runs inline on the caller: pool
/// dispatch (queue push, worker wake-up, completion wait) costs on the order
/// of 10 µs, so fanning out less than ~200 µs of work trades a guaranteed
/// overhead for a negligible win — the exact pessimization the threads-1 vs
/// threads-auto throughput benchmark recorded before the cost model existed.
pub const DISPATCH_FLOOR_NANOS: u64 = 200_000;

/// Rough per-item cost class of a mapping closure, used by the dispatch cost
/// model.  Callers pick the class describing their closure; the model only
/// needs order-of-magnitude accuracy to keep trivial inputs off the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostHint {
    /// Estimated nanoseconds one closure invocation takes.
    pub per_item_nanos: u64,
}

impl CostHint {
    /// Sub-microsecond items: histogram probes, arithmetic filters.
    /// Parallel only from ~400 items up.
    pub const LIGHT: CostHint = CostHint {
        per_item_nanos: 500,
    };
    /// Items in the tens of microseconds: subgraph-distance checks, pruning
    /// bound evaluations.  Parallel from ~20 items up.
    pub const MODERATE: CostHint = CostHint {
        per_item_nanos: 10_000,
    };
    /// Items in the hundreds of microseconds and beyond: PMI column fills,
    /// verification samplers, whole queries.  Parallel from 2 items up.
    pub const HEAVY: CostHint = CostHint {
        per_item_nanos: 200_000,
    };

    /// Whether `items` invocations are predicted to outweigh the dispatch
    /// overhead ([`DISPATCH_FLOOR_NANOS`]).
    pub const fn worth_dispatching(self, items: usize) -> bool {
        (items as u64).saturating_mul(self.per_item_nanos) >= DISPATCH_FLOOR_NANOS
    }
}

/// Maps `f` over `items` with up to `threads` pool workers (`0` = automatic),
/// preserving input order in the output.  Assumes [`CostHint::MODERATE`]
/// items; use [`par_map_chunked_costed`] when the closure's cost class is
/// known to differ.
///
/// The closure receives the *global* index of the item so per-item seeds can
/// be derived identically no matter how the items are chunked; consequently
/// the result is byte-identical for every thread count as long as `f` itself
/// is a pure function of `(index, item)`.  With one worker, zero/one items,
/// or a predicted workload under the dispatch floor, the map runs inline on
/// the caller and the pool is not touched at all.
pub fn par_map_chunked<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_chunked_costed(items, threads, CostHint::MODERATE, f)
}

/// [`par_map_chunked`] with an explicit per-item cost class.
///
/// The cost model only decides *whether* to dispatch — never how the items
/// are chunked — so inline and pooled runs of the same input are
/// byte-identical (the determinism suite pins this for every thread count).
///
/// # Panics
///
/// If `f` panics, the first payload is re-raised on the caller via
/// [`std::panic::resume_unwind`] after all chunks have drained, so a test
/// failure inside a worker surfaces its real message.
pub fn par_map_chunked_costed<T, U, F>(items: &[T], threads: usize, cost: CostHint, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let threads = resolve_threads(threads);
    if threads <= 1 || items.len() <= 1 || !cost.worth_dispatching(items.len()) {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // The same global-index chunk layout the scoped-thread executor used:
    // one contiguous chunk per worker, boundaries a pure function of
    // (len, threads) — never of pool state.
    let chunk_size = items.len().div_ceil(threads).max(1);
    let chunks = items.len().div_ceil(chunk_size);
    let slots: Vec<Mutex<Option<Vec<U>>>> = (0..chunks).map(|_| Mutex::new(None)).collect();
    let f = &f;
    let slots_ref = &slots;
    pool::global().run(chunks, threads, &move |ci| {
        let start = ci * chunk_size;
        let end = (start + chunk_size).min(items.len());
        let mapped: Vec<U> = items[start..end]
            .iter()
            .enumerate()
            .map(|(j, t)| f(start + j, t))
            .collect();
        // pgs-lint: allow(panic-in-library, slot poisoning means another chunk panicked; the pool re-raises that panic)
        *slots_ref[ci].lock().expect("chunk slot poisoned") = Some(mapped);
    });
    slots
        .into_iter()
        .flat_map(|slot| {
            slot.into_inner()
                // pgs-lint: allow(panic-in-library, slot poisoning means another chunk panicked; the pool re-raises that panic)
                .expect("chunk slot poisoned")
                // pgs-lint: allow(panic-in-library, the pool blocks until every chunk ran, so every slot is filled)
                .expect("pool completed the job, so every chunk slot is filled")
        })
        .collect()
}

/// SplitMix64 finalizer: scrambles a 64-bit value so that structurally related
/// inputs (consecutive indices, XOR-combined hashes) yield decorrelated RNG
/// seeds.
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Folds a sequence of salts into one decorrelated RNG seed.  The fold is
/// non-commutative, so `derive_seed(&[a, b])` and `derive_seed(&[b, a])`
/// differ — callers can layer engine seed, query hash, graph salt and a phase
/// tag without cancellation (a plain XOR of equal hashes would collapse to 0).
pub fn derive_seed(salts: &[u64]) -> u64 {
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
    for &s in salts {
        h = mix64(h ^ s);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn resolve_threads_is_identity_for_sane_explicit_values() {
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(5), 5);
        assert_eq!(resolve_threads(MAX_THREADS), MAX_THREADS);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn resolve_threads_clamps_absurd_explicit_values() {
        assert_eq!(resolve_threads(MAX_THREADS + 1), MAX_THREADS);
        assert_eq!(resolve_threads(100_000), MAX_THREADS);
        assert_eq!(resolve_threads(usize::MAX), MAX_THREADS);
    }

    #[test]
    fn resolve_threads_auto_is_memoized() {
        let first = resolve_threads(0);
        for _ in 0..100 {
            assert_eq!(resolve_threads(0), first);
        }
        assert!(first <= MAX_THREADS);
    }

    #[test]
    fn cost_model_keeps_tiny_inputs_sequential() {
        assert!(!CostHint::LIGHT.worth_dispatching(10));
        assert!(!CostHint::MODERATE.worth_dispatching(10));
        assert!(CostHint::MODERATE.worth_dispatching(20));
        assert!(CostHint::HEAVY.worth_dispatching(2));
        assert!(CostHint::LIGHT.worth_dispatching(400));
        // Saturating: absurd item counts must not overflow into "sequential".
        assert!(CostHint::HEAVY.worth_dispatching(usize::MAX));
    }

    #[test]
    fn par_map_preserves_order_for_every_thread_count() {
        let items: Vec<usize> = (0..37).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * 2).collect();
        for threads in [1, 2, 3, 4, 8, 16] {
            let got = par_map_chunked(&items, threads, |i, &x| {
                assert_eq!(i, x, "global index must match the item position");
                x * 2
            });
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn pooled_and_inline_runs_are_identical() {
        // HEAVY forces pool dispatch from 2 items; the sequential reference
        // runs inline.  Byte-identical output is the §8 contract.
        let items: Vec<u64> = (0..13).map(|i| i * 977 + 3).collect();
        let map = |i: usize, x: &u64| derive_seed(&[i as u64, *x]);
        let inline: Vec<u64> = items.iter().enumerate().map(|(i, x)| map(i, x)).collect();
        for threads in [2, 3, 8] {
            let pooled = par_map_chunked_costed(&items, threads, CostHint::HEAVY, map);
            assert_eq!(pooled, inline, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_chunked(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(par_map_chunked(&[7u32], 4, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn worker_panic_payload_reaches_the_caller() {
        let items: Vec<usize> = (0..16).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            par_map_chunked_costed(&items, 4, CostHint::HEAVY, |i, _| {
                if i == 11 {
                    panic!("item 11 is cursed");
                }
                i
            });
        }))
        .expect_err("the worker panic must propagate to the caller");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .expect("a literal panic! payload is a &'static str");
        assert_eq!(msg, "item 11 is cursed");
    }

    #[test]
    fn derive_seed_is_order_sensitive_and_stable() {
        let a = derive_seed(&[1, 2, 3]);
        let b = derive_seed(&[1, 2, 3]);
        let c = derive_seed(&[3, 2, 1]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Equal salts must not cancel to a constant.
        assert_ne!(derive_seed(&[42, 42]), derive_seed(&[7, 7]));
    }

    #[test]
    fn mix64_scrambles_consecutive_inputs() {
        let outputs: Vec<u64> = (0..16).map(mix64).collect();
        for w in outputs.windows(2) {
            assert_ne!(w[0], w[1]);
        }
    }
}
