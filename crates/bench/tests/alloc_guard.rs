//! Allocation-count regression guard for the Karp–Luby trial loop.
//!
//! The arena refactor (DESIGN.md §14) moved the per-trial hot path onto
//! contiguous, caller-owned buffers; this test pins that property by
//! counting `GlobalAlloc` calls around the loop.  A future change that
//! reintroduces per-trial heap traffic fails here rather than silently
//! regressing the benchmarks.  (The phase-1 posting scan allocates its
//! per-query accumulator afresh on every call, so it has no probe here.)
//!
//! The file holds ONE `#[test]` so the counter is never shared with a
//! concurrently-running sibling test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use pgs_graph::generate::{random_connected_graph, random_connected_subgraph, RandomGraphConfig};
use pgs_graph::model::EdgeId;
use pgs_graph::vf2::{enumerate_embeddings, MatchOptions};
use pgs_prob::jpt::JointProbTable;
use pgs_prob::model::ProbabilisticGraph;
use pgs_prob::neighbor::partition_with_triangles;
use pgs_prob::union_sampler::UnionSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Pass-through system allocator that counts every `alloc`/`realloc` call.
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `System::alloc` — the layout is forwarded
    // unchanged and the returned pointer comes straight from `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; we pass the
        // layout through untouched.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System::dealloc` — ptr/layout are forwarded
    // exactly as received from the paired `alloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: caller guarantees `ptr` was allocated by this allocator
        // with `layout`, which is exactly `System`'s requirement.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same contract as `System::realloc` — all arguments are
    // forwarded unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract; arguments
        // pass through untouched.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Counts heap allocations performed by `f`.
fn allocations_in(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

fn probabilistic_fixture() -> (ProbabilisticGraph, pgs_graph::model::Graph) {
    let mut rng = StdRng::seed_from_u64(5);
    let g = random_connected_graph(
        &RandomGraphConfig {
            vertices: 40,
            edges: 70,
            vertex_labels: 6,
            edge_labels: 2,
            preferential: true,
        },
        &mut rng,
    );
    let q = random_connected_subgraph(&g, 4, &mut rng).expect("query extraction");
    let groups = partition_with_triangles(&g, 3);
    let tables: Vec<JointProbTable> = groups
        .iter()
        .map(|grp| {
            let ep: Vec<(EdgeId, f64)> = grp.iter().map(|&e| (e, 0.4)).collect();
            JointProbTable::from_max_rule(&ep).expect("jpt")
        })
        .collect();
    let pg = ProbabilisticGraph::new(g, tables, true).expect("probabilistic graph");
    (pg, q)
}

#[test]
fn hot_loops_do_not_allocate() {
    // --- Karp–Luby trial loop -------------------------------------------
    let (pg, q) = probabilistic_fixture();
    let embeddings: Vec<Vec<EdgeId>> =
        enumerate_embeddings(&q, pg.skeleton(), MatchOptions::capped(16))
            .embeddings
            .into_iter()
            .map(|e| e.edges)
            .collect();
    assert!(
        !embeddings.is_empty(),
        "fixture must yield at least one embedding"
    );
    let mut relevant: Vec<EdgeId> = embeddings.iter().flatten().copied().collect();
    relevant.sort_unstable();
    relevant.dedup();
    let sampler = UnionSampler::with_relevant(&pg, &embeddings, &relevant).expect("union sampler");

    let mut rng = StdRng::seed_from_u64(11);
    let mut scratch = vec![0u64; sampler.words()];
    let mut hits = 0usize;
    // Warm-up: one trial, so lazy thread-local RNG state etc. is paid up
    // front (the loop itself must stay clean from the very first iteration,
    // but the guard measures steady state).
    hits += usize::from(sampler.sample_trial(&mut rng, &mut scratch));
    let allocs = allocations_in(|| {
        for _ in 0..512 {
            hits += usize::from(sampler.sample_trial(&mut rng, &mut scratch));
        }
    });
    assert!(hits <= 513);
    assert_eq!(
        allocs, 0,
        "UnionSampler::sample_trial loop allocated {allocs} times"
    );
}
