//! Allocation regression test for the local join's probe path.
//!
//! A join step's probe derives its windows, fills a reused candidate
//! buffer, sorts it in place and scores tuples against reused score
//! vectors, so a reducer allocates per scored tuple (the result ids it
//! offers) and per buffer growth, not per probe. A counting global
//! allocator checks that on one cyclic Qs,f,m local join per fixed
//! backend: allocations must stay a small fraction of the index probes
//! issued.
//!
//! This binary holds a single test, so nothing else allocates while the
//! join runs.

// A global allocator is an `unsafe` trait; this one only counts calls
// and forwards them to the system allocator unchanged.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use tkij::core::{local_topk_join_on, ComboSet};
use tkij::datagen::synthetic::{uniform_collection, SyntheticConfig};
use tkij::prelude::*;
use tkij::temporal::BucketId;

/// Forwards to [`System`], counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a plain atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn cyclic_local_join_allocates_per_result_not_per_probe() {
    // One reducer holding one combination: every interval of each
    // collection in one bucket, as with a single granule.
    let cfg =
        SyntheticConfig { size: 600, start_range: (0, 15_000), length_range: (1, 100), seed: 3 };
    let query = table1::q_sfm(PredicateParams::P2);
    let bucket = BucketId::new(0, 0);
    let data: BTreeMap<(u16, BucketId), Vec<Interval>> = (0..3u16)
        .map(|v| {
            let collection = uniform_collection(CollectionId(u32::from(v)), &cfg);
            ((v, bucket), collection.intervals().to_vec())
        })
        .collect();
    let mut combos = ComboSet::new(3);
    combos.push(&[bucket; 3], 600 * 600 * 600, 0.0, 1.0);
    let plan = query.plan();

    for backend in [LocalJoinBackend::Sweep, LocalJoinBackend::RTree] {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let (topk, stats) =
            local_topk_join_on(backend, &query, &plan, 100, &combos, &[0], &data, None);
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

        let name = backend.name();
        assert_eq!(topk.len(), 100, "{name}");
        assert!(stats.index_probes >= 50_000, "{name}: a probe-heavy join: {stats:?}");
        // Per scored tuple: at most the offered result's id vector.
        assert!(
            allocations <= stats.tuples_scored + 1_000,
            "{name}: {allocations} allocations for {} scored tuples",
            stats.tuples_scored
        );
        // Under 1 % of the probes (per-probe buffers would be several per
        // probe).
        assert!(
            allocations * 100 <= stats.index_probes,
            "{name}: {allocations} allocations for {} index probes",
            stats.index_probes
        );
    }
}
