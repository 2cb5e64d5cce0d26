//! The MPI-style stencil allocates nothing per iteration.
//!
//! A counting global allocator wraps the system allocator (as in
//! `alloc_free.rs`); the test runs both `MpiVariant`s for 2 and for 8
//! iterations and asserts each pair of runs makes the same number of
//! allocations: the border messages, the exchange resolver's scratch and
//! result and MPI+R's interior finish times are sized once per run and
//! reused by every iteration. When each exchange built its own message
//! list, every iteration at p = 16 made 8 allocations in the blocking
//! variant (two lists, each grown by doubling) and 6 in MPI+R (one list
//! and the finish times). This file holds exactly one test:
//! integration-test binaries are one process each, so no concurrent test
//! can pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use hpm::kernels::rate::xeon_core;
use hpm::simnet::params::xeon_cluster_params;
use hpm::stencil::{run_mpi_stencil, MpiVariant};
use hpm::topology::{cluster_8x2x4, Placement, PlacementPolicy};

#[test]
fn mpi_stencil_iterations_allocate_nothing() {
    let params = xeon_cluster_params();
    let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 16);
    let model = xeon_core();
    for variant in [MpiVariant::Blocking2Stage, MpiVariant::EarlyRequests] {
        let allocations = |iters: usize| {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            let report = run_mpi_stencil(&params, &placement, &model, 256, iters, variant, 1.0, 7);
            let made = ALLOCATIONS.load(Ordering::SeqCst) - before;
            assert_eq!(report.iter_times.len(), iters);
            made
        };
        let (short, long) = (allocations(2), allocations(8));
        assert_eq!(
            short,
            long,
            "{}: 6 more iterations made {} more allocations",
            variant.label(),
            long as i64 - short as i64
        );
    }
}
