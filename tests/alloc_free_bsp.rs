//! PR 15 acceptance: a put costs no heap allocation of its own.
//!
//! A counting global allocator wraps the system allocator (as in
//! `alloc_free.rs`); the test runs the same all-to-all put program with
//! 4 and with 64 puts per process per superstep and asserts the two runs'
//! allocation counts differ by less than 64 in total — sixteen times the
//! puts may only grow the runtime's shared buffers a few doublings
//! further. With one owned payload per put the difference was one
//! allocation per extra put, ≈ 5.8 k. This file holds exactly one test:
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

use hpm::bsplib::runtime::{run_spmd, BspConfig, BspProgram};
use hpm::bsplib::{BspCtx, RegHandle, StepOutcome};

const P: usize = 16;
const PUT_SUPERSTEPS: usize = 6;
/// Slots per registered buffer: the larger run's puts per superstep.
const SLOTS: usize = 64;

/// After a registration superstep, six supersteps of `puts` 8-byte puts
/// per process, dealt round-robin over all processes (itself included);
/// put `j` of process `i` writes slot `j` of its target.
struct AllToAll {
    puts: usize,
    step: usize,
    buf: Option<RegHandle>,
    /// Slot `j` as last read back: the stamp of its latest writer.
    seen: Vec<u64>,
}

fn stamp(step: usize, src: usize, j: usize) -> u64 {
    ((step * P + src) * SLOTS + j) as u64
}

impl BspProgram for AllToAll {
    fn superstep(&mut self, ctx: &mut BspCtx) -> StepOutcome {
        if self.step == 0 {
            let h = ctx.alloc(8 * SLOTS);
            ctx.push_reg(h);
            self.buf = Some(h);
            self.step = 1;
            return StepOutcome::Continue;
        }
        let h = self.buf.expect("registered");
        if self.step > PUT_SUPERSTEPS {
            self.seen.extend(
                ctx.read_buf(h)
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))),
            );
            return StepOutcome::Halt;
        }
        for j in 0..self.puts {
            let dst = (ctx.pid() + j) % P;
            ctx.put(dst, h, 8 * j, &stamp(self.step, ctx.pid(), j).to_le_bytes());
        }
        self.step += 1;
        StepOutcome::Continue
    }
}

/// Runs the program; returns the allocations it took.
fn allocations_of(cfg: &BspConfig, puts: usize) -> usize {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let res = run_spmd(cfg, |_| AllToAll {
        puts,
        step: 0,
        buf: None,
        seen: Vec::with_capacity(SLOTS),
    })
    .expect("all-to-all runs");
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(res.superstep_count(), PUT_SUPERSTEPS + 2);
    for tr in &res.supersteps[1..=PUT_SUPERSTEPS] {
        assert_eq!(tr.ops, P * puts);
        assert_eq!(tr.payload_bytes, (8 * P * puts) as u64);
    }
    // The payload really moved: slot j holds the last superstep's stamp
    // of the one process whose put j targets this process.
    for (pid, prog) in res.programs.iter().enumerate() {
        for j in 0..puts {
            let src = (pid + P - j % P) % P;
            assert_eq!(
                prog.seen[j],
                stamp(PUT_SUPERSTEPS, src, j),
                "pid {pid} slot {j}"
            );
        }
    }
    allocations
}

#[test]
fn put_count_does_not_drive_allocation_count() {
    use hpm::kernels::rate::xeon_core;
    use hpm::simnet::params::xeon_cluster_params;
    use hpm::topology::{cluster_8x2x4, Placement, PlacementPolicy};

    let cfg = BspConfig::new(
        xeon_cluster_params(),
        Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, P),
        xeon_core(),
        15,
    );
    let few = allocations_of(&cfg, 4);
    let many = allocations_of(&cfg, SLOTS);
    let extra_puts = P * PUT_SUPERSTEPS * (SLOTS - 4);
    assert!(
        many.abs_diff(few) < 64,
        "{extra_puts} more puts cost {many} − {few} allocations"
    );
}
