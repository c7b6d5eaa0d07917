//! Heap-allocation budget of one datacenter run.
//!
//! A counting global allocator tallies the calls that ask the system
//! allocator for memory (`alloc`, `alloc_zeroed` and `realloc`) on the
//! calling thread while one billing mode runs perfbench's `dc` scenario:
//! the bursty reference scenario on two chips, 24 epochs, the burst at
//! epoch 8 for 4. Every run of either mode, over a range of seeds, must
//! stay within its mode's budget. A run reuses its auction, placement
//! and log buffers from epoch to epoch, so the count grows with the
//! tenants a run holds, not with its price steps or leases. A change
//! that puts an allocation back into an epoch's inner loop fails here
//! before it shows as time.

use sharing_dc::{BillingMode, DcSim, Scenario};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting this thread's requests for memory.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn tally() {
    // `try_with`: a thread being torn down has no counter left.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Most allocations one sharing-mode run may make.
const SHARING_BUDGET: u64 = 400;
/// Most allocations one fixed-mode run may make.
const FIXED_BUDGET: u64 = 420;

/// Seeds each mode runs, one run per seed.
const SEEDS: u64 = 32;

/// perfbench's `dc` scenario.
fn scenario() -> Scenario {
    let mut sc = Scenario::example_bursty();
    sc.name = "perfbench-bursty".into();
    sc.chips = 2;
    sc.epochs = 24;
    sc.arrivals.burst_start = 8;
    sc.arrivals.burst_len = 4;
    sc
}

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

#[test]
fn a_run_stays_within_its_allocation_budget() {
    let sim = DcSim::new(scenario()).expect("perfbench's scenario is valid");
    for (mode, budget) in [
        (BillingMode::Sharing, SHARING_BUDGET),
        (BillingMode::Fixed, FIXED_BUDGET),
    ] {
        let counts: Vec<u64> = (0..SEEDS)
            .map(|seed| {
                let (n, out) = allocations(|| sim.run(mode, seed));
                assert_eq!(out.records.len(), 24);
                n
            })
            .collect();
        let (most, seed) = (0..SEEDS)
            .map(|s| (counts[s as usize], s))
            .max()
            .expect("seeds");
        let mean = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
        println!("{}: mean {mean:.0}, most {most} (seed {seed})", mode.name());
        assert!(
            most <= budget,
            "{} seed {seed}: {most} allocations, budget {budget}",
            mode.name()
        );
    }
}
