//! The one `crusader_bench` binary; see [`crusader_bench::experiments`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;

use crusader_bench::snapshot::ALLOCATIONS;

/// The system allocator, counting every block into [`ALLOCATIONS`] for
/// the count ledger's allocation columns.
struct Counting;

// SAFETY: every method forwards its arguments to `System` unchanged and
// returns what it returns; the counters only read the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let block = unsafe { System.alloc(layout) };
        if !block.is_null() {
            ALLOCATIONS.allocated(layout.size(), 0);
        }
        block
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let block = unsafe { System.alloc_zeroed(layout) };
        if !block.is_null() {
            ALLOCATIONS.allocated(layout.size(), 0);
        }
        block
    }

    unsafe fn dealloc(&self, block: *mut u8, layout: Layout) {
        unsafe { System.dealloc(block, layout) };
        ALLOCATIONS.freed(layout.size());
    }

    unsafe fn realloc(&self, block: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = unsafe { System.realloc(block, layout, new_size) };
        if !moved.is_null() {
            ALLOCATIONS.allocated(new_size, layout.size());
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn main() -> ExitCode {
    match crusader_bench::experiments::dispatch(std::env::args().skip(1)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) => {
            eprintln!("{}", failure.message);
            ExitCode::from(failure.code)
        }
    }
}
