//! The allocation budget of a warm `hira serve` request. A counting global
//! allocator sees every heap allocation the process makes, so this binary
//! holds one test and nothing else runs beside it.

use hira_bench::serve::Server;
use hira_bench::{CacheSpec, Scale};
use hira_engine::Executor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The system allocator, counting allocations and reallocations.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `baseline,hira4 × mix0,stream × 8,64 Gb`: eight points.
const REQUEST: &str = "{\"op\":\"sweep\",\"id\":\"warm\",\"policies\":[\"baseline\",\"hira4\"],\
                       \"workloads\":[\"mix0\",\"stream\"],\"caps\":[8,64],\"insts\":1000}";

/// Allocations made answering `line`, with the events' total length; the
/// client side allocates nothing.
fn answer(server: &mut Server, line: &str) -> (u64, usize) {
    let bytes = AtomicUsize::new(0);
    let emit = |l: &str| {
        bytes.fetch_add(l.len() + 1, Ordering::Relaxed);
    };
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    server.handle(line, &emit);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    (allocations, bytes.into_inner())
}

#[test]
fn a_warm_eight_point_request_allocates_at_most_500_times() {
    let dir = std::env::temp_dir().join(format!("hira-serve-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let scale = Scale {
        mixes: 1,
        insts: 1_000,
        warmup: 200,
        rows: 16,
    };
    let mut server = Server::new(Executor::with_threads(1), scale, &CacheSpec::at(&dir));
    // Cold: simulates and stores the eight points. The first warm answer
    // also grows the session's buffers and counters to size.
    let (_, cold) = answer(&mut server, REQUEST);
    let (_, first) = answer(&mut server, REQUEST);
    let (allocations, warm) = answer(&mut server, REQUEST);
    assert_eq!(first, warm, "warm answers differ in length");
    assert!(cold > warm, "the cold answer was no sweep: {cold} bytes");
    eprintln!("warm 8-point request: {allocations} allocations, {warm} bytes of events");
    assert!(
        allocations <= 500,
        "a warm 8-point request allocated {allocations} times"
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
