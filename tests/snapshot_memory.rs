//! Heap guard for the whole-fleet document. `FleetSnapshot::to_text`,
//! which writes both `GET /snapshot` bodies and journal checkpoints,
//! writes its document one home at a time straight into the output text,
//! so encoding one may raise the heap by a few times the text's length at
//! most. Building the document as one `Json` tree of the fleet first
//! costs about 19 times the text. `FleetSnapshot::from_text`, which reads
//! both, does parse one such tree, and may hold only that one.
//!
//! The counting allocator is process-wide, so this file is its own test
//! binary holding a single test: nothing else allocates while it counts.

use hg_bench::fleet_gen::{populate, FleetSpec};
use hg_persist::FleetSnapshot;
use hg_service::{Fleet, RuleStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting live heap bytes and their high-water
/// mark. A `realloc` that moves its block holds the old and the new block
/// at once, so it counts as both until it returns.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters only observe
// the sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract passes through unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc`; `new_size` passes through unchanged.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if moved.is_null() {
            return moved;
        }
        if moved == ptr {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        } else {
            grow(new_size);
            shrink(layout.size());
        }
        moved
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

/// Runs `work` and returns its output with the peak heap rise above the
/// bytes live when it started.
fn heap_rise<T>(work: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let out = work();
    (out, PEAK.load(Ordering::SeqCst) - before)
}

#[test]
fn fleet_documents_encode_within_four_times_their_text() {
    let spec = FleetSpec {
        shards: 4,
        ..FleetSpec::sized(500)
    };
    let fleet = Fleet::builder(RuleStore::shared())
        .shards(spec.shards)
        .build();
    let (_, stats) = populate(&fleet, &spec);
    assert_eq!(stats.failures, 0, "{stats:?}");
    let snapshot = fleet.snapshot().expect("live snapshot");

    let (text, rise) = heap_rise(|| snapshot.to_text());
    assert!(
        rise <= 4 * text.len(),
        "snapshot encoding raised the heap by {rise} B for {} B of text ({:.1}x)",
        text.len(),
        rise as f64 / text.len() as f64
    );
    // Decoding still parses the whole document into one tree and builds
    // the snapshot from it (about 19 times the text); moving the payload
    // out of the parsed document instead of copying it keeps a second
    // tree (about 32 times) away.
    let (decoded, rise) = heap_rise(|| FleetSnapshot::from_text(&text).expect("decodes"));
    assert!(
        rise <= 24 * text.len(),
        "snapshot decoding raised the heap by {rise} B for {} B of text ({:.1}x)",
        text.len(),
        rise as f64 / text.len() as f64
    );
    assert_eq!(decoded.homes.len(), snapshot.homes.len());
}
