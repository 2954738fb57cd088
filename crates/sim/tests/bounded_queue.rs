//! Memory stays bounded: the event queue holds its pending events and
//! nothing else, however long a run goes on.
//!
//! A global allocator counts live heap bytes. Each test parks an event an
//! hour ahead, the way a simulation parks a training submission or a far
//! controller tick, then churns near-term events through the queue for
//! 100,000 rounds of a 5 ms clock. The pending set never exceeds three
//! events, so the live heap must not grow with the number of rounds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Mutex;

use dilu_sim::{EventQueue, SimDuration, SimTime};

struct LiveBytes;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a relaxed atomic
// add with no further allocation.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: LiveBytes = LiveBytes;

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

/// The counter is process-wide, so measured windows must not overlap.
static MEASURE: Mutex<()> = Mutex::new(());

const ROUNDS: u64 = 100_000;
const QUANTUM: SimDuration = SimDuration::from_millis(5);
/// Live-heap growth allowed over the whole churn: a few B-tree nodes.
const BOUND: isize = 64 * 1024;

#[test]
fn a_far_event_does_not_make_near_churn_retain_memory() {
    let _serial = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let mut q = EventQueue::new();
    q.push(SimTime::from_secs(3_600), u64::MAX);
    let mut now = SimTime::ZERO;
    let base = live();
    let mut peak = 0;
    for i in 0..ROUNDS {
        q.push(now, i);
        assert_eq!(q.pop_due(now), Some((now, i)));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3_600)));
        now += QUANTUM;
        peak = peak.max(live() - base);
    }
    assert_eq!(q.len(), 1);
    assert!(
        peak < BOUND,
        "{ROUNDS} push/pop rounds with one pending event grew the live heap by {peak} bytes"
    );
}

#[test]
fn push_cancel_churn_does_not_retain_memory() {
    let _serial = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let mut q = EventQueue::new();
    q.push(SimTime::from_millis(1), u64::MAX);
    q.push(SimTime::from_secs(3_600), u64::MAX);
    let base = live();
    let mut peak = 0;
    for i in 0..ROUNDS {
        // Alternate near and far targets, each withdrawn before it fires.
        let at = if i % 2 == 0 {
            SimTime::ZERO + QUANTUM * (1 + i % 300)
        } else {
            SimTime::from_secs(60 + i % 600)
        };
        let token = q.push_cancellable(at, i);
        assert!(q.cancel(token));
        peak = peak.max(live() - base);
    }
    assert_eq!(q.len(), 2);
    assert!(peak < BOUND, "{ROUNDS} push/cancel rounds grew the live heap by {peak} bytes");
}
