//! Event-queue micro-benchmark: the ordered-map queue
//! (`dilu_sim::EventQueue`) against a binary heap with lazy cancellation,
//! on an event-loop-shaped workload of one million events with
//! cancellations. The trace keeps up to ~84k events pending, far more than
//! any simulator run holds (tens), so it stresses the queue well past its
//! working regime.
//!
//! Both drivers consume the identical seeded pseudo-random decision
//! stream and must fold the identical pop sequence into their checksum —
//! the wall clocks are only comparable because the work is, and the check
//! pins the queue's pop order against the heap's on every run. Results
//! land in `BENCH_event_queue.json` at the repository root.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::path::PathBuf;
use std::time::Instant;

use dilu_sim::{EventQueue, EventToken, SimDuration, SimTime};

/// Total events pushed per driver run.
const EVENTS: u64 = 1_000_000;
/// Event grid, matching the cluster scheduling quantum.
const QUANTUM_US: u64 = 5_000;
/// Events are pushed 1..=HORIZON_QUANTA quanta into the future.
const HORIZON_QUANTA: u64 = 200;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// splitmix64: deterministic decision stream shared by both drivers.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn mix_checksum(acc: u64, at_us: u64, value: u64) -> u64 {
    acc.rotate_left(17) ^ at_us.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ value
}

/// The queue operations both implementations must serve. `push` returns a
/// cancel handle when asked for one; `pop_due` drains FIFO within an
/// instant, exactly like the simulator's wake loop.
trait Queue {
    type Token;
    fn push(&mut self, at: SimTime, value: u64, cancellable: bool) -> Option<Self::Token>;
    fn cancel(&mut self, token: Self::Token);
    fn peek_time(&mut self) -> Option<SimTime>;
    fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, u64)>;
}

impl Queue for EventQueue<u64> {
    type Token = EventToken;

    fn push(&mut self, at: SimTime, value: u64, cancellable: bool) -> Option<EventToken> {
        if cancellable {
            Some(self.push_cancellable(at, value))
        } else {
            EventQueue::push(self, at, value);
            None
        }
    }

    fn cancel(&mut self, token: EventToken) {
        EventQueue::cancel(self, token);
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        EventQueue::peek_time(self)
    }

    fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, u64)> {
        EventQueue::pop_due(self, now)
    }
}

/// The reference design: a min-heap on `(time, seq)` with a
/// cancelled-sequence side set consulted lazily at pop time.
#[derive(Default)]
struct LazyHeap {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    values: Vec<u64>,
    cancelled: BTreeSet<u64>,
    next_seq: u64,
}

impl Queue for LazyHeap {
    type Token = u64;

    fn push(&mut self, at: SimTime, value: u64, cancellable: bool) -> Option<u64> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.values.push(value);
        self.heap.push(Reverse((at.as_micros(), seq)));
        cancellable.then_some(seq)
    }

    fn cancel(&mut self, token: u64) {
        self.cancelled.insert(token);
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((at, seq))) = self.heap.peek() {
            if self.cancelled.remove(&seq) {
                self.heap.pop();
                continue;
            }
            return Some(SimTime::from_micros(at));
        }
        None
    }

    fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, u64)> {
        let head = self.peek_time()?;
        if head > now {
            return None;
        }
        let Reverse((at, seq)) = self.heap.pop().expect("peeked above");
        Some((SimTime::from_micros(at), self.values[seq as usize]))
    }
}

/// Runs the event-loop workload: keep a working set of pending events;
/// every pop seeds 1–2 future pushes until the budget is spent; every
/// fourth push is cancellable and half of those are cancelled soon after.
fn drive<Q: Queue>(queue: &mut Q, seed: u64) -> (u64, u64) {
    let mut rng = Mix(seed);
    let quantum = SimDuration::from_micros(QUANTUM_US);
    let mut pushed = 0u64;
    let mut pops = 0u64;
    let mut checksum = 0u64;
    let mut open_tokens: Vec<Q::Token> = Vec::new();

    let push_one = |queue: &mut Q,
                    rng: &mut Mix,
                    open_tokens: &mut Vec<Q::Token>,
                    pushed: &mut u64,
                    from: SimTime| {
        let offset = 1 + rng.next() % HORIZON_QUANTA;
        let at = from + quantum * offset;
        let value = *pushed;
        let cancellable = pushed.is_multiple_of(4);
        if let Some(token) = queue.push(at, value, cancellable) {
            open_tokens.push(token);
        }
        *pushed += 1;
        // Cancel roughly half the cancellable events once enough are open.
        if open_tokens.len() >= 32 && rng.next().is_multiple_of(2) {
            let idx = (rng.next() as usize) % open_tokens.len();
            let token = open_tokens.swap_remove(idx);
            queue.cancel(token);
        }
    };

    for _ in 0..1_024 {
        push_one(queue, &mut rng, &mut open_tokens, &mut pushed, SimTime::ZERO);
    }
    while let Some(t) = queue.peek_time() {
        while let Some((at, value)) = queue.pop_due(t) {
            checksum = mix_checksum(checksum, at.as_micros(), value);
            pops += 1;
            if pushed < EVENTS {
                let replacements = 1 + rng.next() % 2;
                for _ in 0..replacements {
                    if pushed < EVENTS {
                        push_one(queue, &mut rng, &mut open_tokens, &mut pushed, at);
                    }
                }
            }
        }
    }
    (checksum, pops)
}

fn main() {
    const SEED: u64 = 0x0000_0d11_u64;

    let started = Instant::now();
    let mut queue: EventQueue<u64> = EventQueue::new();
    let (queue_checksum, queue_pops) = drive(&mut queue, SEED);
    let queue_secs = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let mut heap = LazyHeap::default();
    let (heap_checksum, heap_pops) = drive(&mut heap, SEED);
    let heap_secs = started.elapsed().as_secs_f64();

    assert_eq!(
        (queue_checksum, queue_pops),
        (heap_checksum, heap_pops),
        "queue and heap must pop the identical event sequence"
    );

    let speedup = heap_secs / queue_secs;
    println!("== event-queue micro: {EVENTS} events, {queue_pops} pops ==");
    println!("ordered map:      {queue_secs:.3} s");
    println!("heap+lazy-cancel: {heap_secs:.3} s");
    println!("queue vs heap:    {speedup:.2}x");

    let out = repo_root().join("BENCH_event_queue.json");
    let value = serde::Value::Map(vec![
        (s("events"), serde::Value::UInt(EVENTS)),
        (s("pops"), serde::Value::UInt(queue_pops)),
        (s("queue_wall_secs"), serde::Value::Float(round3(queue_secs))),
        (s("heap_wall_secs"), serde::Value::Float(round3(heap_secs))),
        (s("queue_speedup"), serde::Value::Float(round3(speedup))),
        (s("pop_sequences_identical"), serde::Value::Bool(true)),
    ]);
    dilu_core::table::write_json_at(&out, &value);
    println!("[json: {}]", out.display());
}

fn s(text: &str) -> serde::Value {
    serde::Value::Str(text.to_owned())
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}
