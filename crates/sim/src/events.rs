//! A stable-ordered future event list: one ordered map keyed by
//! `(instant, push sequence)`.
//!
//! The push sequence is a queue-global counter that never repeats, so the
//! key is unique and same-instant events pop in push order. The key doubles
//! as the cancellation handle ([`EventToken`]): cancelling is one map
//! removal that drops the payload at once and leaves nothing behind, so the
//! queue holds exactly its pending events, whatever the mix of near and far
//! instants, pops and cancels.

use std::collections::BTreeMap;

use crate::SimTime;

/// Handle to a cancellable event in an [`EventQueue`].
///
/// Obtained from [`EventQueue::push_cancellable`]; spend it on
/// [`EventQueue::cancel`] to withdraw the event before it fires. A token is
/// the event's `(instant, push sequence)` key: the sequence is never reused,
/// so a spent token can never cancel a later event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventToken {
    at: SimTime,
    seq: u64,
}

impl EventToken {
    /// The instant the event is scheduled for.
    pub fn at(self) -> SimTime {
        self.at
    }
}

/// A min-ordered queue of `(SimTime, T)` events.
///
/// Events scheduled for the same instant pop in insertion order, which keeps
/// simulations deterministic. Events pushed via
/// [`push_cancellable`](Self::push_cancellable) can be withdrawn again with
/// their [`EventToken`], which is what deadline-heavy simulations need (most
/// batch-formation deadlines are cancelled by an earlier full-batch dispatch
/// and never fire). Every operation is O(log n) in the pending events.
///
/// # Examples
///
/// ```
/// use dilu_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_millis(3), 'b');
/// q.push(SimTime::from_millis(3), 'c');
/// q.push(SimTime::from_millis(1), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['a', 'b', 'c']);
/// ```
///
/// Cancellation:
///
/// ```
/// use dilu_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// let deadline = q.push_cancellable(SimTime::from_millis(10), "timeout");
/// q.push(SimTime::from_millis(20), "tick");
/// assert_eq!(deadline.at(), SimTime::from_millis(10));
/// assert!(q.cancel(deadline));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(20), "tick")));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    events: BTreeMap<(SimTime, u64), T>,
    next_seq: u64,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue { events: BTreeMap::new(), next_seq: 0 }
    }

    /// Schedules `event` to fire at `at`.
    pub fn push(&mut self, at: SimTime, event: T) {
        self.push_cancellable(at, event);
    }

    /// Schedules `event` to fire at `at` and returns a token that can
    /// [`cancel`](Self::cancel) it before then.
    pub fn push_cancellable(&mut self, at: SimTime, event: T) -> EventToken {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.insert((at, seq), event);
        EventToken { at, seq }
    }

    /// Cancels a pending event, dropping its payload. Returns `true` if the
    /// event was still pending (it will never fire), `false` if it already
    /// fired or was already cancelled.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        self.events.remove(&(token.at, token.seq)).is_some()
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.pop_with_seq().map(|(at, _, event)| (at, event))
    }

    /// [`pop`](Self::pop) that also reports the event's push sequence
    /// number — the queue-global, monotonically increasing push counter
    /// that breaks same-instant ties. Record/replay logs carry it so two
    /// runs can be diffed event-for-event, not just instant-for-instant.
    pub fn pop_with_seq(&mut self) -> Option<(SimTime, u64, T)> {
        self.events.pop_first().map(|((at, seq), event)| (at, seq, event))
    }

    /// The earliest pending event without removing it, if any.
    pub fn peek(&self) -> Option<(SimTime, &T)> {
        self.events.first_key_value().map(|(&(at, _), event)| (at, event))
    }

    /// The instant of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.events.first_key_value().map(|(&(at, _), _)| at)
    }

    /// Removes and returns the earliest event only if it fires at or before
    /// `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, T)> {
        self.pop_due_with_seq(now).map(|(at, _, event)| (at, event))
    }

    /// [`pop_due`](Self::pop_due) that also reports the event's push
    /// sequence number (see [`pop_with_seq`](Self::pop_with_seq)).
    pub fn pop_due_with_seq(&mut self, now: SimTime) -> Option<(SimTime, u64, T)> {
        let first = self.events.first_entry()?;
        if first.key().0 > now {
            return None;
        }
        let ((at, seq), event) = first.remove_entry();
        Some((at, seq, event))
    }

    /// The number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drops every pending event. The push sequence carries on, so tokens
    /// from before the clear cancel nothing pushed after it.
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> Extend<(SimTime, T)> for EventQueue<T> {
    fn extend<I: IntoIterator<Item = (SimTime, T)>>(&mut self, iter: I) {
        for (at, event) in iter {
            self.push(at, event);
        }
    }
}

impl<T> FromIterator<(SimTime, T)> for EventQueue<T> {
    fn from_iter<I: IntoIterator<Item = (SimTime, T)>>(iter: I) -> Self {
        let mut q = EventQueue::new();
        q.extend(iter);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), 3);
        q.push(SimTime::from_millis(10), 1);
        q.push(SimTime::from_millis(20), 2);
        assert_eq!(q.pop(), Some((SimTime::from_millis(10), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(20), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_millis(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), "later");
        assert_eq!(q.pop_due(SimTime::from_millis(9)), None);
        assert_eq!(q.pop_due(SimTime::from_millis(10)), Some((SimTime::from_millis(10), "later")));
        assert!(q.is_empty());
    }

    #[test]
    fn collects_from_iterator() {
        let q: EventQueue<u8> = (0u8..5).map(|i| (SimTime::from_millis(u64::from(i)), i)).collect();
        assert_eq!(q.len(), 5);
        assert_eq!(q.peek_time(), Some(SimTime::ZERO));
    }

    #[test]
    fn cancelled_events_never_fire() {
        let mut q = EventQueue::new();
        let a = q.push_cancellable(SimTime::from_millis(5), "a");
        q.push(SimTime::from_millis(10), "b");
        assert_eq!(q.len(), 2);
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(10)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(10), "b")));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_is_single_shot_and_rejects_fired_events() {
        let mut q = EventQueue::new();
        let a = q.push_cancellable(SimTime::from_millis(1), "a");
        let b = q.push_cancellable(SimTime::from_millis(2), "b");
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), "a")));
        assert!(!q.cancel(a), "already fired");
        assert!(q.cancel(b));
        assert!(!q.cancel(b), "already cancelled");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_instant_fifo_survives_interleaved_push_and_cancel() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(9);
        q.push(t, 0);
        let c1 = q.push_cancellable(t, 1);
        q.push(t, 2);
        let c3 = q.push_cancellable(t, 3);
        q.push(t, 4);
        assert!(q.cancel(c1));
        q.push(t, 5);
        assert!(q.cancel(c3));
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [0, 2, 4, 5], "survivors keep insertion order");
    }

    #[test]
    fn peek_skips_cancelled_heads() {
        let mut q = EventQueue::new();
        let a = q.push_cancellable(SimTime::from_millis(1), 'a');
        let b = q.push_cancellable(SimTime::from_millis(2), 'b');
        q.push(SimTime::from_millis(3), 'c');
        q.cancel(a);
        q.cancel(b);
        assert_eq!(q.peek(), Some((SimTime::from_millis(3), &'c')));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn clear_invalidates_outstanding_tokens() {
        let mut q = EventQueue::new();
        let a = q.push_cancellable(SimTime::from_millis(1), 'a');
        q.clear();
        assert!(q.is_empty());
        assert!(!q.cancel(a));
        // Same instant after the clear: the new event gets a fresh sequence,
        // so the old token still cancels nothing.
        q.push(SimTime::from_millis(1), 'b');
        assert!(!q.cancel(a));
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), 'b')));
    }

    #[test]
    fn cancel_after_pop_due_is_a_noop() {
        let mut q = EventQueue::new();
        let a = q.push_cancellable(SimTime::from_millis(5), "a");
        q.push(SimTime::from_millis(5), "b");
        assert_eq!(q.pop_due(SimTime::from_millis(5)), Some((SimTime::from_millis(5), "a")));
        // The event already fired: cancelling its token must not disturb
        // anything still pending at the same instant.
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_due(SimTime::from_millis(5)), Some((SimTime::from_millis(5), "b")));
    }

    #[test]
    fn double_cancel_reports_false_and_stays_consistent() {
        let mut q = EventQueue::new();
        let a = q.push_cancellable(SimTime::from_millis(3), 'a');
        q.push(SimTime::from_millis(4), 'b');
        assert!(q.cancel(a));
        for _ in 0..3 {
            assert!(!q.cancel(a), "a token is spent by its first cancel");
        }
        assert_eq!(q.len(), 1, "double-cancel must not discount live events");
        assert_eq!(q.pop(), Some((SimTime::from_millis(4), 'b')));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_and_peek_time_skip_runs_of_cancelled_entries() {
        let mut q = EventQueue::new();
        // A run of cancelled entries at the head, interleaved with the
        // surviving ones, all at mixed instants.
        let dead: Vec<EventToken> =
            (0..10).map(|i| q.push_cancellable(SimTime::from_millis(i), i)).collect();
        q.push(SimTime::from_millis(4), 100);
        q.push(SimTime::from_millis(20), 200);
        for t in dead {
            assert!(q.cancel(t));
        }
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(4)));
        assert_eq!(q.peek(), Some((SimTime::from_millis(4), &100)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_due(SimTime::from_millis(3)), None, "nothing live is due yet");
        assert_eq!(q.pop_due(SimTime::from_millis(4)), Some((SimTime::from_millis(4), 100)));
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(20)));
    }

    #[test]
    fn tokens_are_never_reused_across_pushes() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(8);
        let first = q.push_cancellable(t, "first");
        assert_eq!(q.pop(), Some((t, "first")));
        // Same instant, fresh entry: the spent token must neither equal the
        // new one nor be able to cancel it.
        let second = q.push_cancellable(t, "second");
        assert_ne!(first, second);
        assert!(!q.cancel(first), "a fired token must never cancel a later push");
        assert_eq!(q.len(), 1);
        assert!(q.cancel(second));
        assert!(q.is_empty());
        // And a cancelled (never fired) token stays spent across pushes too.
        let third = q.push_cancellable(t, "third");
        assert!(q.cancel(third));
        let fourth = q.push_cancellable(t, "fourth");
        assert_ne!(third, fourth);
        assert!(!q.cancel(third));
        assert_eq!(q.pop(), Some((t, "fourth")));
    }

    #[test]
    fn same_instant_fifo_holds_for_distant_instants() {
        // Events at one distant instant, pushed around a near event, still
        // pop in push order.
        let mut q = EventQueue::new();
        let far = SimTime::from_secs(10);
        q.push(far, 0);
        q.push(SimTime::from_millis(1), 100);
        q.push(far, 1);
        q.push(far, 2);
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), 100)));
        assert_eq!(q.pop(), Some((far, 0)));
        assert_eq!(q.pop(), Some((far, 1)));
        assert_eq!(q.pop(), Some((far, 2)));
    }

    #[test]
    fn past_time_pushes_pop_before_later_pending_events() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(2), "late");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        // Now schedule something earlier than the head: it must pop first.
        q.push(SimTime::from_millis(10), "early");
        assert_eq!(q.pop(), Some((SimTime::from_millis(10), "early")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "late")));
    }

    #[test]
    fn cancel_drops_the_payload_at_once() {
        use std::cell::Cell;
        use std::rc::Rc;

        struct DropFlag(Rc<Cell<u32>>);
        impl Drop for DropFlag {
            fn drop(&mut self) {
                self.0.set(self.0.get() + 1);
            }
        }

        let drops = Rc::new(Cell::new(0));
        let mut q = EventQueue::new();
        let token = q.push_cancellable(SimTime::from_secs(100), DropFlag(Rc::clone(&drops)));
        assert_eq!(drops.get(), 0);
        assert!(q.cancel(token));
        assert_eq!(drops.get(), 1, "cancel must drop the payload immediately, not at pop");
    }

    #[test]
    fn pop_with_seq_reports_the_push_counter() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(2), 'b');
        q.push(SimTime::from_millis(1), 'a');
        let t = q.push_cancellable(SimTime::from_millis(3), 'c');
        assert!(q.cancel(t));
        assert_eq!(q.pop_with_seq(), Some((SimTime::from_millis(1), 1, 'a')));
        assert_eq!(
            q.pop_due_with_seq(SimTime::from_millis(2)),
            Some((SimTime::from_millis(2), 0, 'b'))
        );
        assert_eq!(q.pop_with_seq(), None);
    }

    /// Reference model: the straightforward sorted list the queue must be
    /// observationally identical to.
    struct RefQueue<T> {
        entries: Vec<(SimTime, u64, Option<T>)>,
        next_seq: u64,
    }

    impl<T> RefQueue<T> {
        fn new() -> Self {
            RefQueue { entries: Vec::new(), next_seq: 0 }
        }

        fn push(&mut self, at: SimTime, event: T) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.entries.push((at, seq, Some(event)));
            seq
        }

        fn cancel(&mut self, seq: u64) -> bool {
            match self.entries.iter_mut().find(|(_, s, e)| *s == seq && e.is_some()) {
                Some((_, _, e)) => {
                    *e = None;
                    true
                }
                None => false,
            }
        }

        fn min_index(&self) -> Option<usize> {
            self.entries
                .iter()
                .enumerate()
                .filter(|(_, (_, _, e))| e.is_some())
                .min_by_key(|(_, (at, seq, _))| (*at, *seq))
                .map(|(i, _)| i)
        }

        fn pop(&mut self) -> Option<(SimTime, T)> {
            let i = self.min_index()?;
            let (at, _, event) = self.entries.remove(i);
            Some((at, event.expect("filtered")))
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.min_index().map(|i| self.entries[i].0)
        }

        fn len(&self) -> usize {
            self.entries.iter().filter(|(_, _, e)| e.is_some()).count()
        }
    }

    /// Splitmix64: a tiny deterministic generator for the property test
    /// (seeded, no ambient randomness).
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn queue_matches_reference_on_random_interleavings() {
        for seed in 0..8u64 {
            let mut rng = seed.wrapping_mul(0x0123_4567_89AB_CDEF) ^ 0xDEAD_BEEF;
            let mut queue: EventQueue<u64> = EventQueue::new();
            let mut reference: RefQueue<u64> = RefQueue::new();
            // Token pairs for cancellable pushes still outstanding.
            let mut tokens: Vec<(EventToken, u64)> = Vec::new();
            let mut payload = 0u64;
            // `now` only advances, mimicking a simulation clock, but
            // pushes may land before it.
            let mut now = SimTime::ZERO;
            for _ in 0..4_000 {
                match splitmix(&mut rng) % 10 {
                    // Push: mixed near/far/past instants.
                    0..=3 => {
                        let at = now + SimDuration::from_micros(splitmix(&mut rng) % 2_000_000);
                        queue.push(at, payload);
                        reference.push(at, payload);
                        payload += 1;
                    }
                    4..=5 => {
                        let at = now + SimDuration::from_micros(splitmix(&mut rng) % 2_000_000);
                        let t = queue.push_cancellable(at, payload);
                        let seq = reference.push(at, payload);
                        tokens.push((t, seq));
                        payload += 1;
                    }
                    6 => {
                        if !tokens.is_empty() {
                            let i = (splitmix(&mut rng) as usize) % tokens.len();
                            let (t, seq) = tokens.swap_remove(i);
                            assert_eq!(queue.cancel(t), reference.cancel(seq));
                        }
                    }
                    7..=8 => {
                        let got = queue.pop();
                        let want = reference.pop();
                        assert_eq!(got, want, "pop diverged (seed {seed})");
                        if let Some((at, _)) = got {
                            now = now.max(at);
                        }
                    }
                    _ => {
                        assert_eq!(queue.peek_time(), reference.peek_time());
                        let due = now + SimDuration::from_micros(splitmix(&mut rng) % 400_000);
                        let want = if reference.peek_time().is_some_and(|t| t <= due) {
                            reference.pop()
                        } else {
                            None
                        };
                        assert_eq!(queue.pop_due(due), want, "pop_due diverged (seed {seed})");
                    }
                }
                assert_eq!(queue.len(), reference.len(), "len diverged (seed {seed})");
            }
            // Drain: the full remaining order must match.
            loop {
                let got = queue.pop();
                let want = reference.pop();
                assert_eq!(got, want, "drain diverged (seed {seed})");
                if got.is_none() {
                    break;
                }
            }
        }
    }
}
