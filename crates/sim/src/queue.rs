//! Cancellable future-event queue.
//!
//! A 4-ary min-heap keyed on `(time, sequence)`. The sequence number makes
//! the ordering total: events scheduled at the same instant pop in the order
//! they were scheduled, which keeps runs deterministic. Because the order is
//! total, the pop sequence is a pure function of the push/cancel history —
//! independent of the heap arity and of the sift strategy.
//!
//! Each heap slot carries one packed `u128` key, `(ticks << 64) | seq`, so
//! comparing two entries is a single integer compare and the time and
//! sequence are decoded from the key on the way out. Removing the root uses
//! a *bottom-up* sift: the hole left by the root walks down to a leaf along
//! the minimum child (three compares per 4-ary level, and none against the
//! element being re-placed), then the heap's former last element sifts up
//! from that leaf. The re-placed element came from the bottom of the heap,
//! so it rarely climbs more than a level, and the classic sift-down's fourth
//! compare per level disappears. Compaction's Floyd heapify re-seats each
//! internal node with the same walk, bounded to that node's subtree.
//!
//! [`EventId`]s are the dense monotonically-increasing sequence numbers
//! themselves, so liveness bookkeeping needs no hashing: a single
//! `Vec<u64>`-backed *settled* bitmap records ids that have been delivered
//! or cancelled. Cancellation (needed by RCAD, which preempts packets whose
//! delay timers are still pending) is an O(1) bit set; cancelled entries
//! are tombstoned in place and skipped when they reach the heap top. When
//! tombstones outnumber half the heap, the heap is compacted in one O(n)
//! retain-and-heapify pass (Floyd), so cancel-heavy workloads cannot grow
//! the heap unboundedly (see [`EventQueue::footprint`]).

use crate::time::SimTime;

/// Opaque handle to a scheduled event, usable to cancel it later.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

impl EventId {
    /// The raw id value (for logging).
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

#[derive(Debug)]
struct Slot<E> {
    /// `(ticks << 64) | seq`: ordering the packed integer orders by
    /// `(time, seq)`, a *total* order, so the pop sequence is unique no
    /// matter how the heap arranges equal-time entries.
    key: u128,
    payload: E,
}

impl<E> Slot<E> {
    #[inline]
    fn new(time: SimTime, seq: u64, payload: E) -> Self {
        Slot {
            key: (u128::from(time.ticks()) << 64) | u128::from(seq),
            payload,
        }
    }

    #[inline]
    fn time(&self) -> SimTime {
        SimTime::from_ticks((self.key >> 64) as u64)
    }

    #[inline]
    fn seq(&self) -> u64 {
        self.key as u64
    }
}

/// Ids at or past the bitmap length are implicitly un-settled (pending).
#[derive(Debug, Default)]
struct SettledBits {
    words: Vec<u64>,
}

impl SettledBits {
    #[inline]
    fn get(&self, seq: u64) -> bool {
        self.words
            .get((seq >> 6) as usize)
            .is_some_and(|&w| (w >> (seq & 63)) & 1 == 1)
    }

    #[inline]
    fn set(&mut self, seq: u64) {
        let w = (seq >> 6) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (seq & 63);
    }

    /// Marks every id below `n` settled (used by [`EventQueue::clear`] so
    /// stale handles keep reporting not-pending).
    fn set_all_below(&mut self, n: u64) {
        let full = (n >> 6) as usize;
        if self.words.len() < full + 1 {
            self.words.resize(full + 1, 0);
        }
        for w in &mut self.words[..full] {
            *w = !0;
        }
        let rem = n & 63;
        if rem > 0 {
            self.words[full] |= (1u64 << rem) - 1;
        }
    }
}

/// The future-event set of a discrete-event simulation.
///
/// # Examples
///
/// ```
/// use tempriv_sim::queue::EventQueue;
/// use tempriv_sim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_units(2.0), "later");
/// let first = q.push(SimTime::from_units(1.0), "sooner");
/// assert_eq!(q.pop(), Some((SimTime::from_units(1.0), "sooner")));
/// assert!(!q.cancel(first)); // already delivered
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// 4-ary min-heap ordered by the packed `(time, seq)` key.
    heap: Vec<Slot<E>>,
    /// Bit set once an id is delivered or cancelled; heap entries whose
    /// bit is set are tombstones.
    settled: SettledBits,
    next_seq: u64,
    delivered: u64,
    /// Pending (pushed, neither delivered nor cancelled) events.
    live: usize,
    /// Cancelled entries still physically in the heap.
    tombstones: usize,
    /// Tombstone compaction passes performed over the queue's lifetime.
    compactions: u64,
    peak_live: usize,
}

/// Below this heap size, compaction is never worth the pass.
const COMPACT_FLOOR: usize = 64;

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            settled: SettledBits::default(),
            next_seq: 0,
            delivered: 0,
            live: 0,
            tombstones: 0,
            compactions: 0,
            peak_live: 0,
        }
    }

    /// Schedules `payload` at `time`; returns a handle for cancellation.
    #[inline]
    pub fn push(&mut self, time: SimTime, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live += 1;
        if self.live > self.peak_live {
            self.peak_live = self.live;
        }
        self.heap.push(Slot::new(time, seq, payload));
        self.sift_up(self.heap.len() - 1, 0);
        EventId(seq)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending (and is now guaranteed
    /// never to be delivered), `false` if it had already been delivered or
    /// cancelled. O(1): the entry stays in the heap as a tombstone until it
    /// surfaces or a compaction pass sweeps it.
    #[inline]
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id.0 >= self.next_seq || self.settled.get(id.0) {
            return false;
        }
        self.settled.set(id.0);
        self.live -= 1;
        self.tombstones += 1;
        if self.tombstones > COMPACT_FLOOR && self.tombstones * 2 > self.heap.len() {
            self.compact();
        }
        true
    }

    /// `true` if the event is still scheduled for delivery.
    #[must_use]
    #[inline]
    pub fn is_pending(&self, id: EventId) -> bool {
        id.0 < self.next_seq && !self.settled.get(id.0)
    }

    /// Next pending event time without removing it.
    #[must_use]
    #[inline]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.purge_cancelled_top();
        self.heap.first().map(Slot::time)
    }

    /// Removes and returns the earliest pending event.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_with_id().map(|(t, _, e)| (t, e))
    }

    /// Like [`EventQueue::pop`], but also yields the event's id.
    #[inline]
    pub fn pop_with_id(&mut self) -> Option<(SimTime, EventId, E)> {
        self.purge_cancelled_top();
        let slot = self.remove_top()?;
        let seq = slot.seq();
        self.settled.set(seq);
        self.live -= 1;
        self.delivered += 1;
        Some((slot.time(), EventId(seq), slot.payload))
    }

    #[inline]
    fn purge_cancelled_top(&mut self) {
        while let Some(top) = self.heap.first() {
            if self.settled.get(top.seq()) {
                self.tombstones -= 1;
                self.remove_top();
            } else {
                break;
            }
        }
    }

    /// Removes the heap root: its hole walks to a leaf, the former last
    /// element takes the leaf and sifts up.
    fn remove_top(&mut self) -> Option<Slot<E>> {
        let last = self.heap.pop()?;
        if self.heap.is_empty() {
            return Some(last);
        }
        let leaf = self.sink_to_leaf(0);
        let top = std::mem::replace(&mut self.heap[leaf], last);
        self.sift_up(leaf, 0);
        Some(top)
    }

    /// Sweeps every tombstone out of the heap in one O(n) pass (Floyd
    /// heapify with the same bottom-up sift as [`EventQueue::pop`]),
    /// bounding the footprint of cancel-heavy workloads.
    fn compact(&mut self) {
        let settled = &self.settled;
        self.heap.retain(|slot| !settled.get(slot.seq()));
        self.tombstones = 0;
        self.compactions += 1;
        for i in (0..self.heap.len() / 4 + 1).rev() {
            let leaf = self.sink_to_leaf(i);
            self.sift_up(leaf, i);
        }
    }

    /// Moves the entry at `i` to a leaf of its subtree, swapping it with
    /// the minimum child at each level (no compare against the entry
    /// itself), and returns the leaf. The caller re-seats an entry there
    /// with [`EventQueue::sift_up`].
    #[inline]
    fn sink_to_leaf(&mut self, mut i: usize) -> usize {
        let len = self.heap.len();
        loop {
            let first = 4 * i + 1;
            let min = if first + 3 < len {
                // Full level: a branch-free tournament over four keys.
                let kids = &self.heap[first..first + 4];
                let a = usize::from(kids[1].key < kids[0].key);
                let b = 2 + usize::from(kids[3].key < kids[2].key);
                first + if kids[b].key < kids[a].key { b } else { a }
            } else if first < len {
                // The last, partial level: its children are leaves.
                (first + 1..len).fold(first, |m, c| {
                    if self.heap[c].key < self.heap[m].key {
                        c
                    } else {
                        m
                    }
                })
            } else {
                return i;
            };
            self.heap.swap(i, min);
            i = min;
        }
    }

    /// Sifts the entry at `i` up, but no higher than index `top`.
    #[inline]
    fn sift_up(&mut self, mut i: usize, top: usize) {
        while i > top {
            let parent = (i - 1) / 4;
            if self.heap[i].key < self.heap[parent].key {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    /// Number of events still pending (excluding cancelled ones).
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total number of events delivered so far.
    #[must_use]
    pub const fn delivered(&self) -> u64 {
        self.delivered
    }

    /// High-water mark of pending events over the queue's lifetime.
    #[must_use]
    pub const fn peak_len(&self) -> usize {
        self.peak_live
    }

    /// Number of entries physically held by the heap, including
    /// not-yet-collected cancellation tombstones. Compaction keeps this
    /// below `2 × len() + 1` (plus a constant floor); tests and benchmarks
    /// assert on it to pin the tombstone-leak fix.
    #[must_use]
    pub fn footprint(&self) -> usize {
        self.heap.len()
    }

    /// Tombstone compaction passes performed so far — how often the
    /// cancel-heavy path had to sweep the heap. Deterministic: a pure
    /// function of the push/cancel history.
    #[must_use]
    pub const fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.settled.set_all_below(self.next_seq);
        self.live = 0;
        self.tombstones = 0;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(u: f64) -> SimTime {
        SimTime::from_units(u)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(3.0), 3);
        q.push(t(1.0), 1);
        q.push(t(2.0), 2);
        assert_eq!(q.pop(), Some((t(1.0), 1)));
        assert_eq!(q.pop(), Some((t(2.0), 2)));
        assert_eq!(q.pop(), Some((t(3.0), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(t(1.0), "a");
        q.push(t(1.0), "b");
        q.push(t(1.0), "c");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn event_at_max_time_pops_last() {
        // The packed key puts the time in the high 64 bits: an instant of
        // `SimTime::MAX` must still order after everything, with ties at
        // that instant broken by insertion order.
        let mut q = EventQueue::new();
        q.push(SimTime::MAX, "max-a");
        q.push(SimTime::from_ticks(u64::MAX - 1), "max-1");
        q.push(SimTime::ZERO, "zero");
        q.push(SimTime::MAX, "max-b");
        q.push(t(5.0), "five");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (SimTime::ZERO, "zero"),
                (t(5.0), "five"),
                (SimTime::from_ticks(u64::MAX - 1), "max-1"),
                (SimTime::MAX, "max-a"),
                (SimTime::MAX, "max-b"),
            ]
        );
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut q = EventQueue::new();
        let a = q.push(t(1.0), "a");
        q.push(t(2.0), "b");
        assert!(q.cancel(a));
        assert_eq!(q.pop(), Some((t(2.0), "b")));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_twice_returns_false() {
        let mut q = EventQueue::new();
        let a = q.push(t(1.0), ());
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
    }

    #[test]
    fn cancel_after_delivery_returns_false() {
        let mut q = EventQueue::new();
        let a = q.push(t(1.0), ());
        q.pop();
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let a = q.push(t(1.0), ());
        q.push(t(2.0), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn is_pending_tracks_lifecycle() {
        let mut q = EventQueue::new();
        let a = q.push(t(1.0), ());
        assert!(q.is_pending(a));
        q.cancel(a);
        assert!(!q.is_pending(a));
        let b = q.push(t(2.0), ());
        q.pop();
        assert!(!q.is_pending(b));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.push(t(1.0), ());
        q.push(t(5.0), ());
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(5.0)));
    }

    #[test]
    fn delivered_counter_increments() {
        let mut q = EventQueue::new();
        q.push(t(1.0), ());
        q.push(t(2.0), ());
        q.pop();
        q.pop();
        assert_eq!(q.delivered(), 2);
    }

    #[test]
    fn pop_with_id_matches_push_id() {
        let mut q = EventQueue::new();
        let id = q.push(t(1.0), "x");
        let (time, got, payload) = q.pop_with_id().unwrap();
        assert_eq!((time, got, payload), (t(1.0), id, "x"));
    }

    #[test]
    fn clear_empties_everything() {
        let mut q = EventQueue::new();
        q.push(t(1.0), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn clear_settles_outstanding_handles() {
        let mut q = EventQueue::new();
        let a = q.push(t(1.0), ());
        let b = q.push(t(2.0), ());
        q.clear();
        assert!(!q.is_pending(a));
        assert!(!q.cancel(b), "cancelling a cleared event is a no-op");
        // The queue is still usable afterwards, with fresh ids.
        let c = q.push(t(3.0), ());
        assert!(q.is_pending(c));
        assert_eq!(q.pop(), Some((t(3.0), ())));
    }

    #[test]
    fn peak_len_tracks_high_water() {
        let mut q = EventQueue::new();
        q.push(t(1.0), ());
        let b = q.push(t(2.0), ());
        assert_eq!(q.peak_len(), 2);
        q.cancel(b);
        q.pop();
        assert_eq!(q.len(), 0);
        assert_eq!(q.peak_len(), 2);
        q.push(t(3.0), ());
        assert_eq!(q.peak_len(), 2, "peak only moves on a new high");
    }

    #[test]
    fn stress_interleaved_push_pop_cancel() {
        let mut q = EventQueue::new();
        let mut ids = Vec::new();
        for i in 0..1000u64 {
            ids.push(q.push(t((i % 97) as f64), i));
        }
        let mut cancelled = 0;
        for id in ids.iter().step_by(3) {
            assert!(q.cancel(*id));
            cancelled += 1;
        }
        let mut last = SimTime::ZERO;
        let mut n = 0;
        while let Some((time, _)) = q.pop() {
            assert!(time >= last);
            last = time;
            n += 1;
        }
        assert_eq!(n, 1000 - cancelled);
    }

    #[test]
    fn cancel_heavy_workload_keeps_footprint_bounded() {
        // Regression test for the tombstone leak: cancelled entries that
        // never surfaced used to be retained forever. Schedule 100k
        // far-future events, cancel them all while a small working set
        // churns, and assert the physical heap stays bounded by the live
        // count rather than the cancellation count.
        let mut q = EventQueue::new();
        let keep = q.push(t(1e9), 0u64);
        let mut doomed = Vec::with_capacity(100_000);
        for i in 0..100_000u64 {
            doomed.push(q.push(t(2e9 + i as f64), i));
        }
        for id in doomed {
            assert!(q.cancel(id));
        }
        assert_eq!(q.len(), 1);
        assert!(
            q.footprint() <= 2 * q.len() + COMPACT_FLOOR + 1,
            "footprint {} not bounded after 100k cancellations",
            q.footprint()
        );
        // The survivor is still deliverable and ordering still holds.
        let mut later = Vec::new();
        for i in 0..10u64 {
            later.push(q.push(t(10.0 + i as f64), 100 + i));
        }
        let (_, id, first) = q.pop_with_id().unwrap();
        assert_eq!((id, first), (later[0], 100));
        assert!(q.is_pending(keep));
    }

    #[test]
    fn compaction_counter_tracks_sweeps() {
        let mut q = EventQueue::new();
        assert_eq!(q.compactions(), 0);
        let ids: Vec<_> = (0..1000u64).map(|i| q.push(t(1e6 + i as f64), i)).collect();
        for id in ids {
            q.cancel(id);
        }
        assert!(q.compactions() > 0, "mass cancellation must compact");
        // Delivering events never compacts.
        let before = q.compactions();
        q.push(t(1.0), 0);
        q.pop();
        assert_eq!(q.compactions(), before);
    }

    #[test]
    fn compaction_preserves_pop_order() {
        // Interleave pushes and mass cancellations so several compaction
        // passes fire, then check the survivors pop in exact (time, seq)
        // order against a sorted reference.
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        let mut ids = Vec::new();
        for round in 0..10u64 {
            for i in 0..200u64 {
                let time = t(((i * 31 + round * 17) % 101) as f64);
                let id = q.push(time, (round, i));
                ids.push((id, time, (round, i)));
            }
            // Cancel every other event pushed so far that is still live.
            for (j, (id, ..)) in ids.iter().enumerate() {
                if j % 2 == round as usize % 2 {
                    q.cancel(*id);
                }
            }
        }
        for (id, time, payload) in &ids {
            if q.is_pending(*id) {
                expect.push((*time, id.as_u64(), *payload));
            }
        }
        expect.sort_by_key(|&(time, seq, _)| (time, seq));
        let mut got = Vec::new();
        while let Some((time, id, payload)) = q.pop_with_id() {
            got.push((time, id.as_u64(), payload));
        }
        assert_eq!(got, expect);
    }
}
