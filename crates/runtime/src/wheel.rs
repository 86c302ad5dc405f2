//! The network thread's one time queue, keyed by tick.
//!
//! Message deliveries, the nodes' timers and chaos control
//! events all come due on one grid of ticks of `granularity`
//! nanoseconds, so one queue holds them and answers "what is next?" with
//! one number ([`next_deadline`](TimerWheel::next_deadline)). A deadline
//! rounds *up* to its tick, so nothing fires early.
//!
//! * **One slab, a FIFO list per tick.** Entries live in one slab,
//!   threaded into per-tick lists (a `next` index per entry, `(head,
//!   tail)` per tick, a free list); a ring holds the lists from the
//!   earliest to the latest occupied tick. Insert and pop are `O(1)`, and
//!   due entries come out in strict `(tick, insertion)` order. The slab
//!   is as long as the most entries ever pending at once and grows in
//!   chunks of [`CHUNK_BYTES`], never moving an entry: a slab that
//!   doubled one contiguous block was seen to cost a saturated relay
//!   several megabytes of extra peak RSS.
//! * **A bounded ring.** The ring reaches less than [`SPAN`] ticks past
//!   the last swept tick. A later entry waits in a heap keyed `(tick,
//!   insertion)` and joins the ring, in that order, in the sweep that
//!   brings it within `SPAN`, before anything inserted afterwards can
//!   join its tick. A deadline below the last swept tick is clamped to
//!   it: due at once, never lost. So no deadline, however far off,
//!   stretches the ring beyond `SPAN` ticks plus however late a sweep is.
//! * **Cancellation.** A [`WheelKey`] is a slab index stamped with the
//!   low 32 bits of the entry's insertion number;
//!   [`cancel`](TimerWheel::cancel) takes the payload in `O(1)` and leaves
//!   a tombstone, freed when it reaches the front, whose slab entry is
//!   then reused under a new stamp. Tombstones at the front are freed
//!   before a deadline is reported, so the reported tick holds a live
//!   entry.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::{Index, IndexMut};

/// How many ticks past the last swept tick the ring may reach.
pub const SPAN: u64 = 1 << 14;

/// Bytes per slab chunk.
pub const CHUNK_BYTES: usize = 1 << 20;

/// End-of-list mark in the slab's indices.
const NIL: u32 = u32::MAX;

/// Handle to a pending entry, for [`TimerWheel::cancel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WheelKey {
    index: u32,
    stamp: u32,
}

/// A slab entry: pending (`payload` is `Some`), a tombstone still listed
/// in a tick or the far heap, or free. `next` is the entry behind it in
/// its tick, or the next free entry.
#[derive(Clone, Debug)]
struct Slot<T> {
    next: u32,
    stamp: u32,
    payload: Option<T>,
}

/// The slab, in chunks of [`CHUNK_BYTES`].
#[derive(Clone, Debug)]
struct Slab<T>(Vec<Vec<Slot<T>>>);

impl<T> Slab<T> {
    /// Entries per chunk: the largest power of two that fits in
    /// [`CHUNK_BYTES`], so that an index splits with a shift and a mask.
    const CHUNK: usize = {
        let fit = CHUNK_BYTES / std::mem::size_of::<Slot<T>>();
        1 << (usize::BITS - 1 - (fit | 1).leading_zeros())
    };

    /// Appends `slot` and returns its index.
    fn push(&mut self, slot: Slot<T>) -> u32 {
        if self.0.last().is_none_or(|last| last.len() == Self::CHUNK) {
            self.0.push(Vec::with_capacity(Self::CHUNK));
        }
        let index = (self.0.len() - 1) * Self::CHUNK + self.0[self.0.len() - 1].len();
        self.0.last_mut().expect("a chunk with room").push(slot);
        let index = u32::try_from(index).expect("the slab is indexed by u32");
        assert!(index != NIL, "2^32 entries pending");
        index
    }
}

impl<T> Index<u32> for Slab<T> {
    type Output = Slot<T>;

    fn index(&self, index: u32) -> &Slot<T> {
        &self.0[index as usize / Self::CHUNK][index as usize % Self::CHUNK]
    }
}

impl<T> IndexMut<u32> for Slab<T> {
    fn index_mut(&mut self, index: u32) -> &mut Slot<T> {
        &mut self.0[index as usize / Self::CHUNK][index as usize % Self::CHUNK]
    }
}

/// One tick's FIFO list of slab entries: `(head, tail)`, both [`NIL`]
/// when the tick is empty.
#[derive(Clone, Copy, Debug)]
struct TickList {
    head: u32,
    tail: u32,
}

const EMPTY: TickList = TickList {
    head: NIL,
    tail: NIL,
};

/// A tick-keyed queue mapping `u64` nanosecond deadlines to payloads
/// (see the [module docs](self)).
#[derive(Clone, Debug)]
pub struct TimerWheel<T> {
    slots: Slab<T>,
    /// Head of the free list threaded through `slots`.
    free: u32,
    /// The ticks from `first` to the last occupied one in the ring.
    ticks: VecDeque<TickList>,
    /// The tick of `ticks[0]`.
    first: u64,
    /// Entries due [`SPAN`] or more ticks past `swept`, as
    /// `(tick, seq, index)`.
    far: BinaryHeap<Reverse<(u64, u64, u32)>>,
    granularity: u64,
    /// The latest tick a sweep has reached.
    swept: u64,
    next_seq: u64,
    /// Pending entries (tombstones excluded).
    len: usize,
}

impl<T> TimerWheel<T> {
    /// Creates a queue on a grid of `granularity` nanoseconds, with room
    /// in its ring for `slots` ticks before it first grows.
    ///
    /// # Panics
    ///
    /// Panics if `granularity == 0`.
    #[must_use]
    pub fn new(granularity: u64, slots: usize) -> Self {
        assert!(granularity > 0, "granularity must be positive");
        TimerWheel {
            slots: Slab(Vec::new()),
            free: NIL,
            ticks: VecDeque::with_capacity(slots),
            first: 0,
            far: BinaryHeap::new(),
            granularity,
            swept: 0,
            next_seq: 0,
            len: 0,
        }
    }

    /// Number of pending (uncancelled, unfired) entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The queue's tick granularity in nanoseconds.
    #[must_use]
    pub fn granularity(&self) -> u64 {
        self.granularity
    }

    /// Schedules `payload` for `deadline_ns` (nanoseconds on the caller's
    /// clock). Returns a key for [`cancel`](Self::cancel).
    ///
    /// A deadline below the last swept tick is clamped to that tick, so
    /// it fires on the next sweep: the queue never loses an entry to the
    /// past.
    pub fn insert(&mut self, deadline_ns: u64, payload: T) -> WheelKey {
        // Round *up*: an entry must never fire before its deadline.
        let tick = deadline_ns.div_ceil(self.granularity).max(self.swept);
        let seq = self.next_seq;
        self.next_seq += 1;
        #[allow(clippy::cast_possible_truncation)]
        let stamp = seq as u32;
        let slot = Slot {
            next: NIL,
            stamp,
            payload: Some(payload),
        };
        let index = if self.free == NIL {
            self.slots.push(slot)
        } else {
            let index = self.free;
            self.free = std::mem::replace(&mut self.slots[index], slot).next;
            index
        };
        if tick - self.swept >= SPAN {
            self.far.push(Reverse((tick, seq, index)));
        } else {
            self.link(tick, index);
        }
        self.len += 1;
        WheelKey { index, stamp }
    }

    /// Appends slab entry `index` to `tick`'s list in the ring.
    fn link(&mut self, tick: u64, index: u32) {
        if self.ticks.is_empty() {
            self.first = tick;
        }
        for _ in tick..self.first {
            self.ticks.push_front(EMPTY);
        }
        self.first = self.first.min(tick);
        let offset = usize::try_from(tick - self.first).expect("the ring spans at most SPAN ticks");
        if offset >= self.ticks.len() {
            self.ticks.resize(offset + 1, EMPTY);
        }
        let list = &mut self.ticks[offset];
        if list.head == NIL {
            list.head = index;
        } else {
            self.slots[list.tail].next = index;
        }
        list.tail = index;
    }

    /// Puts slab entry `index`, unlisted and empty, on the free list.
    fn release(&mut self, index: u32) {
        self.slots[index].next = self.free;
        self.free = index;
    }

    /// Cancels a pending entry. Returns the payload if it was still
    /// pending, `None` if it already fired (or was already cancelled).
    /// The network thread never cancels: a node skips a cancelled timer
    /// when it comes due. Only the repo benchmark's `runtime.wheel.*`
    /// rows and this module's proptest call it.
    pub fn cancel(&mut self, key: WheelKey) -> Option<T> {
        let slot = &mut self.slots[key.index];
        if slot.stamp != key.stamp {
            return None;
        }
        let payload = slot.payload.take()?;
        self.len -= 1;
        Some(payload)
    }

    /// Frees the tombstones at the front, so that the front tick — or,
    /// with the ring empty, the far heap's top — holds a pending entry.
    fn settle(&mut self) {
        while let Some(list) = self.ticks.front_mut() {
            let index = list.head;
            if index == NIL {
                self.ticks.pop_front();
                self.first += 1;
                continue;
            }
            let slot = &mut self.slots[index];
            if slot.payload.is_some() {
                return;
            }
            list.head = slot.next;
            self.release(index);
        }
        while let Some(&Reverse((_, _, index))) = self.far.peek() {
            if self.slots[index].payload.is_some() {
                return;
            }
            self.far.pop();
            self.release(index);
        }
    }

    /// The earliest pending deadline, in nanoseconds (tick-quantized, so
    /// it is at or after the true deadline by less than one tick).
    pub fn next_deadline(&mut self) -> Option<u64> {
        self.settle();
        let tick = if self.ticks.is_empty() {
            self.far.peek()?.0 .0
        } else {
            self.first
        };
        Some(tick.saturating_mul(self.granularity))
    }

    /// Removes and returns the earliest entry due at or before `now_ns`,
    /// with its tick-quantized deadline: `(tick, insertion)` order, one
    /// entry per call, allocating nothing.
    pub fn pop_due(&mut self, now_ns: u64) -> Option<(u64, T)> {
        // Divide only when the sweep reaches a new tick.
        if now_ns
            >= self
                .swept
                .saturating_add(1)
                .saturating_mul(self.granularity)
        {
            self.swept = now_ns / self.granularity;
            // What the span now reaches joins the ring, in (tick, seq)
            // order, ahead of anything inserted from here on.
            while let Some(&Reverse((tick, _, index))) = self.far.peek() {
                if tick >= self.swept + SPAN {
                    break;
                }
                self.far.pop();
                self.link(tick, index);
            }
        }
        self.settle();
        if self.ticks.is_empty() {
            return None;
        }
        let due_ns = self.first.saturating_mul(self.granularity);
        if due_ns > now_ns {
            return None;
        }
        let list = &mut self.ticks[0];
        let index = list.head;
        let slot = &mut self.slots[index];
        let payload = slot.payload.take().expect("a settled front is pending");
        list.head = slot.next;
        self.release(index);
        self.len -= 1;
        Some((due_ns, payload))
    }

    /// Removes and returns every entry due at or before `now_ns`, in
    /// [`pop_due`](Self::pop_due) order.
    pub fn advance(&mut self, now_ns: u64) -> Vec<(u64, T)> {
        std::iter::from_fn(|| self.pop_due(now_ns)).collect()
    }

    /// Ticks the ring spans, ticks it has room for, and the slab's
    /// length (the most entries ever pending at once).
    #[cfg(test)]
    pub(crate) fn footprint(&self) -> (usize, usize, usize) {
        let slab = self.slots.0.iter().map(Vec::len).sum();
        (self.ticks.len(), self.ticks.capacity(), slab)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_deadline_order_with_fifo_ties() {
        let mut w = TimerWheel::new(100, 8);
        let _a = w.insert(250, "a"); // tick 3
        let _b = w.insert(300, "b"); // tick 3 (exact boundary)
        let _c = w.insert(150, "c"); // tick 2
        assert_eq!(w.len(), 3);
        assert_eq!(w.next_deadline(), Some(200));
        let fired = w.advance(300);
        let order: Vec<&str> = fired.iter().map(|(_, p)| *p).collect();
        assert_eq!(order, ["c", "a", "b"]);
        assert!(w.is_empty());
    }

    #[test]
    fn never_fires_early() {
        let mut w = TimerWheel::new(100, 8);
        w.insert(201, "x"); // tick 3: rounding up, never early
        assert!(w.advance(299).is_empty());
        assert_eq!(w.advance(300).len(), 1);
    }

    #[test]
    fn cancel_removes_and_is_idempotent() {
        let mut w = TimerWheel::new(10, 4);
        let k = w.insert(25, 7u32);
        assert_eq!(w.cancel(k), Some(7));
        assert_eq!(w.cancel(k), None);
        assert!(w.advance(1_000).is_empty());
        assert_eq!(w.next_deadline(), None);
    }

    #[test]
    fn entries_beyond_one_rotation_wait_their_round() {
        let mut w = TimerWheel::new(10, 4);
        // Tick 9 waits behind tick 1.
        w.insert(90, "far");
        w.insert(10, "near");
        let fired = w.advance(15);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].1, "near");
        assert_eq!(w.next_deadline(), Some(90));
        let fired = w.advance(95);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].1, "far");
    }

    /// Regression: an insert right after an `advance` fired the previous
    /// minimum must not raise `next_deadline` above a surviving smaller
    /// entry. This exact sequence once made the thread owning the wheel
    /// sleep ~200 ms past a herd of accept deadlines.
    #[test]
    fn insert_after_min_fire_keeps_surviving_minimum() {
        let mut w = TimerWheel::new(10, 8);
        w.insert(200, "fires");
        w.insert(500, "survivor");
        let fired = w.advance(250);
        assert_eq!(fired.len(), 1);
        // This insert is *larger* than the survivor and must not become
        // the reported minimum.
        w.insert(900, "later");
        assert_eq!(w.next_deadline(), Some(500));
    }

    #[test]
    fn stale_deadlines_fire_on_next_sweep() {
        let mut w = TimerWheel::new(10, 4);
        w.advance(500);
        w.insert(30, "stale"); // far behind the last sweep
        let fired = w.advance(510);
        assert_eq!(fired.len(), 1);
    }

    #[test]
    fn long_jump_sweeps_each_slot_once() {
        let mut w = TimerWheel::new(10, 4);
        for i in 0..16u64 {
            w.insert(i * 10, i);
        }
        let fired = w.advance(10_000);
        assert_eq!(fired.len(), 16);
        let seqs: Vec<u64> = fired.iter().map(|(_, p)| *p).collect();
        assert_eq!(seqs, (0..16).collect::<Vec<_>>());
    }

    mod proptests {
        use proptest::prelude::*;

        use super::*;

        proptest! {
            /// The queue against a `BinaryHeap<(tick, seq)>` oracle over
            /// random `insert`, `cancel`, `pop_due` and `advance` calls:
            /// stale inserts (clamped to the last swept tick), inserts
            /// around the ring's span, ties, cancels of live, fired and
            /// cancelled keys, and cancels of the front entry, which leave
            /// a tombstone at the front. Both fire the same entries in the
            /// same order, and after every op `next_deadline` is the
            /// oracle's minimum and the ring reaches less than `SPAN` past
            /// the last sweep.
            #[test]
            fn prop_wheel_matches_heap_oracle(
                // One op per value (the vendored proptest stand-in has no
                // tuple strategies): the low 3 bits select, the rest is
                // the argument.
                ops in proptest::collection::vec(0u32..1 << 16, 1..400)
            ) {
                let g = 10u64; // granularity
                let mut wheel = TimerWheel::new(g, 4);
                // The live entries, and the key of every entry issued.
                let mut oracle: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
                let mut keys = Vec::new();
                let mut now = 0u64;
                for op in ops {
                    let arg = u64::from(op >> 3);
                    let seq = keys.len() as u64;
                    let deadline = match op & 7 {
                        // Behind the last sweep, on tick boundaries, ahead.
                        0 | 1 => Some((now + arg % 64 * 5).saturating_sub(100)),
                        // Far in the past.
                        2 => Some(arg % 8),
                        // Around the ring's span.
                        3 => Some(now + g * (SPAN - 4 + arg % 64)),
                        _ => None,
                    };
                    if let Some(deadline) = deadline {
                        keys.push(wheel.insert(deadline, seq));
                        oracle.push(Reverse((deadline.div_ceil(g).max(now / g), seq)));
                    }
                    let cancel = match op & 7 {
                        4 => (!keys.is_empty()).then(|| arg % keys.len() as u64),
                        5 => oracle.peek().map(|&Reverse((_, s))| s),
                        _ => None,
                    };
                    if let Some(s) = cancel {
                        let live = oracle.iter().any(|&Reverse((_, os))| os == s);
                        prop_assert_eq!(wheel.cancel(keys[s as usize]), live.then_some(s));
                        oracle.retain(|&Reverse((_, os))| os != s);
                    }
                    if op & 7 >= 6 {
                        // One pop, or a sweep that now and then reaches
                        // the entries past the span.
                        now += match (op & 7, arg % 8) {
                            (6, _) => arg % 4 * 7,
                            (_, 0) => g * (SPAN + arg),
                            _ => arg % 200,
                        };
                        let mut expect = Vec::new();
                        while let Some(&Reverse((tick, s))) = oracle.peek() {
                            if tick > now / g || (op & 7 == 6 && !expect.is_empty()) {
                                break;
                            }
                            oracle.pop();
                            expect.push((tick * g, s));
                        }
                        if op & 7 == 6 {
                            prop_assert_eq!(wheel.pop_due(now), expect.pop());
                        } else {
                            prop_assert_eq!(wheel.advance(now), expect);
                        }
                    }
                    prop_assert_eq!(wheel.len(), oracle.len());
                    let min = oracle.peek().map(|&Reverse((tick, _))| tick);
                    prop_assert_eq!(wheel.next_deadline(), min.map(|tick| tick * g));
                    let (span, ..) = wheel.footprint();
                    let bound = min.map_or(0, |min| (now / g + SPAN).saturating_sub(min));
                    prop_assert!(span as u64 <= bound, "the ring spans {} ticks", span);
                }
            }
        }
    }
}
