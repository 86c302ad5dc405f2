//! The engine's event plumbing: a future-event list (a bucket window
//! that slides with the pop frontier, plus a heap) and generation-stamped
//! timer slots.
//!
//! Four design rules keep the hot path cheap:
//!
//! * **A queue entry carries its event, and the event is small.** Every
//!   part of the queue holds one [`Entry`]: the packed `(at, seq)`
//!   [`EventKey`] and the [`EventKind`]. A message is not in the entry:
//!   it lives in `Sim::run`'s message arena and the event carries a `u32`
//!   handle on it, so an entry is 32 bytes whatever the message type, and
//!   a pop takes the next entry of the claimed run with no lookup
//!   elsewhere.
//! * **The workload is near-sorted, so the queue is a sliding bucket
//!   window, not a heap.** Every message delay falls in the bounded
//!   window `[d−u, d]` (the paper's model), so nearly every push lands
//!   within one `d` of the pop frontier — the classic regime where a
//!   calendar queue beats a heap. Pushes drop into fixed-width time
//!   buckets on a 128-bucket ring in O(1); popping claims the lowest
//!   occupied bucket, sorts it descending and pops it from the back, and
//!   the ring's window moves past the claimed bucket, so it always covers
//!   the 16 `d` just ahead of the pops. A bucket is not small: a round's
//!   echo burst lands in one, so a claim can hold tens of thousands of
//!   entries, spread at random over a slice of `at` about `u` wide. The
//!   claim sort is therefore a counting scatter on `at` into about one
//!   group per entry, then a sort of each group. What falls outside the
//!   window — a far-future timer, a late push into the bucket being
//!   drained — goes to one small heap ([`EventQueue::spill_count`] and
//!   [`EventQueue::splice_count`] count the two), and a push below the
//!   window slides it down instead. Pop order is *exactly* `(at, seq)` —
//!   the bucket index and the claim's group are monotone functions of
//!   `at`, and every pop compares the run's next entry with the heap top
//!   — which the pinned trace hashes depend on.
//! * **A large buffer is grown once per thread, not once per burst or
//!   per run.** A ring bucket keeps its buffer only until it is claimed.
//!   Whenever the queue lets go of an empty buffer (the spent run's, a
//!   claimed bucket's), it keeps the larger of that buffer and its one
//!   spare and frees the other. A claim scatters into the spare (a claim
//!   of a few entries is sorted in the bucket's buffer, which becomes the
//!   run), and a bucket about to reallocate moves its entries into the
//!   spare instead, if the spare is larger. When a queue drops, its two
//!   largest empty buffers and the claim sort's group counts go to a
//!   thread-local stash, and the next queue built on that thread starts
//!   from them ([`Sim::run`](crate::Sim::run)'s delivery tally stashes
//!   its key buffer the same way). So a loop of runs on one thread grows
//!   its burst-sized buffers in the first run only, and the queue holds
//!   the buffers of the buckets with entries, the run, one spare and the
//!   counts — not the largest burst each of the 128 ring slots ever held.
//! * **Timer state is a generation-stamped slab, not a set.** A
//!   [`TimerId`] packs `(generation, slot)`; cancelling or firing frees
//!   the slot and bumps its generation, so stale ids are recognized by a
//!   mismatched stamp instead of being remembered forever in a `HashSet`
//!   (which used to leak an entry for every cancel-after-fire).

use std::cell::RefCell;
use std::cmp::{self, Reverse};
use std::collections::BinaryHeap;
use std::mem;

use crusader_crypto::NodeId;
use crusader_time::{Dur, Time};

/// Identifier of a pending local-time timer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerId(pub(crate) u64);

impl TimerId {
    /// Creates a timer id from a raw counter value.
    ///
    /// Every executor takes its ids from a [`TimerSlab`] through
    /// [`NodeCtx`](crate::NodeCtx); this is for a stand-alone
    /// [`Context`](crate::Context), such as a benchmark's probe, that
    /// numbers its own. Within one context, ids must be unique.
    #[must_use]
    pub fn new(raw: u64) -> Self {
        TimerId(raw)
    }

    /// The raw counter value.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// What happens when an event fires. A delivery carries a `u32` handle
/// on its message in [`Sim::run`](crate::Sim::run)'s message arena, not
/// the message, so an [`Entry`] is 32 bytes whatever the message type.
#[derive(Clone, Debug)]
pub(crate) enum EventKind {
    /// A message is delivered to `to`.
    Deliver {
        /// Channel-authenticated sender.
        from: NodeId,
        /// Recipient.
        to: NodeId,
        /// Arena handle on the message.
        msg: u32,
    },
    /// An honest node's local-time timer fires.
    Timer { node: NodeId, id: TimerId },
    /// An adversary-scheduled real-time timer fires.
    AdvTimer { key: u64 },
    /// A crashed node comes back up: run its
    /// [`Automaton::on_recover`](crate::Automaton::on_recover) hook.
    /// Scheduled at init time, one per recovery in the chaos timeline,
    /// which places it *before* any timer deferred to the same recovery
    /// instant.
    Recover { node: NodeId },
}

/// A popped event: its kind rejoined with its firing time.
#[derive(Debug)]
pub(crate) struct Event {
    pub at: Time,
    pub kind: EventKind,
}

/// The global total order of the simulation: `(at, seq)` packed into one
/// `u128`, so the entire comparison — ties broken by insertion order,
/// making the whole simulation deterministic — is a single integer
/// compare. [`Sim::run`](crate::Sim::run)'s delivery tally keeps these
/// keys for the deliveries it counts instead of queueing.
///
/// Layout, most significant first: 64 bits of `at` as IEEE-754 bits
/// (simulation times are finite and non-negative, and non-negative
/// doubles order identically to their bit patterns), then [`SEQ_BITS`]
/// bits of `seq` at the top of the low word. That caps a run at 2³⁶ ≈
/// 68 G events (the default `max_events` cap is 50 M, three orders of
/// magnitude below); `take_seq` asserts it rather than silently
/// corrupting order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) struct EventKey(u128);

/// Bits of `seq` in an [`EventKey`].
const SEQ_BITS: u32 = 36;
const SEQ_LIMIT: u64 = 1 << SEQ_BITS;
const SEQ_SHIFT: u32 = 64 - SEQ_BITS;

impl EventKey {
    #[inline]
    pub fn new(at: Time, seq: u64) -> Self {
        debug_assert!(seq < SEQ_LIMIT, "seq out of range");
        // `+ 0.0` turns −0.0, whose bits order above every positive time,
        // into +0.0.
        let secs = at.as_secs() + 0.0;
        debug_assert!(secs >= 0.0, "events cannot be scheduled before t=0");
        EventKey((u128::from(secs.to_bits()) << 64) | (u128::from(seq) << SEQ_SHIFT))
    }

    #[inline]
    pub fn at(self) -> Time {
        Time::from_secs(f64::from_bits(self.at_bits()))
    }

    /// The high 64 bits: `at`'s IEEE-754 bits, which order like `at`.
    #[inline]
    #[allow(clippy::cast_possible_truncation)]
    fn at_bits(self) -> u64 {
        (self.0 >> 64) as u64
    }
}

/// One queued event: its key and what it does. The run, every ring
/// bucket and the heap all hold these.
#[derive(Debug)]
struct Entry {
    key: EventKey,
    kind: EventKind,
}

/// A heap element: an [`Entry`] ordered by its key alone, reversed, so
/// the max-heap [`BinaryHeap`] pops the earliest key first.
#[derive(Debug)]
struct Earliest(Entry);

impl PartialEq for Earliest {
    fn eq(&self, other: &Self) -> bool {
        self.0.key == other.0.key
    }
}

impl Eq for Earliest {}

impl PartialOrd for Earliest {
    fn partial_cmp(&self, other: &Self) -> Option<cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Earliest {
    fn cmp(&self, other: &Self) -> cmp::Ordering {
        other.0.key.cmp(&self.0.key)
    }
}

/// Claims of at most this many entries are sorted in place by key; larger
/// ones are grouped on `at` first ([`sort_claim`]).
const PLAIN_SORT_MAX: usize = 32;

/// Moves the entries of `from` into the empty `into`, sorted descending
/// by key, and leaves `from` empty; `counts` is scratch space.
///
/// A claim of `n > PLAIN_SORT_MAX` entries is split into
/// `n.next_power_of_two()` groups spanning its own `[min, max]` of `at`'s
/// bits: an entry's group is `(at_bits − min) >> shift`, with the
/// smallest `shift` that keeps every group below the count. One counting
/// pass sizes the groups, the entries are scattered into `into` highest
/// group first, and each group of two or more is then sorted on the full
/// key. The group is monotone in `at`, so the result is exactly the
/// descending key order, and with about one entry per group the scatter
/// does nearly all the work: a bucket's entries cover only the `u`-wide
/// slice of `at` a round's burst lands in, at random.
fn sort_claim(from: &mut Vec<Entry>, into: &mut Vec<Entry>, counts: &mut Vec<u32>) {
    debug_assert!(into.is_empty(), "sorting into a non-empty run");
    let n = from.len();
    if n <= PLAIN_SORT_MAX {
        from.sort_unstable_by_key(|e| Reverse(e.key));
        mem::swap(from, into);
        return;
    }
    assert!(
        u32::try_from(n).is_ok(),
        "a claim of {n} entries overflows the group counts"
    );
    let (mut min, mut max) = (u64::MAX, 0);
    for e in from.iter() {
        let bits = e.key.at_bits();
        min = min.min(bits);
        max = max.max(bits);
    }
    let groups = n.next_power_of_two();
    let span_bits = u64::BITS - (max - min).leading_zeros();
    let shift = span_bits.saturating_sub(groups.trailing_zeros());
    #[allow(clippy::cast_possible_truncation)]
    let group = |e: &Entry| ((e.key.at_bits() - min) >> shift) as usize;
    counts.clear();
    counts.resize(groups, 0);
    for e in from.iter() {
        counts[group(e)] += 1;
    }
    // Each group's first position in the descending run.
    let mut next = 0;
    for count in counts.iter_mut().rev() {
        next += mem::replace(count, next);
    }
    into.reserve_exact(n);
    into.resize_with(n, || Entry {
        key: EventKey(0),
        kind: EventKind::AdvTimer { key: 0 },
    });
    for e in from.drain(..) {
        let cursor = &mut counts[group(&e)];
        into[*cursor as usize] = e;
        *cursor += 1;
    }
    // Each cursor now ends its group, where the next lower group starts.
    let mut start = 0;
    for &end in counts.iter().rev() {
        let end = end as usize;
        if end - start > 1 {
            into[start..end].sort_unstable_by_key(|e| Reverse(e.key));
        }
        start = end;
    }
}

/// The buffers a dropped [`EventQueue`] and a dropped delivery tally
/// leave for the next ones built on the same thread. Only capacity moves
/// through it: every buffer in it is empty.
struct Stash {
    /// The two largest entry buffers offered so far.
    buffers: [Vec<Entry>; 2],
    /// The largest group-count table offered so far.
    counts: Vec<u32>,
    /// The largest tally key buffer offered so far.
    keys: Vec<EventKey>,
}

thread_local! {
    static STASH: RefCell<Stash> = const {
        RefCell::new(Stash {
            buffers: [Vec::new(), Vec::new()],
            counts: Vec::new(),
            keys: Vec::new(),
        })
    };
}

impl Stash {
    /// Takes the empty `buffer` in place of the smaller of the two kept if
    /// it is larger; `buffer` is left with what the stash let go of.
    fn offer(&mut self, buffer: &mut Vec<Entry>) {
        let [a, b] = &mut self.buffers;
        keep_larger(if a.capacity() <= b.capacity() { a } else { b }, buffer);
    }
}

/// Swaps `buffer`, emptied, into `kept` if it is the larger.
fn keep_larger<T>(kept: &mut Vec<T>, buffer: &mut Vec<T>) {
    if buffer.capacity() > kept.capacity() {
        buffer.clear();
        mem::swap(kept, buffer);
    }
}

/// The tally key buffer the thread's last tally left, empty.
pub(crate) fn stashed_keys() -> Vec<EventKey> {
    STASH.with(|stash| mem::take(&mut stash.borrow_mut().keys))
}

/// Leaves `keys`' capacity for the next tally on this thread, if it is
/// larger than what the stash holds.
pub(crate) fn stash_keys(mut keys: Vec<EventKey>) {
    // During thread teardown the stash may be gone; the buffer is freed.
    let _ = STASH.try_with(|stash| keep_larger(&mut stash.borrow_mut().keys, &mut keys));
}

/// Buckets on the ring (a power of two, so the ring slot is a mask).
const RING_BUCKETS: usize = 128;

/// Buckets per delay-horizon hint: the bucket width is
/// `d / BUCKETS_PER_HORIZON`, so the ring's window spans
/// `RING_BUCKETS / BUCKETS_PER_HORIZON = 16` delay horizons past the pop
/// frontier — beyond CPS's timer reach (`T + 3S < 13 d`), which is what
/// keeps [`EventQueue::spill_count`] at zero for the standard scenarios.
const BUCKETS_PER_HORIZON: f64 = 8.0;

/// A deterministic future-event list: a bucket window that slides with
/// the pop frontier, plus a heap for what falls outside it.
///
/// Every part holds [`Entry`] values:
///
/// 1. **The claimed run** (`run`): one bucket, index `lo − 1`, sorted
///    descending, so a pop is a `Vec::pop`.
/// 2. **The ring** (`buckets`): [`RING_BUCKETS`] fixed-width time buckets
///    holding the indices `[lo, lo + RING_BUCKETS)`, unsorted. A push is
///    O(1): compute the bucket from `at`, append. When the run is spent,
///    the lowest occupied bucket is claimed wholesale: [`sort_claim`]
///    scatters its entries by groups of `at` into the `spare` and sorts
///    each group, and `lo` moves past it — every claim slides the
///    window. A claim can hold a whole round's echo
///    burst: at n = 64 the snapshot scenario (511 005 events) makes 31
///    claims holding 265 925 entries, the largest 37 026. A comparison
///    sort of them cost 38 ns per entry, a quarter of the run; the
///    grouped sort moves each entry once, plus the few moves inside
///    groups of two or more.
/// 3. **The heap** (`heap`): everything else — pushes past the window
///    (far-future timers, [`spill_count`](Self::spill_count)) and late
///    pushes into the bucket being drained (same-instant follow-ups,
///    zero-delay sends, [`splice_count`](Self::splice_count)). Every pop
///    compares the run's next entry with the heap top. A pop from the
///    heap while run and ring are both empty raises `lo` to that event's
///    bucket, so the traffic it causes lands on the ring.
///
/// A push below `lo` anywhere else — a crash scenario's traffic after
/// its far `Recover` events — slides the window *down* to it ([`lower`](Self::lower)), so that push and the
/// rest of its burst take O(1) ring appends.
///
/// **Buffers outlive a burst and a run.** The `spare` is the largest
/// empty buffer the queue has let go of: the spent run's and each claimed
/// bucket's buffer go there if they are larger than it, a claim scatters
/// into it, and a push into a full bucket moves the bucket's entries into
/// it if it is larger than the bucket's buffer, so a burst never regrows
/// a buffer by doubling while a larger one sits idle. A new queue starts
/// from the thread's [`Stash`], and a dropped one leaves its two largest
/// empty buffers and its group counts there, so the next run on the thread
/// reuses the last one's capacity instead of growing its own from empty.
/// Only capacity moves between roles and runs, never an entry, so none
/// of this can change the pop order.
///
/// **Order is exactly `(at, seq)`, always.** The bucket index is a
/// monotone function of `at` alone (`floor(at · inv_width)`, computed
/// identically on every path), run entries lie below `lo` and ring
/// entries at or above it, and the heap is compared on the full key, so
/// the parts can never reorder keys. Adversarially placed timestamps
/// (pushes earlier than the frontier, bursts at one instant, far-future
/// spikes) pop in exactly the order a heap produces — the oracle
/// proptest at the bottom of this file holds the two to account, and the
/// pinned trace hashes in `crates/bench/tests/determinism.rs` pin it
/// end-to-end.
#[derive(Debug)]
pub(crate) struct EventQueue {
    /// The claimed run, sorted descending: the next entry is the last.
    run: Vec<Entry>,
    /// The ring: bucket index `i` lives at slot `i % RING_BUCKETS`.
    buckets: Vec<Vec<Entry>>,
    /// Occupancy bitmap over the ring (bit = slot non-empty), so claiming
    /// the next bucket is a couple of `trailing_zeros`, not a scan.
    occupied: [u64; RING_BUCKETS / 64],
    /// The largest empty buffer the queue has let go of: a claim
    /// scatters into it, and a ring slot whose buffer is full or missing
    /// moves into it if it is larger.
    spare: Vec<Entry>,
    /// Everything outside the window.
    heap: BinaryHeap<Earliest>,
    /// [`sort_claim`]'s group counts, kept between claims.
    counts: Vec<u32>,
    /// Reciprocal bucket width (s⁻¹); fixed at construction.
    inv_width: f64,
    /// Lowest bucket index the ring holds; the run's bucket is `lo − 1`.
    lo: u64,
    /// Lifetime count of entries sent to the heap past the window.
    spilled: u64,
    /// Lifetime count of late pushes into the claimed bucket.
    spliced: u64,
    next_seq: u64,
}

impl EventQueue {
    /// A queue with the default bucket width (tuned for `d = 1 ms`, the
    /// [`SimBuilder`](crate::SimBuilder) default). Production paths pass
    /// the real link delay via [`with_delay_hint`](Self::with_delay_hint);
    /// this is the test constructor.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn new() -> Self {
        Self::with_delay_hint(Dur::from_millis(1.0))
    }

    /// A queue whose ring is sized for a maximum message delay of `d`:
    /// bucket width `d / 8`, window span `16 d`. The hint affects only
    /// performance (how often events go to the heap), never ordering.
    pub fn with_delay_hint(d: Dur) -> Self {
        let width = d.as_secs() / BUCKETS_PER_HORIZON;
        let inv_width = if width > 0.0 && width.is_finite() {
            1.0 / width
        } else {
            BUCKETS_PER_HORIZON / 1e-3
        };
        let (run, spare, counts) = STASH.with(|stash| {
            let mut stash = stash.borrow_mut();
            let [mut run, mut spare] = mem::take(&mut stash.buffers);
            if run.capacity() > spare.capacity() {
                mem::swap(&mut run, &mut spare);
            }
            (run, spare, mem::take(&mut stash.counts))
        });
        EventQueue {
            run,
            buckets: (0..RING_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; RING_BUCKETS / 64],
            spare,
            heap: BinaryHeap::new(),
            counts,
            inv_width,
            lo: 0,
            spilled: 0,
            spliced: 0,
            next_seq: 0,
        }
    }

    /// The absolute bucket index of `at` — monotone in `at`, and the
    /// *same* function on every path, which is what makes the partition
    /// order-safe. Clamped so `lo + RING_BUCKETS` cannot overflow
    /// (clamped entries just share the topmost bucket; sorting still
    /// orders them).
    #[inline]
    fn bucket_index(&self, at: Time) -> u64 {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let idx = (at.as_secs() * self.inv_width) as u64; // saturating cast
        idx.min(u64::MAX - RING_BUCKETS as u64 - 2)
    }

    /// Queues `kind` at `at`, after everything already pushed for the
    /// same instant.
    pub fn push(&mut self, at: Time, kind: EventKind) {
        let seq = self.take_seq();
        let entry = Entry {
            key: EventKey::new(at, seq),
            kind,
        };
        let idx = self.bucket_index(at);
        if idx >= self.lo + RING_BUCKETS as u64 {
            self.heap.push(Earliest(entry));
            self.spilled += 1;
            return;
        }
        if idx < self.lo {
            if idx + 1 == self.lo && !self.run.is_empty() {
                // A late arrival into the bucket being drained: the heap
                // orders it against the run without touching the run.
                self.heap.push(Earliest(entry));
                self.spliced += 1;
                return;
            }
            self.lower(idx);
        }
        self.file(idx, entry);
    }

    /// Takes the next number of [`push`](Self::push)'s sequence without
    /// queueing anything, for an event the caller accounts for itself:
    /// the events pushed after it keep the numbers they would have had.
    pub fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        assert!(seq < SEQ_LIMIT, "more than 2^36 events scheduled");
        self.next_seq += 1;
        seq
    }

    /// Appends an entry whose index lies in the window to its ring slot.
    /// A slot whose buffer is full (or missing) moves into the spare
    /// instead of reallocating, if the spare is larger, and its emptied
    /// buffer becomes the spare.
    #[inline]
    fn file(&mut self, idx: u64, entry: Entry) {
        let slot = (idx % RING_BUCKETS as u64) as usize;
        let bucket = &mut self.buckets[slot];
        if bucket.len() == bucket.capacity() && self.spare.capacity() > bucket.capacity() {
            self.spare.append(bucket);
            mem::swap(bucket, &mut self.spare);
        }
        bucket.push(entry);
        self.occupied[slot / 64] |= 1 << (slot % 64);
    }

    /// Slides the window down to start at `idx < lo`: the ring buckets
    /// the lowered window cannot address, indices
    /// `[max(idx + RING_BUCKETS, lo), lo + RING_BUCKETS)`, move to the
    /// heap (counted as spills), and the unspent run goes back to its
    /// bucket `lo − 1` — on the ring, or on the heap if that too is out
    /// of reach. `O(run + moved)`, plus one pass over at most
    /// [`RING_BUCKETS`] occupancy bits.
    fn lower(&mut self, idx: u64) {
        let ring = RING_BUCKETS as u64;
        let end = idx + ring;
        for i in end.max(self.lo)..self.lo + ring {
            let slot = (i % ring) as usize;
            if self.occupied[slot / 64] & (1 << (slot % 64)) != 0 {
                self.spilled += self.buckets[slot].len() as u64;
                self.heap.extend(self.buckets[slot].drain(..).map(Earliest));
                self.occupied[slot / 64] &= !(1 << (slot % 64));
            }
        }
        if !self.run.is_empty() {
            let claimed = self.lo - 1;
            if claimed < end {
                // The loop above emptied this slot (it also holds index
                // `lo + RING_BUCKETS − 1`).
                let slot = (claimed % ring) as usize;
                mem::swap(&mut self.run, &mut self.buckets[slot]);
                self.occupied[slot / 64] |= 1 << (slot % 64);
            } else {
                self.spilled += self.run.len() as u64;
                self.heap.extend(self.run.drain(..).map(Earliest));
            }
        }
        self.lo = idx;
    }

    /// Claims the lowest occupied ring bucket, if any, as the new run
    /// and slides the window past it; called when the run is spent. Lazy
    /// — the ring only advances when a pop asks for the front — so the
    /// pushes a handler makes after the last pop of a run land on the
    /// ring, not behind a prematurely claimed run.
    fn claim(&mut self) {
        let from = (self.lo % RING_BUCKETS as u64) as usize;
        let Some(slot) = self.first_occupied_from(from) else {
            return;
        };
        // The larger of the spent run's buffer and the spare takes the
        // sorted entries, and the larger of what is left waits as the
        // spare instead of staying parked in the ring; so a claim holds
        // two large buffers, not three.
        let mut bucket = mem::take(&mut self.buckets[slot]);
        self.occupied[slot / 64] &= !(1 << (slot % 64));
        keep_larger(&mut self.spare, &mut self.run);
        let mut run = mem::take(&mut self.spare);
        sort_claim(&mut bucket, &mut run, &mut self.counts);
        self.run = run;
        keep_larger(&mut self.spare, &mut bucket);
        // The window spans the ring, so the cyclic distance from `lo`
        // recovers the absolute index unambiguously.
        self.lo += ((slot + RING_BUCKETS - from) % RING_BUCKETS) as u64 + 1;
    }

    /// Whether the next entry is the heap top rather than the run's
    /// last, claiming a bucket first if the run is spent; `None` when
    /// the queue is empty.
    #[inline]
    fn next_from_heap(&mut self) -> Option<bool> {
        if self.run.is_empty() {
            self.claim();
        }
        match (self.run.last(), self.heap.peek()) {
            (Some(run), Some(top)) => Some(top.0.key < run.key),
            (Some(_), None) => Some(false),
            (None, top) => top.map(|_| true),
        }
    }

    /// Pops the next event together with its global-order key.
    pub fn pop_keyed(&mut self) -> Option<(EventKey, Event)> {
        let entry = if self.next_from_heap()? {
            let Earliest(entry) = self.heap.pop()?;
            if self.run.is_empty() {
                // Run and ring are empty: the heap holds the frontier.
                self.lo = self.lo.max(self.bucket_index(entry.key.at()));
            }
            entry
        } else {
            self.run.pop()?
        };
        let event = Event {
            at: entry.key.at(),
            kind: entry.kind,
        };
        Some((entry.key, event))
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub fn pop(&mut self) -> Option<Event> {
        self.pop_keyed().map(|(_, event)| event)
    }

    /// First set bit of the occupancy bitmap in cyclic ring order
    /// starting at `from`, if any. Written against `RING_BUCKETS / 64`
    /// words so the bucket count stays a freely tunable constant.
    #[inline]
    fn first_occupied_from(&self, from: usize) -> Option<usize> {
        const WORDS: usize = RING_BUCKETS / 64;
        let (word, bit) = (from / 64, from % 64);
        let masked = self.occupied[word] & (!0u64 << bit);
        if masked != 0 {
            return Some(word * 64 + masked.trailing_zeros() as usize);
        }
        for step in 1..=WORDS {
            let w = (word + step) % WORDS;
            // The final step re-visits the starting word's low bits,
            // completing the cyclic order.
            let bits = if w == word {
                self.occupied[w] & !(!0u64 << bit)
            } else {
                self.occupied[w]
            };
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
        }
        None
    }

    /// How many entries went to the heap from past the window over this
    /// queue's lifetime: pushes at or beyond `lo + 128` buckets (16 delay
    /// horizons), plus ring and run entries a [`lower`](Self::lower) moved
    /// there (each counted once per move). Zero for the standard CPS
    /// scenarios (a regression test pins this); a large value signals
    /// that the delay hint passed to
    /// [`with_delay_hint`](Self::with_delay_hint) is far off the
    /// workload's real horizon.
    pub fn spill_count(&self) -> u64 {
        self.spilled
    }

    /// How many pushes landed in the claimed bucket while its run was
    /// still draining — late arrivals such as same-instant follow-ups and
    /// zero-delay sends. Each went to the heap, an `O(log heap)` push and
    /// pop instead of two O(1) steps, so a count that grows with the push
    /// count means the traffic has stopped running ahead of the pops.
    pub fn splice_count(&self) -> u64 {
        self.spliced
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub fn len(&self) -> usize {
        let ring: usize = self.buckets.iter().map(Vec::len).sum();
        self.run.len() + ring + self.heap.len()
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Asserts the partition the pop order rests on: a run sorted
    /// descending in bucket `lo − 1`, every ring entry in its own slot
    /// inside the window `[lo, lo + RING_BUCKETS)`, the occupancy bits in
    /// agreement, and an empty spare.
    #[cfg(test)]
    fn check_invariants(&self) {
        assert!(
            self.run.windows(2).all(|w| w[0].key > w[1].key),
            "run not sorted descending"
        );
        for e in &self.run {
            assert_eq!(
                self.bucket_index(e.key.at()) + 1,
                self.lo,
                "run entry off the claimed bucket"
            );
        }
        for (slot, bucket) in self.buckets.iter().enumerate() {
            let bit = self.occupied[slot / 64] >> (slot % 64) & 1;
            assert_eq!(bit == 1, !bucket.is_empty(), "occupancy bit of slot {slot}");
            for e in bucket {
                let idx = self.bucket_index(e.key.at());
                assert_eq!(
                    (idx % RING_BUCKETS as u64) as usize,
                    slot,
                    "entry in wrong slot"
                );
                assert!(
                    idx >= self.lo && idx < self.lo + RING_BUCKETS as u64,
                    "ring entry outside the window"
                );
            }
        }
        assert!(self.spare.is_empty(), "spare buffer holds entries");
    }

    /// Entries of buffer capacity the run, the ring and the spare hold,
    /// plus the group-count table as the entries its bytes would fill.
    #[cfg(test)]
    fn retained_capacity(&self) -> usize {
        let ring: usize = self.buckets.iter().map(Vec::capacity).sum();
        let counts =
            (self.counts.capacity() * mem::size_of::<u32>()).div_ceil(mem::size_of::<Entry>());
        self.run.capacity() + ring + self.spare.capacity() + counts
    }
}

impl Drop for EventQueue {
    /// Leaves the two largest empty buffers and the group counts in the
    /// thread's [`Stash`] for the next queue. Buffers that still hold
    /// entries (a run stopped early) are freed: stashing them too kept a
    /// flood scenario's 4 MB run alive through the calm ones after it and
    /// raised `sim_chaos`'s peak resident memory by about 1 MB.
    fn drop(&mut self) {
        // During thread teardown the stash may be gone; the buffers are
        // freed.
        let _ = STASH.try_with(|stash| {
            let mut stash = stash.borrow_mut();
            for buffer in self
                .buckets
                .iter_mut()
                .chain([&mut self.run, &mut self.spare])
                .filter(|buffer| buffer.is_empty())
            {
                stash.offer(buffer);
            }
            keep_larger(&mut stash.counts, &mut self.counts);
        });
    }
}

/// Generation-stamped timer slots.
///
/// [`TimerId`] packs `generation << 32 | slot`. Arming allocates a slot
/// (recycling freed ones), and both firing and cancelling free it again,
/// bumping the generation so any id still referring to the old tenancy is
/// recognized as stale. Memory is therefore bounded by the maximum number
/// of *simultaneously pending* timers, independent of run length — unlike
/// the previous `HashSet<TimerId>` of cancellations, which kept one entry
/// forever for every timer cancelled after it had already fired.
///
/// A single slot would need 2³² arm/free cycles to wrap its stamp; runs
/// are capped at 50 M events by default, far below that.
///
/// A [`NodeCtx`](crate::NodeCtx) arms ids in its executor's slab, and
/// the executor fires or cancels them: [`Sim::run`](crate::Sim::run)
/// keeps one slab for the run, and the wall-clock runtime and the tri-execution engine one per node.
#[derive(Debug, Default)]
pub struct TimerSlab {
    slots: Vec<TimerSlot>,
    free: Vec<u32>,
    live: usize,
    high_water: usize,
}

#[derive(Clone, Copy, Debug)]
struct TimerSlot {
    generation: u32,
    armed: bool,
}

impl TimerSlab {
    /// An empty slab.
    #[must_use]
    pub fn new() -> Self {
        TimerSlab::default()
    }

    /// Allocates a slot and returns its stamped id.
    pub fn arm(&mut self) -> TimerId {
        let slot = match self.free.pop() {
            Some(slot) => {
                debug_assert!(!self.slots[slot as usize].armed, "free slot armed");
                self.slots[slot as usize].armed = true;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len())
                    .expect("more than u32::MAX simultaneous timers");
                self.slots.push(TimerSlot {
                    generation: 0,
                    armed: true,
                });
                slot
            }
        };
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        TimerId(u64::from(self.slots[slot as usize].generation) << 32 | u64::from(slot))
    }

    /// Cancels a pending timer; returns whether it was actually pending
    /// (stale ids — already fired or already cancelled — are no-ops).
    pub fn cancel(&mut self, id: TimerId) -> bool {
        self.release(id)
    }

    /// Resolves a firing: `true` means the timer is live and now consumed;
    /// `false` means it was cancelled in the meantime and must be skipped.
    pub fn fire(&mut self, id: TimerId) -> bool {
        self.release(id)
    }

    /// Cancels every pending timer, so that every id armed so far is
    /// stale. The wall-clock runtime calls it when a crashed node
    /// recovers; the simulators have no caller, since they defer a
    /// crashed node's due timer to its recovery instant instead.
    pub fn cancel_all(&mut self) {
        for (slot, entry) in (0u32..).zip(&mut self.slots) {
            if entry.armed {
                entry.armed = false;
                entry.generation = entry.generation.wrapping_add(1);
                self.free.push(slot);
            }
        }
        self.live = 0;
    }

    /// The slot `id` holds while it is armed.
    #[inline]
    fn slot_of(&self, id: TimerId) -> Option<usize> {
        let slot = (id.0 & u64::from(u32::MAX)) as usize;
        #[allow(clippy::cast_possible_truncation)]
        let generation = (id.0 >> 32) as u32;
        // An id from a different slab may name a slot never issued here.
        let entry = self.slots.get(slot)?;
        (entry.armed && entry.generation == generation).then_some(slot)
    }

    #[inline]
    fn release(&mut self, id: TimerId) -> bool {
        let Some(slot) = self.slot_of(id) else {
            return false;
        };
        let entry = &mut self.slots[slot];
        entry.armed = false;
        entry.generation = entry.generation.wrapping_add(1);
        self.free.push(slot as u32);
        self.live -= 1;
        true
    }

    /// Most timers ever pending at once (bounds the slab's memory).
    #[must_use]
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Timers pending right now.
    #[must_use]
    pub fn live(&self) -> usize {
        self.live
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue = EventQueue::new();
        q.push(Time::from_secs(2.0), EventKind::AdvTimer { key: 2 });
        q.push(Time::from_secs(1.0), EventKind::AdvTimer { key: 1 });
        q.push(Time::from_secs(3.0), EventKind::AdvTimer { key: 3 });
        let order: Vec<f64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.as_secs())
            .collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q: EventQueue = EventQueue::new();
        let t = Time::from_secs(1.0);
        for key in 0..5 {
            q.push(t, EventKind::AdvTimer { key });
        }
        let keys: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::AdvTimer { key } => key,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(keys, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue = EventQueue::new();
        assert!(q.is_empty());
        q.push(Time::ZERO, EventKind::AdvTimer { key: 0 });
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    /// −0.0's bits order above every positive time's, so the key must
    /// not keep them.
    #[test]
    fn an_event_at_negative_zero_pops_first() {
        let mut q: EventQueue = EventQueue::new();
        q.push(Time::from_secs(1e-9), EventKind::AdvTimer { key: 1 });
        q.push(Time::from_secs(-0.0), EventKind::AdvTimer { key: 0 });
        let first = q.pop().expect("two events are queued");
        assert!(matches!(first.kind, EventKind::AdvTimer { key: 0 }));
        assert_eq!(first.at.as_secs().to_bits(), 0);
    }

    /// Runs `f` on a thread of its own, whose stash starts empty, so what
    /// an earlier test left on the calling thread cannot count.
    fn on_a_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
        std::thread::scope(|scope| {
            scope
                .spawn(f)
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        })
    }

    /// The capacities the thread's stash holds: its two buffers, the
    /// larger first, and its group counts.
    fn stashed() -> ([usize; 2], usize) {
        STASH.with(|stash| {
            let stash = stash.borrow();
            let [a, b] = stash.buffers.each_ref().map(Vec::capacity);
            ([a.max(b), a.min(b)], stash.counts.capacity())
        })
    }

    /// A steady stream of echo bursts, each one bucket past the last and
    /// drained before the next, recycles the run's buffer through the
    /// spare: the queue keeps about two bursts of capacity, not one per
    /// ring slot it has visited. After each burst, one early arrival
    /// lands in the next round's bucket while the spare is spent, so that
    /// bucket starts on a small buffer; when it fills, it moves into the
    /// spare the claim left rather than regrowing. The queue runs on a
    /// thread of its own, so the thread's stash starts empty.
    #[test]
    fn retained_capacity_stays_near_one_burst() {
        const BURST: usize = 4096;
        let width = 1e-3 / BUCKETS_PER_HORIZON; // the default delay hint
        let at = |round: u32, i: usize| {
            Time::from_secs((f64::from(round) + 0.25) * width + (i % 97) as f64 * width * 1e-3)
        };
        let (worst, outside) = on_a_fresh_thread(|| {
            let mut q: EventQueue = EventQueue::new();
            let mut worst = 0;
            for round in 0..256u32 {
                for i in 1..BURST {
                    q.push(at(round, i), EventKind::AdvTimer { key: 0 });
                }
                q.push(at(round + 1, 0), EventKind::AdvTimer { key: 0 });
                while q.len() > 1 {
                    q.pop().expect("the burst is queued");
                }
                worst = worst.max(q.retained_capacity());
            }
            q.pop().expect("the last early arrival is queued");
            assert!(q.is_empty());
            (worst, (q.spill_count(), q.splice_count()))
        });
        assert_eq!(outside, (0, 0), "entries left the ring");
        assert!(
            worst <= 4 * BURST,
            "the queue retained {worst} entries of capacity for {BURST}-entry bursts"
        );
    }

    /// A dropped queue leaves its thread its two largest empty buffers and
    /// its group counts (a buffer still holding entries stays with it),
    /// and however many queues drop, the thread keeps no more than that.
    /// The next queue built starts from them.
    #[test]
    fn a_thread_keeps_two_buffers_and_the_counts_after_its_queues_drop() {
        let width = 1e-3 / BUCKETS_PER_HORIZON; // the default delay hint
        let burst = |q: &mut EventQueue, bucket: u32, size: usize| {
            for i in 0..size {
                let at = (f64::from(bucket) + 0.5) * width + i as f64 * 1e-12;
                q.push(Time::from_secs(at), EventKind::AdvTimer { key: 0 });
            }
        };
        on_a_fresh_thread(|| {
            assert_eq!(stashed(), ([0, 0], 0));
            let mut q = EventQueue::new();
            for (bucket, size) in [(0, 1000), (1, 200), (2, 3000), (3, 100)] {
                burst(&mut q, bucket, size);
            }
            for _ in 0..1200 {
                q.pop().expect("buckets 0 and 1 are queued");
            }
            let buffers = || q.buckets.iter().chain([&q.run, &q.spare]);
            let mut held: Vec<usize> = buffers()
                .filter(|b| b.is_empty())
                .map(Vec::capacity)
                .collect();
            held.sort_unstable_by(|a, b| b.cmp(a));
            let pending = buffers().map(Vec::capacity).max().unwrap_or(0);
            assert!(pending > held[0], "bucket 2 holds the largest buffer");
            let counts = q.counts.capacity();
            drop(q);
            assert_eq!(stashed(), ([held[0], held[1]], counts));

            let warm = EventQueue::new();
            assert_eq!(
                (warm.spare.capacity(), warm.run.capacity()),
                (held[0], held[1])
            );
            assert_eq!(stashed(), ([0, 0], 0), "the warm queue took the stash");
            let mut cold = EventQueue::new();
            burst(&mut cold, 0, 50);
            while cold.pop().is_some() {}
            drop(cold);
            drop(warm);
            assert_eq!(stashed(), ([held[0], held[1]], counts));
        });
    }

    /// An entry holds an arena handle, never the message, so its size
    /// does not depend on the message type.
    #[test]
    fn entry_is_thirty_two_bytes_for_every_handle() {
        assert_eq!(std::mem::size_of::<Entry>(), 32);
    }

    #[test]
    fn timer_slab_stale_ids_are_noops() {
        let mut slab = TimerSlab::new();
        let a = slab.arm();
        assert!(slab.fire(a), "live timer fires");
        assert!(!slab.fire(a), "second fire is stale");
        assert!(!slab.cancel(a), "cancel after fire is a no-op");
        let b = slab.arm(); // recycles the slot under a new generation
        assert_ne!(a, b);
        assert!(!slab.cancel(a), "old stamp cannot cancel the new tenant");
        assert!(slab.cancel(b));
        assert_eq!(slab.live(), 0);
        assert_eq!(slab.high_water(), 1);
    }

    #[test]
    fn timer_slab_cancel_all_makes_every_pending_id_stale() {
        let mut slab = TimerSlab::new();
        let fired = slab.arm();
        let pending: Vec<_> = (0..3).map(|_| slab.arm()).collect();
        assert!(slab.fire(fired));
        slab.cancel_all();
        assert_eq!(slab.live(), 0);
        assert!(
            pending.iter().all(|&id| !slab.fire(id)),
            "a cancelled id fired"
        );
        // The freed slots are reused under new stamps.
        let fresh: Vec<_> = (0..4).map(|_| slab.arm()).collect();
        assert!(fresh.iter().all(|id| !pending.contains(id)));
        assert_eq!((slab.live(), slab.high_water()), (4, 4));
    }

    #[test]
    fn timer_slab_never_issued_id_is_stale() {
        let mut slab = TimerSlab::new();
        assert!(!slab.fire(TimerId::new(123)));
    }

    #[test]
    fn far_future_events_spill_and_return_in_order() {
        let d = Dur::from_millis(1.0);
        let mut q: EventQueue = EventQueue::with_delay_hint(d);
        // One event near zero, then three far past the 16 d window.
        q.push(Time::from_millis(0.5), EventKind::AdvTimer { key: 0 });
        q.push(Time::from_millis(500.0), EventKind::AdvTimer { key: 2 });
        q.push(Time::from_millis(100.0), EventKind::AdvTimer { key: 1 });
        q.push(Time::from_millis(5000.0), EventKind::AdvTimer { key: 3 });
        assert_eq!(q.spill_count(), 3, "all three far timers overflow");
        let keys: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::AdvTimer { key } => key,
                _ => unreachable!(),
            })
            .collect();
        // The heap hands them back in time order once the ring is empty.
        assert_eq!(keys, vec![0, 1, 2, 3]);
    }

    #[test]
    fn horizon_rollover_slides_the_window() {
        let mut q: EventQueue = EventQueue::new();
        for round in 0..50u64 {
            // Each round sits ~1000 bucket widths past the previous one,
            // far beyond the 128-bucket ring: the window must follow the
            // pops out of the heap, without ring-index collisions
            // corrupting order.
            let base = Time::from_secs(round as f64 * 0.125);
            q.push(
                base + Dur::from_micros(7.0),
                EventKind::AdvTimer { key: 2 * round },
            );
            q.push(base, EventKind::AdvTimer { key: 2 * round + 1 });
            let first = q.pop().unwrap();
            let second = q.pop().unwrap();
            assert_eq!(first.at, base);
            assert_eq!(second.at, base + Dur::from_micros(7.0));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn pushes_behind_the_frontier_still_pop_first() {
        // An adversarial push *earlier* than everything already popped
        // must still come out before later-dated entries (it slides the
        // window down to itself).
        let mut q: EventQueue = EventQueue::new();
        q.push(Time::from_secs(1.0), EventKind::AdvTimer { key: 10 });
        q.push(Time::from_secs(1.001), EventKind::AdvTimer { key: 11 });
        assert_eq!(q.pop().unwrap().at, Time::from_secs(1.0));
        q.push(Time::from_secs(0.25), EventKind::AdvTimer { key: 12 });
        assert_eq!(q.pop().unwrap().at, Time::from_secs(0.25));
        assert_eq!(q.pop().unwrap().at, Time::from_secs(1.001));
    }

    /// The chaos engine's push pattern: a `Recover` event scheduled before
    /// anything else, thousands of buckets ahead of the traffic. The
    /// queue must stay a ladder — O(1) ring appends, with the far entry
    /// parked on the heap — not one sorted array absorbing every push
    /// (when the queue anchored its tiers on the first push, the splice
    /// count below equalled the number of pushes).
    #[test]
    fn far_future_anchor_stays_a_ladder() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let d = 1e-3; // the default delay hint: buckets are d / 8 wide
        let sentinel_at = 10_000.0 * d / BUCKETS_PER_HORIZON;
        let mut q: EventQueue = EventQueue::new();
        let mut oracle: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut push =
            |q: &mut EventQueue, oracle: &mut BinaryHeap<Reverse<(u64, u64)>>, at: f64| {
                q.push(Time::from_secs(at), EventKind::AdvTimer { key: seq });
                oracle.push(Reverse((at.to_bits(), seq)));
                seq += 1;
            };
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut jitter = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        push(&mut q, &mut oracle, sentinel_at);
        // A round's worth of traffic in flight, then 100 k pop/push
        // pairs with delays in [d − u, d]: ~2 k buckets of simulated
        // time (a dozen ring spans), all of it short of the sentinel.
        for i in 0..360 {
            push(&mut q, &mut oracle, d * jitter() + f64::from(i) * 1e-9);
        }
        for i in 0..100_000u32 {
            let event = q.pop().expect("queue holds the stream");
            let Reverse((at_bits, want)) = oracle.pop().expect("oracle holds the stream");
            assert_eq!(
                event.at.as_secs().to_bits(),
                at_bits,
                "pop {i} out of order"
            );
            assert!(matches!(event.kind, EventKind::AdvTimer { key } if key == want));
            let delay = d - 0.1 * d * jitter();
            push(&mut q, &mut oracle, event.at.as_secs() + delay);
        }
        let mut last = None;
        while let Some(Reverse((at_bits, want))) = oracle.pop() {
            let event = q.pop().expect("queue and oracle drain together");
            assert_eq!(event.at.as_secs().to_bits(), at_bits);
            assert!(matches!(event.kind, EventKind::AdvTimer { key } if key == want));
            last = Some(want);
        }
        assert_eq!(last, Some(0), "the sentinel pops last");
        assert!(q.is_empty());
        // Every delay is at least 0.9 d, so no push lands in the bucket
        // being drained.
        let budget = 8;
        assert!(
            q.splice_count() < budget,
            "{} of {seq} pushes were spliced into the sorted run (budget {budget})",
            q.splice_count()
        );
        // The sentinel, pushed past the window, is the one spill.
        assert_eq!(q.spill_count(), 1);
    }

    /// Bounded-delay traffic plus a timer armed `15 d` ahead on every
    /// 16th pop — the shape of a CPS run, whose timers reach `T + 3S <
    /// 13 d` — never leaves the window, however far the pops travel: the
    /// window slides with every claim. (A window anchored once per
    /// `16 d` epoch spilled 21 178 entries of this stream.)
    #[test]
    fn window_slides_with_the_frontier() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let d = 1e-3; // the default delay hint
        let mut q: EventQueue = EventQueue::new();
        let mut oracle: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut push =
            |q: &mut EventQueue, oracle: &mut BinaryHeap<Reverse<(u64, u64)>>, at: f64| {
                q.push(Time::from_secs(at), EventKind::AdvTimer { key: seq });
                oracle.push(Reverse((at.to_bits(), seq)));
                seq += 1;
            };
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mut jitter = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..360 {
            push(&mut q, &mut oracle, d * jitter() + f64::from(i) * 1e-9);
        }
        for i in 0..200_000u32 {
            let event = q.pop().expect("queue holds the stream");
            let Reverse((at_bits, want)) = oracle.pop().expect("oracle holds the stream");
            assert_eq!(
                event.at.as_secs().to_bits(),
                at_bits,
                "pop {i} out of order"
            );
            assert!(matches!(event.kind, EventKind::AdvTimer { key } if key == want));
            let now = event.at.as_secs();
            push(&mut q, &mut oracle, now + d - 0.01 * d * jitter());
            if i % 16 == 0 {
                push(&mut q, &mut oracle, now + 15.0 * d);
            }
        }
        while let Some(Reverse((at_bits, want))) = oracle.pop() {
            let event = q.pop().expect("queue and oracle drain together");
            assert_eq!(event.at.as_secs().to_bits(), at_bits);
            assert!(matches!(event.kind, EventKind::AdvTimer { key } if key == want));
        }
        assert!(q.is_empty());
        assert_eq!(q.spill_count(), 0, "entries left the window");
    }

    proptest! {
        /// The grouped claim sort against a comparison sort of the same
        /// entries, on claims of 0–4 096 entries shaped like the queue's:
        /// a burst in a `u`-wide slice of one bucket, the same with one
        /// timer later in the bucket, every entry at one instant, bucket 0 from 0.0 (and −0.0) to one bucket width,
        /// whose bits span the exponent range, the clamped top bucket up
        /// to 1e300, a few repeated instants, and sizes at the plain-sort
        /// cutoff and one either side of it. Sequence numbers are
        /// shuffled. The sorted run is then sorted again, as when `lower`
        /// puts a run back into its bucket, reusing the buffers.
        #[test]
        fn prop_claim_sort_matches_a_comparison_sort(
            shape in 0u64..7,
            len in 0usize..4097,
            seed in any::<u64>(),
        ) {
            let width = 1e-3 / BUCKETS_PER_HORIZON; // the default delay hint
            let top = (u64::MAX - RING_BUCKETS as u64) as f64 * width;
            let mut x = seed | 1;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let unit = |r: u64| (r >> 11) as f64 / (1u64 << 53) as f64;
            let between = |lo: f64, hi: f64, r: u64| {
                f64::from_bits(lo.to_bits() + r % (hi.to_bits() - lo.to_bits() + 1))
            };
            let len = if shape == 5 {
                PLAIN_SORT_MAX - 1 + len % 3
            } else {
                len
            };
            let base = 1000.0 * width;
            let mut seqs: Vec<u64> = (0..len as u64).collect();
            for i in (1..len).rev() {
                seqs.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            let mut from: Vec<Entry> = seqs
                .iter()
                .map(|&seq| {
                    let r = next();
                    let at = match shape {
                        1 => base,
                        2 if r % 8 == 0 => -0.0,
                        2 => between(0.0, width, r),
                        3 => between(top, 1e300, r),
                        4 => base + (r % 5) as f64 * 1e-7,
                        6 if seq == 0 => base + 0.9 * width,
                        _ => base + unit(r) * width / 10.0,
                    };
                    Entry {
                        key: EventKey::new(Time::from_secs(at), seq),
                        kind: EventKind::AdvTimer { key: seq },
                    }
                })
                .collect();
            let mut want: Vec<(EventKey, u64)> = from
                .iter()
                .map(|e| match e.kind {
                    EventKind::AdvTimer { key } => (e.key, key),
                    _ => unreachable!(),
                })
                .collect();
            want.sort_unstable_by_key(|&(key, _)| Reverse(key));
            let (mut into, mut counts) = (Vec::new(), Vec::new());
            for _ in 0..2 {
                sort_claim(&mut from, &mut into, &mut counts);
                prop_assert!(from.is_empty());
                prop_assert_eq!(into.len(), want.len());
                for (got, &(key, seq)) in into.iter().zip(&want) {
                    prop_assert_eq!(got.key, key);
                    prop_assert!(matches!(got.kind, EventKind::AdvTimer { key } if key == seq));
                }
                mem::swap(&mut from, &mut into);
            }
        }

        /// Random interleavings of pushes and pops: pops always come out
        /// in (at, seq) order.
        #[test]
        fn prop_queue_orders_like_a_sorted_model(
            // Encodes (at, push/pop) in one value: the vendored proptest
            // stand-in has no tuple strategies. Low bit: push; rest: time.
            ops in proptest::collection::vec(0u16..100, 1..200)
        ) {
            let mut q: EventQueue = EventQueue::new();
            let mut next_key = 0u64;
            // Model: keys in `(at, insertion)` order, as a sorted list.
            let mut model: Vec<(u16, u64)> = Vec::new();
            for op in ops {
                let (at, is_push) = (op >> 1, op & 1 == 1);
                if is_push {
                    q.push(
                        Time::from_secs(f64::from(at)),
                        EventKind::AdvTimer { key: next_key },
                    );
                    model.push((at, next_key));
                    model.sort(); // key is insertion-ordered, so stable
                    next_key += 1;
                } else if let Some(event) = q.pop() {
                    let (at_expect, key_expect) = model.remove(0);
                    prop_assert_eq!(event.at, Time::from_secs(f64::from(at_expect)));
                    match event.kind {
                        EventKind::AdvTimer { key } => prop_assert_eq!(key, key_expect),
                        _ => prop_assert!(false, "unexpected kind"),
                    }
                } else {
                    prop_assert!(model.is_empty());
                }
            }
            // Drain; the queue must agree with the model to the end.
            while let Some(event) = q.pop() {
                let (at_expect, _) = model.remove(0);
                prop_assert_eq!(event.at, Time::from_secs(f64::from(at_expect)));
            }
            prop_assert!(model.is_empty());
            prop_assert!(q.is_empty());
        }

        /// Arbitrary arm/cancel/fire interleavings never leak timer slots.
        #[test]
        fn prop_timer_slab_conserves_slots(
            ops in proptest::collection::vec(0u8..3, 1..300)
        ) {
            let mut slab = TimerSlab::new();
            let mut pending: Vec<TimerId> = Vec::new();
            let mut retired: Vec<TimerId> = Vec::new();
            for op in ops {
                match op {
                    0 => pending.push(slab.arm()),
                    1 => {
                        if let Some(id) = pending.pop() {
                            prop_assert!(slab.cancel(id));
                            retired.push(id);
                        }
                    }
                    _ => {
                        if let Some(id) = retired.last() {
                            // Stale ids stay stale forever.
                            prop_assert!(!slab.fire(*id));
                            prop_assert!(!slab.cancel(*id));
                        } else if let Some(id) = pending.pop() {
                            prop_assert!(slab.fire(id));
                            retired.push(id);
                        }
                    }
                }
                prop_assert_eq!(slab.live(), pending.len());
            }
            prop_assert!(slab.high_water() <= 300);
        }

        /// The queue vs. a `BinaryHeap` oracle over adversarial
        /// timestamp patterns — same-instant bursts, zero-delay (ũ = d)
        /// arrivals, bounded-delay traffic, far-future timers past the
        /// window, horizon rollovers that leave the ring empty, a first
        /// push ≥ 1 000 buckets ahead of everything that follows (the
        /// `Recover`-first shape), and drains down to the heap followed
        /// by nearer pushes, both of which slide the window down. The `(at, seq)` pop sequences must be
        /// identical.
        #[test]
        fn prop_ladder_matches_heap_oracle(
            ops in proptest::collection::vec(0u32..1 << 14, 1..300)
        ) {
            use std::cmp::Reverse;
            use std::collections::BinaryHeap;

            let d = 1e-3; // matches the default delay hint
            let mut q: EventQueue = EventQueue::new();
            let mut oracle: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut next_seq = 0u64;
            let mut now = 0.0f64; // real time of the latest pop
            let push = |q: &mut EventQueue,
                            oracle: &mut BinaryHeap<Reverse<(u64, u64)>>,
                            seq: &mut u64,
                            at: f64| {
                q.push(Time::from_secs(at), EventKind::AdvTimer { key: *seq });
                oracle.push(Reverse((at.to_bits(), *seq)));
                *seq += 1;
            };
            let pop_and_compare = |q: &mut EventQueue,
                                       oracle: &mut BinaryHeap<Reverse<(u64, u64)>>,
                                       now: &mut f64| {
                let got = q.pop();
                let want = oracle.pop();
                match (got, want) {
                    (None, None) => {}
                    (Some(event), Some(Reverse((at_bits, seq)))) => {
                        prop_assert_eq!(event.at.as_secs().to_bits(), at_bits);
                        match event.kind {
                            EventKind::AdvTimer { key } => prop_assert_eq!(key, seq),
                            _ => prop_assert!(false, "unexpected kind"),
                        }
                        *now = f64::from_bits(at_bits);
                    }
                    (got, want) => {
                        prop_assert!(false, "pop mismatch: {got:?} vs {want:?}");
                    }
                }
            };
            // Half the streams open on a far-future first push, which
            // lands ≥ 1 000 buckets (125 d) past the rest.
            if ops[0] % 2 == 0 {
                let at = (125.0 + f64::from(ops[0] >> 3)) * d;
                push(&mut q, &mut oracle, &mut next_seq, at);
            }
            for op in ops {
                let magnitude = f64::from(op >> 3);
                match op % 8 {
                    // Drain to the heap, then undercut its (far)
                    // minimum with bounded-delay traffic from the pop
                    // frontier.
                    7 if (op >> 3) % 8 == 0 => {
                        while q.len() > q.heap.len() {
                            pop_and_compare(&mut q, &mut oracle, &mut now);
                        }
                        for k in 0..3 {
                            let delay = d - f64::from(k) * (d / 30.0);
                            push(&mut q, &mut oracle, &mut next_seq, now + delay);
                        }
                    }
                    // Bounded-delay traffic: delays in [d − u, d].
                    0 | 1 => {
                        let delay = d - (magnitude / 2048.0) * (d / 10.0);
                        push(&mut q, &mut oracle, &mut next_seq, now + delay);
                    }
                    // Same-instant burst (ties broken by seq alone).
                    2 => {
                        for _ in 0..3 {
                            push(&mut q, &mut oracle, &mut next_seq, now);
                        }
                    }
                    // Zero-delay arrival, as under ũ = d.
                    3 => push(&mut q, &mut oracle, &mut next_seq, now),
                    // Far-future timer, beyond the 16 d window.
                    4 => {
                        let at = now + (20.0 + magnitude) * 16.0 * d;
                        push(&mut q, &mut oracle, &mut next_seq, at);
                    }
                    // Horizon rollover: leap thousands of bucket widths.
                    5 => {
                        let at = now + magnitude * 8.0 * d;
                        push(&mut q, &mut oracle, &mut next_seq, at);
                    }
                    _ => pop_and_compare(&mut q, &mut oracle, &mut now),
                }
                prop_assert_eq!(q.len(), oracle.len());
                q.check_invariants();
            }
            // Drain both to the end; the sequences must agree exactly.
            while !oracle.is_empty() || !q.is_empty() {
                pop_and_compare(&mut q, &mut oracle, &mut now);
            }
        }
    }
}
