//! The engine's zero-allocation event plumbing: a slab-backed future-event
//! list (a two-tier ladder/calendar queue) and generation-stamped timer
//! slots.
//!
//! Three design rules keep the hot path allocation-free and cheap:
//!
//! * **Payloads never ride the ordering structure.** The queue orders
//!   small `Copy` records `(at, seq, slot)` packed into one `u128`; the
//!   [`EventKind`] payloads live in a free-list slab that the ordering
//!   machinery never touches. Pushing an event after the queue's
//!   high-water mark has been reached allocates nothing.
//! * **The workload is near-sorted, so the queue is a ladder, not a
//!   heap.** Every message delay falls in the bounded window `[d−u, d]`
//!   (the paper's model), so events land a roughly constant distance
//!   ahead of the pops — the classic regime where a calendar/ladder queue
//!   beats a heap. Pushes drop into fixed-width time buckets in O(1);
//!   each bucket is sorted once when its turn comes and then drained as a
//!   tiny insertion-sorted run; the rare far-future event (an idle-period
//!   timer, a test's adversarial timestamp) overflows to a small 4-ary
//!   spill heap ([`EventQueue::spill_count`] reports how often). The
//!   tiers are anchored at the **pop frontier**, not at whatever was
//!   pushed first: when traffic undercuts the sorted run — a crash
//!   scenario's `Recover` event scheduled before anything else, a lane
//!   holding only its next-pulse timer when a round's deliveries are
//!   posted — the partition re-anchors just under the traffic in one
//!   pass (lowering the whole bucketed window if the undercut is deeper
//!   than the ring can address), so a far-future entry never turns the
//!   queue into one sorted array ([`EventQueue::splice_count`] counts
//!   the pushes that still take the sorted-insert path). Pop order is
//!   *exactly* `(at, seq)` — bucket boundaries are a monotone function of
//!   `at`, so the partition can never reorder keys — which the pinned
//!   trace hashes and the sharded engine's merge depend on.
//! * **Timer state is a generation-stamped slab, not a set.** A
//!   [`TimerId`] packs `(generation, slot)`; cancelling or firing frees
//!   the slot and bumps its generation, so stale ids are recognized by a
//!   mismatched stamp instead of being remembered forever in a `HashSet`
//!   (which used to leak an entry for every cancel-after-fire).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crusader_crypto::NodeId;
use crusader_time::{Dur, Time};

/// Identifier of a pending local-time timer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerId(pub(crate) u64);

impl TimerId {
    /// Creates a timer id from a raw counter value.
    ///
    /// Exposed for alternative [`Context`](crate::Context)
    /// implementations (the wall-clock runtime, the lower-bound
    /// tri-execution engine); within one context, ids must be unique.
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

/// One broadcast's payload plus its knowledge-learning state.
#[derive(Debug)]
pub(crate) struct SharedPayload<M> {
    pub msg: M,
    /// Set once the first faulty delivery has recorded this payload's
    /// claims. A broadcast reaches every faulty node with the *same*
    /// claims, and [`KnowledgeTracker::learn`] keeps the earliest time per
    /// claim — so every delivery after the first (which, in pop order, is
    /// the earliest) would be a no-op; the flag lets the engine skip the
    /// claim walk instead of rediscovering that per delivery.
    ///
    /// [`KnowledgeTracker::learn`]: crusader_crypto::KnowledgeTracker::learn
    adversary_learned: AtomicBool,
}

/// A delivery payload: exclusively owned, or shared across the `n`
/// deliveries of one broadcast (one `Arc` instead of `n` deep clones).
#[derive(Clone, Debug)]
pub(crate) enum Payload<M> {
    /// A point-to-point message.
    Owned(M),
    /// One broadcast's payload, shared by every pending delivery.
    Shared(Arc<SharedPayload<M>>),
    /// **Single-lane engine only:** an index into the engine's broadcast
    /// arena ([`crate::engine::BroadcastArena`]), whose refcounts are
    /// plain integers — the single-threaded engine pays no atomic
    /// operations per broadcast delivery. The sharded executor never
    /// constructs this variant (its broadcast payloads cross lane
    /// threads, which is exactly what [`Payload::Shared`]'s `Arc` is
    /// for), so the accessors below treat it as unreachable: the engine
    /// resolves `Local` against its arena before they can be called.
    Local(u32),
}

impl<M> Payload<M> {
    /// Wraps a broadcast payload for sharing.
    pub fn shared(msg: M) -> Self {
        Payload::Shared(Arc::new(SharedPayload {
            msg,
            adversary_learned: AtomicBool::new(false),
        }))
    }

    /// Whether the adversary's knowledge tracker still needs to see this
    /// payload's claims; flips the first-delivery flag on shared payloads.
    ///
    /// (The engine is single-threaded; the atomic exists only to keep the
    /// shared payload `Sync`. A plain load + store avoids the locked
    /// read-modify-write a `swap` would emit.)
    #[inline]
    pub fn needs_learning(&self) -> bool {
        match self {
            Payload::Owned(_) => true,
            Payload::Shared(shared) => {
                if shared.adversary_learned.load(Ordering::Relaxed) {
                    false
                } else {
                    shared.adversary_learned.store(true, Ordering::Relaxed);
                    true
                }
            }
            Payload::Local(_) => unreachable!("local payloads are resolved by the engine"),
        }
    }
}

impl<M: Clone> Payload<M> {
    /// Extracts the message, cloning only if other deliveries still share
    /// it (the last delivery of a broadcast unwraps for free).
    #[inline]
    pub fn into_owned(self) -> M {
        match self {
            Payload::Owned(msg) => msg,
            Payload::Shared(shared) => {
                // Probe the refcount before `try_unwrap`: the non-last
                // deliveries of a broadcast (the common case) then pay a
                // relaxed load instead of a failed compare-exchange.
                if Arc::strong_count(&shared) > 1 {
                    return shared.msg.clone();
                }
                match Arc::try_unwrap(shared) {
                    Ok(inner) => inner.msg,
                    Err(arc) => arc.msg.clone(),
                }
            }
            Payload::Local(_) => unreachable!("local payloads are resolved by the engine"),
        }
    }
}

impl<M> AsRef<M> for Payload<M> {
    #[inline]
    fn as_ref(&self) -> &M {
        match self {
            Payload::Owned(msg) => msg,
            Payload::Shared(shared) => &shared.msg,
            Payload::Local(_) => unreachable!("local payloads are resolved by the engine"),
        }
    }
}

/// What happens when an event fires.
#[derive(Clone, Debug)]
pub(crate) enum EventKind<M> {
    /// A message is delivered to `to`.
    Deliver {
        /// Channel-authenticated sender.
        from: NodeId,
        /// Recipient.
        to: NodeId,
        /// Payload.
        msg: Payload<M>,
    },
    /// An honest node's local-time timer fires.
    Timer { node: NodeId, id: TimerId },
    /// An adversary-scheduled real-time timer fires.
    AdvTimer { key: u64 },
    /// A crashed node comes back up: run its
    /// [`Automaton::on_recover`](crate::Automaton::on_recover) hook.
    /// Scheduled at init time from the chaos timeline's crash windows
    /// (identically in both engines, so seqs — and therefore sharded
    /// traces — stay bit-identical), which also places it *before* any
    /// timer deferred to the same recovery instant.
    Recover { node: NodeId },
}

/// A popped event: the payload rejoined with its firing time.
#[derive(Debug)]
pub(crate) struct Event<M> {
    pub at: Time,
    pub kind: EventKind<M>,
}

/// The global total order of the simulation: `(at, seq)` packed into one
/// integer exactly as [`HeapEntry`] packs it (minus the slab slot), so a
/// key comparison is a single `u128` compare and keys taken from
/// *different* per-lane queues order identically to entries inside one
/// queue. This is the merge token of the sharded engine
/// ([`crate::shard`]): every recorded effect carries its source event's
/// key, and the reconcile phase replays records in ascending key order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) struct EventKey(u128);

impl EventKey {
    #[inline]
    pub fn new(at: Time, seq: u64) -> Self {
        debug_assert!(seq < SEQ_LIMIT, "seq out of range");
        let secs = at.as_secs();
        debug_assert!(secs >= 0.0, "events cannot be scheduled before t=0");
        EventKey((u128::from(secs.to_bits()) << 64) | (u128::from(seq) << SLOT_BITS))
    }

    #[inline]
    pub fn at(self) -> Time {
        #[allow(clippy::cast_possible_truncation)]
        Time::from_secs(f64::from_bits((self.0 >> 64) as u64))
    }

    #[inline]
    pub fn seq(self) -> u64 {
        #[allow(clippy::cast_possible_truncation)]
        {
            ((self.0 >> SLOT_BITS) as u64) & (SEQ_LIMIT - 1)
        }
    }
}

/// The 16-byte `Copy` record the heap actually orders: one `u128` packing
/// `(at, seq, slot)` so the entire `(at, seq)` comparison — ties broken by
/// insertion order, making the whole simulation deterministic — is a
/// single integer compare.
///
/// Layout, most significant first: 64 bits of `at` as IEEE-754 bits
/// (simulation times are finite and non-negative, and non-negative doubles
/// order identically to their bit patterns), 36 bits of `seq`, 28 bits of
/// slab slot. The slot takes no part in ordering (`seq` is already
/// unique); it just rides along. The packing caps a run at 2³⁶ ≈ 68 G
/// total events (the default `max_events` cap is 50 M, three orders of
/// magnitude below, and a 68 G-event run would take hours of wall clock)
/// and 2²⁸ ≈ 268 M *simultaneously scheduled* events (roughly 15 GiB of
/// payload slab at CPS message sizes, so memory gives out around the same
/// scale); `push` asserts both rather than silently corrupting order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct HeapEntry(u128);

const SLOT_BITS: u32 = 28;
const SEQ_LIMIT: u64 = 1 << (64 - SLOT_BITS);
const SLOT_LIMIT: u32 = 1 << SLOT_BITS;

impl HeapEntry {
    /// The `(at, seq)` prefix, with the slot masked off.
    #[inline]
    fn key(self) -> EventKey {
        EventKey(self.0 & !u128::from(SLOT_LIMIT - 1))
    }

    #[inline]
    fn new(at: Time, seq: u64, slot: u32) -> Self {
        let secs = at.as_secs();
        debug_assert!(secs >= 0.0, "events cannot be scheduled before t=0");
        HeapEntry(
            (u128::from(secs.to_bits()) << 64)
                | (u128::from(seq) << SLOT_BITS)
                | u128::from(slot),
        )
    }

    #[inline]
    fn at(self) -> Time {
        #[allow(clippy::cast_possible_truncation)]
        Time::from_secs(f64::from_bits((self.0 >> 64) as u64))
    }

    #[inline]
    fn slot(self) -> u32 {
        #[allow(clippy::cast_possible_truncation)]
        {
            (self.0 as u32) & (SLOT_LIMIT - 1)
        }
    }

    /// Strict `(at, seq)` order; `seq` is unique, so this is total.
    #[inline]
    fn before(&self, other: &HeapEntry) -> bool {
        self.0 < other.0
    }
}

/// Children per spill-heap node. A 4-ary min-heap halves the tree depth
/// of a binary one; sift-down compares more children per level but
/// touches adjacent memory.
const HEAP_ARITY: usize = 4;

/// Number of ladder buckets (a power of two, so the ring index is a mask).
const LADDER_BUCKETS: usize = 128;

/// Ladder buckets per delay-horizon hint: the bucket width is
/// `d / LADDER_BUCKETS_PER_HORIZON`, so the ladder spans
/// `LADDER_BUCKETS / LADDER_BUCKETS_PER_HORIZON = 16` delay horizons —
/// comfortably past CPS's timer reach (`T < 10 d`, Corollary 15), which
/// is what keeps [`EventQueue::spill_count`] at zero for the standard
/// scenarios.
const LADDER_BUCKETS_PER_HORIZON: f64 = 8.0;

/// While the queue holds fewer live entries than this (and neither the
/// ladder nor the spill heap is in use), pushes go straight into the
/// sorted run: a tiny queue behaves as one sorted array, avoiding a
/// bucket claim every couple of pops.
const SPARSE_RUN_MAX: usize = 24;

/// A run taking sustained splices into its top bucket re-anchors
/// (demotes) itself back into the ladder once it is longer than this —
/// below it, plain sorted inserts are cheaper than redistributing.
///
/// The demote exists for the sharded engine's push pattern: a lane
/// drains its queue over a conservative window, and the subsequent
/// reconcile pushes the whole window's worth of new deliveries — all
/// within one delay-jitter span `u`, i.e. into *one* bucket, which by
/// then is the freshly claimed run. Without the demote every one of
/// those pushes pays a randomly positioned sorted insert into an
/// ever-growing run — O(window²) memmove traffic, measured as a 6×
/// reconcile slowdown at n = 64 — where one O(run) unwind per burst
/// restores O(1) unsorted bucket appends. (A burst landing *below* the
/// run's top bucket needs no such patience: it re-anchors on its first
/// push, see [`EventQueue::push_with_seq`].)
const RUN_DEMOTE_MIN: usize = 64;

/// Top-bucket splices tolerated per claimed run before a large run is
/// considered under burst pressure (see [`RUN_DEMOTE_MIN`]): a handful
/// of clamped-to-now timers spliced into a big actively-draining run
/// must not trigger a demote-and-reclaim round trip.
const RUN_DEMOTE_INSERTS: u32 = 32;

/// Sorts one claimed bucket ascending. Bucket contents are near-sorted —
/// pushes happen in nondecreasing "now" order with at most the delay
/// jitter `u` of inversion — so small buckets use a plain insertion sort
/// (O(k + inversions), the cheapest possible drain for this workload)
/// while large ones fall back to `sort_unstable`, whose worst case stays
/// `O(k log k)` even for adversarially shuffled timestamps.
fn sort_near_sorted(v: &mut [HeapEntry]) {
    if v.len() > 64 {
        v.sort_unstable_by_key(|e| e.0);
        return;
    }
    for i in 1..v.len() {
        let x = v[i];
        if x.0 >= v[i - 1].0 {
            continue;
        }
        let mut j = i;
        while j > 0 && v[j - 1].0 > x.0 {
            v[j] = v[j - 1];
            j -= 1;
        }
        v[j] = x;
    }
}

/// The far-future tier of the ladder queue: a plain 4-ary min-heap of
/// [`HeapEntry`] records (the pre-ladder queue's ordering structure,
/// demoted to handling the rare overflow).
#[derive(Debug, Default)]
struct SpillHeap {
    heap: Vec<HeapEntry>,
}

impl SpillHeap {
    fn len(&self) -> usize {
        self.heap.len()
    }

    fn peek(&self) -> Option<HeapEntry> {
        self.heap.first().copied()
    }

    fn push(&mut self, entry: HeapEntry) {
        self.heap.push(entry);
        self.sift_up(self.heap.len() - 1);
    }

    fn pop(&mut self) -> Option<HeapEntry> {
        let entry = *self.heap.first()?;
        let last = self.heap.pop().expect("heap is non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
        Some(entry)
    }

    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / HEAP_ARITY;
            if !entry.before(&self.heap[parent]) {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = entry;
    }

    /// Bottom-up sift-down: walk the hole to a leaf choosing the minimum
    /// child at each level, then bubble the displaced entry back up.
    fn sift_down(&mut self, i: usize) {
        let entry = self.heap[i];
        let len = self.heap.len();
        let mut hole = i;
        loop {
            let first_child = hole * HEAP_ARITY + 1;
            if first_child >= len {
                break;
            }
            let last_child = (first_child + HEAP_ARITY).min(len);
            let mut min = first_child;
            let mut min_val = self.heap[first_child];
            for child in first_child + 1..last_child {
                let val = self.heap[child];
                if val.before(&min_val) {
                    min = child;
                    min_val = val;
                }
            }
            self.heap[hole] = min_val;
            hole = min;
        }
        self.heap[hole] = entry;
        self.sift_up(hole);
    }
}

/// A deterministic future-event list: a two-tier ladder/calendar queue.
///
/// Payloads are parked in `slots` (recycled through `free`) while the
/// ordering machinery moves only [`HeapEntry`] records. Three tiers, by
/// distance from the pop frontier — on every path, because the
/// partition [re-anchors](Self::reanchor) whenever traffic shows the
/// frontier to be below the run:
///
/// 1. **The active run** (`run`): every entry whose bucket index is
///    `≤ run_idx`, kept sorted ascending behind a head cursor (pops are
///    a bounds-checked read plus an increment). Drained fully before the
///    ladder advances; late arrivals into its top bucket — same-instant
///    follow-ups, zero-delay sends — are spliced in by binary-search
///    insertion, the "tiny insertion-sorted run" of the classic ladder
///    queue. A push strictly below the top bucket lowers `run_idx`
///    instead, so the run never stays stretched across the gap between
///    a far-future entry and the traffic in front of it.
/// 2. **The ladder** (`buckets`): a ring of [`LADDER_BUCKETS`] fixed-width
///    time buckets for indices in `(run_idx, limit_idx)`. A push is O(1):
///    compute the bucket from `at`, append. When the run drains, the next
///    non-empty bucket is claimed wholesale (`Vec` swap, so bucket
///    capacity is recycled through the ring) and sorted once —
///    `sort_unstable` on packed `u128` keys, far cheaper per entry than
///    heap sifts because the workload is near-sorted and bucket
///    populations are small.
/// 3. **The spill heap** (`spill`): entries at or past `limit_idx` — rare
///    far-future timers. When run and ladder are both empty the ladder is
///    re-anchored at the spill minimum and one ladder-span of entries is
///    drained back into buckets.
///
/// **Re-anchoring.** `limit_idx` is set by whichever entry opened the
/// current epoch — the first push into an empty queue, or the spill
/// minimum at a recharge — and that entry need not be near the pops: a
/// crash scenario schedules its `Recover` events (hundreds of buckets
/// out) before any node has sent a message, and a sharded lane that has
/// drained down to one next-pulse timer recharges on it just before the
/// reconcile posts the next round's deliveries. The ring aliases indices
/// [`LADDER_BUCKETS`] apart, so buckets exist only for one ring-span
/// below `limit_idx`; nearer traffic used to have nowhere to go but the
/// run, each push a binary search plus a memmove over everything pending
/// (measured: 570–700 ns/event on the crash-and-recover catalog
/// scenarios against 145–217 ns on the calm ones). Now the first push
/// strictly under the run's top bucket moves the *window* instead: one
/// pass, `O(run + entries past the new limit)`, sends the far entries to
/// the spill heap where they belong and everything else to O(1) buckets.
/// The same routine serves a burst demote and [`relax`](Self::relax), so
/// the three ways of lowering the run cannot diverge.
///
/// **Order is exactly `(at, seq)`, always.** The bucket index is a
/// monotone function of `at` alone (`floor(at · inv_width)`, computed
/// identically on every path), so tier boundaries can only ever separate
/// keys the total order already separates; within a tier, full-key
/// sorting decides. Adversarially placed timestamps (pushes earlier than
/// the run frontier, bursts at one instant, far-future spikes) therefore
/// pop in exactly the order the old heap produced — the equivalence
/// proptest at the bottom of this file holds the two to account, and the
/// pinned trace hashes in `crates/bench/tests/determinism.rs` pin it
/// end-to-end.
#[derive(Debug)]
pub(crate) struct EventQueue<M> {
    /// Tier 1: the active run, sorted ascending; `run[head..]` is live
    /// (the head cursor avoids reverse-order pops and keeps drains
    /// forward-scanning).
    run: Vec<HeapEntry>,
    /// First live entry of `run` (everything before it already popped).
    head: usize,
    /// Tier 2: the bucket ring; absolute index `i` lives at
    /// `i % LADDER_BUCKETS`, unsorted until claimed.
    buckets: Vec<Vec<HeapEntry>>,
    /// Occupancy bitmap over the ring (bit = ring slot non-empty), so
    /// claiming the next bucket is a couple of `trailing_zeros`, not a
    /// 128-slot scan.
    occupied: [u64; LADDER_BUCKETS / 64],
    /// Tier 3: far-future overflow.
    spill: SpillHeap,
    /// Reciprocal bucket width (s⁻¹); fixed at construction.
    inv_width: f64,
    /// Highest absolute bucket index covered by the run.
    run_idx: u64,
    /// Next absolute bucket index the drain scan will visit.
    next_idx: u64,
    /// Entries with `bucket_index >= limit_idx` go to the spill heap.
    limit_idx: u64,
    /// Catch-all splices into the current run since it was last claimed,
    /// anchored, or demoted — the burst detector (see `RUN_DEMOTE_MIN`).
    run_inserts: u32,
    /// Entries currently in the bucket ring.
    in_buckets: usize,
    /// Total entries across all three tiers.
    len: usize,
    /// Lifetime count of entries sent to the spill heap.
    spilled: u64,
    /// Lifetime count of pushes spliced by the catch-all branch into a
    /// run past sparse size.
    spliced: u64,
    slots: Vec<Option<EventKind<M>>>,
    free: Vec<u32>,
    next_seq: u64,
}

impl<M> EventQueue<M> {
    /// A queue with the default bucket width (tuned for `d = 1 ms`, the
    /// [`SimBuilder`](crate::SimBuilder) default). Production paths pass
    /// the real link delay via [`with_delay_hint`](Self::with_delay_hint);
    /// this is the test constructor.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn new() -> Self {
        Self::with_delay_hint(Dur::from_millis(1.0))
    }

    /// An allocation-free stand-in for a queue that will never be used —
    /// the value a dispatched lane leaves behind while it is out on a
    /// worker thread. The bucket ring is empty, so debug builds panic on
    /// any push (see the `debug_assert` in
    /// [`push_with_seq`](Self::push_with_seq)); the sharded engine swaps
    /// the real lane back before any queue operation can happen.
    pub fn placeholder() -> Self {
        EventQueue {
            run: Vec::new(),
            head: 0,
            buckets: Vec::new(),
            occupied: [0; LADDER_BUCKETS / 64],
            spill: SpillHeap::default(),
            inv_width: 1.0,
            run_idx: 0,
            next_idx: 1,
            limit_idx: LADDER_BUCKETS as u64,
            run_inserts: 0,
            in_buckets: 0,
            len: 0,
            spilled: 0,
            spliced: 0,
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// A queue whose ladder is sized for a maximum message delay of `d`:
    /// bucket width `d / 8`, ladder span `16 d`. The hint affects only
    /// performance (how often events overflow to the spill heap), never
    /// ordering.
    pub fn with_delay_hint(d: Dur) -> Self {
        let width = d.as_secs() / LADDER_BUCKETS_PER_HORIZON;
        let inv_width = if width > 0.0 && width.is_finite() {
            1.0 / width
        } else {
            LADDER_BUCKETS_PER_HORIZON / 1e-3
        };
        EventQueue {
            run: Vec::new(),
            head: 0,
            buckets: (0..LADDER_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; LADDER_BUCKETS / 64],
            spill: SpillHeap::default(),
            inv_width,
            run_idx: 0,
            next_idx: 1,
            limit_idx: LADDER_BUCKETS as u64,
            run_inserts: 0,
            in_buckets: 0,
            len: 0,
            spilled: 0,
            spliced: 0,
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// The absolute ladder-bucket index of `at` — monotone in `at`, and
    /// the *same* function on every push and recharge path, which is what
    /// makes the tier partition order-safe. Clamped below `u64::MAX` so
    /// `limit_idx` arithmetic cannot overflow (clamped entries just share
    /// the topmost bucket; within-bucket sorting still orders them).
    #[inline]
    fn bucket_index(&self, at: Time) -> u64 {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let idx = (at.as_secs() * self.inv_width) as u64; // saturating cast
        idx.min(u64::MAX - LADDER_BUCKETS as u64 - 2)
    }

    pub fn push(&mut self, at: Time, kind: EventKind<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_with_seq(at, seq, kind);
    }

    /// [`push`](Self::push) with an externally assigned sequence number.
    ///
    /// The sharded engine allocates sequence numbers centrally (its
    /// reconcile phase replays pushes in the single-lane engine's order)
    /// and routes each event into the destination node's lane-local queue;
    /// this entry point bypasses the queue's own counter so `(at, seq)`
    /// keys stay globally unique and globally ordered across lanes.
    pub fn push_with_seq(&mut self, at: Time, seq: u64, kind: EventKind<M>) {
        debug_assert!(
            !self.buckets.is_empty(),
            "push into a placeholder queue (see EventQueue::placeholder)"
        );
        assert!(seq < SEQ_LIMIT, "more than 2^36 events scheduled");
        let slot = match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slots[slot as usize].is_none(), "free slot occupied");
                self.slots[slot as usize] = Some(kind);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&s| s < SLOT_LIMIT)
                    .expect("more than 2^28 simultaneous events");
                self.slots.push(Some(kind));
                slot
            }
        };
        let entry = HeapEntry::new(at, seq, slot);
        let idx = self.bucket_index(at);
        if self.len == 0 {
            // Re-anchor the ladder on the first event of a fresh epoch,
            // discarding the drained run's dead prefix (without this, a
            // workload that repeatedly drains the queue would grow the
            // run `Vec` by one entry per epoch forever). The limit
            // leaves one bucket of headroom *below* the anchor so a
            // post-anchor burst into the anchor's own bucket can demote
            // out of the run without moving the window.
            self.run.clear();
            self.head = 0;
            self.run_idx = idx;
            self.next_idx = idx + 1;
            self.limit_idx = idx + LADDER_BUCKETS as u64;
            self.run_inserts = 0;
            self.run.push(entry);
        } else if self.in_buckets == 0
            && self.spill.len() == 0
            && self.run.len() - self.head < SPARSE_RUN_MAX
            && idx < self.limit_idx
        {
            // Sparse mode: while the queue is tiny and fits one sorted
            // array, keep everything in the run (a binary-search insert
            // beats paying a bucket claim every couple of pops). The run
            // then covers every index it absorbed. Compact the popped
            // prefix once it dominates the buffer — sparse steady state
            // never drains the run, so without this the dead prefix
            // would grow with run length, one entry per pop.
            if self.head > SPARSE_RUN_MAX {
                self.run.drain(..self.head);
                self.head = 0;
            }
            let pos = self.run[self.head..].partition_point(|e| e.0 < entry.0);
            self.run.insert(self.head + pos, entry);
            self.run_idx = self.run_idx.max(idx);
            self.next_idx = self.run_idx + 1;
        } else if idx > self.run_idx {
            self.place(idx, entry);
        } else {
            // Lands in the run's index range. Strictly below its top
            // bucket means the run is not where the pops are: it was
            // anchored on a far-future first push, lazily claimed ahead
            // of traffic that had not been posted yet, or grew across
            // buckets in sparse mode — so the partition re-anchors just
            // under the push at once (see [`reanchor`](Self::reanchor))
            // and this entry, like the rest of its burst, takes an O(1)
            // bucket append. A push into the top bucket itself is the
            // run's legitimate late arrival (a same-instant follow-up, a
            // zero-delay send) and is spliced in — unless a large run is
            // taking *sustained* splices, the burst anti-pattern (a
            // whole round of deliveries landing in one freshly claimed
            // bucket, each paying a mid-run memmove — measured as a 6×
            // reconcile slowdown at n = 64), which past
            // [`RUN_DEMOTE_MIN`] re-anchors the same way. The
            // insert-count gate keeps an occasional splice into a large
            // actively-draining run (a timer clamped to "now") from
            // paying a pointless demote-and-reclaim round trip.
            self.run_inserts += 1;
            if idx < self.run_idx
                || (self.run_inserts > RUN_DEMOTE_INSERTS
                    && self.run.len() - self.head > RUN_DEMOTE_MIN)
            {
                self.reanchor(idx.saturating_sub(1));
            }
            if idx > self.run_idx {
                self.place(idx, entry);
            } else {
                // Amortized prefix compaction (same rationale as the
                // sparse branch): a run that keeps absorbing splices as
                // fast as it drains may never empty, so drop the popped
                // prefix whenever it outweighs the live tail.
                if self.head > SPARSE_RUN_MAX && self.head >= self.run.len() - self.head {
                    self.run.drain(..self.head);
                    self.head = 0;
                }
                let live = &self.run[self.head..];
                // (a run still short enough for sparse mode is a tiny
                // sorted array by design; only longer ones are counted)
                self.spliced += u64::from(live.len() >= SPARSE_RUN_MAX);
                let pos = live.partition_point(|e| e.0 < entry.0);
                self.run.insert(self.head + pos, entry);
            }
        }
        self.len += 1;
    }

    /// Files an entry above the run: an O(1) append to its ring bucket
    /// (unsorted until claimed), or the spill heap at or past `limit_idx`.
    #[inline]
    fn place(&mut self, idx: u64, entry: HeapEntry) {
        debug_assert!(idx > self.run_idx);
        if idx < self.limit_idx {
            let slot = (idx % LADDER_BUCKETS as u64) as usize;
            self.buckets[slot].push(entry);
            self.occupied[slot / 64] |= 1 << (slot % 64);
            self.in_buckets += 1;
        } else {
            self.spill.push(entry);
            self.spilled += 1;
        }
    }

    /// Makes the run's head the queue minimum, claiming lazily: the
    /// ladder only advances when someone actually asks for the front.
    /// Lazy (rather than claim-on-last-pop) matters to the sharded
    /// engine, whose reconcile pushes a whole window of traffic between a
    /// lane's last pop and its next peek — those pushes should land in
    /// unclaimed O(1) buckets, not splice into a prematurely claimed run.
    #[inline]
    fn ensure_front(&mut self) {
        if self.head == self.run.len() && self.len > 0 {
            self.run.clear();
            self.head = 0;
            self.advance();
        }
    }

    /// The `(at, seq)` key of the next event, without popping it. Drives
    /// the sharded engine's window computation and in-window pop loop.
    /// (`&mut`: may lazily claim the next ladder bucket.)
    pub fn peek_key(&mut self) -> Option<EventKey> {
        self.ensure_front();
        self.run.get(self.head).map(|e| e.key())
    }

    /// [`pop`](Self::pop), also returning the event's global-order key.
    pub fn pop_keyed(&mut self) -> Option<(EventKey, Event<M>)> {
        let key = self.peek_key()?;
        let event = self.pop().expect("peeked queue is non-empty");
        Some((key, event))
    }

    pub fn pop(&mut self) -> Option<Event<M>> {
        self.ensure_front();
        let entry = *self.run.get(self.head)?;
        self.head += 1;
        self.len -= 1;
        let slot = entry.slot();
        let kind = self.slots[slot as usize]
            .take()
            .expect("queue entry pointing at empty slot");
        self.free.push(slot);
        Some(Event {
            at: entry.at(),
            kind,
        })
    }

    /// Returns the run's remaining entries to the ladder (keeping the
    /// partition invariants), so that a consumer pausing mid-run — a lane
    /// stopping at its conservative-window boundary — leaves the queue in
    /// its cheapest shape for the pushes that arrive before the next
    /// peek. Purely a performance hint: order is unaffected, and the next
    /// front access re-claims lazily.
    pub fn relax(&mut self) {
        if self.head == self.run.len() {
            self.run.clear();
            self.head = 0;
            return;
        }
        let new_idx = self.bucket_index(self.run[self.head].at()).saturating_sub(1);
        self.reanchor(new_idx);
    }

    /// Claims the next non-empty bucket as the new active run (recharging
    /// the ladder from the spill heap first if every bucket is empty).
    /// Called only when the run is empty but the queue is not.
    fn advance(&mut self) {
        debug_assert!(self.run.is_empty());
        if self.in_buckets == 0 {
            // Ladder dry: re-anchor it at the spill minimum and pull one
            // ladder-span of far-future entries back into buckets.
            let top = self.spill.peek().expect("non-empty queue with empty tiers");
            let first = self.bucket_index(top.at());
            self.next_idx = first;
            self.limit_idx = first + LADDER_BUCKETS as u64;
            while let Some(top) = self.spill.peek() {
                let idx = self.bucket_index(top.at());
                if idx >= self.limit_idx {
                    break;
                }
                let entry = self.spill.pop().expect("peeked spill heap is non-empty");
                let slot = (idx % LADDER_BUCKETS as u64) as usize;
                self.buckets[slot].push(entry);
                self.occupied[slot / 64] |= 1 << (slot % 64);
                self.in_buckets += 1;
            }
            // (direct pushes rather than `place`: during a recharge the
            // run is empty and `run_idx` still points at its drained
            // epoch, so the helper's frontier assertion does not apply)
            debug_assert!(self.in_buckets > 0, "recharge drained nothing");
        }
        // The occupancy bitmap finds the next non-empty ring slot in the
        // cyclic order starting at `next_idx`; live bucket indices span
        // at most the ring size, so the cyclic distance recovers the
        // absolute index unambiguously.
        let from = (self.next_idx % LADDER_BUCKETS as u64) as usize;
        let slot = self.first_occupied_from(from);
        let delta = (slot + LADDER_BUCKETS - from) % LADDER_BUCKETS;
        // Swap, not drain: the run's spent capacity rotates into the ring
        // slot, so steady state allocates nothing.
        std::mem::swap(&mut self.run, &mut self.buckets[slot]);
        self.occupied[slot / 64] &= !(1 << (slot % 64));
        self.in_buckets -= self.run.len();
        sort_near_sorted(&mut self.run);
        self.run_idx = self.next_idx + delta as u64;
        self.next_idx = self.run_idx + 1;
        self.run_inserts = 0;
    }

    /// Lowers the run to `new_run_idx` (a no-op if it is already there
    /// or below): the run keeps its entries up to that index and every
    /// later one is refiled above it. The one routine behind all three
    /// ways the partition follows the pop frontier down — a push below
    /// the run's top bucket, a burst demote, and [`relax`](Self::relax).
    ///
    /// If the ring cannot address the gap up to `limit_idx` (see
    /// *Re-anchoring* in the type docs) the window comes down too:
    /// `limit_idx` drops to one ring-span above the new anchor, and
    /// bucket and run entries at or past it move to the spill heap.
    /// `O(run + moved)`. Order is untouched: every entry is refiled by
    /// the same `bucket_index`, and run ≤ buckets < spill still holds
    /// index-wise.
    fn reanchor(&mut self, new_run_idx: u64) {
        if new_run_idx >= self.run_idx {
            return;
        }
        self.run_idx = new_run_idx;
        self.next_idx = new_run_idx + 1;
        self.run_inserts = 0;
        if self.limit_idx > new_run_idx + LADDER_BUCKETS as u64 + 1 {
            // Same headroom as a fresh anchor: one bucket spare below.
            self.limit_idx = new_run_idx + LADDER_BUCKETS as u64;
            if self.in_buckets > 0 {
                self.spill_past_limit();
            }
        }
        self.run.drain(..self.head);
        self.head = 0;
        // The run is sorted and the bucket index is monotone in `at`, so
        // the entries that stay (index ≤ the new anchor) are a prefix.
        let keep = self
            .run
            .partition_point(|e| self.bucket_index(e.at()) <= new_run_idx);
        for i in keep..self.run.len() {
            let entry = self.run[i];
            self.place(self.bucket_index(entry.at()), entry);
        }
        self.run.truncate(keep);
    }

    /// Moves every bucket whose index is at or past a just-lowered
    /// `limit_idx` to the spill heap. Live bucket indices span at most
    /// the ring, so each slot holds entries of a single index and its
    /// first entry speaks for all of them.
    fn spill_past_limit(&mut self) {
        for slot in 0..LADDER_BUCKETS {
            let Some(first) = self.buckets[slot].first() else {
                continue;
            };
            if self.bucket_index(first.at()) < self.limit_idx {
                continue;
            }
            let moved = self.buckets[slot].len();
            for entry in self.buckets[slot].drain(..) {
                self.spill.push(entry);
            }
            self.occupied[slot / 64] &= !(1 << (slot % 64));
            self.in_buckets -= moved;
            self.spilled += moved as u64;
        }
    }

    /// First set bit of the occupancy bitmap in cyclic ring order
    /// starting at `from`. Must only be called with at least one bucket
    /// occupied. Written against `LADDER_BUCKETS / 64` words so the
    /// bucket count stays a freely tunable constant.
    #[inline]
    fn first_occupied_from(&self, from: usize) -> usize {
        const WORDS: usize = LADDER_BUCKETS / 64;
        let (word, bit) = (from / 64, from % 64);
        let masked = self.occupied[word] & (!0u64 << bit);
        if masked != 0 {
            return word * 64 + masked.trailing_zeros() as usize;
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
                return w * 64 + bits.trailing_zeros() as usize;
            }
        }
        unreachable!("first_occupied_from on an empty ladder")
    }

    /// How many entries went to the spill heap over this queue's
    /// lifetime: pushes past the ladder's horizon, plus already-queued
    /// entries a [`reanchor`](Self::reanchor) moved there when it
    /// lowered the window (each counted once per move). Zero for
    /// workloads whose events stay within ~16 delay horizons of the pop
    /// frontier (all the standard CPS scenarios — a regression test pins
    /// this); a large value signals the delay hint passed to
    /// [`with_delay_hint`](Self::with_delay_hint) is far off the
    /// workload's real horizon.
    pub fn spill_count(&self) -> u64 {
        self.spilled
    }

    /// How many pushes took the catch-all splice into a sorted run
    /// already [`SPARSE_RUN_MAX`] entries long (the `idx <= run_idx`
    /// branch of [`push_with_seq`](Self::push_with_seq); inserts into a
    /// run shorter than that — sparse mode, or a lane's handful of
    /// same-bucket arrivals — are the cheap path by design and are not
    /// counted). Each is a binary search plus a memmove of the run's
    /// tail, so a count that grows with the push count means the queue
    /// has degraded into one sorted array.
    pub fn splice_count(&self) -> u64 {
        self.spliced
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub fn len(&self) -> usize {
        self.len
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of `Deliver` events currently pending — the sharded engine's
    /// mailbox-conservation diagnostics count undelivered messages here.
    pub fn pending_deliveries(&self) -> usize {
        self.slots
            .iter()
            .flatten()
            .filter(|k| matches!(k, EventKind::Deliver { .. }))
            .count()
    }

    /// Asserts the tier partition the pop order rests on: a sorted run
    /// at or below `run_idx`, every bucket entry in its own ring slot
    /// strictly between `run_idx` and `limit_idx` and within one
    /// ring-span of the limit (no aliasing), the spill heap at or past
    /// the limit, and the bookkeeping counters in agreement.
    #[cfg(test)]
    fn check_invariants(&self) {
        let live = &self.run[self.head..];
        assert!(live.windows(2).all(|w| w[0].0 < w[1].0), "run not sorted");
        for e in live {
            assert!(
                self.bucket_index(e.at()) <= self.run_idx,
                "run entry above run_idx"
            );
        }
        let mut in_buckets = 0;
        for (slot, bucket) in self.buckets.iter().enumerate() {
            let bit = self.occupied[slot / 64] >> (slot % 64) & 1;
            assert_eq!(bit == 1, !bucket.is_empty(), "occupancy bit of slot {slot}");
            for e in bucket {
                let idx = self.bucket_index(e.at());
                assert_eq!(
                    (idx % LADDER_BUCKETS as u64) as usize,
                    slot,
                    "entry in wrong slot"
                );
                assert!(
                    idx > self.run_idx && idx < self.limit_idx,
                    "bucket entry outside the ladder"
                );
                assert!(
                    idx + LADDER_BUCKETS as u64 >= self.limit_idx,
                    "ring slot aliased"
                );
            }
            in_buckets += bucket.len();
        }
        assert_eq!(in_buckets, self.in_buckets);
        for e in &self.spill.heap {
            assert!(
                self.bucket_index(e.at()) >= self.limit_idx,
                "spill entry below the limit"
            );
        }
        assert_eq!(live.len() + in_buckets + self.spill.len(), self.len);
    }

    /// Slab slots currently sitting on the free list (leak diagnostics).
    #[cfg(test)]
    fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Total slab capacity ever allocated (the queue's high-water mark).
    #[cfg(test)]
    fn slab_slots(&self) -> usize {
        self.slots.len()
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
#[derive(Debug, Default)]
pub(crate) struct TimerSlab {
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

    #[inline]
    fn release(&mut self, id: TimerId) -> bool {
        let slot = (id.0 & u64::from(u32::MAX)) as usize;
        #[allow(clippy::cast_possible_truncation)]
        let generation = (id.0 >> 32) as u32;
        let Some(entry) = self.slots.get_mut(slot) else {
            return false; // id from a different context (never issued here)
        };
        if !entry.armed || entry.generation != generation {
            return false;
        }
        entry.armed = false;
        entry.generation = entry.generation.wrapping_add(1);
        self.free.push(slot as u32);
        self.live -= 1;
        true
    }

    /// Most timers ever pending at once (bounds the slab's memory).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Timers pending right now.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn live(&self) -> usize {
        self.live
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// Microbenchmark of the queue alone (not a correctness test):
    /// `cargo test --release -p crusader_sim -- --ignored --nocapture`.
    #[test]
    #[ignore = "microbenchmark, run explicitly with --ignored"]
    fn bench_queue_steady_state() {
        // CPS-ish steady state: ~N outstanding, each pop schedules one
        // push at popped_at + delay, delay in [d-u, d].
        let d = 1e-3;
        let u = 1e-5;
        for outstanding in [8usize, 64, 360] {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut x = 0x9e3779b97f4a7c15u64;
            let mut rng = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 11) as f64 / (1u64 << 53) as f64
            };
            for i in 0..outstanding {
                q.push(Time::from_secs(d * rng() + i as f64 * 1e-9), EventKind::AdvTimer { key: 0 });
            }
            let iters = 2_000_000u64;
            let started = std::time::Instant::now();
            for _ in 0..iters {
                let e = q.pop().unwrap();
                q.push(e.at + Dur::from_secs(d - u * rng()), EventKind::AdvTimer { key: 0 });
            }
            let ns = started.elapsed().as_nanos() as f64 / iters as f64;
            println!("outstanding={outstanding}: {ns:.1} ns/op (pop+push)");
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<()> = EventQueue::new();
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
        let mut q: EventQueue<()> = EventQueue::new();
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
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.push(Time::ZERO, EventKind::AdvTimer { key: 0 });
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn slab_slots_are_recycled_not_leaked() {
        let mut q: EventQueue<()> = EventQueue::new();
        for round in 0..100u64 {
            for key in 0..4 {
                q.push(Time::from_secs(round as f64), EventKind::AdvTimer { key });
            }
            for _ in 0..4 {
                q.pop().unwrap();
            }
        }
        // 400 events flowed through, but at most 4 were ever outstanding.
        assert!(q.slab_slots() <= 4, "slab grew to {}", q.slab_slots());
        assert_eq!(q.free_slots(), q.slab_slots());
    }

    #[test]
    fn shared_payload_unwraps_or_clones() {
        let a = Payload::shared(vec![1u8, 2]);
        let b = a.clone();
        assert_eq!(a.as_ref(), &vec![1, 2]);
        assert_eq!(a.into_owned(), vec![1, 2]); // clones (b still shares)
        assert_eq!(b.into_owned(), vec![1, 2]); // last ref: unwraps
        assert_eq!(Payload::Owned(7u64).into_owned(), 7);
    }

    #[test]
    fn shared_payload_learns_exactly_once() {
        let a = Payload::shared(());
        let b = a.clone();
        assert!(a.needs_learning(), "first faulty delivery learns");
        assert!(!b.needs_learning(), "second delivery of the same payload skips");
        assert!(!a.needs_learning());
        // Owned payloads always learn (no sharing to dedupe against).
        let o = Payload::Owned(());
        assert!(o.needs_learning());
        assert!(o.needs_learning());
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
    fn timer_slab_never_issued_id_is_stale() {
        let mut slab = TimerSlab::new();
        assert!(!slab.fire(TimerId::new(123)));
    }

    #[test]
    fn far_future_events_spill_and_return_in_order() {
        let d = Dur::from_millis(1.0);
        let mut q: EventQueue<()> = EventQueue::with_delay_hint(d);
        // Anchor near zero, then schedule far past the 16d ladder span.
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
        // Spilled entries recharge the ladder and still pop in time order,
        // across two separate recharges (100 ms and 500 ms fit no common
        // ladder span; 5000 ms needs a third).
        assert_eq!(keys, vec![0, 1, 2, 3]);
    }

    #[test]
    fn horizon_rollover_reanchors_the_ladder() {
        let mut q: EventQueue<()> = EventQueue::new();
        for round in 0..50u64 {
            // Each round sits ~1000 bucket widths past the previous one,
            // far beyond the 128-bucket ring: the queue must re-anchor
            // every time it drains (and when a push lands on an empty
            // queue), without ring-index collisions corrupting order.
            let base = Time::from_secs(round as f64 * 0.125);
            q.push(base + Dur::from_micros(7.0), EventKind::AdvTimer { key: 2 * round });
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
        // must still come out before later-dated entries (the run is the
        // catch-all tier below the frontier).
        let mut q: EventQueue<()> = EventQueue::new();
        q.push(Time::from_secs(1.0), EventKind::AdvTimer { key: 10 });
        q.push(Time::from_secs(1.001), EventKind::AdvTimer { key: 11 });
        assert_eq!(q.pop().unwrap().at, Time::from_secs(1.0));
        q.push(Time::from_secs(0.25), EventKind::AdvTimer { key: 12 });
        assert_eq!(q.pop().unwrap().at, Time::from_secs(0.25));
        assert_eq!(q.pop().unwrap().at, Time::from_secs(1.001));
    }

    /// The chaos engine's push pattern: a `Recover` event scheduled before
    /// anything else anchors the queue thousands of buckets ahead of the
    /// traffic. The queue must stay a ladder — O(1) bucket appends, not
    /// one sorted array absorbing every push by binary search + memmove
    /// (before the frontier re-anchor, the splice count below equalled
    /// the number of pushes).
    #[test]
    fn far_future_anchor_stays_a_ladder() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let d = 1e-3; // the default delay hint: buckets are d / 8 wide
        let sentinel_at = 10_000.0 * d / LADDER_BUCKETS_PER_HORIZON;
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut oracle: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut push =
            |q: &mut EventQueue<u64>, oracle: &mut BinaryHeap<Reverse<(u64, u64)>>, at: f64| {
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
        // time (a dozen ladder epochs), all of it short of the sentinel.
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
        // One burst-demote's worth of tolerated splices per re-anchor,
        // and the sentinel forces a single re-anchor.
        let budget = u64::from(RUN_DEMOTE_INSERTS) + RUN_DEMOTE_MIN as u64 + 8;
        assert!(
            q.splice_count() < budget,
            "{} of {seq} pushes were spliced into the sorted run (budget {budget})",
            q.splice_count()
        );
        // The sentinel is moved to the spill heap once; the rest of the
        // count is ordinary epoch-boundary overflow.
        assert!(q.spill_count() >= 1);
    }

    proptest! {
        /// Random interleavings of pushes and pops: pops always come out
        /// in (at, seq) order, and the slab never leaks a slot.
        #[test]
        fn prop_slab_queue_orders_and_recycles(
            // Encodes (at, push/pop) in one value: the vendored proptest
            // stand-in has no tuple strategies. Low bit: push; rest: time.
            ops in proptest::collection::vec(0u16..100, 1..200)
        ) {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut next_key = 0u64;
            // Model: keys in `(at, insertion)` order, as a sorted list.
            let mut model: Vec<(u16, u64)> = Vec::new();
            let mut outstanding_high_water = 0usize;
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
                    outstanding_high_water = outstanding_high_water.max(q.len());
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
            // No slot leaked: everything allocated is back on the free
            // list, and the slab never outgrew the deepest outstanding set.
            prop_assert_eq!(q.free_slots(), q.slab_slots());
            prop_assert!(q.slab_slots() <= outstanding_high_water.max(1));
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

        /// Ladder queue vs. a `BinaryHeap` oracle over adversarial
        /// timestamp patterns — same-instant bursts, zero-delay (ũ = d)
        /// arrivals, bounded-delay traffic, far-future timers that hit
        /// the spill heap, horizon rollovers that force the ladder to
        /// re-anchor, a first push ≥ 1 000 buckets ahead of everything
        /// that follows (the `Recover`-first shape), and drains down to
        /// the spill tier followed by nearer pushes (the dry sharded
        /// lane), both of which lower the whole window. The `(at, seq)`
        /// pop sequences must be identical.
        #[test]
        fn prop_ladder_matches_heap_oracle(
            ops in proptest::collection::vec(0u32..1 << 14, 1..300)
        ) {
            use std::cmp::Reverse;
            use std::collections::BinaryHeap;

            let d = 1e-3; // matches the default delay hint
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut oracle: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut next_seq = 0u64;
            let mut now = 0.0f64; // real time of the latest pop
            let push = |q: &mut EventQueue<u64>,
                            oracle: &mut BinaryHeap<Reverse<(u64, u64)>>,
                            seq: &mut u64,
                            at: f64| {
                q.push(Time::from_secs(at), EventKind::AdvTimer { key: *seq });
                oracle.push(Reverse((at.to_bits(), *seq)));
                *seq += 1;
            };
            let pop_and_compare = |q: &mut EventQueue<u64>,
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
            // anchors the ladder ≥ 1 000 buckets (125 d) past the rest.
            if ops[0] % 2 == 0 {
                let at = (125.0 + f64::from(ops[0] >> 3)) * d;
                push(&mut q, &mut oracle, &mut next_seq, at);
            }
            for op in ops {
                let magnitude = f64::from(op >> 3);
                match op % 8 {
                    // Drain to the spill tier, let a peek recharge the
                    // ladder on the (far) spill minimum, then undercut it
                    // with bounded-delay traffic from the pop frontier.
                    7 if (op >> 3) % 8 == 0 => {
                        while q.len() > q.spill.len() {
                            pop_and_compare(&mut q, &mut oracle, &mut now);
                        }
                        let _ = q.peek_key();
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
                    // Far-future timer, beyond the 16d ladder span.
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
            prop_assert_eq!(q.free_slots(), q.slab_slots());
        }
    }
}
