//! A hashed timer wheel for host-time deadlines.
//!
//! The reactor multiplexes thousands of node tasks onto a handful of
//! worker threads, so `SetTimer` deadlines cannot live in a per-thread
//! `recv_deadline` — some *one* data structure has to answer
//! "which node must wake next, and when?" for every parked node at once.
//! This module is that structure: a classic hashed timer wheel (Varghese &
//! Lauck, SOSP 1987), sharing design DNA with the simulator's ladder
//! queue (`crates/sim/src/event.rs`) — both exploit the fact that
//! deadlines are clustered near the present to replace `O(log n)` heap
//! reshuffles with `O(1)` bucket pushes.
//!
//! * **Ticks.** Host time is quantized into ticks of `granularity`
//!   nanoseconds. Deadlines round *up* to the next tick boundary, so an
//!   entry never fires early (firing late by less than one tick is
//!   indistinguishable from host scheduling jitter, which the runtime
//!   already folds into `u` — see the crate docs).
//! * **Slots.** Entry with deadline tick `t` lives in slot `t % SLOTS`.
//!   Insertion and cancellation are `O(1)` plus a short in-slot scan
//!   (slot occupancy is `len / SLOTS`; the reactor keeps at most one
//!   entry per node, so with 2048 nodes and 256 slots that is ≈ 8).
//! * **Advancing.** [`advance`](TimerWheel::advance) collects every entry
//!   whose tick is at or before "now", scanning only the slots the
//!   cursor passed (or one full rotation, whichever is smaller), and
//!   returns them sorted by `(tick, seq)` — deterministic FIFO order for
//!   same-deadline ties, which the oracle proptest below pins against a
//!   `BinaryHeap`.
//! * **Cancellation.** [`insert`](TimerWheel::insert) returns a
//!   [`WheelKey`] with a unique sequence number;
//!   [`cancel`](TimerWheel::cancel) removes the entry if it has not
//!   fired yet.
//!
//! The wheel is a plain deterministic data structure (no clocks, no
//! threads); the reactor's timer thread owns one and drives it with real
//! host instants.

/// Handle to a pending entry, for [`TimerWheel::cancel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WheelKey {
    slot: u32,
    seq: u64,
}

#[derive(Clone, Debug)]
struct Entry<T> {
    tick: u64,
    seq: u64,
    payload: T,
}

/// A hashed timer wheel mapping `u64` nanosecond deadlines to payloads.
///
/// See the [module docs](self) for the design; the reactor uses one entry
/// per node (the node's earliest pending timer), re-registered whenever
/// the node runs.
#[derive(Clone, Debug)]
pub struct TimerWheel<T> {
    slots: Vec<Vec<Entry<T>>>,
    granularity: u64,
    /// Next tick [`advance`](Self::advance) has not yet swept past.
    cursor: u64,
    /// Cached earliest pending tick (`None` when unknown; recomputed
    /// lazily by [`next_deadline`](Self::next_deadline)).
    min_tick: Option<u64>,
    len: usize,
    next_seq: u64,
}

impl<T> TimerWheel<T> {
    /// Creates a wheel with `slots` buckets of `granularity` nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `granularity == 0` or `slots == 0`.
    #[must_use]
    pub fn new(granularity: u64, slots: usize) -> Self {
        assert!(granularity > 0, "granularity must be positive");
        assert!(slots > 0, "need at least one slot");
        TimerWheel {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            granularity,
            cursor: 0,
            min_tick: None,
            len: 0,
            next_seq: 0,
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

    /// The wheel's tick granularity in nanoseconds.
    #[must_use]
    pub fn granularity(&self) -> u64 {
        self.granularity
    }

    fn tick_of(&self, deadline_ns: u64) -> u64 {
        // Round *up*: an entry must never fire before its deadline.
        deadline_ns.div_ceil(self.granularity)
    }

    /// Schedules `payload` for `deadline_ns` (nanoseconds on the caller's
    /// clock). Returns a key for [`cancel`](Self::cancel).
    ///
    /// A deadline at or before the last [`advance`](Self::advance) sweep
    /// fires on the *next* sweep — the wheel never loses entries to the
    /// past.
    pub fn insert(&mut self, deadline_ns: u64, payload: T) -> WheelKey {
        // Clamp into the present so a stale deadline still fires promptly
        // instead of waiting one full rotation behind the cursor.
        let tick = self.tick_of(deadline_ns).max(self.cursor);
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = (tick % self.slots.len() as u64) as u32;
        self.slots[slot as usize].push(Entry {
            tick,
            seq,
            payload,
        });
        self.len += 1;
        // Only ever *lower* the cached minimum. `None` means "unknown,
        // recompute lazily" — not "empty": surviving entries smaller than
        // this insert may exist, so promoting `None` to `Some(tick)` here
        // would silently raise the reported next deadline and make the
        // reactor's timer thread sleep past real deadlines.
        if self.min_tick.is_some_and(|m| tick < m) {
            self.min_tick = Some(tick);
        } else if self.len == 1 {
            // A previously empty wheel has no smaller survivor.
            self.min_tick = Some(tick);
        }
        WheelKey { slot, seq }
    }

    /// Cancels a pending entry. Returns the payload if it was still
    /// pending, `None` if it already fired (or was already cancelled).
    pub fn cancel(&mut self, key: WheelKey) -> Option<T> {
        let slot = &mut self.slots[key.slot as usize];
        let at = slot.iter().position(|e| e.seq == key.seq)?;
        let entry = slot.swap_remove(at);
        self.len -= 1;
        if self.min_tick == Some(entry.tick) {
            self.min_tick = None; // recompute lazily
        }
        Some(entry.payload)
    }

    /// The earliest pending deadline, in nanoseconds (tick-quantized, so
    /// it is at or after the true deadline by less than one tick).
    pub fn next_deadline(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        if self.min_tick.is_none() {
            self.min_tick = self
                .slots
                .iter()
                .flatten()
                .map(|e| e.tick)
                .min();
        }
        self.min_tick.map(|t| t * self.granularity)
    }

    /// Removes and returns every entry due at or before `now_ns`, sorted
    /// by `(tick, seq)` — deadline order, insertion order within a tick.
    pub fn advance(&mut self, now_ns: u64) -> Vec<(u64, T)> {
        let now_tick = now_ns / self.granularity;
        if self.len == 0 {
            self.cursor = self.cursor.max(now_tick + 1);
            return Vec::new();
        }
        let mut fired: Vec<Entry<T>> = Vec::new();
        let slots = self.slots.len() as u64;
        // Sweep only the slots the cursor actually passes; a jump longer
        // than one rotation visits each slot once.
        let span = (now_tick + 1).saturating_sub(self.cursor).min(slots);
        let start = self.cursor;
        for i in 0..span {
            let slot = ((start + i) % slots) as usize;
            let bucket = &mut self.slots[slot];
            let mut j = 0;
            while j < bucket.len() {
                if bucket[j].tick <= now_tick {
                    fired.push(bucket.swap_remove(j));
                } else {
                    j += 1;
                }
            }
        }
        self.cursor = self.cursor.max(now_tick + 1);
        self.len -= fired.len();
        if fired.iter().any(|e| Some(e.tick) == self.min_tick) {
            self.min_tick = None;
        }
        fired.sort_by_key(|e| (e.tick, e.seq));
        fired
            .into_iter()
            .map(|e| (e.tick * self.granularity, e.payload))
            .collect()
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
        // tick 9 lands in slot 1 of a 4-slot wheel; tick 1 shares it.
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

    /// Regression: an insert landing while the cached minimum is
    /// invalidated (`None`, right after an `advance` fired the previous
    /// minimum) must not raise `next_deadline` above a surviving smaller
    /// entry. This exact sequence made the reactor's timer thread sleep
    /// ~200 ms past a herd of accept deadlines.
    #[test]
    fn insert_after_min_fire_keeps_surviving_minimum() {
        let mut w = TimerWheel::new(10, 8);
        w.insert(200, "fires");
        w.insert(500, "survivor");
        let fired = w.advance(250);
        assert_eq!(fired.len(), 1);
        // Cache is now invalidated; this insert is *larger* than the
        // survivor and must not become the reported minimum.
        w.insert(900, "later");
        assert_eq!(w.next_deadline(), Some(500));
    }

    #[test]
    fn stale_deadlines_fire_on_next_sweep() {
        let mut w = TimerWheel::new(10, 4);
        w.advance(500);
        w.insert(30, "stale"); // far behind the cursor
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
            /// The wheel against a sorted-list oracle (the moral
            /// equivalent of a `BinaryHeap` of `(tick, seq)`) over random
            /// insert/cancel/advance interleavings: identical fire sets in
            /// identical `(tick, seq)` order, including same-deadline ties
            /// and cancelled entries — the same oracle pattern as the
            /// simulator's ladder-queue proptest in
            /// `crates/sim/src/event.rs`.
            #[test]
            fn prop_wheel_matches_heap_oracle(
                // One op per value; the vendored proptest stand-in has no
                // tuple strategies. Low 2 bits select the op (0/1 insert,
                // 2 cancel, 3 advance); the rest is a deadline or a step.
                ops in proptest::collection::vec(0u32..1 << 12, 1..300)
            ) {
                let g = 10u64; // granularity
                let mut wheel = TimerWheel::new(g, 16);
                // Oracle state, mirroring the wheel's documented contract.
                let mut model: Vec<(u64, u64)> = Vec::new(); // (tick, seq)
                let mut keys: Vec<(WheelKey, u64)> = Vec::new(); // (key, seq)
                let mut cursor = 0u64;
                let mut now = 0u64;
                let mut seq = 0u64;
                for op in ops {
                    let arg = u64::from(op >> 2);
                    match op & 3 {
                        0 | 1 => {
                            // Insert; deadlines land in the past, on exact
                            // tick boundaries (ties), and in the future —
                            // past deadlines clamp to the sweep cursor.
                            let key = wheel.insert(arg, seq);
                            let tick = arg.div_ceil(g).max(cursor);
                            model.push((tick, seq));
                            keys.push((key, seq));
                            seq += 1;
                        }
                        2 => {
                            // Cancel a random previously issued key; the
                            // wheel must agree with the oracle on whether
                            // the entry was still pending.
                            if !keys.is_empty() {
                                let pick = (arg as usize) % keys.len();
                                let (key, s) = keys.swap_remove(pick);
                                let pending = model.iter().position(|&(_, ms)| ms == s);
                                prop_assert_eq!(
                                    wheel.cancel(key).is_some(),
                                    pending.is_some()
                                );
                                if let Some(at) = pending {
                                    model.remove(at);
                                }
                            }
                        }
                        _ => {
                            // Advance monotonically and compare fire order.
                            now += arg.min(500);
                            let now_tick = now / g;
                            let mut expect: Vec<(u64, u64)> = model
                                .iter()
                                .copied()
                                .filter(|&(tick, _)| tick <= now_tick)
                                .collect();
                            expect.sort_unstable();
                            model.retain(|&(tick, _)| tick > now_tick);
                            cursor = cursor.max(now_tick + 1);
                            let got: Vec<(u64, u64)> = wheel
                                .advance(now)
                                .into_iter()
                                .map(|(ns, s)| (ns / g, s))
                                .collect();
                            prop_assert_eq!(got, expect);
                        }
                    }
                    // Intermittently (not after every op — a check
                    // repairs the lazy cache, and the historical bug
                    // lived exactly in the unchecked advance→insert
                    // window) the reported next deadline must equal the
                    // model's true minimum.
                    if op & 0b10000 == 0 {
                        let model_min = model.iter().map(|&(t, _)| t * g).min();
                        prop_assert_eq!(wheel.next_deadline(), model_min);
                    }
                }
                // Conservation: exactly the unfired, uncancelled entries
                // remain, and the reported earliest deadline matches.
                prop_assert_eq!(wheel.len(), model.len());
                let model_min = model.iter().map(|&(t, _)| t * g).min();
                prop_assert_eq!(wheel.next_deadline(), model_min);
            }
        }
    }
}
