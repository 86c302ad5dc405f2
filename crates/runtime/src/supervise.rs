//! Supervision primitives for the wall-clock runtime: fault counters
//! with an explicit degradation budget, per-node heartbeat slots for
//! silent-stall detection, and the watchdog thread that scans them.
//!
//! The runtime's fault posture is *log and keep going*. A panicking
//! handler is contained (and its worker respawned, with the dead
//! worker's node queue adopted by the pool); a network sink
//! that stays full triggers bounded retry with exponential backoff
//! before the send is dropped and counted; a node whose next timer
//! deadline passes by more than the stall threshold without the node
//! running is nudged back onto the scheduler and counted as a stall.
//! When the observed fault count (panics + stalls + failed sends)
//! exceeds the budget — `⌊(n − 1)/2⌋`, the crash-fault ceiling of the
//! protocol family this runtime deploys — the run flips into an
//! explicitly *degraded* mode: the transition is logged once, the
//! healthy majority keeps being served, and the flag is reported on the
//! final [`SupervisionStats`] instead of aborting the deployment
//! mid-run.

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crusader_time::Dur;

/// Supervision outcome of one runtime run, reported on
/// [`RuntimeReport`](crate::RuntimeReport).
///
/// Counts are totals over the whole run; none of them abort a run — the
/// runtime degrades and logs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupervisionStats {
    /// Automaton-handler panics contained by the reactor (includes
    /// injected panic drills from a chaos timeline).
    pub worker_panics: u64,
    /// Reactor workers respawned after a panic killed their thread.
    pub worker_respawns: u64,
    /// Silent node stalls detected by the watchdog (a registered timer
    /// deadline overdue by more than the stall threshold).
    pub stalls_detected: u64,
    /// Retries of a command push because the network queue was full.
    pub net_retries: u64,
    /// Messages dropped after every retry attempt of the command
    /// carrying them timed out (a command holds up to a quantum's sends,
    /// and each one counts).
    pub net_sends_failed: u64,
    /// Commands the network thread ingested. A command carries
    /// everything one flush held, so messages per command says how well
    /// the send side batches.
    pub net_commands: u64,
    /// Inbox hand-offs the network made: one lock and one wake-up check
    /// each, carrying everything a delivery sweep held for that node.
    /// `messages_delivered` over this says how well delivery batches.
    pub inbox_handoffs: u64,
    /// Queued node events discarded at teardown or past a shutdown —
    /// counted, never silently lost, so panic-path runs cannot distort
    /// message accounting unnoticed.
    pub events_discarded: u64,
    /// The fault budget the run was allowed before degrading:
    /// `⌊(n − 1)/2⌋`.
    pub fault_budget: u64,
    /// Whether observed faults (panics + stalls + failed sends)
    /// exceeded the budget at any point.
    pub degraded: bool,
}

/// Shared fault accounting. Everything is relaxed atomics: counters are
/// statistics, not synchronization.
pub(crate) struct Counters {
    worker_panics: AtomicU64,
    worker_respawns: AtomicU64,
    stalls_detected: AtomicU64,
    net_retries: AtomicU64,
    net_sends_failed: AtomicU64,
    net_commands: AtomicU64,
    inbox_handoffs: AtomicU64,
    events_discarded: AtomicU64,
    fault_budget: u64,
    degraded: AtomicBool,
}

impl Counters {
    pub fn new(n: usize) -> Self {
        Counters {
            worker_panics: AtomicU64::new(0),
            worker_respawns: AtomicU64::new(0),
            stalls_detected: AtomicU64::new(0),
            net_retries: AtomicU64::new(0),
            net_sends_failed: AtomicU64::new(0),
            net_commands: AtomicU64::new(0),
            inbox_handoffs: AtomicU64::new(0),
            events_discarded: AtomicU64::new(0),
            fault_budget: (n.saturating_sub(1) / 2) as u64,
            degraded: AtomicBool::new(false),
        }
    }

    pub fn note_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    pub fn note_respawn(&self) {
        self.worker_respawns.fetch_add(1, Ordering::Relaxed);
    }

    pub fn note_stall(&self) {
        self.stalls_detected.fetch_add(1, Ordering::Relaxed);
    }

    pub fn note_net_retry(&self) {
        self.net_retries.fetch_add(1, Ordering::Relaxed);
    }

    pub fn note_net_sends_failed(&self, count: u64) {
        self.net_sends_failed.fetch_add(count, Ordering::Relaxed);
    }

    pub fn note_net_commands(&self, count: u64) {
        self.net_commands.fetch_add(count, Ordering::Relaxed);
    }

    pub fn note_inbox_handoff(&self) {
        self.inbox_handoffs.fetch_add(1, Ordering::Relaxed);
    }

    pub fn note_discarded(&self, count: u64) {
        if count > 0 {
            self.events_discarded.fetch_add(count, Ordering::Relaxed);
        }
    }

    fn observed_faults(&self) -> u64 {
        self.worker_panics.load(Ordering::Relaxed)
            + self.stalls_detected.load(Ordering::Relaxed)
            + self.net_sends_failed.load(Ordering::Relaxed)
    }

    /// Re-evaluates the fault budget after a fault was counted; on the
    /// first crossing, logs the degradation transition (once) and
    /// latches the flag. Graceful degradation: the run continues.
    pub fn note_fault_budget(&self) {
        let observed = self.observed_faults();
        if observed > self.fault_budget && !self.degraded.swap(true, Ordering::AcqRel) {
            eprintln!(
                "crusader-runtime: {observed} observed faults exceed the budget of {}; \
                 continuing in degraded mode",
                self.fault_budget
            );
        }
    }

    pub fn snapshot(&self) -> SupervisionStats {
        SupervisionStats {
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            worker_respawns: self.worker_respawns.load(Ordering::Relaxed),
            stalls_detected: self.stalls_detected.load(Ordering::Relaxed),
            net_retries: self.net_retries.load(Ordering::Relaxed),
            net_sends_failed: self.net_sends_failed.load(Ordering::Relaxed),
            net_commands: self.net_commands.load(Ordering::Relaxed),
            inbox_handoffs: self.inbox_handoffs.load(Ordering::Relaxed),
            events_discarded: self.events_discarded.load(Ordering::Relaxed),
            fault_budget: self.fault_budget,
            degraded: self.degraded.load(Ordering::Acquire),
        }
    }
}

/// Heartbeat slot value meaning "no stall check applies": the node is
/// idle (no pending timer), frozen, done, or silent.
pub(crate) const EXEMPT: u64 = u64::MAX;

/// Per-node next-expected-deadline slots, in nanoseconds since `t0`.
///
/// The reactor writes a node's slot every time it runs the node: the
/// earliest pending timer deadline, or [`EXEMPT`] when the node has no
/// wakeup of its own. The watchdog flags a node whose recorded deadline
/// passed by more than the stall threshold — the signature of a wakeup
/// lost to a dead worker or a wedged scheduler, which a healthy run
/// never exhibits (late wakeups stay within scheduling jitter).
pub(crate) struct Heartbeats {
    t0: Instant,
    beats: Vec<AtomicU64>,
}

impl Heartbeats {
    pub fn new(n: usize, t0: Instant) -> Self {
        Heartbeats {
            t0,
            beats: (0..n).map(|_| AtomicU64::new(EXEMPT)).collect(),
        }
    }

    fn nanos(&self, at: Instant) -> u64 {
        #[allow(clippy::cast_possible_truncation)]
        {
            at.saturating_duration_since(self.t0).as_nanos() as u64
        }
    }

    /// Records node `node`'s next expected wakeup (`None` = exempt).
    pub fn set_deadline(&self, node: usize, at: Option<Instant>) {
        let value = at.map_or(EXEMPT, |at| self.nanos(at));
        self.beats[node].store(value, Ordering::Release);
    }
}

/// The stall threshold for link delay `d`: generous against scheduling
/// jitter (tens of round trips), tight enough to catch a genuinely
/// wedged node within a sub-second run.
pub(crate) fn stall_threshold(d: Dur) -> Duration {
    Duration::from_secs_f64(d.as_secs() * 20.0).max(Duration::from_millis(50))
}

/// Spawns the watchdog thread: scans the heartbeat slots at a fraction
/// of `threshold`, counts each overdue node as a stall (against the
/// fault budget) and calls `nudge` with its index so the reactor can
/// reschedule it. Exits when `stop` is set.
pub(crate) fn spawn_watchdog<F>(
    heartbeats: Arc<Heartbeats>,
    counters: Arc<Counters>,
    threshold: Duration,
    stop: Arc<AtomicBool>,
    nudge: F,
) -> std::thread::JoinHandle<()>
where
    F: Fn(usize) + Send + 'static,
{
    std::thread::Builder::new()
        .name("crusader-watchdog".into())
        .spawn(move || {
            // Poll a few times per threshold, but stay responsive to
            // `stop` even when the threshold is seconds long.
            let poll = (threshold / 4).min(Duration::from_millis(50));
            #[allow(clippy::cast_possible_truncation)]
            let threshold_ns = threshold.as_nanos() as u64;
            while !stop.load(Ordering::Acquire) {
                std::thread::sleep(poll);
                let now_ns = heartbeats.nanos(Instant::now());
                for (node, slot) in heartbeats.beats.iter().enumerate() {
                    let recorded = slot.load(Ordering::Acquire);
                    if recorded == EXEMPT || now_ns <= recorded.saturating_add(threshold_ns) {
                        continue;
                    }
                    // Move the slot forward so one stall is counted
                    // once per threshold window, even with the node
                    // still wedged; losing the race to the node itself
                    // (which just ran and re-registered) cancels the
                    // report — it was not stalled after all.
                    if slot
                        .compare_exchange(recorded, now_ns, Ordering::AcqRel, Ordering::Relaxed)
                        .is_ok()
                    {
                        counters.note_stall();
                        counters.note_fault_budget();
                        nudge(node);
                    }
                }
            }
        })
        .expect("spawn watchdog thread")
}

/// Best-effort text of a panic payload (panics carry `&str` or `String`
/// in practice; anything else gets a placeholder).
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Prefix marking a chaos-injected panic drill (see
/// [`NodeEvent::PanicInject`](crate::NodeEvent)). Drill panics exercise
/// the containment/respawn machinery but are not protocol violations.
pub(crate) const INJECTED_PANIC_PREFIX: &str = "injected fault";

/// Whether a panic message is an injected drill rather than a genuine
/// handler bug.
pub(crate) fn is_injected(msg: &str) -> bool {
    msg.starts_with(INJECTED_PANIC_PREFIX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_latches_degraded_once_crossed() {
        let c = Counters::new(4); // budget ⌊3/2⌋ = 1
        c.note_panic();
        c.note_fault_budget();
        assert!(!c.snapshot().degraded, "within budget");
        c.note_stall();
        c.note_fault_budget();
        let snap = c.snapshot();
        assert!(snap.degraded, "two faults exceed a budget of one");
        assert_eq!(snap.fault_budget, 1);
        assert_eq!(snap.worker_panics, 1);
        assert_eq!(snap.stalls_detected, 1);
    }

    #[test]
    fn snapshot_reports_all_counters() {
        let c = Counters::new(9);
        c.note_respawn();
        c.note_net_retry();
        c.note_net_retry();
        c.note_net_sends_failed(1);
        c.note_net_commands(3);
        c.note_inbox_handoff();
        c.note_discarded(5);
        c.note_discarded(0);
        let snap = c.snapshot();
        assert_eq!(snap.worker_respawns, 1);
        assert_eq!(snap.net_retries, 2);
        assert_eq!(snap.net_sends_failed, 1);
        assert_eq!(snap.net_commands, 3);
        assert_eq!(snap.inbox_handoffs, 1);
        assert_eq!(snap.events_discarded, 5);
        assert_eq!(snap.fault_budget, 4);
        assert!(!snap.degraded);
    }

    #[test]
    fn watchdog_detects_an_overdue_deadline_and_nudges() {
        let t0 = Instant::now();
        let hb = Arc::new(Heartbeats::new(2, t0));
        let counters = Arc::new(Counters::new(8));
        let stop = Arc::new(AtomicBool::new(false));
        // Node 1's deadline is long past; node 0 is exempt.
        hb.set_deadline(1, Some(t0));
        let nudged = Arc::new(AtomicU64::new(u64::MAX));
        let watchdog = {
            let nudged = Arc::clone(&nudged);
            spawn_watchdog(
                Arc::clone(&hb),
                Arc::clone(&counters),
                Duration::from_millis(20),
                Arc::clone(&stop),
                move |node| nudged.store(node as u64, Ordering::Release),
            )
        };
        let deadline = Instant::now() + Duration::from_secs(2);
        while counters.snapshot().stalls_detected == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::Release);
        watchdog.join().unwrap();
        assert!(counters.snapshot().stalls_detected >= 1);
        assert_eq!(nudged.load(Ordering::Acquire), 1);
    }

    #[test]
    fn exempt_slots_never_stall() {
        let t0 = Instant::now() - Duration::from_secs(10);
        let hb = Arc::new(Heartbeats::new(1, t0));
        let counters = Arc::new(Counters::new(4));
        let stop = Arc::new(AtomicBool::new(false));
        let watchdog = spawn_watchdog(
            Arc::clone(&hb),
            Arc::clone(&counters),
            Duration::from_millis(10),
            Arc::clone(&stop),
            |_| panic!("nudged an exempt node"),
        );
        std::thread::sleep(Duration::from_millis(40));
        stop.store(true, Ordering::Release);
        watchdog.join().unwrap();
        assert_eq!(counters.snapshot().stalls_detected, 0);
    }

    #[test]
    fn injected_panics_are_classified() {
        assert!(is_injected("injected fault: node 3 panicked on schedule"));
        assert!(!is_injected("index out of bounds"));
        let payload: Box<dyn Any + Send> = Box::new("boom");
        assert_eq!(panic_message(&*payload), "boom");
        let payload: Box<dyn Any + Send> = Box::new(String::from("blew up"));
        assert_eq!(panic_message(&*payload), "blew up");
        let payload: Box<dyn Any + Send> = Box::new(7usize);
        assert_eq!(panic_message(&*payload), "non-string panic payload");
    }
}
