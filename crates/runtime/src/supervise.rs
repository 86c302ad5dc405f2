//! Supervision primitives for the wall-clock runtime: fault counters,
//! and the classification of panic payloads.
//!
//! Supervision is panic containment plus worker respawn. A panicking
//! handler is contained (its effects dropped, its node's unprocessed
//! events requeued), counted, and recorded as a violation unless it is
//! an injected drill; the worker that carried it dies and the calling
//! thread respawns a replacement that adopts the dead worker's ready
//! queue. Nothing else is supervised: the network link blocks while its
//! queue is full instead of dropping, and a node that stops running its
//! timers shows up in its own violation log and in the checker's period
//! and liveness predicates.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};

/// Supervision outcome of one runtime run, reported on
/// [`RuntimeReport`](crate::RuntimeReport).
///
/// Counts are totals over the whole run; none of them abort a run.
///
/// `stalls_detected`, `net_retries`, `net_sends_failed` and `degraded`
/// are always 0 / `false`: the runtime has no stall scan, no send retry
/// and no degradation budget. They stay only because the repo benchmark
/// (`benchmark/src/workloads/rt.rs`) still reads them, and go with
/// [`Backend`](crate::Backend) (ROADMAP, item 1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupervisionStats {
    /// Automaton-handler panics contained by the reactor (includes
    /// injected panic drills from a chaos timeline).
    pub worker_panics: u64,
    /// Reactor workers respawned after a panic killed their thread.
    pub worker_respawns: u64,
    /// Always 0: the runtime runs no stall scan.
    pub stalls_detected: u64,
    /// Always 0: a send to a full network queue blocks, it never retries.
    pub net_retries: u64,
    /// Always 0: a send to a full network queue blocks, it never drops.
    pub net_sends_failed: u64,
    /// Commands with messages in them that the network thread ingested.
    /// A command carries everything one flush held, so messages per
    /// command says how well the send side batches; a flush that armed
    /// timers but sent nothing is not counted.
    pub net_commands: u64,
    /// Inbox hand-offs the network made: one lock and one schedule
    /// each, carrying everything a delivery sweep held for that node.
    /// `messages_delivered` over this says how well delivery batches; a
    /// hand-off of due timers alone is not counted.
    pub inbox_handoffs: u64,
    /// Queued node events discarded at teardown or past a shutdown —
    /// counted, never silently lost, so panic-path runs cannot distort
    /// message accounting unnoticed.
    pub events_discarded: u64,
    /// Always `false`: the runtime has no degradation budget.
    pub degraded: bool,
}

/// Shared fault accounting. Everything is relaxed atomics: counters are
/// statistics, not synchronization.
#[derive(Default)]
pub(crate) struct Counters {
    worker_panics: AtomicU64,
    worker_respawns: AtomicU64,
    net_commands: AtomicU64,
    inbox_handoffs: AtomicU64,
    events_discarded: AtomicU64,
}

impl Counters {
    pub fn note_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    pub fn note_respawn(&self) {
        self.worker_respawns.fetch_add(1, Ordering::Relaxed);
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

    pub fn snapshot(&self) -> SupervisionStats {
        SupervisionStats {
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            worker_respawns: self.worker_respawns.load(Ordering::Relaxed),
            net_commands: self.net_commands.load(Ordering::Relaxed),
            inbox_handoffs: self.inbox_handoffs.load(Ordering::Relaxed),
            events_discarded: self.events_discarded.load(Ordering::Relaxed),
            ..SupervisionStats::default()
        }
    }
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
    fn snapshot_reports_all_counters() {
        let c = Counters::default();
        c.note_panic();
        c.note_respawn();
        c.note_net_commands(3);
        c.note_inbox_handoff();
        c.note_discarded(5);
        c.note_discarded(0);
        let snap = c.snapshot();
        assert_eq!(snap.worker_panics, 1);
        assert_eq!(snap.worker_respawns, 1);
        assert_eq!(snap.net_commands, 3);
        assert_eq!(snap.inbox_handoffs, 1);
        assert_eq!(snap.events_discarded, 5);
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
