//! Fault-injection timelines and run observation hooks.
//!
//! A [`ChaosTimeline`] is a *static* schedule of faults — crash/recover
//! windows, link cuts (partitions), delay storms and duplication floods —
//! that both execution stacks consult while a run is in flight:
//!
//! * the simulator ([`Sim::run`](crate::Sim::run)) queries it at
//!   event-dispatch and send-scheduling time;
//! * the wall-clock runtime's network thread turns the same schedule into
//!   freeze/thaw control events, queued in its one time queue and
//!   delivered in tick order alongside the messages.
//!
//! Everything in a timeline is a **pure function of simulated time**:
//! `down(v, t)`, `cut(from, to, t)` and friends depend only on the
//! timeline data and the query instant, never on run state, so a
//! simulated run with chaos stays a function of its seed. Anything
//! *stateful* (RNG draws for duplicate delays, trace counters, adversary
//! callbacks) happens in the engine's event order.
//!
//! Injection semantics, shared by every executor:
//!
//! * **Crash** — one node's crash windows may overlap or touch; the node
//!   is down over their union and recovers once, at the union's end
//!   ([`ChaosTimeline::crash`] merges them as they are added). While a
//!   node is down it runs no handlers: deliveries to it are counted as
//!   delivered by the network but lost
//!   ([`Trace::chaos_drops`](crate::Trace::chaos_drops)). Messages it
//!   sent before crashing stay in flight and arrive. Its timers differ
//!   by executor: the simulators defer a timer due while the node is
//!   down to the recovery instant, after the recovery hook (so a
//!   timer-driven protocol can attempt to rejoin), or drop it if the
//!   node never recovers; the wall-clock runtime fires none while the
//!   node is frozen and cancels every pending one when it thaws, before
//!   the recovery hook re-arms what it needs.
//! * **Cut** — a message *sent* while its link is cut is lost; messages
//!   already in flight when the cut begins still arrive. Cuts apply to
//!   honest and adversarial sends alike (the network failed, not the
//!   sender).
//! * **Storm** — honest sends during the window take the maximum legal
//!   delay `d` instead of a random draw. Still within the model's delay
//!   bounds: a storm is legal scheduling, not a fault.
//! * **Flood** — each honest send during the window is duplicated
//!   `copies` extra times (network-level replay/duplication attack);
//!   with `rush`, the duplicates travel at the minimum legal delay,
//!   mimicking a rushing forwarder.
//!
//! A [`RunObserver`] is the continuous-checking hook: the executors call
//! it at every pulse and protocol-violation record, the simulator in
//! event order. `crusader_chaos` implements it with a streaming invariant
//! checker.

use crusader_crypto::NodeId;
use crusader_time::Time;

/// One stretch of a node's downtime: `[from, until)`, with `until = None`
/// if the node never recovers within the run.
#[derive(Clone, Copy, Debug)]
struct Downtime {
    from: Time,
    until: Option<Time>,
}

impl Downtime {
    #[inline]
    fn covers(&self, at: Time) -> bool {
        at >= self.from && self.until.is_none_or(|u| at < u)
    }
}

/// One link-cut window: messages sent during `[from, until)` between the
/// `a` and `b` node sets (either direction) are lost.
#[derive(Clone, Debug)]
pub struct CutWindow {
    /// First endpoint set, as an `n`-sized membership mask.
    pub a: Vec<bool>,
    /// Second endpoint set.
    pub b: Vec<bool>,
    /// Cut start (inclusive).
    pub from: Time,
    /// Heal instant (exclusive).
    pub until: Time,
}

/// One delay-storm window: honest sends during `[from, until)` take the
/// maximum legal delay instead of a random draw.
#[derive(Clone, Copy, Debug)]
pub struct StormWindow {
    /// Storm start (inclusive).
    pub from: Time,
    /// Storm end (exclusive).
    pub until: Time,
}

/// One flood window: honest sends during `[from, until)` are duplicated.
#[derive(Clone, Copy, Debug)]
pub struct FloodWindow {
    /// Flood start (inclusive).
    pub from: Time,
    /// Flood end (exclusive).
    pub until: Time,
    /// Extra copies injected per send.
    pub copies: u32,
    /// Duplicates travel at the minimum legal delay (rushing combo).
    pub rush: bool,
}

/// Per-send flood decision returned by [`ChaosTimeline::flood`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FloodSpec {
    /// Extra copies to inject.
    pub copies: u32,
    /// Pin duplicate delays to the minimum legal delay.
    pub rush: bool,
}

/// A static fault-injection schedule for an `n`-node run.
///
/// Windows are few (a scenario is hand-authored data), so the queries
/// are linear scans — they sit on per-event paths where a handful of
/// compares is cheaper than any index.
#[derive(Clone, Debug, Default)]
pub struct ChaosTimeline {
    n: usize,
    /// Per node, its downtime: sorted, disjoint and never touching, so
    /// every start is a real crash and every end a real recovery.
    downtime: Vec<Vec<Downtime>>,
    cuts: Vec<CutWindow>,
    storms: Vec<StormWindow>,
    floods: Vec<FloodWindow>,
    /// Panic drills: `(instant, node)` — the wall-clock runtime injects a
    /// handler panic at the given instant to exercise its supervision
    /// layer. Simulated executors ignore drills (there is no worker to
    /// kill); the scenario verdicts they gate run on the runtime.
    panics: Vec<(Time, usize)>,
}

impl ChaosTimeline {
    /// An empty timeline for an `n`-node system (injects nothing).
    #[must_use]
    pub fn new(n: usize) -> Self {
        ChaosTimeline {
            n,
            downtime: vec![Vec::new(); n],
            cuts: Vec::new(),
            storms: Vec::new(),
            floods: Vec::new(),
            panics: Vec::new(),
        }
    }

    /// The system size this timeline was built for.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether the timeline injects nothing at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.downtime.iter().all(Vec::is_empty)
            && self.cuts.is_empty()
            && self.storms.is_empty()
            && self.floods.is_empty()
            && self.panics.is_empty()
    }

    /// Adds a crash window for `node` over `[from, until)` (`until =
    /// None`: the node never recovers). A window that overlaps or touches
    /// the node's existing downtime merges with it, so the node is down
    /// over the union and recovers once, at its end; the order windows
    /// are added in does not matter.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range, `from` is not positive (a node
    /// down at time zero would skip `on_init`, which no executor
    /// supports), or the window is empty.
    pub fn crash(&mut self, node: usize, from: Time, until: Option<Time>) {
        assert!(
            node < self.n,
            "crash node {node} out of range (n = {})",
            self.n
        );
        assert!(from > Time::ZERO, "crash windows must start after time 0");
        if let Some(until) = until {
            assert!(until > from, "empty crash window");
        }
        let mut merged = Downtime { from, until };
        let spans = &mut self.downtime[node];
        // The spans are disjoint and never touch, so the ones this window
        // meets are exactly those its union with them must absorb.
        spans.retain(|s| {
            let meets = until.is_none_or(|u| s.from <= u) && s.until.is_none_or(|u| u >= from);
            if meets {
                merged.from = merged.from.min(s.from);
                merged.until = merged.until.zip(s.until).map(|(a, b)| a.max(b));
            }
            !meets
        });
        let at = spans.partition_point(|s| s.from < merged.from);
        spans.insert(at, merged);
    }

    /// Adds a link-cut window between node sets `a` and `b` (both
    /// directions) over `[from, until)`.
    ///
    /// # Panics
    ///
    /// Panics if either mask has the wrong length or the window is empty.
    pub fn cut_link(&mut self, a: Vec<bool>, b: Vec<bool>, from: Time, until: Time) {
        assert_eq!(a.len(), self.n, "cut mask length");
        assert_eq!(b.len(), self.n, "cut mask length");
        assert!(until > from, "empty cut window");
        self.cuts.push(CutWindow { a, b, from, until });
    }

    /// Adds a delay-storm window over `[from, until)`.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn storm(&mut self, from: Time, until: Time) {
        assert!(until > from, "empty storm window");
        self.storms.push(StormWindow { from, until });
    }

    /// Adds a flood window over `[from, until)` injecting `copies` extra
    /// copies per send (`rush` pins them to the minimum legal delay).
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or `copies` is zero.
    pub fn flood_window(&mut self, from: Time, until: Time, copies: u32, rush: bool) {
        assert!(until > from, "empty flood window");
        assert!(copies > 0, "flood with zero copies");
        self.floods.push(FloodWindow {
            from,
            until,
            copies,
            rush,
        });
    }

    /// Schedules a panic drill: at `at`, `node`'s next handler invocation
    /// on the wall-clock runtime panics (message `injected fault: …`),
    /// exercising worker respawn and containment without counting as a
    /// protocol violation. No-op on the simulated executors.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `at` is not positive.
    pub fn panic_at(&mut self, node: usize, at: Time) {
        assert!(
            node < self.n,
            "panic node {node} out of range (n = {})",
            self.n
        );
        assert!(at > Time::ZERO, "panic drills must fire after time 0");
        self.panics.push((at, node));
    }

    /// Every scheduled panic drill as `(instant, node)`, sorted by
    /// instant — the wall-clock runtime's injector walks this list.
    #[must_use]
    pub fn panic_schedule(&self) -> Vec<(Time, usize)> {
        let mut out = self.panics.clone();
        out.sort_by(|x, y| {
            x.0.partial_cmp(&y.0)
                .expect("finite times")
                .then(x.1.cmp(&y.1))
        });
        out
    }

    /// Whether `node` appears in any crash window at all. Nodes for which
    /// this holds may legitimately fast-forward their pulse index after
    /// recovery (see `Trace`'s pulse accounting).
    #[inline]
    #[must_use]
    pub fn was_ever_down(&self, node: NodeId) -> bool {
        !self.downtime[node.index()].is_empty()
    }

    /// Whether `node` is down (crashed) at `at`.
    #[inline]
    #[must_use]
    pub fn down(&self, node: NodeId, at: Time) -> bool {
        self.downtime[node.index()].iter().any(|s| s.covers(at))
    }

    /// The instant a node down at `at` is back up; `None` if it never
    /// recovers. Returns `Some(at)` untouched if the node is up.
    #[must_use]
    pub fn resume_at(&self, node: NodeId, at: Time) -> Option<Time> {
        match self.downtime[node.index()].iter().find(|s| s.covers(at)) {
            Some(s) => s.until,
            None => Some(at),
        }
    }

    /// Whether a message sent from `from` to `to` at `at` is cut.
    #[inline]
    #[must_use]
    pub fn cut(&self, from: NodeId, to: NodeId, at: Time) -> bool {
        if self.cuts.is_empty() {
            return false;
        }
        let (f, t) = (from.index(), to.index());
        self.cuts
            .iter()
            .any(|w| at >= w.from && at < w.until && ((w.a[f] && w.b[t]) || (w.b[f] && w.a[t])))
    }

    /// Whether a delay storm is active at `at`.
    #[inline]
    #[must_use]
    pub fn storming(&self, at: Time) -> bool {
        self.storms.iter().any(|w| at >= w.from && at < w.until)
    }

    /// The flood decision for a send at `at` (first matching window).
    #[inline]
    #[must_use]
    pub fn flood(&self, at: Time) -> Option<FloodSpec> {
        self.floods
            .iter()
            .find(|w| at >= w.from && at < w.until)
            .map(|w| FloodSpec {
                copies: w.copies,
                rush: w.rush,
            })
    }

    /// Every crash/recover transition as `(instant, node, down)`, sorted
    /// by instant, then node. Each node's transitions alternate down and
    /// up: every up-transition is a real recovery. The simulators
    /// schedule their recovery hooks from this list, and the wall-clock
    /// runtime's injector walks it to emit freeze/thaw control events.
    #[must_use]
    pub fn crash_transitions(&self) -> Vec<(Time, usize, bool)> {
        let mut out = Vec::new();
        for (node, spans) in self.downtime.iter().enumerate() {
            for s in spans {
                out.push((s.from, node, true));
                if let Some(u) = s.until {
                    out.push((u, node, false));
                }
            }
        }
        out.sort_by_key(|&(at, node, _)| (at, node));
        out
    }
}

/// Continuous run observation: called by the simulator in event order,
/// from its one event loop, and by the wall-clock runtime from its
/// worker threads.
///
/// Methods take `&self` because the observer is shared behind an `Arc`;
/// implementations use interior mutability.
pub trait RunObserver: Send + Sync + std::fmt::Debug {
    /// Node `node` emitted pulse `index` at real time `at`.
    fn on_pulse(&self, node: NodeId, index: u64, at: Time);

    /// A protocol violation was recorded at real time `at` (`node = None`
    /// for engine-level violations such as blocked forgeries).
    fn on_violation(&self, node: Option<NodeId>, text: &str, at: Time);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: f64) -> Time {
        Time::from_millis(ms)
    }

    #[test]
    fn down_and_resume() {
        let mut c = ChaosTimeline::new(6);
        c.crash(1, t(10.0), Some(t(20.0)));
        c.crash(1, t(20.0), Some(t(25.0))); // touching window
        c.crash(2, t(5.0), None);
        // Overlapping, added out of order, with a gap before the last.
        c.crash(3, t(40.0), Some(t(50.0)));
        c.crash(3, t(30.0), Some(t(45.0)));
        c.crash(3, t(60.0), Some(t(70.0)));
        // A `never` window absorbs the windows after its start.
        c.crash(4, t(30.0), Some(t(40.0)));
        c.crash(4, t(50.0), Some(t(60.0)));
        c.crash(4, t(35.0), None);
        let [v0, v1, v2, v3, v4, v5] = [0, 1, 2, 3, 4, 5].map(NodeId::new);
        assert!(!c.down(v1, t(9.9)));
        assert!(c.down(v1, t(10.0)));
        assert!(c.down(v1, t(20.0)));
        assert!(c.down(v1, t(24.9)));
        assert!(!c.down(v1, t(25.0)));
        assert_eq!(c.resume_at(v1, t(12.0)), Some(t(25.0)));
        assert_eq!(c.resume_at(v2, t(6.0)), None);
        assert_eq!(c.resume_at(v0, t(6.0)), Some(t(6.0)));
        assert!(c.down(v3, t(30.0)) && c.down(v3, t(49.9)));
        assert!(!c.down(v3, t(50.0)) && c.down(v3, t(60.0)));
        assert_eq!(c.resume_at(v3, t(32.0)), Some(t(50.0)));
        assert_eq!(c.resume_at(v3, t(45.0)), Some(t(50.0)));
        assert_eq!(c.resume_at(v3, t(55.0)), Some(t(55.0)));
        assert_eq!(c.resume_at(v3, t(65.0)), Some(t(70.0)));
        assert!(!c.down(v4, t(29.9)) && c.down(v4, t(45.0)) && c.down(v4, t(90.0)));
        assert_eq!(c.resume_at(v4, t(31.0)), None);
        assert!([v1, v2, v3, v4].iter().all(|&v| c.was_ever_down(v)));
        assert!(!c.was_ever_down(v0) && !c.was_ever_down(v5));
    }

    #[test]
    fn cut_is_bidirectional_and_windowed() {
        let mut c = ChaosTimeline::new(4);
        let a = vec![true, true, false, false];
        let b = vec![false, false, true, true];
        c.cut_link(a, b, t(10.0), t(20.0));
        let (n0, n2) = (NodeId::new(0), NodeId::new(2));
        assert!(c.cut(n0, n2, t(15.0)));
        assert!(c.cut(n2, n0, t(15.0)));
        assert!(!c.cut(n0, NodeId::new(1), t(15.0))); // same side
        assert!(!c.cut(n0, n2, t(9.0)));
        assert!(!c.cut(n0, n2, t(20.0)));
    }

    #[test]
    fn storm_flood_queries() {
        let mut c = ChaosTimeline::new(2);
        c.storm(t(1.0), t(2.0));
        c.flood_window(t(3.0), t(4.0), 2, true);
        assert!(c.storming(t(1.5)));
        assert!(!c.storming(t(2.0)));
        assert_eq!(
            c.flood(t(3.5)),
            Some(FloodSpec {
                copies: 2,
                rush: true
            })
        );
        assert_eq!(c.flood(t(4.0)), None);
    }

    #[test]
    fn transitions_sorted() {
        let mut c = ChaosTimeline::new(4);
        c.crash(3, t(30.0), Some(t(40.0)));
        c.crash(1, t(10.0), None);
        assert_eq!(
            c.crash_transitions(),
            vec![(t(10.0), 1, true), (t(30.0), 3, true), (t(40.0), 3, false)]
        );
        // Overlapping, touching, out-of-order and `never`-absorbed windows
        // leave one down/up pair per stretch of downtime.
        let mut c = ChaosTimeline::new(4);
        c.crash(1, t(80.0), Some(t(160.0)));
        c.crash(1, t(40.0), Some(t(120.0)));
        c.crash(2, t(40.0), Some(t(100.0)));
        c.crash(2, t(100.0), Some(t(160.0)));
        c.crash(2, t(200.0), Some(t(210.0)));
        c.crash(3, t(50.0), Some(t(60.0)));
        c.crash(3, t(55.0), None);
        c.crash(3, t(70.0), Some(t(80.0)));
        assert_eq!(
            c.crash_transitions(),
            vec![
                (t(40.0), 1, true),
                (t(40.0), 2, true),
                (t(50.0), 3, true),
                (t(160.0), 1, false),
                (t(160.0), 2, false),
                (t(200.0), 2, true),
                (t(210.0), 2, false),
            ]
        );
    }

    #[test]
    fn panic_schedule_is_sorted_and_counts_against_empty() {
        let mut c = ChaosTimeline::new(4);
        assert!(c.is_empty());
        c.panic_at(3, t(30.0));
        c.panic_at(1, t(10.0));
        assert!(!c.is_empty());
        assert_eq!(c.panic_schedule(), vec![(t(10.0), 1), (t(30.0), 3)]);
    }
}
