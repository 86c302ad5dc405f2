//! Spans of the traced run: what is recorded at each layer boundary, the
//! self-time reducer, and the collector the per-node recorders drain into.
//!
//! One handler call is one request. Its handler span is the root of a small
//! tree whose children are the calls the handler makes back out of `core`:
//! into `crypto` (sign, verify) and into the executor (`ctx.send`,
//! `ctx.broadcast`, `ctx.set_timer_at`). A request runs on one thread from
//! start to end, so inside a tree the time children cover is the *union* of
//! their intervals. Trees of different nodes may run on different threads at
//! once; across trees times are summed.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a span measures. The discriminant indexes [`Totals`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    OnInit,
    OnMessage,
    OnTimer,
    OnRecover,
    Sign,
    Verify,
    CtxSend,
    CtxBroadcast,
    CtxSetTimer,
}

pub const KINDS: [Kind; 9] = [
    Kind::OnInit,
    Kind::OnMessage,
    Kind::OnTimer,
    Kind::OnRecover,
    Kind::Sign,
    Kind::Verify,
    Kind::CtxSend,
    Kind::CtxBroadcast,
    Kind::CtxSetTimer,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::OnInit => "core.on_init",
            Kind::OnMessage => "core.on_message",
            Kind::OnTimer => "core.on_timer",
            Kind::OnRecover => "core.on_recover",
            Kind::Sign => "crypto.sign",
            Kind::Verify => "crypto.verify",
            Kind::CtxSend => "ctx.send",
            Kind::CtxBroadcast => "ctx.broadcast",
            Kind::CtxSetTimer => "ctx.set_timer_at",
        }
    }

    pub fn is_handler(self) -> bool {
        matches!(
            self,
            Kind::OnInit | Kind::OnMessage | Kind::OnTimer | Kind::OnRecover
        )
    }

    pub fn is_ctx(self) -> bool {
        matches!(self, Kind::CtxSend | Kind::CtxBroadcast | Kind::CtxSetTimer)
    }
}

/// Span id of the executor's `run()`, the parent of every handler span.
pub const RUN_SPAN: u64 = 0;

/// One recorded interval. Times are nanoseconds since the collector's
/// epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one ([`RUN_SPAN`] for a handler span).
    pub parent: u64,
    /// The handler-call id every span of one request shares.
    pub request: u64,
    pub kind: Kind,
    pub start: u64,
    pub end: u64,
}

/// Self time of every span in `spans`: its duration minus the part of its
/// interval that its direct children cover.
///
/// Children are clipped to the parent's interval (a child that starts
/// before or ends after its parent takes away only the overlap), and
/// overlapping siblings are counted once (the union of their intervals,
/// not the sum). A parent id that matches no span in the slice makes a
/// root.
#[cfg(test)]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut scratch = Vec::new();
    (0..spans.len())
        .map(|i| self_time(spans, i, &mut scratch))
        .collect()
}

/// Self time of `spans[at]`. `scratch` is working space, so that the
/// reduction of a request allocates nothing once it has grown.
fn self_time(spans: &[Span], at: usize, scratch: &mut Vec<(u64, u64)>) -> u64 {
    let parent = &spans[at];
    scratch.clear();
    for s in spans {
        if s.parent == parent.id && s.id != parent.id {
            let lo = s.start.max(parent.start);
            let hi = s.end.min(parent.end);
            if hi > lo {
                scratch.push((lo, hi));
            }
        }
    }
    scratch.sort_unstable();
    let mut covered = 0;
    let mut frontier = parent.start;
    for &(lo, hi) in scratch.iter() {
        let lo = lo.max(frontier);
        if hi > lo {
            covered += hi - lo;
            frontier = hi;
        }
    }
    (parent.end - parent.start) - covered
}

/// Calls, total time and self time per [`Kind`], in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    pub calls: [u64; KINDS.len()],
    pub total_ns: [u64; KINDS.len()],
    pub self_ns: [u64; KINDS.len()],
}

impl Totals {
    /// Reduces one request's tree into the totals.
    #[cfg(test)]
    pub fn add_tree(&mut self, spans: &[Span]) {
        self.add_tree_with(spans, &mut Vec::new());
    }

    fn add_tree_with(&mut self, spans: &[Span], scratch: &mut Vec<(u64, u64)>) {
        for (i, s) in spans.iter().enumerate() {
            let k = s.kind as usize;
            self.calls[k] += 1;
            self.total_ns[k] += s.end - s.start;
            self.self_ns[k] += self_time(spans, i, scratch);
        }
    }

    pub fn merge(&mut self, other: &Totals) {
        for k in 0..KINDS.len() {
            self.calls[k] += other.calls[k];
            self.total_ns[k] += other.total_ns[k];
            self.self_ns[k] += other.self_ns[k];
        }
    }

    fn sum(&self, field: &[u64; KINDS.len()], pick: impl Fn(Kind) -> bool) -> u64 {
        KINDS
            .iter()
            .filter(|k| pick(**k))
            .map(|k| field[*k as usize])
            .sum()
    }

    pub fn calls_of(&self, pick: impl Fn(Kind) -> bool) -> u64 {
        self.sum(&self.calls, pick)
    }

    pub fn total_s(&self, pick: impl Fn(Kind) -> bool) -> f64 {
        self.sum(&self.total_ns, pick) as f64 / 1e9
    }

    pub fn self_s(&self, pick: impl Fn(Kind) -> bool) -> f64 {
        self.sum(&self.self_ns, pick) as f64 / 1e9
    }
}

/// What recording itself costs, measured once per process on empty spans.
///
/// A handler that takes ten nanoseconds is timed with a clock that takes
/// twenty to read, so raw span durations overstate every layer above the
/// executor. The reduction takes these costs off again and reports them as
/// a bucket of their own. They are measured in a tight loop with warm
/// caches, so they understate what recording costs in a real run, and the
/// layers keep what is left.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// The recorded duration of a span around nothing.
    pub in_span_ns: f64,
    /// What recording one child adds to its parent's self time.
    pub per_child_ns: f64,
    /// What a request costs its caller outside its handler span.
    pub per_request_ns: f64,
}

impl Calibration {
    pub fn measure() -> Self {
        const REQUESTS: u64 = 20_000;
        const CHILDREN: u64 = 8;
        let collector = Collector::new();
        let rec = Recorder::new(&collector, 0, 1);
        let request = |children: u64| {
            let start = rec.now();
            for _ in 0..children {
                let s = rec.now();
                rec.child(Kind::Verify, s, rec.now());
            }
            rec.end_request(Kind::OnTimer, start, rec.now());
        };
        let totals = |rec: &Recorder| rec.inner.lock().expect("no panic under the lock").totals;
        let t = Instant::now();
        for _ in 0..REQUESTS {
            request(0);
        }
        let wall_ns = t.elapsed().as_nanos() as f64;
        let empty = totals(&rec);
        let in_span_ns = empty.total_ns[Kind::OnTimer as usize] as f64 / REQUESTS as f64;
        for _ in 0..REQUESTS {
            request(CHILDREN);
        }
        let full = totals(&rec);
        let parent_self = (full.self_ns[Kind::OnTimer as usize]
            - empty.self_ns[Kind::OnTimer as usize]) as f64
            / REQUESTS as f64;
        Calibration {
            in_span_ns,
            per_child_ns: ((parent_self - in_span_ns) / CHILDREN as f64).max(0.0),
            per_request_ns: (wall_ns / REQUESTS as f64 - in_span_ns).max(0.0),
        }
    }
}

/// Seconds per layer of a traced run, with the cost of recording taken
/// off each and summed in `tracing_s`.
#[derive(Clone, Copy, Debug)]
pub struct LayerTimes {
    pub verify_s: f64,
    pub sign_s: f64,
    /// `ctx.send`, `ctx.broadcast` and `ctx.set_timer_at`: the executor's
    /// work inside a handler.
    pub ctx_s: f64,
    /// Handler time outside `crypto` and `ctx` calls: `core`'s own.
    pub handler_self_s: f64,
    /// Handler spans in full: `core`, and `crypto` and `ctx` under it.
    pub handler_s: f64,
    pub tracing_s: f64,
}

impl Totals {
    pub fn layer_times(&self, cal: &Calibration) -> LayerTimes {
        let handlers = self.calls_of(Kind::is_handler) as f64;
        let children = self.calls_of(|k| !k.is_handler()) as f64;
        let less = |seconds: f64, calls: f64, ns: f64| (seconds - calls * ns / 1e9).max(0.0);
        let of = |k: Kind| {
            less(
                self.total_s(|x| x == k),
                self.calls[k as usize] as f64,
                cal.in_span_ns,
            )
        };
        let verify_s = of(Kind::Verify);
        let sign_s = of(Kind::Sign);
        let ctx_s = of(Kind::CtxSend) + of(Kind::CtxBroadcast) + of(Kind::CtxSetTimer);
        let handler_self_s = less(
            less(self.self_s(Kind::is_handler), handlers, cal.in_span_ns),
            children,
            cal.per_child_ns,
        );
        LayerTimes {
            verify_s,
            sign_s,
            ctx_s,
            handler_self_s,
            handler_s: handler_self_s + verify_s + sign_s + ctx_s,
            tracing_s: (handlers * (cal.per_request_ns + cal.in_span_ns)
                + children * (cal.per_child_ns + cal.in_span_ns))
                / 1e9,
        }
    }
}

/// Where the recorders of one traced run drain: the reduced totals of
/// every request, and the raw spans of the first requests up to a fixed,
/// preallocated capacity (a run makes hundreds of millions of spans; the
/// table needs the totals of all, the file a readable sample).
pub struct Collector {
    epoch: Instant,
    inner: Mutex<Collected>,
}

struct Collected {
    totals: Totals,
    raw: Vec<Span>,
}

/// Raw spans kept for the span file.
const RAW_CAPACITY: usize = 1 << 18;

impl Collector {
    pub fn new() -> Arc<Self> {
        Arc::new(Collector {
            epoch: Instant::now(),
            inner: Mutex::new(Collected {
                totals: Totals::default(),
                raw: Vec::with_capacity(RAW_CAPACITY),
            }),
        })
    }

    /// Nanoseconds since this collector was made.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn totals(&self) -> Totals {
        self.inner.lock().expect("no panic under the lock").totals
    }

    /// Writes the kept raw spans as tab-separated text, sorted by start.
    pub fn write_raw(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let mut raw = self
            .inner
            .lock()
            .expect("no panic under the lock")
            .raw
            .clone();
        raw.sort_by_key(|s| (s.start, s.id));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for s in &raw {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                s.parent,
                s.request,
                s.kind.name(),
                s.start,
                s.end
            )?;
        }
        out.flush()?;
        Ok(raw.len())
    }
}

/// The span buffer of one node. A node's handlers run one at a time, so
/// the lock is never contended; it is there because `Signer` and
/// `Verifier` are `Sync` and the timed wrappers record through `&self`.
pub struct Recorder {
    collector: Arc<Collector>,
    node: u64,
    inner: Mutex<Recording>,
}

struct Recording {
    /// Spans of the request in progress; the handler span comes last.
    current: Vec<Span>,
    /// Raw spans of finished requests, until `quota` runs out.
    kept: Vec<Span>,
    quota: usize,
    totals: Totals,
    scratch: Vec<(u64, u64)>,
    next_id: u64,
}

impl Recorder {
    /// A recorder for node `node` of `n`; the nodes split the collector's
    /// raw capacity evenly.
    pub fn new(collector: &Arc<Collector>, node: usize, n: usize) -> Self {
        let quota = RAW_CAPACITY / n.max(1);
        Recorder {
            collector: Arc::clone(collector),
            node: node as u64,
            inner: Mutex::new(Recording {
                current: Vec::with_capacity(64),
                kept: Vec::with_capacity(quota),
                quota,
                totals: Totals::default(),
                scratch: Vec::with_capacity(64),
                next_id: 1,
            }),
        }
    }

    pub fn now(&self) -> u64 {
        self.collector.now()
    }

    /// Records a child span of the request in progress. Its ids are
    /// filled in when the request ends.
    pub fn child(&self, kind: Kind, start: u64, end: u64) {
        let mut rec = self.inner.lock().expect("no panic under the lock");
        rec.current.push(Span {
            id: 0,
            parent: 0,
            request: 0,
            kind,
            start,
            end,
        });
    }

    /// Closes the request: names it, records its handler span over the
    /// children recorded since the last one ended, and reduces the tree.
    pub fn end_request(&self, kind: Kind, start: u64, end: u64) {
        let mut rec = self.inner.lock().expect("no panic under the lock");
        let request = (self.node << 40) | rec.next_id;
        rec.next_id += 1 + rec.current.len() as u64;
        for (i, child) in rec.current.iter_mut().enumerate() {
            child.id = request + 1 + i as u64;
            child.parent = request;
            child.request = request;
        }
        rec.current.push(Span {
            id: request,
            parent: RUN_SPAN,
            request,
            kind,
            start,
            end,
        });
        let Recording {
            current,
            kept,
            quota,
            totals,
            scratch,
            ..
        } = &mut *rec;
        totals.add_tree_with(current, scratch);
        if kept.len() + current.len() <= *quota {
            kept.extend_from_slice(current);
        }
        current.clear();
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        // A poisoned lock means a handler panicked mid-span; its spans
        // are still the best record there is.
        let rec = match self.inner.get_mut() {
            Ok(rec) => rec,
            Err(poisoned) => poisoned.into_inner(),
        };
        let mut all = match self.collector.inner.lock() {
            Ok(all) => all,
            Err(poisoned) => poisoned.into_inner(),
        };
        all.totals.merge(&rec.totals);
        let room = RAW_CAPACITY - all.raw.len();
        let take = rec.kept.len().min(room);
        all.raw.extend_from_slice(&rec.kept[..take]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, kind: Kind, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            kind,
            start,
            end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(1, RUN_SPAN, Kind::OnMessage, 100, 200),
            span(2, 1, Kind::Verify, 110, 130),
            span(3, 1, Kind::CtxSend, 150, 160),
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn a_child_overlapping_its_parent_is_clipped() {
        let spans = [
            span(1, RUN_SPAN, Kind::OnMessage, 100, 200),
            // Starts before the parent: only [100, 120) counts.
            span(2, 1, Kind::Verify, 80, 120),
            // Ends after the parent: only [190, 200) counts.
            span(3, 1, Kind::Sign, 190, 260),
            // Entirely outside: counts for nothing.
            span(4, 1, Kind::CtxSend, 300, 400),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - 20 - 10);
        // The children keep their own full durations.
        assert_eq!(&st[1..], &[40, 70, 100]);
    }

    #[test]
    fn overlapping_siblings_are_not_double_counted() {
        let spans = [
            span(1, RUN_SPAN, Kind::OnMessage, 0, 100),
            span(2, 1, Kind::Verify, 10, 50),
            span(3, 1, Kind::Verify, 30, 70),  // overlaps 2 by 20
            span(4, 1, Kind::Verify, 40, 45),  // inside both
            span(5, 1, Kind::CtxSend, 70, 80), // touches 3's end
        ];
        // Union of the children: [10, 80) = 70, not 40 + 40 + 5 + 10 = 95.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn grandchildren_come_off_their_own_parent_only() {
        let spans = [
            span(1, RUN_SPAN, Kind::OnMessage, 0, 100),
            span(2, 1, Kind::Verify, 10, 60),
            span(3, 2, Kind::Sign, 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn totals_sum_self_times_to_the_root_duration() {
        let spans = [
            span(2, 1, Kind::Verify, 10, 50),
            span(3, 1, Kind::Verify, 30, 70),
            span(4, 1, Kind::CtxBroadcast, 90, 120),
            span(1, RUN_SPAN, Kind::OnTimer, 0, 100),
        ];
        let mut t = Totals::default();
        t.add_tree(&spans);
        assert_eq!(t.calls_of(|k| k == Kind::Verify), 2);
        assert_eq!(t.calls_of(Kind::is_handler), 1);
        // Handler self time plus what its children cover inside it is
        // the handler's duration.
        let handler_self = t.self_ns[Kind::OnTimer as usize];
        assert_eq!(handler_self, 100 - 60 - 10);
    }

    #[test]
    fn recorder_reduces_per_request_and_drains_on_drop() {
        let collector = Collector::new();
        {
            let rec = Recorder::new(&collector, 3, 4);
            for _ in 0..2 {
                rec.child(Kind::Verify, 10, 30);
                rec.end_request(Kind::OnMessage, 0, 100);
            }
            assert_eq!(collector.totals(), Totals::default());
        }
        let totals = collector.totals();
        assert_eq!(totals.calls_of(Kind::is_handler), 2);
        assert_eq!(totals.self_ns[Kind::OnMessage as usize], 160);
        assert_eq!(totals.total_ns[Kind::Verify as usize], 40);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/span-test");
        let path = dir.join("spans.tsv");
        assert_eq!(collector.write_raw(&path).expect("writable temp dir"), 4);
        let text = std::fs::read_to_string(&path).expect("just written");
        assert_eq!(text.lines().count(), 5);
        assert!(text.contains("core.on_message"));
        std::fs::remove_dir_all(&dir).expect("own temp dir");
    }
}
