//! The five workloads. Each has an untraced run that yields the end-to-end
//! metrics and checks every output, and a traced run that yields the
//! per-layer metrics of the layers it goes through.

use std::time::{Duration, Instant};

pub mod rt;
pub mod sim_chaos;
pub mod sim_cps;

/// The seed at which `sim_mesh` is pinned to `BENCH_cps.json`'s n = 64
/// row: 511 005 events, 502 656 messages.
pub const DEFAULT_SEED: u64 = 0xC0_FFEE;

/// Worker threads (and sharded lanes) the host allows.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// What one run of a workload found.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted and failed, as the workload defines them.
    pub ops: u64,
    pub failed: u64,
    /// One line per failed check (capped; `failed` has the full count).
    pub failures: Vec<String>,
    /// Metric values by name.
    pub values: Vec<(&'static str, f64)>,
    /// Per-rep samples behind a median, for the tail percentile.
    pub samples: Vec<(&'static str, Vec<f64>)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Sets `name` to the median of `samples` and keeps them for the tail.
    pub fn set_median(&mut self, name: &'static str, samples: Vec<f64>) {
        self.set(name, crate::stats::median(&samples));
        self.samples.push((name, samples));
    }

    /// Sets `name` to the best of `samples` (see [`crate::stats::best`])
    /// and keeps them for the median and the tail.
    pub fn set_best(&mut self, name: &'static str, samples: Vec<f64>, higher_is_better: bool) {
        self.set(name, crate::stats::best(&samples, higher_is_better));
        self.samples.push((name, samples));
    }

    /// Counts one op; `check` is `Err(why)` when it failed.
    pub fn op(&mut self, check: Result<(), String>) {
        self.ops += 1;
        if let Err(why) = check {
            self.fail(why);
        }
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// Takes over `other`'s values, samples and failures.
    pub fn absorb(&mut self, other: Outcome) {
        self.ops += other.ops;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        for (name, value) in other.values {
            self.set(name, value);
        }
        self.samples.extend(other.samples);
    }
}

/// Which executor a traced workload ran on: the layer that holds what the
/// handlers do not.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Host {
    Sim,
    Runtime,
}

/// Fills the traced per-layer metrics from what the recorders drained into
/// `collector`. `total_s` is the traced run's total: host seconds inside
/// `run()` on the single-lane simulator, CPU seconds of the process where
/// handlers run on several threads. The layers below sum to it:
/// the executor's own time, `core.handler_self_s`, `crypto.verify_s`,
/// `crypto.sign_s`, `sim.ctx_s` and `trace.recording_s`.
pub fn fill_traced(
    out: &mut Outcome,
    collector: &crate::span::Collector,
    total_s: f64,
    deliveries: u64,
    host: Host,
) {
    use crate::span::{Calibration, Kind};
    let t = collector.totals();
    let times = t.layer_times(&Calibration::measure());
    let verifies = t.calls_of(|k| k == Kind::Verify) as f64;
    out.set("crypto.verify_calls", verifies);
    out.set("crypto.verify_s", times.verify_s);
    out.set("crypto.sign_calls", t.calls_of(|k| k == Kind::Sign) as f64);
    out.set("crypto.sign_s", times.sign_s);
    out.set(
        "crypto.verifies_per_delivery",
        verifies / deliveries.max(1) as f64,
    );
    out.set("core.handler_calls", t.calls_of(Kind::is_handler) as f64);
    out.set("core.handler_s", times.handler_s);
    out.set("core.handler_self_s", times.handler_self_s);
    out.set("trace.recording_s", times.tracing_s);
    out.set("traced_total_s", total_s);
    let own_s = (total_s - times.handler_s - times.tracing_s).max(0.0);
    match host {
        Host::Sim => {
            out.set("sim.self_s", own_s);
            out.set("sim.ctx_calls", t.calls_of(Kind::is_ctx) as f64);
            out.set("sim.ctx_s", times.ctx_s);
        }
        // The runtime's context only buffers what a handler sends, and
        // has no metric of its own: that time stays with the runtime.
        Host::Runtime => {
            let own_s = own_s + times.ctx_s;
            out.set("runtime.self_cpu_s", own_s);
            out.set(
                "runtime.self_cpu_us_per_msg",
                own_s * 1e6 / deliveries.max(1) as f64,
            );
        }
    }
}

/// Writes the traced run's raw spans; failing to is a failure of the run.
pub fn write_spans(out: &mut Outcome, collector: &crate::span::Collector, file: &std::path::Path) {
    if let Err(e) = collector.write_raw(file) {
        out.fail(format!("write {}: {e}", file.display()));
    }
}

/// A wall-clock budget: reps run while `left()` says so.
pub struct Budget {
    end: Instant,
}

impl Budget {
    pub fn new(seconds: f64) -> Self {
        Budget {
            end: Instant::now() + Duration::from_secs_f64(seconds),
        }
    }

    pub fn left(&self) -> bool {
        Instant::now() < self.end
    }

    /// Whether a rep expected to take `seconds` still ends in time.
    pub fn fits(&self, seconds: f64) -> bool {
        Instant::now() + Duration::from_secs_f64(seconds) <= self.end
    }
}
