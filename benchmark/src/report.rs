//! The names the benchmark reports under: workloads, end-to-end metrics
//! with their regression bounds, per-layer metrics. `BENCHMARK.json` is
//! generated from these tables (`--print-manifest`) and a test holds the
//! committed file to them.

use std::fmt::Write;

use crate::workloads::Outcome;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 20;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "sim_mesh",
        why: "single-lane Sim::run of CPS at n=64, f=31 silent: event queue, engine and CpsNode handler do the work; KnowledgeTracker, sharding, chaos and the runtime do none",
    },
    Workload {
        name: "sim_sharded",
        why: "the same scenario on Sim::sharded with the lane pool: adds the reconcile and the thread hand-off, and the trace must equal sim_mesh's",
    },
    Workload {
        name: "sim_chaos",
        why: "all 13 catalog scenarios at n=32 with the InvariantChecker: active adversary, KnowledgeTracker, rejoin handshake, cuts, storms, floods, observer",
    },
    Workload {
        name: "rt_mesh",
        why: "wall-clock reactor, CPS full mesh n=16 over ed25519: protocol-paced, so skew and CPU per message matter, not throughput",
    },
    Workload {
        name: "rt_relay",
        why: "wall-clock reactor saturated by 64 nodes relaying unsigned tokens by unicast plus 5 ms timers: net thread, inboxes, reactor, wheel; core and crypto idle",
    },
];

/// End-to-end metrics with the share of the parent's median by which
/// each may get worse. Every workload reports every one of them.
///
/// The bounds sit at the contract's cap. On the recording host (2 shared
/// cores, hypervisor stalls of 50 ms a few times a minute) the same code
/// ran 20 % slower for minutes at a time, and the interquartile spread
/// over ten runs reached 11 % on `events_per_s`, 15 % on `cpu_us_per_msg`
/// and 13 % on `peak_rss_mb` (README, *Recorded*). A tighter bound would
/// reject a change for the host's mood.
pub const END_TO_END: [(Metric, f64); 5] = [
    (lower("setup_s", "s"), 0.25),
    (higher("events_per_s", "1/s"), 0.25),
    (higher("msgs_per_s", "1/s"), 0.25),
    (lower("cpu_us_per_msg", "us"), 0.25),
    (lower("peak_rss_mb", "MB"), 0.25),
];

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Per-layer metrics, named after the crate that does the work. A
/// workload reports 0 for the layers it does not go through.
pub const PER_LAYER: [Metric; 67] = [
    // Protocol quality. Enforced by the correctness gate (skew within S,
    // resync within its bound), not by a relative bound: they exist on
    // some workloads only and vary with the seed by design.
    lower("skew_p50_over_u", "ratio"),
    lower("skew_max_over_bound", "ratio"),
    lower("resync_max_ms", "ms"),
    lower("trace_overhead", "ratio"),
    // time
    lower("time.clock_read_ns", "ns"),
    lower("time.clock_when_ns", "ns"),
    // crypto
    lower("crypto.sign_ns.symbolic", "ns"),
    lower("crypto.verify_ns.symbolic", "ns"),
    lower("crypto.sign_ns.ed25519", "ns"),
    lower("crypto.verify_ns.ed25519", "ns"),
    lower("crypto.knowledge_learn_ns", "ns"),
    lower("crypto.knowledge_authorize_ns", "ns"),
    lower("crypto.verify_calls", "count"),
    lower("crypto.verify_s", "s"),
    lower("crypto.sign_calls", "count"),
    lower("crypto.sign_s", "s"),
    lower("crypto.verifies_per_delivery", "ratio"),
    // core
    lower("core.cps_on_message_ns", "ns"),
    lower("core.client_on_message_ns", "ns"),
    lower("core.recovery_reply_ns", "ns"),
    lower("core.handler_calls", "count"),
    lower("core.handler_s", "s"),
    lower("core.handler_self_s", "s"),
    // sim
    lower("sim.build_s", "s"),
    lower("sim.ns_per_event", "ns"),
    lower("sim.events", "count"),
    lower("sim.msgs", "count"),
    lower("sim.queue_spill_count", "count"),
    lower("sim.timer_slots_high_water", "count"),
    lower("sim.null_ns_per_event", "ns"),
    lower("sim.self_s", "s"),
    lower("sim.ctx_calls", "count"),
    lower("sim.ctx_s", "s"),
    lower("sim.shard.inline_ns_per_event", "ns"),
    lower("sim.shard.pool_ns_per_event", "ns"),
    higher("sim.shard.speedup_vs_single", "ratio"),
    lower("sim.shard.mailbox_posted", "count"),
    lower("sim.pulse_stats_us", "us"),
    // chaos
    lower("chaos.load_us", "us"),
    lower("chaos.calm_ns_per_event", "ns"),
    lower("chaos.crash_ns_per_event", "ns"),
    lower("chaos.flood_ns_per_event", "ns"),
    lower("chaos.slowest_scenario_s", "s"),
    lower("chaos.checker_replay_ns_per_pulse", "ns"),
    lower("chaos.observer_overhead", "ratio"),
    // runtime
    lower("runtime.wheel.insert_ns", "ns"),
    lower("runtime.wheel.cancel_ns", "ns"),
    lower("runtime.wheel.advance_ns_per_fire", "ns"),
    lower("runtime.clock_read_ns", "ns"),
    lower("runtime.hop_p50_us", "us"),
    lower("runtime.hop_p99_us", "us"),
    lower("runtime.hop_p999_us", "us"),
    lower("runtime.timer_lag_p50_us", "us"),
    lower("runtime.timer_lag_p99_us", "us"),
    lower("runtime.idle_cpu_share", "ratio"),
    lower("runtime.self_cpu_s", "s"),
    lower("runtime.self_cpu_us_per_msg", "us"),
    lower("runtime.net_retries", "count"),
    lower("runtime.net_sends_failed", "count"),
    lower("runtime.events_discarded", "count"),
    lower("runtime.stalls_detected", "count"),
    lower("runtime.worker_panics", "count"),
    // rt_relay's handlers are this crate's own automaton.
    lower("benchmark.relay_self_s", "s"),
    // The longest the host froze during the measured rt runs, and how
    // many of them that voided and were made again.
    lower("benchmark.host_freeze_ms", "ms"),
    lower("benchmark.host_freeze_reruns", "count"),
    // The traced run's total, so the shares above can be read off it
    // (host seconds on the single lane, CPU seconds elsewhere), and the
    // part of it that recording the spans took.
    lower("traced_total_s", "s"),
    lower("trace.recording_s", "s"),
];

fn better(b: Better) -> &'static str {
    match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    }
}

/// The contents of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (m, bound)) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}{comma}",
            m.name,
            m.unit,
            better(m.better)
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            better(m.better)
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// The result line the driver reads: `metrics` holds every end-to-end
/// metric (`traced` false) or every per-layer metric (`traced` true); a
/// per-layer metric the workload did not touch reads 0.
pub fn result_json(out: &Outcome, traced: bool) -> String {
    let metrics: Vec<&Metric> = if traced {
        PER_LAYER.iter().collect()
    } else {
        END_TO_END.iter().map(|(m, _)| m).collect()
    };
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failed == 0,
        out.ops.max(1),
        out.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = out.get(m.name).unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// A result line read back: what the all-workloads mode needs from the
/// child it spawned for one workload.
pub struct Parsed {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

/// Reads a line [`result_json`] wrote. This is not a JSON parser: it
/// reads the one shape this program prints.
pub fn parse_result(line: &str) -> Option<Parsed> {
    let field = |key: &str| -> Option<&str> {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let attempted = field("attempted")?.parse().ok()?;
    let failed = field("failed")?.parse().ok()?;
    let body = &line[line.find("\"metrics\": {")? + 12..];
    let mut metrics = Vec::new();
    for part in body
        .split("\": {\"value\": ")
        .collect::<Vec<_>>()
        .windows(2)
    {
        let name = &part[0][part[0].rfind('"')? + 1..];
        let value = part[1][..part[1].find(',')?].parse().ok()?;
        metrics.push((name.to_owned(), value));
    }
    Some(Parsed {
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json beside benchmark/");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with --print-manifest"
        );
    }

    #[test]
    fn names_units_and_sizes_are_within_the_contract() {
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains(['"', '\n']),
                "{}",
                w.name
            );
        }
        for m in END_TO_END.iter().map(|(m, _)| m).chain(PER_LAYER.iter()) {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
        }
        for (m, bound) in &END_TO_END {
            assert!((0.0..=0.25).contains(bound), "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|(m, _)| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.0.unit == "s" && setup.0.better == Better::Lower);
        assert!(
            END_TO_END.iter().all(|(_, b)| *b <= setup.1),
            "setup_s has the largest bound"
        );
        assert!(manifest_json().len() <= 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn a_result_line_reads_back() {
        let mut out = Outcome {
            ops: 12,
            failed: 1,
            ..Outcome::default()
        };
        out.set("setup_s", 0.000_018_5);
        out.set("events_per_s", 7_867_885.241_842_415);
        let line = result_json(&out, false);
        let parsed = parse_result(&line).expect("own output parses");
        assert_eq!((parsed.attempted, parsed.failed), (12, 1));
        assert_eq!(parsed.metrics.len(), END_TO_END.len());
        assert_eq!(parsed.metrics[0], ("setup_s".to_owned(), 0.000_018_5));
        assert_eq!(parsed.metrics[1].1, 7_867_885.241_842_415);
        // Unreported metrics read 0; the traced line has every layer.
        assert_eq!(parsed.metrics[4], ("peak_rss_mb".to_owned(), 0.0));
        let traced = parse_result(&result_json(&out, true)).expect("parses");
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 12, \"failed\": 1,"));
    }
}
