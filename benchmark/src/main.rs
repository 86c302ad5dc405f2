//! The repo benchmark. See `README.md` beside this crate for what it
//! measures and why, and `../BENCHMARK.json` for the contract it meets.
//!
//! Two modes share one binary. With `--workload NAME` it runs that one
//! workload in this process and ends with one JSON line, which is what the
//! driver calls. Without, it runs every workload in a child process of its
//! own (so `peak_rss_mb` is that workload's alone), prints every metric,
//! and with `--repeat K` checks the spread of each end-to-end metric
//! against its bound.

mod layers;
mod procfs;
mod report;
mod span;
mod stats;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use layers::Effort;
use report::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use workloads::sim_cps::Exec;
use workloads::{rt, sim_chaos, sim_cps, Outcome, DEFAULT_SEED};

const USAGE: &str = "usage: crusader_benchmark [--workload NAME] [--seed S] [--seconds N] \
[--trace [0|1]] [--layers] [--repeat K] [--smoke] [--print-manifest]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    layers: bool,
    repeat: usize,
    smoke: bool,
    print_manifest: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: report::RUN_SECONDS as f64,
        trace: false,
        layers: false,
        repeat: 1,
        smoke: false,
        print_manifest: false,
    };
    let mut seconds_given = false;
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .cloned()
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                let s = value("a seed")?;
                args.seed = parse_u64(&s).ok_or_else(|| format!("bad seed {s:?}"))?;
            }
            "--seconds" => {
                let s = value("a number of seconds")?;
                args.seconds = s
                    .parse()
                    .ok()
                    .filter(|v: &f64| v.is_finite() && *v > 0.0 && *v <= 60.0)
                    .ok_or_else(|| format!("bad seconds {s:?} (want 0 < N <= 60)"))?;
                seconds_given = true;
            }
            "--repeat" => {
                let s = value("a count")?;
                args.repeat = s
                    .parse()
                    .ok()
                    .filter(|k| (1..=100).contains(k))
                    .ok_or_else(|| format!("bad repeat {s:?} (want 1..=100)"))?;
            }
            // The driver passes `--trace 0|1`; by hand a bare `--trace` is on.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--layers" => args.layers = true,
            "--smoke" => args.smoke = true,
            "--print-manifest" => args.print_manifest = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.smoke && !seconds_given {
        args.seconds = 2.0;
    }
    Ok(args)
}

fn span_file(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}.spans.tsv"))
}

fn run_untraced(workload: &str, seed: u64, seconds: f64) -> Outcome {
    match workload {
        "sim_mesh" => sim_cps::run(seed, seconds, Exec::Single),
        "sim_sharded" => sim_cps::run(seed, seconds, Exec::sharded_for_host()),
        "sim_chaos" => sim_chaos::run(seed, seconds),
        "rt_mesh" => rt::run_mesh(seed, seconds),
        "rt_relay" => rt::run_relay(seed, seconds),
        other => unreachable!("workload {other} passed parse_args"),
    }
}

/// The traced pass of one workload: an untraced run and a traced run of
/// a quarter of the length each, and the probes of the layers the
/// workload goes through. Layers it bypasses stay at 0.
fn run_traced(workload: &str, seed: u64, seconds: f64, effort: Effort) -> Outcome {
    let quarter = seconds / 4.0;
    let file = span_file(workload);
    let mut out = run_untraced(workload, seed, quarter);
    let traced = match workload {
        "sim_mesh" => sim_cps::run_traced(seed, quarter, Exec::Single, &file),
        "sim_sharded" => sim_cps::run_traced(seed, quarter, Exec::sharded_for_host(), &file),
        "sim_chaos" => sim_chaos::run_traced(seed, quarter, &file),
        "rt_mesh" => rt::run_mesh_traced(seed, quarter, &file),
        "rt_relay" => rt::run_relay_traced(seed, quarter, &file),
        other => unreachable!("workload {other} passed parse_args"),
    };
    // Tracing overhead: traced over untraced, in ns per event on the
    // simulator and in CPU per message on the runtime.
    let overhead = match workload {
        "rt_mesh" | "rt_relay" => {
            traced.get("traced_cpu_us_per_msg").unwrap_or(0.0)
                / out.get("cpu_us_per_msg").unwrap_or(f64::NAN)
        }
        _ => {
            traced.get("traced_ns_per_event").unwrap_or(0.0)
                / out.get("sim.ns_per_event").unwrap_or(f64::NAN)
        }
    };
    // The runtime's counters are the untraced run's; the traced run's
    // would count the wrappers' work as the runtime's.
    let keep: Vec<(&str, f64)> = out
        .values
        .iter()
        .filter(|(n, _)| n.starts_with("runtime."))
        .copied()
        .collect();
    out.absorb(traced);
    for (name, value) in keep {
        out.set(name, value);
    }
    out.set(
        "trace_overhead",
        if overhead.is_finite() { overhead } else { 0.0 },
    );
    let through: &[fn(&mut Outcome, Effort)] = match workload {
        "sim_mesh" => &[
            layers::time,
            layers::crypto_symbolic,
            layers::core_cps,
            layers::sim_engine,
        ],
        "sim_sharded" => &[
            layers::time,
            layers::crypto_symbolic,
            layers::core_cps,
            layers::sim_engine,
            layers::sim_shard,
        ],
        "sim_chaos" => &[
            layers::time,
            layers::crypto_symbolic,
            layers::crypto_knowledge,
            layers::core_cps,
            layers::core_recovery,
            layers::sim_engine,
            layers::chaos,
        ],
        "rt_mesh" => &[layers::crypto_ed25519, layers::core_cps, layers::runtime],
        "rt_relay" => &[layers::runtime],
        other => unreachable!("workload {other} passed parse_args"),
    };
    for probe in through {
        probe(&mut out, effort);
    }
    out
}

const ALL_PROBES: [fn(&mut Outcome, Effort); 10] = [
    layers::time,
    layers::crypto_symbolic,
    layers::crypto_ed25519,
    layers::crypto_knowledge,
    layers::core_cps,
    layers::core_recovery,
    layers::sim_engine,
    layers::sim_shard,
    layers::chaos,
    layers::runtime,
];

fn print_metric(name: &str, value: f64, unit: &str) {
    println!("  {name:<34} {value:>18.6} {unit}");
}

/// Prints what an outcome holds of `metrics`, with the tail percentile
/// where a median has the samples for one.
fn print_outcome<'a>(out: &Outcome, metrics: impl Iterator<Item = &'a report::Metric>) {
    for m in metrics {
        let Some(value) = out.get(m.name) else {
            continue;
        };
        print_metric(m.name, value, m.unit);
        // The samples a reported value was drawn from: their median,
        // and the bad-side tail where there are enough of them.
        if let Some((_, samples)) = out.samples.iter().find(|(n, _)| *n == m.name) {
            let median = stats::median(samples);
            let tail = match stats::tail(samples, m.better == Better::Lower) {
                Some((pct, at)) => format!(", p{pct:.1} {at:.6}"),
                None => String::new(),
            };
            println!(
                "  {:<34} over {} samples: median {median:.6}{tail}",
                "",
                samples.len()
            );
        }
    }
    println!("  {:<34} {:>18} count", "ops", out.ops);
    println!("  {:<34} {:>18} count", "failed_ops", out.failed);
    for why in &out.failures {
        println!("  FAILED: {why}");
    }
}

/// One workload in this process: the driver's entry point.
fn worker(args: &Args, workload: &str) -> ExitCode {
    let effort = if args.smoke {
        Effort::SMOKE
    } else {
        Effort::FULL
    };
    println!(
        "{workload}: seed {:#x}, {} s, {}, nproc {}, workers {}, lanes {}",
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" },
        workloads::nproc(),
        rt::workers(),
        sim_cps::lanes(),
    );
    let mut out = if args.trace {
        run_traced(workload, args.seed, args.seconds, effort)
    } else {
        run_untraced(workload, args.seed, args.seconds)
    };
    out.set("peak_rss_mb", procfs::peak_rss_mb());
    for (name, value) in out.values.clone() {
        if !value.is_finite() {
            out.fail(format!("{name} is {value}"));
            out.set(name, 0.0);
        }
    }
    if args.trace {
        print_outcome(&out, PER_LAYER.iter());
        println!("  raw spans: {}", span_file(workload).display());
    } else {
        print_outcome(
            &out,
            END_TO_END.iter().map(|(m, _)| m).chain(PER_LAYER.iter()),
        );
    }
    println!("{}", report::result_json(&out, args.trace));
    ExitCode::SUCCESS
}

/// Runs this binary again for one workload and reads its result line.
fn child(args: &Args, workload: &str, trace: bool) -> Result<report::Parsed, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in lines {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    report::parse_result(last).ok_or_else(|| format!("{workload}: no result line, got {last:?}"))
}

/// Every workload, `repeat` times over, each in a child of its own.
fn all(args: &Args) -> ExitCode {
    let effort = if args.smoke {
        Effort::SMOKE
    } else {
        Effort::FULL
    };
    let mut failed = false;
    // values[workload][metric] over the repeats.
    let mut values = vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()];
    for rep in 0..args.repeat {
        println!("# set {} of {}", rep + 1, args.repeat);
        for (w, workload) in WORKLOADS.iter().enumerate() {
            let traces: &[bool] = if args.trace { &[false, true] } else { &[false] };
            for &trace in traces {
                match child(args, workload.name, trace) {
                    Ok(parsed) => {
                        if parsed.failed > 0 {
                            failed = true;
                            println!(
                                "  FAILED: {} of {} ops on {}",
                                parsed.failed, parsed.attempted, workload.name
                            );
                        }
                        if !trace {
                            for (m, (_, value)) in parsed.metrics.iter().enumerate() {
                                values[w][m].push(*value);
                            }
                        }
                    }
                    Err(why) => {
                        failed = true;
                        println!("  FAILED: {why}");
                    }
                }
            }
        }
    }
    if args.layers {
        println!("layers: out-of-workload probes");
        let mut out = Outcome::default();
        for probe in ALL_PROBES {
            probe(&mut out, effort);
        }
        print_outcome(&out, PER_LAYER.iter());
        failed |= out.failed > 0;
    }
    if args.repeat >= 2 {
        println!(
            "# spread of each end-to-end metric over {} sets, against its bound",
            args.repeat
        );
        println!(
            "  {:<12} {:<18} {:>16} {:>9} {:>7}",
            "workload", "metric", "median", "spread", "bound"
        );
        for (w, workload) in WORKLOADS.iter().enumerate() {
            for (m, (metric, bound)) in END_TO_END.iter().enumerate() {
                let v = &values[w][m];
                if v.len() < 2 {
                    continue;
                }
                let spread = stats::spread(v);
                // The driver holds `setup_s` to its bound between two
                // sets of runs, not within one.
                let over = spread > *bound && metric.name != "setup_s";
                failed |= over;
                println!(
                    "  {:<12} {:<18} {:>16.6} {:>8.2}% {:>6.0}%{}",
                    workload.name,
                    metric.name,
                    stats::median(v),
                    spread * 100.0,
                    bound * 100.0,
                    if over { "  OVER" } else { "" }
                );
            }
        }
    }
    if failed {
        println!("FAILED: see above");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_manifest {
        print!("{}", report::manifest_json());
        return ExitCode::SUCCESS;
    }
    match &args.workload {
        Some(workload) => worker(&args, workload),
        None => all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(&argv.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse(&[
            "--workload",
            "rt_relay",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(a.workload.as_deref(), Some("rt_relay"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, true));
        let a = parse(&["--trace", "0", "--workload", "sim_mesh"]).expect("parses");
        assert!(!a.trace);
        assert_eq!(a.seed, DEFAULT_SEED);
    }

    #[test]
    fn by_hand_flags_parse() {
        let a = parse(&[
            "--trace", "--layers", "--repeat", "3", "--smoke", "--seed", "0xC0FFEE",
        ])
        .expect("parses");
        assert!(a.trace && a.layers && a.smoke);
        assert_eq!((a.repeat, a.seed, a.seconds), (3, DEFAULT_SEED, 2.0));
    }

    #[test]
    fn bad_input_is_refused() {
        for argv in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "inf"],
            &["--repeat", "0"],
            &["--bogus"],
            &["--seed"],
        ] {
            assert!(parse(argv).is_err(), "{argv:?}");
        }
    }
}
