//! The `.chaos` scenario format: a data-defined fault timeline plus the
//! invariants a replay must uphold.
//!
//! Scenarios are plain text, one directive per line, `#` to end of line
//! is a comment. Times are scenario milliseconds — virtual time on the
//! simulator, wall-clock time on the runtime — so one file replays on
//! both stacks. The full grammar:
//!
//! ```text
//! name     <slug>                        # required, unique in a catalog
//! summary  <free text>                   # required, one line
//! n        <usize>                       # required, system size
//! seed     <u64>                         # default 0
//! d_ms     <f64>                         # default 5
//! u_ms     <f64>                         # default 2
//! theta    <f64>                         # default 1.01
//! run_for_ms <f64>                       # required, scenario horizon
//! faulty   <set>                         # Byzantine in the sim, silent on the runtime
//! affected <set>                         # extra nodes whose protocol violations are tolerated
//! crash    <node> <from_ms> <until_ms|never>
//! cut      <set> <set> <from_ms> <until_ms>
//! storm    <from_ms> <until_ms>
//! flood    <from_ms> <until_ms> <copies> <rush|draw>
//! panic    <node> <at_ms>                # worker-panic drill; runtime-only, sim ignores
//! invariant skew_ms <f64>
//! invariant period_ms <min_f64> <max_f64>
//! invariant min_pulses <u64> [stable|all]
//! invariant resync_ms <f64>              # bound on recovery -> next pulse, per rejoin
//! count_affected_violations              # strict mode: no fault-budget tolerance
//! expect   clean|violations              # required
//! ```
//!
//! Node sets are comma-separated indices and inclusive ranges:
//! `0-3,6`. One node's `crash` windows may overlap or touch: the node is
//! down over their union and recovers once, at its end (a `never`
//! window keeps it down from its start on). Every directive is validated on parse (values finite,
//! indices in range, windows non-empty, bounds ordered, `n`/`d_ms`/
//! `u_ms`/`theta` feasible for Theorem 17 with the `faulty` set inside
//! the `⌈n/2⌉ − 1` budget) so a broken file is an `Err` naming the line
//! or directive at load time — never a panic, a hang or an allocation
//! sized by the input, and never a surprise mid-replay.

use std::path::{Path, PathBuf};

use crusader_core::max_faults_with_signatures;
use crusader_sim::ChaosTimeline;
use crusader_time::{Dur, Time};

/// Largest system size a scenario may declare, and so the most indices
/// a node set may list: far beyond what a full-mesh replay can execute,
/// it only keeps a typo from sizing an allocation.
pub const MAX_N: usize = 1 << 16;

/// Largest magnitude of a `*_ms` value (about 31 years): keeps every
/// quantity derived from it finite.
const MAX_MS: f64 = 1e12;

/// Which pulse-count population an `invariant min_pulses` covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LivenessScope {
    /// Only stable nodes (neither faulty, crashed, nor declared
    /// affected) must reach the pulse count — the default.
    Stable,
    /// Every node must, including crashed ones. Used by liveness probes
    /// where the deficit *is* the expected violation.
    All,
}

/// The invariants a replay is checked against, continuously.
#[derive(Clone, Debug, Default)]
pub struct InvariantSpec {
    /// Pairwise pulse-time skew bound among stable nodes, per round.
    pub skew: Option<Dur>,
    /// `(min, max)` bound on the gap between a stable node's
    /// consecutive pulses.
    pub period: Option<(Dur, Dur)>,
    /// Minimum pulses each covered node must complete by the horizon.
    pub min_pulses: Option<(u64, LivenessScope)>,
    /// Time-to-resync bound: every recovered node must pulse again
    /// within this much of its recovery instant.
    pub resync: Option<Dur>,
    /// When `true`, protocol violations from affected nodes count as
    /// invariant violations instead of being tolerated under the fault
    /// budget. Set by `count_affected_violations`.
    pub count_affected_violations: bool,
}

/// Whether a scenario is supposed to replay cleanly or to trip the
/// checker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expectation {
    /// Zero invariant violations on every executor.
    Clean,
    /// At least one invariant violation (with a first-violation
    /// timestamp) on every executor.
    Violations,
}

/// A crash directive, kept in scenario form so the timeline can be
/// rebuilt on demand.
#[derive(Clone, Copy, Debug)]
pub struct CrashSpec {
    /// Crashing node.
    pub node: usize,
    /// Window start, scenario time.
    pub from: Time,
    /// Recovery instant; `None` = never recovers.
    pub until: Option<Time>,
}

/// A bidirectional link-cut directive between two node sets.
#[derive(Clone, Debug)]
pub struct CutSpec {
    /// One side of the cut.
    pub a: Vec<usize>,
    /// The other side.
    pub b: Vec<usize>,
    /// Window start.
    pub from: Time,
    /// Window end (exclusive).
    pub until: Time,
}

/// A delay-storm directive: every delay pinned to the legal maximum.
#[derive(Clone, Copy, Debug)]
pub struct StormSpec {
    /// Window start.
    pub from: Time,
    /// Window end (exclusive).
    pub until: Time,
}

/// A worker-panic drill: the named node's handler panics once at the
/// given instant. Runtime-only — the wall-clock runtime contains the
/// panic in its supervision layer; the simulators ignore drills
/// (there is no worker to kill in a deterministic event loop).
#[derive(Clone, Copy, Debug)]
pub struct PanicSpec {
    /// The node whose handler blows up.
    pub node: usize,
    /// Drill instant, scenario time.
    pub at: Time,
}

/// A flood directive: every send duplicated `copies` extra times.
#[derive(Clone, Copy, Debug)]
pub struct FloodDirective {
    /// Window start.
    pub from: Time,
    /// Window end (exclusive).
    pub until: Time,
    /// Extra copies per send.
    pub copies: u32,
    /// `true`: copies rush at the minimum legal delay; `false`: each
    /// copy draws its own random delay.
    pub rush: bool,
}

/// One parsed `.chaos` scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Short unique slug.
    pub name: String,
    /// One-line description.
    pub summary: String,
    /// System size.
    pub n: usize,
    /// RNG seed for the replay.
    pub seed: u64,
    /// Maximum link delay `d`.
    pub d: Dur,
    /// Link uncertainty `u`.
    pub u: Dur,
    /// Clock-rate bound `θ`.
    pub theta: f64,
    /// Scenario horizon.
    pub run_for: Dur,
    /// Byzantine nodes (simulator) / silent nodes (runtime).
    pub faulty: Vec<usize>,
    /// Extra nodes declared affected (beyond faulty and ever-crashed),
    /// e.g. the isolated side of a partition.
    pub affected_extra: Vec<usize>,
    /// Crash windows.
    pub crashes: Vec<CrashSpec>,
    /// Link cuts.
    pub cuts: Vec<CutSpec>,
    /// Delay storms.
    pub storms: Vec<StormSpec>,
    /// Flood windows.
    pub floods: Vec<FloodDirective>,
    /// Worker-panic drills (runtime-only).
    pub panics: Vec<PanicSpec>,
    /// What the checker enforces.
    pub invariants: InvariantSpec,
    /// The pinned verdict.
    pub expect: Expectation,
}

impl Scenario {
    /// Builds the [`ChaosTimeline`] this scenario injects.
    ///
    /// # Panics
    ///
    /// Panics only if the scenario was constructed by hand with
    /// out-of-range indices; parsed scenarios are pre-validated.
    #[must_use]
    pub fn timeline(&self) -> ChaosTimeline {
        let mut tl = ChaosTimeline::new(self.n);
        for c in &self.crashes {
            tl.crash(c.node, c.from, c.until);
        }
        let mask = |nodes: &[usize]| {
            let mut m = vec![false; self.n];
            for &i in nodes {
                m[i] = true;
            }
            m
        };
        for c in &self.cuts {
            tl.cut_link(mask(&c.a), mask(&c.b), c.from, c.until);
        }
        for s in &self.storms {
            tl.storm(s.from, s.until);
        }
        for f in &self.floods {
            tl.flood_window(f.from, f.until, f.copies, f.rush);
        }
        for p in &self.panics {
            tl.panic_at(p.node, p.at);
        }
        tl
    }

    /// The affected set: faulty ∪ ever-crashed ∪ declared extras.
    /// Protocol violations from these nodes are tolerated under the
    /// fault budget (unless the scenario counts them), and they are
    /// excluded from the stable population the skew/period/liveness
    /// invariants cover.
    #[must_use]
    pub fn affected(&self) -> Vec<usize> {
        let mut mask = vec![false; self.n];
        for &i in self.faulty.iter().chain(self.affected_extra.iter()) {
            mask[i] = true;
        }
        for c in &self.crashes {
            mask[c.node] = true;
        }
        (0..self.n).filter(|&i| mask[i]).collect()
    }

    /// Whether the scenario injects any fault at all (used by the
    /// false-positive guard to find the fault-free catalog entries).
    #[must_use]
    pub fn is_fault_free(&self) -> bool {
        self.faulty.is_empty()
            && self.crashes.is_empty()
            && self.cuts.is_empty()
            && self.storms.is_empty()
            && self.floods.is_empty()
            && self.panics.is_empty()
    }

    /// The same fault timeline replayed in a system of `n` nodes.
    /// Node indices are absolute, so growing the system adds untouched
    /// honest nodes; pulse quotas are per-node and carry over unchanged.
    ///
    /// # Errors
    ///
    /// Returns a message if `n` is too small for a node index the
    /// scenario references.
    pub fn rescale(&self, n: usize) -> Result<Scenario, String> {
        let mut sc = self.clone();
        sc.n = n;
        sc.validate()?;
        Ok(sc)
    }

    /// Parses the `.chaos` text format.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line for any syntax or
    /// validation error.
    pub fn parse(text: &str) -> Result<Scenario, String> {
        let mut name = None;
        let mut summary = None;
        let mut n: Option<usize> = None;
        let mut seed = 0u64;
        let mut d = Dur::from_millis(5.0);
        let mut u = Dur::from_millis(2.0);
        let mut theta = 1.01;
        let mut run_for = None;
        let mut faulty = Vec::new();
        let mut affected_extra = Vec::new();
        let mut crashes = Vec::new();
        let mut cuts = Vec::new();
        let mut storms = Vec::new();
        let mut floods = Vec::new();
        let mut panics = Vec::new();
        let mut invariants = InvariantSpec::default();
        let mut expect = None;

        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |msg: String| format!("line {}: {msg}", lineno + 1);
            let mut tok = line.split_whitespace();
            let head = tok.next().expect("non-empty line");
            let toks: Vec<&str> = tok.collect();
            match head {
                "name" => name = Some(one(&toks).map_err(err)?.to_owned()),
                "summary" => summary = Some(toks.join(" ")),
                "n" => n = Some(num(&toks).map_err(err)?),
                "seed" => seed = num(&toks).map_err(err)?,
                "d_ms" => d = dur_ms(&toks).map_err(err)?,
                "u_ms" => u = dur_ms(&toks).map_err(err)?,
                "theta" => theta = num(&toks).map_err(err)?,
                "run_for_ms" => {
                    run_for = Some(dur_ms(&toks).map_err(err)?);
                }
                "faulty" => faulty = node_set(one(&toks).map_err(err)?).map_err(err)?,
                "affected" => {
                    affected_extra = node_set(one(&toks).map_err(err)?).map_err(err)?;
                }
                "crash" => {
                    let [node, from, until] = exactly::<3>(&toks).map_err(err)?;
                    crashes.push(CrashSpec {
                        node: parse_in(node, "node").map_err(err)?,
                        from: time_ms(from).map_err(err)?,
                        until: if until == "never" {
                            None
                        } else {
                            Some(time_ms(until).map_err(err)?)
                        },
                    });
                }
                "cut" => {
                    let [a, b, from, until] = exactly::<4>(&toks).map_err(err)?;
                    cuts.push(CutSpec {
                        a: node_set(a).map_err(err)?,
                        b: node_set(b).map_err(err)?,
                        from: time_ms(from).map_err(err)?,
                        until: time_ms(until).map_err(err)?,
                    });
                }
                "storm" => {
                    let [from, until] = exactly::<2>(&toks).map_err(err)?;
                    storms.push(StormSpec {
                        from: time_ms(from).map_err(err)?,
                        until: time_ms(until).map_err(err)?,
                    });
                }
                "flood" => {
                    let [from, until, copies, mode] = exactly::<4>(&toks).map_err(err)?;
                    let rush = match mode {
                        "rush" => true,
                        "draw" => false,
                        other => return Err(err(format!("flood mode {other:?} (want rush|draw)"))),
                    };
                    floods.push(FloodDirective {
                        from: time_ms(from).map_err(err)?,
                        until: time_ms(until).map_err(err)?,
                        copies: parse_in(copies, "copies").map_err(err)?,
                        rush,
                    });
                }
                "panic" => {
                    let [node, at] = exactly::<2>(&toks).map_err(err)?;
                    panics.push(PanicSpec {
                        node: parse_in(node, "node").map_err(err)?,
                        at: time_ms(at).map_err(err)?,
                    });
                }
                "invariant" => match toks.first().copied() {
                    Some("resync_ms") => {
                        invariants.resync =
                            Some(dur_ms(&toks[1..]).map_err(err)?);
                    }
                    Some("skew_ms") => {
                        invariants.skew =
                            Some(dur_ms(&toks[1..]).map_err(err)?);
                    }
                    Some("period_ms") => {
                        let [lo, hi] = exactly::<2>(&toks[1..]).map_err(err)?;
                        let lo = dur_ms(&[lo]).map_err(err)?;
                        let hi = dur_ms(&[hi]).map_err(err)?;
                        if hi < lo {
                            return Err(err("period_ms max below min".to_owned()));
                        }
                        invariants.period = Some((lo, hi));
                    }
                    Some("min_pulses") => {
                        let rest = &toks[1..];
                        let count: u64 = parse_in(
                            rest.first().copied().ok_or("min_pulses needs a count")
                                .map_err(|e| err(e.to_owned()))?,
                            "count",
                        )
                        .map_err(err)?;
                        let scope = match rest.get(1).copied() {
                            None | Some("stable") => LivenessScope::Stable,
                            Some("all") => LivenessScope::All,
                            Some(other) => {
                                return Err(err(format!(
                                    "min_pulses scope {other:?} (want stable|all)"
                                )))
                            }
                        };
                        invariants.min_pulses = Some((count, scope));
                    }
                    other => return Err(err(format!("unknown invariant {other:?}"))),
                },
                "count_affected_violations" => invariants.count_affected_violations = true,
                "expect" => {
                    expect = Some(match one(&toks).map_err(err)? {
                        "clean" => Expectation::Clean,
                        "violations" => Expectation::Violations,
                        other => {
                            return Err(err(format!(
                                "expect {other:?} (want clean|violations)"
                            )))
                        }
                    });
                }
                other => return Err(err(format!("unknown directive {other:?}"))),
            }
        }

        let scenario = Scenario {
            name: name.ok_or("missing 'name'")?,
            summary: summary.ok_or("missing 'summary'")?,
            n: n.ok_or("missing 'n'")?,
            seed,
            d,
            u,
            theta,
            run_for: run_for.ok_or("missing 'run_for_ms'")?,
            faulty,
            affected_extra,
            crashes,
            cuts,
            storms,
            floods,
            panics,
            invariants,
            expect: expect.ok_or("missing 'expect'")?,
        };
        scenario.validate()?;
        Ok(scenario)
    }

    fn validate(&self) -> Result<(), String> {
        if self.n == 0 || self.n > MAX_N {
            return Err(format!("n must lie in 1..={MAX_N}, got {}", self.n));
        }
        if self.run_for <= Dur::ZERO {
            return Err(format!("run_for_ms must be positive, got {}", self.run_for));
        }
        if self.d <= Dur::ZERO {
            return Err(format!("d_ms must be positive, got {}", self.d));
        }
        if self.u.is_negative() || self.u > self.d {
            return Err(format!("u_ms must lie in [0, d_ms], got {}", self.u));
        }
        // The upper end is far past feasibility (θ ≲ 1.078); it is here
        // because for a θ whose cube overflows `Params::derive` computes a
        // NaN feasibility polynomial, which its `p <= 0` test lets through.
        if !(1.0..=2.0).contains(&self.theta) {
            return Err(format!("theta must lie in [1, 2], got {}", self.theta));
        }
        let budget = max_faults_with_signatures(self.n);
        if self.faulty.len() > budget {
            return Err(format!(
                "faulty lists {} nodes, the budget at n={} is {budget}",
                self.faulty.len(),
                self.n
            ));
        }
        crate::replay::scenario_params(self)
            .derive()
            .map_err(|e| format!("n/d_ms/u_ms/theta are infeasible for Theorem 17: {e}"))?;
        let check_node = |i: usize, what: &str| {
            if i >= self.n {
                Err(format!("{what} index {i} out of range for n={}", self.n))
            } else {
                Ok(())
            }
        };
        for &i in self.faulty.iter() {
            check_node(i, "faulty")?;
        }
        for &i in self.affected_extra.iter() {
            check_node(i, "affected")?;
        }
        let horizon = Time::ZERO + self.run_for;
        let check_window = |from: Time, until: Time, what: &str| {
            if until <= from {
                return Err(format!("{what} window is empty"));
            }
            if from >= horizon {
                return Err(format!("{what} window starts past the horizon"));
            }
            Ok(())
        };
        for c in &self.crashes {
            check_node(c.node, "crash")?;
            if c.from <= Time::ZERO {
                return Err("crash must start after time 0 (use 'faulty' for \
                            crashed-from-start nodes)"
                    .to_owned());
            }
            if let Some(until) = c.until {
                check_window(c.from, until, "crash")?;
            }
        }
        for c in &self.cuts {
            for &i in c.a.iter().chain(c.b.iter()) {
                check_node(i, "cut")?;
            }
            check_window(c.from, c.until, "cut")?;
        }
        for s in &self.storms {
            check_window(s.from, s.until, "storm")?;
        }
        for f in &self.floods {
            check_window(f.from, f.until, "flood")?;
            if f.copies == 0 {
                return Err("flood copies must be positive".to_owned());
            }
        }
        for p in &self.panics {
            check_node(p.node, "panic")?;
            if p.at <= Time::ZERO {
                return Err("panic drills must fire after time 0".to_owned());
            }
            if p.at >= horizon {
                return Err("panic drill fires past the horizon".to_owned());
            }
        }
        Ok(())
    }
}

fn one<'a>(toks: &[&'a str]) -> Result<&'a str, String> {
    match toks {
        [t] => Ok(t),
        _ => Err(format!("expected exactly one value, got {}", toks.len())),
    }
}

fn exactly<'a, const K: usize>(toks: &[&'a str]) -> Result<[&'a str; K], String> {
    <[&str; K]>::try_from(toks.to_vec())
        .map_err(|v| format!("expected {K} values, got {}", v.len()))
}

fn num<T: std::str::FromStr>(toks: &[&str]) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    parse_in(one(toks)?, "value")
}

fn parse_in<T: std::str::FromStr>(tok: &str, what: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    tok.parse()
        .map_err(|e| format!("{what} {tok:?}: {e}"))
}

/// The one `*_ms` value of a directive: finite and at most [`MAX_MS`] in
/// magnitude.
fn dur_ms(toks: &[&str]) -> Result<Dur, String> {
    let tok = one(toks)?;
    let ms: f64 = parse_in(tok, "value")?;
    if ms.is_nan() || ms.abs() > MAX_MS {
        return Err(format!("value {tok:?} must be finite and within ±{MAX_MS:e} ms"));
    }
    Ok(Dur::from_millis(ms))
}

fn time_ms(tok: &str) -> Result<Time, String> {
    let ms: f64 = parse_in(tok, "time")?;
    if !(0.0..=MAX_MS).contains(&ms) {
        return Err(format!("time {tok:?} must be a non-negative ms value up to {MAX_MS:e}"));
    }
    Ok(Time::from_secs(ms / 1e3))
}

/// Parses `0-3,6`-style node sets into a sorted, deduplicated list. The
/// terms may list at most [`MAX_N`] indices between them, checked before
/// any range is materialized (`n` may come later in the file, so the
/// exact range check is [`Scenario::validate`]'s).
fn node_set(spec: &str) -> Result<Vec<usize>, String> {
    let mut out = std::collections::BTreeSet::new();
    let mut listed = 0usize;
    for term in spec.split(',') {
        if let Some((lo, hi)) = term.split_once('-') {
            let lo: usize = parse_in(lo, "node")?;
            let hi: usize = parse_in(hi, "node")?;
            if hi < lo {
                return Err(format!("range {term:?} is reversed"));
            }
            listed = listed.saturating_add((hi - lo).saturating_add(1));
            if listed > MAX_N {
                return Err(format!("node set {spec:?} lists more than {MAX_N} indices"));
            }
            out.extend(lo..=hi);
        } else {
            out.insert(parse_in(term, "node")?);
        }
    }
    if out.is_empty() {
        return Err("empty node set".to_owned());
    }
    Ok(out.into_iter().collect())
}

/// A directory of scenarios, loaded in file-name order.
#[derive(Debug)]
pub struct Catalog {
    /// The parsed scenarios, sorted by file name.
    pub scenarios: Vec<Scenario>,
}

impl Catalog {
    /// Loads every `*.chaos` file under `dir`.
    ///
    /// # Errors
    ///
    /// Returns a message for I/O failures, parse errors (prefixed with
    /// the file name), or duplicate scenario names.
    pub fn load(dir: &Path) -> Result<Catalog, String> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("read {}: {e}", dir.display()))?
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "chaos"))
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(format!("no .chaos files in {}", dir.display()));
        }
        let mut scenarios = Vec::with_capacity(paths.len());
        let mut names = std::collections::BTreeSet::new();
        for path in paths {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            let sc = Scenario::parse(&text)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            if !names.insert(sc.name.clone()) {
                return Err(format!("{}: duplicate scenario name {}", path.display(), sc.name));
            }
            scenarios.push(sc);
        }
        Ok(Catalog { scenarios })
    }

    /// Finds a scenario by its `name` slug.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Scenario> {
        self.scenarios.iter().find(|s| s.name == name)
    }
}

/// The committed catalog directory shipped with this crate.
#[must_use]
pub fn builtin_catalog_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("catalog")
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = "
        name t
        summary a test
        n 4
        run_for_ms 100
        expect clean
    ";

    #[test]
    fn minimal_scenario_parses_with_defaults() {
        let sc = Scenario::parse(MINIMAL).expect("parses");
        assert_eq!(sc.name, "t");
        assert_eq!(sc.n, 4);
        assert_eq!(sc.seed, 0);
        assert_eq!(sc.d, Dur::from_millis(5.0));
        assert!(sc.is_fault_free());
        assert_eq!(sc.expect, Expectation::Clean);
    }

    #[test]
    fn full_scenario_parses() {
        let sc = Scenario::parse(
            "
            name full
            summary everything at once
            n 8
            seed 9
            d_ms 4
            u_ms 1.5
            theta 1.02
            run_for_ms 500
            faulty 7
            affected 6
            crash 2 100 200
            crash 3 150 never
            cut 0-2 3-5 100 150   # halves
            storm 200 250
            flood 250 300 2 rush
            panic 1 120
            invariant skew_ms 6
            invariant period_ms 1 200
            invariant min_pulses 2 all
            invariant resync_ms 150
            count_affected_violations
            expect violations
        ",
        )
        .expect("parses");
        assert_eq!(sc.crashes.len(), 2);
        assert_eq!(sc.crashes[1].until, None);
        assert_eq!(sc.cuts[0].a, vec![0, 1, 2]);
        assert_eq!(sc.affected(), vec![2, 3, 6, 7]);
        assert_eq!(sc.panics.len(), 1);
        assert_eq!(sc.panics[0].node, 1);
        assert_eq!(sc.invariants.resync, Some(Dur::from_millis(150.0)));
        assert!(!sc.is_fault_free());
        assert_eq!(
            sc.invariants.min_pulses,
            Some((2, LivenessScope::All))
        );
        assert!(sc.invariants.count_affected_violations);
        let tl = sc.timeline();
        assert!(tl.down(crusader_crypto::NodeId::new(2), Time::from_secs(0.15)));
        assert!(tl.storming(Time::from_secs(0.22)));
    }

    /// Every case is an `Err` naming the line or directive, returned at
    /// once: none reaches an assert in `Dur::from_millis`, `derive` or
    /// the replay, and no range is materialized before it is bounded.
    #[test]
    fn rejects_bad_input() {
        for (broken, names) in [
            ("expect clean", "missing 'run_for_ms'"),
            ("run_for_ms 100\ncrash 9 10 20", "crash index 9 out of range"),
            ("run_for_ms 100\ncrash 1 20 10", "crash window is empty"),
            ("run_for_ms 100\nflood 10 20 0 rush", "flood copies"),
            ("run_for_ms 100\nexpect maybe", "line 5: expect"),
            ("run_for_ms 100\npanic 9 50", "panic index 9 out of range"),
            ("run_for_ms 100\npanic 1 150", "past the horizon"),
            ("run_for_ms 100\nwat 1", "line 5: unknown directive"),
            ("run_for_ms 100\nd_ms NaN", "line 5"),
            ("run_for_ms 100\ninvariant skew_ms NaN", "line 5"),
            ("run_for_ms 100\nd_ms 1\nu_ms 5", "u_ms"),
            ("run_for_ms 100\ntheta 0.5", "theta"),
            ("run_for_ms -5", "run_for_ms"),
            ("run_for_ms 100\nfaulty 0-99999999999", "line 5"),
            ("run_for_ms 100\nfaulty 0-1", "faulty"),
            ("run_for_ms 100\ntheta 1.2", "theta"),
            ("run_for_ms 100\nu_ms 2.5", "u_ms"),
            ("run_for_ms 100\nn 70000", "n must"),
            ("run_for_ms 100\nd_ms 1e300", "line 5"),
        ] {
            let text = format!("name t\nsummary s\nn 4\n{broken}\nexpect clean");
            let started = std::time::Instant::now();
            let err = Scenario::parse(&text).expect_err(broken);
            assert!(err.contains(names), "{broken:?}: {err}");
            assert!(started.elapsed().as_millis() < 100, "{broken:?}: {:?}", started.elapsed());
        }
    }

    #[test]
    fn node_set_syntax() {
        assert_eq!(node_set("0-3,6").unwrap(), vec![0, 1, 2, 3, 6]);
        assert_eq!(node_set("5").unwrap(), vec![5]);
        assert_eq!(node_set("2,2,1").unwrap(), vec![1, 2]);
        assert!(node_set("3-1").is_err());
        assert!(node_set("x").is_err());
    }
}
