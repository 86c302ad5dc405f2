//! E6 — Lemmas 10 & 11: timed crusader broadcast validity and timed
//! consistency, measured directly on the TcbInstance state machine.
//!
//! For thousands of model-sampled executions of one TCB instance across
//! `n` honest receivers (one dealer — honest or adversarially staggered;
//! `--n` overrides the historical default of two receivers):
//!
//! * an honest dealer is always accepted by every receiver (validity);
//! * whenever two receivers both accept, their *real* reception times
//!   agree up to (1 − 1/θ)d + 2u/θ (consistency — a pairwise bound, so it
//!   must hold over every accepting pair), no matter what the dealer
//!   does.
//!
//! The state machines are sampled directly, without the simulator.

use crate::cli::{Failure, SimArgs};
use crusader_core::{Params, TcbInstance, TcbWindows};
use crusader_time::{Dur, LocalTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

struct Sample {
    accepted_all: bool,
    /// Max pairwise real reception gap over receivers that accepted.
    reception_gap: f64,
    honest_rejected: bool,
}

/// One sampled execution of a dealer's instance at `n` receivers.
#[allow(clippy::too_many_arguments)]
fn sample(
    rng: &mut SmallRng,
    n: usize,
    d: f64,
    u: f64,
    theta: f64,
    s_bound: f64,
    windows: &TcbWindows,
    honest_dealer: bool,
    stagger: f64,
) -> Sample {
    // Receiver pulse times within S of each other; rates within [1, θ].
    let p: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..s_bound)).collect();
    let rate: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..=theta)).collect();
    // The dealer pulses within S too and sends at local offset θS — i.e.
    // real offset in [S, θS]/rate; an adversarial dealer instead sends
    // whenever it likes (staggered per receiver, receiver 0 earliest).
    let p_dealer = rng.gen_range(0.0..s_bound);
    let dealer_rate = rng.gen_range(1.0..=theta);
    let send_offset = windows.send_offset.as_secs();
    let send_real = |to: usize| -> f64 {
        if honest_dealer {
            p_dealer + send_offset / dealer_rate
        } else {
            let share = if n > 1 { to as f64 / (n - 1) as f64 } else { 0.0 };
            p_dealer + send_offset + share * stagger
        }
    };
    // Direct deliveries.
    let t_direct: Vec<f64> = (0..n)
        .map(|v| send_real(v) + rng.gen_range(d - u..=d))
        .collect();
    // Receiver-local arrival times.
    let local = |v: usize, t: f64| LocalTime::from_secs((t - p[v]).max(0.0) * rate[v] + p[v]);
    let mut inst: Vec<TcbInstance> = (0..n).map(|v| TcbInstance::new(local(v, p[v]))).collect();
    let mut accepted = vec![false; n];
    let mut decide_real = vec![f64::MAX; n];
    for v in 0..n {
        let h = local(v, t_direct[v]);
        if let crusader_core::DirectOutcome::Accepted { decide_at } = inst[v].on_direct(h, windows)
        {
            accepted[v] = true;
            if let Some(at) = decide_at {
                decide_real[v] = p[v] + (at - local(v, p[v])).as_secs() / rate[v];
            }
        }
    }
    // Cross echoes: each acceptor forwards at its acceptance, arriving at
    // every peer after another delay.
    let mut rejected = vec![false; n];
    for v in 0..n {
        if !accepted[v] {
            continue;
        }
        for peer in 0..n {
            if peer == v {
                continue;
            }
            let echo_arrival = t_direct[v] + rng.gen_range(d - u..=d);
            if echo_arrival < decide_real[peer] {
                let h = local(peer, echo_arrival);
                if inst[peer].on_echo(h, windows) {
                    rejected[peer] = true;
                }
            }
        }
    }
    let ok: Vec<bool> = (0..n).map(|v| accepted[v] && !rejected[v]).collect();
    let all = ok.iter().all(|&b| b);
    // Lemma 11 is pairwise: the bound must hold over every pair that
    // accepted, whether or not the rest did.
    let mut gap = 0.0f64;
    for i in 0..n {
        for j in i + 1..n {
            if ok[i] && ok[j] {
                gap = gap.max((t_direct[i] - t_direct[j]).abs());
            }
        }
    }
    Sample {
        accepted_all: all,
        reception_gap: gap,
        honest_rejected: honest_dealer && !all,
    }
}

/// Runs the experiment (module docs): `Err` for input it cannot run
/// with, a panic for a violated shape assertion.
pub fn run(args: &SimArgs) -> Result<(), Failure> {
    let d = 1e-3;
    let u = 50e-6;
    let theta = 1.001;
    // Feasibility of the maximum fault budget at the requested receiver
    // count, under this experiment's link/clock parameters.
    let n = args.resolve_n(2, Dur::from_secs(d), Dur::from_secs(u), theta)?;
    let s_bound = 300e-6;
    let params = Params::max_resilience(n, Dur::from_secs(d), Dur::from_secs(u), theta);
    let windows = TcbWindows::with_skew(&params, Dur::from_secs(s_bound), Dur::from_nanos(0.05));
    let consistency_bound = (1.0 - 1.0 / theta) * d + 2.0 * u / theta;
    let trials = 20_000;

    println!("# E6: TCB validity & timed consistency (Lemmas 10-11)\n");
    println!(
        "n = {n} receivers, d = 1 ms, u = 50 µs, θ = {theta}, S = 300 µs, {trials} trials per row\n"
    );
    println!("| dealer | stagger (µs) | honest rejected | all accepted | max gap (µs) | bound (µs) |");
    println!("|--------|--------------|-----------------|--------------|--------------|------------|");

    let mut rng = SmallRng::seed_from_u64(6);
    // Honest dealer row.
    let mut rej = 0u64;
    let mut all = 0u64;
    let mut max_gap = 0.0f64;
    for _ in 0..trials {
        let s = sample(&mut rng, n, d, u, theta, s_bound, &windows, true, 0.0);
        rej += u64::from(s.honest_rejected);
        all += u64::from(s.accepted_all);
        max_gap = max_gap.max(s.reception_gap);
    }
    println!(
        "| honest | {:>12} | {:>15} | {:>12} | {:>12.3} | {:>10.3} |",
        "-", rej, all, max_gap * 1e6, consistency_bound * 1e6
    );
    assert_eq!(rej, 0, "Lemma 10 violated: honest dealer rejected");

    // Byzantine dealers with growing stagger.
    for stagger_us in [20.0, 100.0, 500.0, 2000.0] {
        let mut all = 0u64;
        let mut max_gap = 0.0f64;
        for _ in 0..trials {
            let s = sample(
                &mut rng, n, d, u, theta, s_bound, &windows, false, stagger_us * 1e-6,
            );
            all += u64::from(s.accepted_all);
            max_gap = max_gap.max(s.reception_gap);
        }
        println!(
            "| byz    | {:>12.1} | {:>15} | {:>12} | {:>12.3} | {:>10.3} |",
            stagger_us, "-", all, max_gap * 1e6, consistency_bound * 1e6
        );
        assert!(
            max_gap <= consistency_bound + 1e-12,
            "Lemma 11 violated: gap {max_gap} > {consistency_bound}"
        );
    }
    println!("\nShape check: beyond the consistency bound the dealer can no");
    println!("longer be accepted by every receiver — large staggers zero out");
    println!("the 'all accepted' column instead of widening the gap.");
    Ok(())
}
