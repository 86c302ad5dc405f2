//! E9 — the designers' warning from Section 1: if links with a faulty
//! endpoint may undercut the minimum delay (ũ > u), the rushing-forwarder
//! attack turns honest dealers' broadcasts into ⊥ evidence and the
//! effective error budget degrades toward Θ(ũ).

use crate::cli::{Failure, SimArgs};
use crate::Scenario;
use crusader_core::adversary::RushingForwarder;
use crusader_sim::DelayModel;
use crusader_time::drift::DriftModel;
use crusader_time::Dur;

/// Runs the experiment (module docs): `Err` for input it cannot run
/// with, a panic for a violated shape assertion.
pub fn run(args: &SimArgs) -> Result<(), Failure> {
    let d = Dur::from_millis(1.0);
    let u = Dur::from_micros(20.0);
    let n = args.resolve_n(5, d, u, 1.0002)?;
    println!("# E9: faulty links undercutting the minimum delay (n = {n}, f = 1)\n");
    println!("| ũ (µs) | ũ/u | pulses | max skew (µs) | ⊥-budget violations |");
    println!("|--------|-----|--------|---------------|---------------------|");
    for mult in [1.0, 2.0, 5.0, 10.0, 20.0] {
        let u_tilde = Dur::from_micros(20.0 * mult);
        let mut s = Scenario::new(n, d, u, 1.0002);
        s.faulty = vec![n - 1];
        s.u_tilde = Some(u_tilde);
        s.delays = DelayModel::Random;
        s.drift = DriftModel::RandomStable;
        s.pulses = 12;
        let (m, _derived) = s.run_cps(Box::new(RushingForwarder::new()));
        println!(
            "| {:>6.0} | {:>3.0} | {:>6} | {:>13.3} | {:>19} |",
            u_tilde.as_micros(),
            mult,
            m.stats.complete_pulses,
            m.stats.max_skew.as_micros(),
            m.violations,
        );
        assert_eq!(m.stats.complete_pulses, 12, "liveness must survive");
    }
    println!("\nShape check: at ũ = u the attack is harmless (0 violations —");
    println!("the TCB windows were sized for exactly this); as ũ grows the");
    println!("forwarded signatures land inside the rejection horizon and");
    println!("honest dealers start getting ⊥'d, eroding the fault budget —");
    println!("the executable version of 'designers must enforce minimum");
    println!("delays even on attacker-adjacent links'.");
    Ok(())
}
