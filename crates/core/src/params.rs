//! Model parameters and the derived protocol quantities of Theorem 17.

use std::fmt;

use crusader_time::Dur;

/// Model parameters of an `n`-node system: the inputs to the protocol.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Params {
    /// Number of nodes.
    pub n: usize,
    /// Number of tolerated Byzantine faults (at most `⌈n/2⌉ − 1` for CPS).
    pub f: usize,
    /// Maximum end-to-end message delay `d`.
    pub d: Dur,
    /// Delay uncertainty `u` (messages take between `d − u` and `d`).
    pub u: Dur,
    /// Maximum hardware clock rate `θ > 1` (minimum normalized to 1).
    pub theta: f64,
}

/// The maximum number of faults CPS tolerates: `⌈n/2⌉ − 1`.
#[must_use]
pub fn max_faults_with_signatures(n: usize) -> usize {
    n.div_ceil(2).saturating_sub(1)
}

/// The maximum number of faults tolerable *without* signatures:
/// `⌈n/3⌉ − 1` (Dolev–Halpern–Strong / Srikanth–Toueg bound).
#[must_use]
pub fn max_faults_without_signatures(n: usize) -> usize {
    n.div_ceil(3).saturating_sub(1)
}

/// Why a parameter set cannot be instantiated.
#[derive(Clone, Debug, PartialEq)]
pub enum ParamError {
    /// `n` must be at least 2.
    TooFewNodes,
    /// `f` exceeds `⌈n/2⌉ − 1`.
    TooManyFaults {
        /// Requested fault count.
        f: usize,
        /// The maximum supported for this `n`.
        max: usize,
    },
    /// `θ` must be strictly greater than 1 (use `1 + ε` for near-perfect
    /// clocks) and below the feasibility threshold of Theorem 17.
    ThetaInfeasible {
        /// The requested `θ`.
        theta: f64,
        /// The largest feasible `θ` (about 1.078 under the exact
        /// preconditions of Lemma 16).
        max_theta: f64,
    },
    /// Delay parameters must satisfy `0 ≤ u < d/2` (the TCB decide wait is
    /// `d − 2u`, which must be positive).
    BadDelays {
        /// `d` as requested.
        d: Dur,
        /// `u` as requested.
        u: Dur,
    },
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::TooFewNodes => write!(f, "need at least 2 nodes"),
            ParamError::TooManyFaults { f: k, max } => {
                write!(f, "f={k} exceeds the maximum resilience {max}")
            }
            ParamError::ThetaInfeasible { theta, max_theta } => {
                write!(f, "theta={theta} infeasible (need 1 < theta <= {max_theta:.4})")
            }
            ParamError::BadDelays { d, u } => {
                write!(f, "delays must satisfy 0 <= u < d/2, got d={d}, u={u}")
            }
        }
    }
}

impl std::error::Error for ParamError {}

/// The quantities of Theorem 17, derived from [`Params`].
///
/// `derive` solves the two constraints of Lemma 16 / Corollary 15 with
/// equality:
///
/// * `T = (θ² + θ + 1)·S + (θ + 1)·d − 2u`   (Corollary 15), and
/// * `S·(2 − θ) = 2(2θ−1)·δ + 2(θ−1)·T`      (Lemma 16),
///
/// where `δ = 2u + (θ²−1)·d + 2(θ³−θ²)·S` (the estimate error bound of
/// Lemmas 12–13). Eliminating `T` yields `S = C / P(θ)` with
///
/// * `P(θ) = 2 − θ − 4(2θ−1)(θ³−θ²) − 2(θ³−1)`,
/// * `C = 2(2θ−1)(2u + (θ²−1)d) + 2(θ−1)((θ+1)d − 2u)`.
///
/// Feasibility is exactly `P(θ) > 0` (θ up to ≈ 1.0779). The paper's
/// Corollary 4 quotes θ ≤ 1.11 from a slightly looser grouping of the same
/// inequalities; we use the tight form and *verify* both preconditions
/// numerically after solving.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Derived {
    /// The skew bound `S` (also the bound on initial offsets `H_v(0)`).
    pub s: Dur,
    /// The nominal round length `T`.
    pub t_nominal: Dur,
    /// The estimate error bound `δ` at this `S`.
    pub delta: Dur,
    /// Boundary tolerance for strict window comparisons (guards the
    /// measure-zero equality cases that exact real arithmetic would
    /// resolve in the protocol's favour but f64 rounding may not).
    pub eps: Dur,
    /// Guaranteed minimum period `(T − (θ+1)S)/θ` (Theorem 17).
    pub p_min: Dur,
    /// Guaranteed maximum period `T + 3S` (Theorem 17).
    pub p_max: Dur,
}

impl Params {
    /// Creates a parameter set with the maximum resilience `⌈n/2⌉ − 1`.
    #[must_use]
    pub fn max_resilience(n: usize, d: Dur, u: Dur, theta: f64) -> Self {
        Params {
            n,
            f: max_faults_with_signatures(n),
            d,
            u,
            theta,
        }
    }

    /// The feasibility polynomial `P(θ)`; the protocol parameters exist
    /// iff `P(θ) > 0`.
    #[must_use]
    pub fn feasibility(theta: f64) -> f64 {
        let t = theta;
        2.0 - t - 4.0 * (2.0 * t - 1.0) * (t.powi(3) - t.powi(2)) - 2.0 * (t.powi(3) - 1.0)
    }

    /// The largest feasible `θ` (root of `P`), found by bisection.
    #[must_use]
    pub fn max_feasible_theta() -> f64 {
        let (mut lo, mut hi) = (1.0, 2.0);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if Self::feasibility(mid) > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Derives the protocol quantities of Theorem 17.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamError`] if the parameter set is outside the
    /// theorem's feasibility region (see variants for the conditions).
    pub fn derive(&self) -> Result<Derived, ParamError> {
        if self.n < 2 {
            return Err(ParamError::TooFewNodes);
        }
        let max = max_faults_with_signatures(self.n);
        if self.f > max {
            return Err(ParamError::TooManyFaults { f: self.f, max });
        }
        if self.u.is_negative() || self.u * 2.0 >= self.d || self.d <= Dur::ZERO {
            return Err(ParamError::BadDelays { d: self.d, u: self.u });
        }
        let t = self.theta;
        let p = Self::feasibility(t);
        // `partial_cmp` keeps the NaN-rejecting semantics of `!(t > 1.0)`
        // and `!(p > 0.0)` explicit: anything not strictly greater —
        // including NaN, which `P` is once θ² overflows — is infeasible.
        let above = |x: f64, floor: f64| x.partial_cmp(&floor) == Some(std::cmp::Ordering::Greater);
        if !above(t, 1.0) || !above(p, 0.0) {
            return Err(ParamError::ThetaInfeasible {
                theta: t,
                max_theta: Self::max_feasible_theta(),
            });
        }
        let d = self.d.as_secs();
        let u = self.u.as_secs();
        let c = 2.0 * (2.0 * t - 1.0) * (2.0 * u + (t * t - 1.0) * d)
            + 2.0 * (t - 1.0) * ((t + 1.0) * d - 2.0 * u);
        let s = c / p;
        let t_nominal = (t * t + t + 1.0) * s + (t + 1.0) * d - 2.0 * u;
        let delta = 2.0 * u + (t * t - 1.0) * d + 2.0 * (t.powi(3) - t * t) * s;

        // Verify the two preconditions we solved for (postcondition check
        // against both derivation and floating-point error).
        let tol = 1e-9 * (s + t_nominal + d);
        debug_assert!(t_nominal + tol >= (t * t + t + 1.0) * s + (t + 1.0) * d - 2.0 * u);
        let lemma16_rhs = (2.0 * (2.0 * t - 1.0) * delta + 2.0 * (t - 1.0) * t_nominal)
            / (2.0 - t);
        assert!(
            s + tol >= lemma16_rhs,
            "internal error: derived S={s} violates Lemma 16 (needs {lemma16_rhs})"
        );

        let p_min = (t_nominal - (t + 1.0) * s) / t;
        let p_max = t_nominal + 3.0 * s;
        Ok(Derived {
            s: Dur::from_secs(s),
            t_nominal: Dur::from_secs(t_nominal),
            delta: Dur::from_secs(delta),
            eps: Dur::from_secs((u.max(1e-9)) * 1e-9),
            p_min: Dur::from_secs(p_min),
            p_max: Dur::from_secs(p_max),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wan() -> Params {
        Params::max_resilience(
            8,
            Dur::from_millis(1.0),
            Dur::from_micros(10.0),
            1.0001,
        )
    }

    #[test]
    fn resilience_bounds() {
        assert_eq!(max_faults_with_signatures(2), 0);
        assert_eq!(max_faults_with_signatures(3), 1);
        assert_eq!(max_faults_with_signatures(4), 1);
        assert_eq!(max_faults_with_signatures(5), 2);
        assert_eq!(max_faults_with_signatures(8), 3);
        assert_eq!(max_faults_with_signatures(9), 4);
        assert_eq!(max_faults_without_signatures(3), 0);
        assert_eq!(max_faults_without_signatures(4), 1);
        assert_eq!(max_faults_without_signatures(9), 2);
        assert_eq!(max_faults_without_signatures(10), 3);
    }

    #[test]
    fn derive_produces_positive_quantities() {
        let derived = wan().derive().unwrap();
        assert!(derived.s > Dur::ZERO);
        assert!(derived.t_nominal > derived.s);
        assert!(derived.delta > Dur::ZERO);
        assert!(derived.p_min > Dur::ZERO);
        assert!(derived.p_max > derived.p_min);
    }

    #[test]
    fn skew_is_theta_of_u_plus_drift_times_d() {
        // S ∈ Θ(u + (θ−1)d): check the two asymptotic regimes.
        let s_of = |u_us: f64, theta: f64| {
            Params::max_resilience(8, Dur::from_millis(1.0), Dur::from_micros(u_us), theta)
                .derive()
                .unwrap()
                .s
                .as_secs()
        };
        // u-dominated: θ−1 = 1e-6, S ≈ 4u.
        let s1 = s_of(10.0, 1.000001);
        assert!((s1 / 4e-5 - 1.0).abs() < 0.05, "S={s1}");
        // drift-dominated: doubling θ−1 roughly doubles S.
        let s2 = s_of(0.001, 1.001);
        let s4 = s_of(0.001, 1.002);
        assert!((s4 / s2 - 2.0).abs() < 0.1, "ratio {}", s4 / s2);
        // At theta → 1, S should be far below d.
        assert!(s1 < 1e-3 / 10.0);
    }

    #[test]
    fn t_is_theta_of_d() {
        let derived = wan().derive().unwrap();
        let d = 1e-3;
        let t = derived.t_nominal.as_secs();
        assert!(t > d && t < 10.0 * d, "T = {t}");
    }

    #[test]
    fn feasibility_region() {
        assert!(Params::feasibility(1.0) > 0.0);
        assert!(Params::feasibility(1.05) > 0.0);
        assert!(Params::feasibility(1.2) < 0.0);
        let max = Params::max_feasible_theta();
        assert!(max > 1.05 && max < 1.11, "max theta {max}");
        // Near the boundary it still derives; above, it errors.
        let good = Params::max_resilience(
            4,
            Dur::from_millis(1.0),
            Dur::from_micros(1.0),
            max - 1e-3,
        );
        assert!(good.derive().is_ok());
        let bad = Params { theta: max + 1e-3, ..good };
        assert!(matches!(
            bad.derive(),
            Err(ParamError::ThetaInfeasible { .. })
        ));
        // Far out, `P` overflows: to −∞ once θ³ does (1e103), to NaN
        // once θ² does too (1e155, ∞). Both are infeasible, not a panic.
        for theta in [1e103, 1e155, f64::INFINITY] {
            let huge = Params { theta, ..good };
            assert!(
                matches!(huge.derive(), Err(ParamError::ThetaInfeasible { .. })),
                "θ = {theta:e}"
            );
        }
    }

    #[test]
    fn theta_must_exceed_one() {
        let p = Params {
            theta: 1.0,
            ..wan()
        };
        assert!(matches!(p.derive(), Err(ParamError::ThetaInfeasible { .. })));
    }

    #[test]
    fn u_must_be_below_half_d() {
        let p = Params {
            u: Dur::from_micros(600.0),
            d: Dur::from_millis(1.0),
            ..wan()
        };
        assert!(matches!(p.derive(), Err(ParamError::BadDelays { .. })));
    }

    #[test]
    fn too_many_faults_rejected() {
        let p = Params { f: 4, ..wan() }; // n=8 allows at most 3
        assert!(matches!(
            p.derive(),
            Err(ParamError::TooManyFaults { f: 4, max: 3 })
        ));
    }

    #[test]
    fn too_few_nodes_rejected() {
        let p = Params {
            n: 1,
            f: 0,
            ..wan()
        };
        assert_eq!(p.derive(), Err(ParamError::TooFewNodes));
    }

    #[test]
    fn fixed_point_agreement() {
        // Solving the same system by fixed-point iteration must agree with
        // the closed form (cross-check of the algebra).
        let p = wan();
        let derived = p.derive().unwrap();
        let t = p.theta;
        let (d, u) = (p.d.as_secs(), p.u.as_secs());
        let mut s = 0.0f64;
        for _ in 0..10_000 {
            let t_nom = (t * t + t + 1.0) * s + (t + 1.0) * d - 2.0 * u;
            let delta = 2.0 * u + (t * t - 1.0) * d + 2.0 * (t.powi(3) - t * t) * s;
            s = (2.0 * (2.0 * t - 1.0) * delta + 2.0 * (t - 1.0) * t_nom) / (2.0 - t);
        }
        assert!(
            (s - derived.s.as_secs()).abs() <= 1e-9 * s.max(1e-12),
            "fixed point {s} vs closed form {}",
            derived.s.as_secs()
        );
    }

    #[test]
    fn error_display_is_informative() {
        let e = ParamError::TooManyFaults { f: 5, max: 3 };
        assert!(e.to_string().contains("f=5"));
        let e = ParamError::BadDelays {
            d: Dur::from_millis(1.0),
            u: Dur::from_millis(0.9),
        };
        assert!(e.to_string().contains("u < d/2"));
    }
}
