//! `.chaos` files are outside input (`e11_chaos --scenario FILE`):
//! whatever the text, `Scenario::parse` returns — promptly, without
//! panicking — and anything it accepts is replayable: its parameters
//! derive, and its timeline and affected set build.

use std::time::{Duration, Instant};

use crusader_chaos::{scenario_params, Scenario};
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;

/// One of every directive, all valid together.
const LINES: &[&str] = &[
    "name fuzz",
    "summary shuffled and mutated directives",
    "n 8",
    "seed 9",
    "d_ms 4",
    "u_ms 1.5",
    "theta 1.02",
    "run_for_ms 500",
    "faulty 7",
    "affected 6",
    "crash 2 100 200",
    "crash 3 150 never",
    "cut 0-2 3-5 100 150   # halves",
    "storm 200 250",
    "flood 250 300 2 rush",
    "panic 1 120",
    "invariant skew_ms 6",
    "invariant period_ms 1 200",
    "invariant min_pulses 2 all",
    "invariant resync_ms 150",
    "count_affected_violations",
    "expect violations",
];

/// Tokens chosen to hit every numeric and structural edge.
const HOSTILE: &[&str] = &[
    "NaN", "inf", "-inf", "-5", "0", "-0", "1", "0.5", "1e308", "1e-320", "1e12", "1e13",
    "1.0778", "1.07783", "2", "65536", "65537", "99999999999", "18446744073709551615",
    "0-99999999999", "0-65535", "0-65536", "0-18446744073709551615", "3-1", "1,,2", "-", ",",
    "0-7", "4-7", "never", "rush", "draw", "all", "stable", "clean", "#", "é", "",
];

const BUDGET: Duration = Duration::from_millis(500);

fn check(text: &str) -> Result<(), String> {
    let started = Instant::now();
    let parsed = Scenario::parse(text);
    let took = started.elapsed();
    if took > BUDGET {
        return Err(format!("parse took {took:?}"));
    }
    if let Ok(sc) = parsed {
        scenario_params(&sc)
            .derive()
            .map_err(|e| format!("accepted but infeasible: {e}"))?;
        let _ = sc.timeline();
        let _ = sc.affected();
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// The valid file with its lines shuffled, then a few of them
    /// mutated: one token replaced, dropped or appended, or the whole
    /// line dropped or repeated.
    #[test]
    fn prop_mutated_directives_never_panic_or_hang(
        shuffle in any::<u64>(),
        picks in proptest::collection::vec(any::<u64>(), 0..6),
    ) {
        let mut lines: Vec<String> = LINES.iter().map(ToString::to_string).collect();
        let mut state = shuffle;
        for i in (1..lines.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            lines.swap(i, (state >> 33) as usize % (i + 1));
        }
        for r in &picks {
            let r = *r as usize;
            let line = r % lines.len();
            let original = lines[line].clone();
            let mut toks: Vec<&str> = original.split(' ').collect();
            let hostile = HOSTILE[(r >> 8) % HOSTILE.len()];
            let at = (r >> 16) % toks.len();
            match (r >> 24) % 5 {
                0 => toks[at] = hostile,
                1 => { toks.remove(at); }
                2 => toks.push(hostile),
                3 => toks.clear(),
                _ => lines.push(original.clone()),
            }
            lines[line] = toks.join(" ");
        }
        let text = lines.join("\n");
        if let Err(why) = check(&text) {
            prop_assert!(false, "{why}\n{text}");
        }
    }

    /// Raw token soup: directive heads, hostile tokens and line breaks in
    /// any order.
    #[test]
    fn prop_token_soup_never_panics_or_hangs(picks in proptest::collection::vec(any::<u64>(), 0..200)) {
        let heads: Vec<&str> = LINES.iter().map(|l| l.split(' ').next().expect("non-empty")).collect();
        let mut text = String::new();
        for r in &picks {
            let r = *r as usize;
            text.push_str(match r % 5 {
                0 => "\n",
                1 | 2 => heads[(r >> 8) % heads.len()],
                _ => HOSTILE[(r >> 8) % HOSTILE.len()],
            });
            text.push(' ');
        }
        // As one file (parsing stops at its first bad line), and line by
        // line after the valid file, so every line is reached.
        let valid = LINES.join("\n");
        for candidate in std::iter::once(text.clone())
            .chain(text.lines().map(|line| format!("{valid}\n{line}")))
        {
            if let Err(why) = check(&candidate) {
                prop_assert!(false, "{why}\n{candidate}");
            }
        }
    }
}

/// The generators above do reach accepted scenarios: the unmutated file
/// parses, so the `Ok` arm of `check` is exercised.
#[test]
fn the_unmutated_file_is_accepted() {
    let sc = Scenario::parse(&LINES.join("\n")).expect("valid");
    assert_eq!(sc.faulty, vec![7]);
    assert!(scenario_params(&sc).derive().is_ok());
}
