//! Hostile argv: whatever the arguments, the four `mrsch_cli` parsers
//! return a value or a typed `CliError` — they never panic. Tokens are
//! drawn from every flag of every table, from values that sit on the
//! edges the parsers check (zero, negatives, non-numbers, unknown
//! names), and from arbitrary strings.

use mrsch_experiments::cli::{
    parse_args, parse_eval_args, parse_resume_args, parse_serve_args, SUBCOMMANDS,
};
use proptest::prelude::*;

const VALUES: [&str; 20] = [
    "0", "1", "7", "-1", "0.5", "1.5", "1e999", "nan", "", " ", "x", "S4", "s99", "fcfs", "mrsch",
    "scalar-rl", "all", "0..4", "9..3", "harden",
];

/// The token pool: every flag name of every subcommand, then [`VALUES`].
fn pool() -> Vec<&'static str> {
    let flags = SUBCOMMANDS.iter().flat_map(|sub| sub.flags.iter().map(|f| f.name));
    flags.chain(VALUES).collect()
}

/// Up to 12 tokens: mostly pool picks, sometimes an arbitrary string.
fn arb_argv() -> impl Strategy<Value = Vec<String>> {
    let pool = pool();
    let token = (0..pool.len() + 4, prop::collection::vec(0u32..0x11_0000, 0..8));
    prop::collection::vec(token, 0..12).prop_map(move |picks| {
        picks
            .into_iter()
            .map(|(i, cps)| match pool.get(i) {
                Some(token) => token.to_string(),
                None => cps.into_iter().map(|c| char::from_u32(c).unwrap_or('-')).collect(),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_argv_never_panics_a_parser(argv in arb_argv()) {
        let _ = parse_args(&argv);
        let _ = parse_resume_args(&argv);
        let _ = parse_eval_args(&argv);
        let _ = parse_serve_args(&argv);
    }
}
