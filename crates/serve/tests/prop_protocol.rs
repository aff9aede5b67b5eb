//! Hostile input on the network-facing parser: whatever bytes arrive on
//! a line, `parse_request` and `check_request` return — they never
//! panic — and nothing but a well-formed, finite, right-shaped request
//! reaches the engine. Lines are arbitrary bytes (decoded lossily, as a
//! caller holding a `&str` must have done) and mutations of a valid
//! line: cut anywhere, a field dropped or doubled, one value replaced
//! by `nan` / `inf` / an overflowing literal / nothing / a 1 MB token.
//! The other direction: every finite `f32` survives `format_request` →
//! `parse_request` bit for bit.

use mrsch_serve::protocol::format_request;
use mrsch_serve::{build_engine, parse_request, synth_requests, DecisionEngine, EngineSpec, Request};
use proptest::prelude::*;
use std::sync::OnceLock;

fn engine() -> &'static DecisionEngine {
    static ENGINE: OnceLock<DecisionEngine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        build_engine(&EngineSpec { window: 4, nodes: 16, bb: 8, ..EngineSpec::default() })
    })
}

/// True when `line` would be decided: parsed and shape-accepted.
fn admitted(line: &str) -> bool {
    parse_request(line).is_ok_and(|req| engine().check_request(&req).is_ok())
}

/// Values that must never reach the network, and tokens that are not
/// values at all; the last two are 1 MB long.
fn hostile_token(pick: usize) -> String {
    const SHORT: [&str; 12] =
        ["nan", "NaN", "-nan", "inf", "-inf", "infinity", "1e39", "-1e39", "", " ", "0x10", "1,5e"];
    match pick % (SHORT.len() + 2) {
        i if i < SHORT.len() => SHORT[i].to_string(),
        i if i == SHORT.len() => "9".repeat(1 << 20),
        _ => "x".repeat(1 << 20),
    }
}

#[derive(Clone, Debug)]
enum Mutation {
    /// Keep the first `permille` ‰ of the line (always strictly shorter).
    Truncate(usize),
    DropField(usize),
    DoubleField(usize),
    /// Replace value `slot` of vector field `field` (1 = state, 2 =
    /// meas, 3 = goal) by hostile token `token`.
    Splice { field: usize, slot: usize, token: usize },
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    (0usize..4, 0usize..1000, 0usize..5, 1usize..4, 0usize..4096).prop_map(
        |(kind, permille, any_field, vector_field, pick)| match kind {
            0 => Mutation::Truncate(permille),
            1 => Mutation::DropField(any_field),
            2 => Mutation::DoubleField(any_field),
            _ => Mutation::Splice { field: vector_field, slot: pick, token: pick / 7 },
        },
    )
}

fn mutate(line: &str, mutation: &Mutation) -> String {
    let mut fields: Vec<String> = line.split(';').map(String::from).collect();
    match *mutation {
        Mutation::Truncate(permille) => return line[..line.len() * permille / 1000].to_string(),
        Mutation::DropField(i) => drop(fields.remove(i)),
        Mutation::DoubleField(i) => fields.insert(i, fields[i].clone()),
        Mutation::Splice { field, slot, token } => {
            let token = hostile_token(token);
            let mut values: Vec<&str> = fields[field].split(',').collect();
            let slot = slot % values.len();
            values[slot] = &token;
            fields[field] = values.join(",");
        }
    }
    fields.join(";")
}

/// Any `u32` as an `f32`; a non-finite pattern loses its exponent and
/// becomes a subnormal (or a zero) of the same sign and mantissa.
fn finite_f32(bits: u32) -> f32 {
    let x = f32::from_bits(bits);
    if x.is_finite() { x } else { f32::from_bits(bits & 0x807f_ffff) }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_and_are_never_admitted(
        bytes in prop::collection::vec(0u8..=255, 0..512),
    ) {
        prop_assert!(!admitted(&String::from_utf8_lossy(&bytes)));
    }

    #[test]
    fn mutations_of_a_valid_line_are_never_admitted(
        seed in 0u64..1_000_000,
        mutation in arb_mutation(),
    ) {
        let line = format_request(&synth_requests(engine().config(), 1, seed)[0]);
        prop_assert!(admitted(&line), "the unmutated line is a valid request");
        prop_assert!(!admitted(&mutate(&line, &mutation)), "{mutation:?} was admitted");
    }

    #[test]
    fn every_finite_f32_round_trips_bit_for_bit(
        bits in prop::collection::vec(0u32..=u32::MAX, 1..64),
        id in 0u64..=u64::MAX,
    ) {
        let edge = [0.0, -0.0, f32::MIN_POSITIVE, f32::from_bits(1), f32::MAX, f32::MIN];
        let state: Vec<f32> = bits.iter().map(|&b| finite_f32(b)).chain(edge).collect();
        let req = Request {
            id,
            meas: state.iter().rev().copied().collect(),
            goal: vec![state[0]],
            valid: bits.iter().map(|b| b & 1 == 1).collect(),
            state,
        };
        let back = parse_request(&format_request(&req)).expect("a formatted request parses");
        let as_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        prop_assert_eq!(as_bits(&back.state), as_bits(&req.state));
        prop_assert_eq!(as_bits(&back.meas), as_bits(&req.meas));
        prop_assert_eq!(as_bits(&back.goal), as_bits(&req.goal));
        prop_assert_eq!((back.id, back.valid), (req.id, req.valid));
    }
}
