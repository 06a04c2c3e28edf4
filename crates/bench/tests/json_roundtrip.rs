//! Round trips through the offline JSON writer and parser.
//!
//! Emission is a fixed point: emitting what the parser read back from an
//! emitted document reproduces it byte for byte. Values whose numbers the
//! writer prints exactly (integers, and doubles of at most 6 decimals,
//! since `fmt_f64` rounds to 6) also survive a round trip unchanged.

use adaserve_bench::json::{self, Json};
use proptest::prelude::*;
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;
use std::path::Path;

/// Characters that exercise every escape path of the writer: quotes,
/// backslashes, control characters and multi-byte UTF-8.
const CHARS: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}',
    '\u{7f}', 'é', 'µ', '中', '😀',
];

fn string(rng: &mut TestRng) -> String {
    let len = rng.gen_range_u64(0, 8);
    (0..len)
        .map(|_| CHARS[rng.gen_range_u64(0, CHARS.len() as u64) as usize])
        .collect()
}

/// A finite double: either one the writer prints exactly or any finite
/// bit pattern, depending on `exact`.
fn number(rng: &mut TestRng, exact: bool) -> f64 {
    let signed = |rng: &mut TestRng, bound: u64| {
        let magnitude = rng.gen_range_u64(0, bound) as f64;
        if rng.next_u64() & 1 == 1 {
            -magnitude
        } else {
            magnitude
        }
    };
    match (exact, rng.gen_range_u64(0, 3)) {
        (true, 0) => signed(rng, 1 << 53),
        (true, _) => signed(rng, 1_000_000_000_000) / 1e6,
        (false, 0) => loop {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                break x;
            }
        },
        (false, _) => {
            let exponent = rng.gen_range_u64(0, 24) as i32 - 8;
            (rng.next_f64() * 2.0 - 1.0) * 10f64.powi(exponent)
        }
    }
}

/// A JSON value nested at most `depth` levels deep. `Int`s stay within
/// f64's exact-integer range: the parser reads every number as a double.
fn value(rng: &mut TestRng, depth: u32, exact: bool) -> Json {
    let arms = if depth == 0 { 5 } else { 7 };
    let len = |rng: &mut TestRng| rng.gen_range_u64(0, 4);
    match rng.gen_range_u64(0, arms) {
        0 => Json::Null,
        1 => Json::Bool(rng.next_u64() & 1 == 1),
        2 => Json::Int(rng.gen_range_u64(0, (1 << 53) + 1)),
        3 => Json::Num(number(rng, exact)),
        4 => Json::Str(string(rng)),
        5 => Json::Arr(
            (0..len(rng))
                .map(|_| value(rng, depth - 1, exact))
                .collect(),
        ),
        _ => Json::Obj(
            (0..len(rng))
                .map(|_| (string(rng), value(rng, depth - 1, exact)))
                .collect(),
        ),
    }
}

#[derive(Debug, Clone, Copy)]
struct AnyJson {
    exact: bool,
}

impl Strategy for AnyJson {
    type Value = Json;

    fn new_value(&self, rng: &mut TestRng) -> Json {
        value(rng, 3, self.exact)
    }
}

/// `v` as the parser reads it back: every number a double.
fn as_parsed(v: &Json) -> Json {
    match v {
        Json::Int(n) => Json::Num(*n as f64),
        Json::Arr(items) => Json::Arr(items.iter().map(as_parsed).collect()),
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .map(|(k, v)| (k.clone(), as_parsed(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn emission_is_a_fixed_point_of_parse(v in AnyJson { exact: false }) {
        let text = v.to_string_compact();
        let reparsed = json::parse(&text).expect("emitted JSON parses");
        prop_assert_eq!(reparsed.to_string_compact(), text);
    }

    #[test]
    fn exactly_printable_values_round_trip_unchanged(v in AnyJson { exact: true }) {
        let reparsed = json::parse(&v.to_string_compact()).expect("emitted JSON parses");
        prop_assert_eq!(reparsed, as_parsed(&v));
    }
}

#[test]
fn committed_artifacts_re_emit_byte_for_byte() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut seen = 0;
    for entry in std::fs::read_dir(&root).expect("repo root") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable artifact");
        let doc = json::parse(&text).expect("artifact parses");
        assert_eq!(
            format!("{}\n", doc.to_string_compact()),
            text,
            "{name} does not re-emit byte for byte"
        );
        seen += 1;
    }
    assert!(seen >= 5, "expected the committed artifacts, found {seen}");
}
