//! Hostile-input property test of profile ingest. Byte-level and
//! field-level mutations of a valid v2 profile (the document
//! `tests/wire_formats.rs` pins) must never make `profile::from_json`
//! panic: it either rejects the file, or returns entries that encode and
//! decode back to themselves, one for every entry in the file. Installing
//! what it returns into an override table that already holds overrides is
//! all or nothing: the table ends up exactly as it was, or as it was plus
//! every entry of the file.

use libshalom::capture::json::{self, MAX_DEPTH};
use libshalom::core::plan::{profile, PlanCache, PlanKey, ResolvedPlan};
use proptest::prelude::*;
use std::collections::HashMap;

/// The ISA label the document is saved under.
const ISA: &str = "avx512";

/// A valid v2 profile: every class, regime and schedule code, every op
/// pair, four ISA codes, and the extreme blocking values.
const PROFILE: &str = concat!(
    "{\"version\":2,\"isa\":\"avx512\",\"entries\":[\n",
    "{\"elem_bits\":32,\"isa\":1,\"op_a\":\"N\",\"op_b\":\"N\",\"m\":8,\"n\":8,\"k\":8,",
    "\"threads\":1,\"config_fp\":1234567890123,\"class\":0,\"b_plan\":0,\"edge\":0,",
    "\"kc\":256,\"mc\":84,\"nc\":3072,\"tm\":1,\"tn\":1,\"workspace_bytes\":8192},\n",
    "{\"elem_bits\":64,\"isa\":4,\"op_a\":\"T\",\"op_b\":\"N\",\"m\":64,\"n\":2048,\"k\":64,",
    "\"threads\":4,\"config_fp\":18446744073709551615,\"class\":1,\"b_plan\":2,\"edge\":1,",
    "\"kc\":128,\"mc\":63,\"nc\":4096,\"tm\":1,\"tn\":4,\"workspace_bytes\":40960},\n",
    "{\"elem_bits\":32,\"isa\":3,\"op_a\":\"N\",\"op_b\":\"T\",\"m\":300,\"n\":300,\"k\":300,",
    "\"threads\":2,\"config_fp\":0,\"class\":2,\"b_plan\":3,\"edge\":0,",
    "\"kc\":512,\"mc\":105,\"nc\":2048,\"tm\":2,\"tn\":1,\"workspace_bytes\":12345},\n",
    "{\"elem_bits\":64,\"isa\":0,\"op_a\":\"T\",\"op_b\":\"T\",\"m\":5,\"n\":5,\"k\":5,",
    "\"threads\":1,\"config_fp\":42,\"class\":0,\"b_plan\":1,\"edge\":1,",
    "\"kc\":8192,\"mc\":65536,\"nc\":1048576,\"tm\":1,\"tn\":1,\"workspace_bytes\":0}",
    "\n]}\n"
);

/// Every numeric field of the document: the header's `version`, then
/// each entry's.
const NUMERIC_FIELDS: [&str; 17] = [
    "version",
    "elem_bits",
    "isa",
    "m",
    "n",
    "k",
    "threads",
    "config_fp",
    "class",
    "b_plan",
    "edge",
    "kc",
    "mc",
    "nc",
    "tm",
    "tn",
    "workspace_bytes",
];

/// Values no field accepts, or that only some fields accept: negative,
/// fractional, exponent, past `u64`, past the narrow fields' widths, and
/// not a number at all.
const HOSTILE_VALUES: [&str; 12] = [
    "-1",
    "1.5",
    "1e3",
    "18446744073709551616",
    "99999999999999999999999999",
    "256",
    "65536",
    "4294967296",
    "0",
    "\"8\"",
    "null",
    "true",
];

#[derive(Debug, Clone)]
enum Mutation {
    /// XOR one byte with a non-zero mask.
    Flip { at: usize, mask: u8 },
    /// Insert one byte.
    Insert { at: usize, byte: u8 },
    /// Delete one byte.
    Delete { at: usize },
    /// Keep only the first `len` bytes.
    Truncate { len: usize },
    /// Replace the value of the `nth` occurrence of a numeric field.
    Field {
        field: usize,
        nth: usize,
        value: usize,
    },
    /// Replace the value of the `nth` occurrence of a numeric field with
    /// arrays nested `depth` deep.
    Nest {
        field: usize,
        nth: usize,
        depth: usize,
    },
}

fn mutation() -> impl Strategy<Value = Mutation> {
    let len = PROFILE.len();
    prop_oneof![
        (0..len, 1u8..=255).prop_map(|(at, mask)| Mutation::Flip { at, mask }),
        (0..=len, any::<u64>()).prop_map(|(at, byte)| Mutation::Insert {
            at,
            byte: byte as u8
        }),
        (0..len).prop_map(|at| Mutation::Delete { at }),
        (0..len).prop_map(|len| Mutation::Truncate { len }),
        (0..NUMERIC_FIELDS.len(), 0usize..4, 0..HOSTILE_VALUES.len())
            .prop_map(|(field, nth, value)| Mutation::Field { field, nth, value }),
        (
            0..NUMERIC_FIELDS.len(),
            0usize..4,
            MAX_DEPTH - 2..MAX_DEPTH + 64
        )
            .prop_map(|(field, nth, depth)| Mutation::Nest { field, nth, depth }),
    ]
}

/// `doc` with the value of the `nth` occurrence (wrapping) of numeric
/// field `key` replaced by `value`.
fn replace_field(doc: &str, key: &str, nth: usize, value: &str) -> String {
    let needle = format!("\"{key}\":");
    let starts: Vec<usize> = doc
        .match_indices(&needle)
        .map(|(i, _)| i + needle.len())
        .collect();
    let start = starts[nth % starts.len()];
    let end = start
        + doc[start..]
            .find(|c: char| !c.is_ascii_digit())
            .expect("a value is followed by a delimiter");
    format!("{}{value}{}", &doc[..start], &doc[end..])
}

/// The mutated document. Byte edits that break UTF-8 decode lossily, as
/// any text reader of a hostile file would.
fn apply(m: &Mutation) -> String {
    let mut bytes = PROFILE.as_bytes().to_vec();
    match *m {
        Mutation::Flip { at, mask } => bytes[at] ^= mask,
        Mutation::Insert { at, byte } => bytes.insert(at, byte),
        Mutation::Delete { at } => {
            bytes.remove(at);
        }
        Mutation::Truncate { len } => bytes.truncate(len),
        Mutation::Field { field, nth, value } => {
            return replace_field(PROFILE, NUMERIC_FIELDS[field], nth, HOSTILE_VALUES[value])
        }
        Mutation::Nest { field, nth, depth } => {
            let nested = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
            return replace_field(PROFILE, NUMERIC_FIELDS[field], nth, &nested);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `PROFILE`'s entries moved to keys no mutation of the file produces,
/// so the table's residents and the file's entries never share a key.
fn residents() -> Vec<(PlanKey, ResolvedPlan)> {
    let mut entries = profile::from_json(PROFILE, ISA).expect("the valid profile loads");
    for (i, (key, _)) in entries.iter_mut().enumerate() {
        key.m = u64::MAX - i as u64;
    }
    entries
}

fn as_map(entries: &[(PlanKey, ResolvedPlan)]) -> HashMap<PlanKey, ResolvedPlan> {
    entries.iter().copied().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mutated_profiles_are_rejected_or_ingested_whole(m in mutation()) {
        let doc = apply(&m);
        let parsed = std::panic::catch_unwind(|| profile::from_json(&doc, ISA))
            .unwrap_or_else(|_| panic!("from_json panicked on {m:?}:\n{doc}"));

        let residents = residents();
        let table = PlanCache::default();
        prop_assert!(table.install_all(&residents));
        let mut want = as_map(&residents);
        if let Ok(entries) = &parsed {
            let reencoded = profile::to_json(entries, ISA);
            prop_assert_eq!(
                profile::from_json(&reencoded, ISA).as_ref(),
                Ok(entries),
                "{:?} did not round-trip",
                m
            );
            let in_file = json::parse(&doc)
                .ok()
                .and_then(|d| d.get("entries").and_then(|e| e.as_arr()).map(<[_]>::len));
            prop_assert_eq!(in_file, Some(entries.len()), "{:?} dropped an entry", m);
            prop_assert!(table.install_all(entries));
            want.extend(entries.iter().copied());
        }
        prop_assert_eq!(as_map(&table.entries()), want, "{:?}", m);
    }
}
