//! Persistent plan profiles: a versioned JSON file of `(PlanKey,
//! ResolvedPlan)` pairs, so autotuned dispatch decisions survive the
//! process and can be reloaded IAAT-style (`SHALOM_PROFILE` env or
//! [`load_profile`](crate::load_profile)).
//!
//! Robustness contract: loading is total — malformed files, version
//! mismatches, and out-of-range plans come back as [`ProfileError`],
//! never a panic, so a stale or hand-edited profile can degrade a
//! process to "no overrides" but can't take it down.
//!
//! The file stores every decision as its stable numeric code (`isa` as
//! `Isa::code`, `class`/`b_plan`/`edge` as the decision's `code`) and
//! each op as `"N"`/`"T"`; a code no variant has is rejected on ingest.

use super::{PlanKey, ResolvedPlan};
use shalom_matrix::Op;
use shalom_simd::caps::Isa;
use shalom_trace::json::{parse, JsonValue as Json};
use shalom_trace::{BPlan, EdgeSchedule, ShapeClass};
use std::fmt;
use std::path::Path;

/// On-disk format version. Bump on any change to the entry grammar or
/// to the meaning of a stored code; loaders reject every
/// other version rather than guess. Version 2 added the header `isa`
/// field and the per-entry `isa` key component: a version-1 file has no
/// ISA provenance, so it is rejected outright rather than guessed at.
pub const PROFILE_VERSION: u32 = 2;

/// Why a profile failed to load (or save).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileError {
    /// Filesystem error (missing file, permissions, ...).
    Io(String),
    /// The document is not valid profile JSON.
    Parse(String),
    /// The file declares a different [`PROFILE_VERSION`].
    Version {
        /// Version the file declared.
        found: u64,
        /// Version this library reads.
        expected: u32,
    },
    /// The file was tuned under a different ISA than this host selects:
    /// its blocking/packing decisions were made for another vector width
    /// and must never be applied here.
    IsaMismatch {
        /// ISA label the file was saved under.
        found: String,
        /// ISA label this host dispatches to.
        host: String,
    },
    /// Structurally valid JSON whose key/plan fields fail validation, or
    /// that holds more new entries than the override table has room for.
    Invalid(String),
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Io(e) => write!(f, "profile io error: {e}"),
            ProfileError::Parse(e) => write!(f, "profile parse error: {e}"),
            ProfileError::Version { found, expected } => {
                write!(f, "profile version {found} (this library reads {expected})")
            }
            ProfileError::IsaMismatch { found, host } => {
                write!(
                    f,
                    "profile tuned for isa {found:?} but this host dispatches {host:?}; re-tune and re-save"
                )
            }
            ProfileError::Invalid(e) => write!(f, "profile entry invalid: {e}"),
        }
    }
}

impl std::error::Error for ProfileError {}

/// Serializes entries to the versioned profile document (one entry per
/// line, for reviewable diffs). `host_isa` is the stable label of the
/// ISA the entries were resolved under (the core crate passes its
/// dispatch probe's answer); loaders reject the file on any other host.
pub fn to_json(entries: &[(PlanKey, ResolvedPlan)], host_isa: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"version\":{PROFILE_VERSION},\"isa\":\"{host_isa}\",\"entries\":[\n"
    ));
    for (i, (key, plan)) in entries.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            concat!(
                "{{\"elem_bits\":{},\"isa\":{},\"op_a\":\"{}\",\"op_b\":\"{}\",",
                "\"m\":{},\"n\":{},\"k\":{},\"threads\":{},\"config_fp\":{},",
                "\"class\":{},\"b_plan\":{},\"edge\":{},",
                "\"kc\":{},\"mc\":{},\"nc\":{},\"tm\":{},\"tn\":{},",
                "\"workspace_bytes\":{}}}"
            ),
            key.elem_bits,
            key.isa.code(),
            key.op_a.letter(),
            key.op_b.letter(),
            key.m,
            key.n,
            key.k,
            key.threads,
            key.config_fp,
            plan.class.code(),
            plan.b_plan.code(),
            plan.edge.code(),
            plan.kc,
            plan.mc,
            plan.nc,
            plan.tm,
            plan.tn,
            plan.workspace_bytes,
        ));
    }
    out.push_str("\n]}\n");
    out
}

fn field_u64(obj: &Json, key: &str) -> Result<u64, ProfileError> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ProfileError::Parse(format!("entry missing unsigned field {key:?}")))
}

fn narrow<T: TryFrom<u64>>(key: &str, v: u64) -> Result<T, ProfileError> {
    T::try_from(v).map_err(|_| ProfileError::Invalid(format!("{key} {v} out of range")))
}

/// A decision stored as its code: `decode` maps it back, or the entry is
/// invalid.
fn field_code<T>(
    obj: &Json,
    key: &str,
    decode: impl FnOnce(u8) -> Option<T>,
) -> Result<T, ProfileError> {
    let v = field_u64(obj, key)?;
    u8::try_from(v)
        .ok()
        .and_then(decode)
        .ok_or_else(|| ProfileError::Invalid(format!("{key} code {v} unknown")))
}

fn field_op(obj: &Json, key: &str) -> Result<Op, ProfileError> {
    match obj.get(key).and_then(Json::as_str) {
        Some("N") => Ok(Op::NoTrans),
        Some("T") => Ok(Op::Trans),
        _ => Err(ProfileError::Parse(format!(
            "entry field {key:?} must be \"N\" or \"T\""
        ))),
    }
}

/// Parses and fully validates a profile document. `host_isa` is the
/// label of the ISA this host's dispatch layer selects; a document saved
/// under any other label is rejected as [`ProfileError::IsaMismatch`]
/// before a single entry is ingested.
pub fn from_json(
    input: &str,
    host_isa: &str,
) -> Result<Vec<(PlanKey, ResolvedPlan)>, ProfileError> {
    let doc = parse(input).map_err(ProfileError::Parse)?;
    let version = field_u64(&doc, "version")
        .map_err(|_| ProfileError::Parse("missing \"version\" field".to_string()))?;
    if version != u64::from(PROFILE_VERSION) {
        return Err(ProfileError::Version {
            found: version,
            expected: PROFILE_VERSION,
        });
    }
    let file_isa = doc
        .get("isa")
        .and_then(Json::as_str)
        .ok_or_else(|| ProfileError::Parse("missing \"isa\" field".to_string()))?;
    if file_isa != host_isa {
        return Err(ProfileError::IsaMismatch {
            found: file_isa.to_string(),
            host: host_isa.to_string(),
        });
    }
    let entries = doc
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or_else(|| ProfileError::Parse("missing \"entries\" array".to_string()))?;
    let mut out = Vec::with_capacity(entries.len());
    for e in entries {
        let key = PlanKey {
            elem_bits: narrow("elem_bits", field_u64(e, "elem_bits")?)?,
            isa: field_code(e, "isa", Isa::from_code)?,
            op_a: field_op(e, "op_a")?,
            op_b: field_op(e, "op_b")?,
            m: field_u64(e, "m")?,
            n: field_u64(e, "n")?,
            k: field_u64(e, "k")?,
            threads: narrow("threads", field_u64(e, "threads")?)?,
            config_fp: field_u64(e, "config_fp")?,
        };
        let plan = ResolvedPlan {
            class: field_code(e, "class", ShapeClass::from_code)?,
            b_plan: field_code(e, "b_plan", BPlan::from_code)?,
            edge: field_code(e, "edge", EdgeSchedule::from_code)?,
            kc: narrow("kc", field_u64(e, "kc")?)?,
            mc: narrow("mc", field_u64(e, "mc")?)?,
            nc: narrow("nc", field_u64(e, "nc")?)?,
            tm: narrow("tm", field_u64(e, "tm")?)?,
            tn: narrow("tn", field_u64(e, "tn")?)?,
            workspace_bytes: field_u64(e, "workspace_bytes")?,
        };
        key.validate().map_err(ProfileError::Invalid)?;
        plan.validate().map_err(ProfileError::Invalid)?;
        out.push((key, plan));
    }
    Ok(out)
}

/// Writes a profile document to `path`, stamped with the saving host's
/// selected ISA label.
pub fn save(
    path: &Path,
    entries: &[(PlanKey, ResolvedPlan)],
    host_isa: &str,
) -> Result<(), ProfileError> {
    std::fs::write(path, to_json(entries, host_isa)).map_err(|e| ProfileError::Io(e.to_string()))
}

/// Reads and fully validates a profile document from `path`, rejecting
/// files saved under a different ISA than `host_isa`.
pub fn load(path: &Path, host_isa: &str) -> Result<Vec<(PlanKey, ResolvedPlan)>, ProfileError> {
    let text = std::fs::read_to_string(path).map_err(|e| ProfileError::Io(e.to_string()))?;
    from_json(&text, host_isa)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::tests::{key, plan};

    #[test]
    fn round_trips_exactly() {
        let entries = vec![
            (key(0), plan(0)),
            (
                PlanKey {
                    elem_bits: 64,
                    isa: Isa::Avx512W512,
                    op_a: Op::Trans,
                    op_b: Op::Trans,
                    m: u64::MAX,
                    n: 1,
                    k: 1,
                    threads: 128,
                    config_fp: u64::MAX,
                },
                ResolvedPlan {
                    class: ShapeClass::Regular,
                    b_plan: BPlan::Sequential,
                    edge: EdgeSchedule::Batched,
                    kc: 1 << 13,
                    mc: 1 << 16,
                    nc: 1 << 20,
                    tm: u16::MAX,
                    tn: 1,
                    workspace_bytes: u64::MAX,
                },
            ),
        ];
        let text = to_json(&entries, "avx512");
        assert_eq!(from_json(&text, "avx512").unwrap(), entries);
    }

    #[test]
    fn empty_profile_round_trips() {
        assert_eq!(from_json(&to_json(&[], "sse2"), "sse2").unwrap(), vec![]);
    }

    #[test]
    fn rejects_version_mismatch() {
        let err = from_json(r#"{"version":999,"isa":"sse2","entries":[]}"#, "sse2").unwrap_err();
        assert_eq!(
            err,
            ProfileError::Version {
                found: 999,
                expected: PROFILE_VERSION
            }
        );
        // A version-1 document (no ISA provenance at all) is a version
        // error, not a guess.
        let err = from_json(r#"{"version":1,"entries":[]}"#, "sse2").unwrap_err();
        assert!(matches!(err, ProfileError::Version { found: 1, .. }));
    }

    #[test]
    fn rejects_isa_mismatch() {
        // A profile tuned on an AVX-512 host must never install its
        // blocking decisions on a narrower machine (or vice versa).
        let text = to_json(&[(key(0), plan(0))], "avx512");
        let err = from_json(&text, "avx2").unwrap_err();
        assert_eq!(
            err,
            ProfileError::IsaMismatch {
                found: "avx512".to_string(),
                host: "avx2".to_string(),
            }
        );
        // The mismatch is checked before any entry parsing: even an
        // empty entry list is rejected.
        let err = from_json(&to_json(&[], "scalar"), "avx512").unwrap_err();
        assert!(matches!(err, ProfileError::IsaMismatch { .. }));
        // And the header must be present at all in a v2 document.
        let err = from_json(r#"{"version":2,"entries":[]}"#, "sse2").unwrap_err();
        assert!(matches!(err, ProfileError::Parse(_)));
    }

    #[test]
    fn rejects_corrupt_documents() {
        for bad in [
            "",
            "not json",
            "{\"entries\":[]}",
            "{\"version\":2}",
            "{\"version\":2,\"isa\":\"sse2\",\"entries\":[{}]}",
            "{\"version\":2,\"isa\":\"sse2\",\"entries\":[{\"elem_bits\":32}]}",
        ] {
            assert!(
                matches!(from_json(bad, "sse2"), Err(ProfileError::Parse(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn rejects_values_outside_the_profile_grammar() {
        // Valid JSON the profile grammar has no place for (it uses
        // objects, arrays, strings and unsigned integers only): each
        // must come back as a parse error, and a hostile nesting depth
        // must not reach the stack.
        let entry = |field: &str| {
            to_json(&[(key(0), plan(0))], "sse2")
                .replace("\"m\":", &format!("\"m\":{field},\"x\":"))
        };
        let deep = "[".repeat(1 << 20);
        for bad in [
            "-1",
            "1.5",
            "true",
            "{\"version\":2.5,\"isa\":\"sse2\",\"entries\":[]}",
            "{\"version\":true,\"isa\":\"sse2\",\"entries\":[]}",
            "{\"version\":2,\"isa\":\"sse2\",\"entries\":[]}extra",
            deep.as_str(),
            entry("-3").as_str(),
            entry("1.5").as_str(),
            entry("\"12\"").as_str(),
            entry("99999999999999999999999999999999999999999").as_str(),
        ] {
            assert!(
                matches!(from_json(bad, "sse2"), Err(ProfileError::Parse(_))),
                "{:?}",
                &bad[..bad.len().min(80)]
            );
        }
    }

    #[test]
    fn rejects_out_of_range_plans() {
        // kc = 0 would make the driver's kk loop spin forever: Invalid.
        let mut entries = vec![(key(0), plan(0))];
        entries[0].1.kc = 0;
        let text = to_json(&entries, "sse2");
        assert!(matches!(
            from_json(&text, "sse2"),
            Err(ProfileError::Invalid(_))
        ));
        // op byte is checked via the string field, so a bad threads
        // value exercises key validation instead.
        let text = to_json(
            &[(
                PlanKey {
                    threads: 0,
                    ..key(0)
                },
                plan(0),
            )],
            "sse2",
        );
        assert!(matches!(
            from_json(&text, "sse2"),
            Err(ProfileError::Invalid(_))
        ));
        // A code no variant has is invalid: a per-entry ISA (even when the
        // header label matches the host), a class, a regime, a schedule.
        let text = to_json(&[(key(0), plan(0))], "sse2");
        for (field, code) in [
            ("isa", 9),
            ("class", 3),
            ("b_plan", 4),
            ("edge", 2),
            ("edge", 256),
        ] {
            let entry = text.find("\"elem_bits\"").unwrap();
            let at = entry + text[entry..].find(&format!("\"{field}\":")).unwrap();
            let end = at + text[at..].find(',').unwrap();
            let bad = format!("{}\"{field}\":{code}{}", &text[..at], &text[end..]);
            assert!(
                matches!(from_json(&bad, "sse2"), Err(ProfileError::Invalid(_))),
                "{field} {code}"
            );
        }
    }

    #[test]
    fn io_errors_surface() {
        let missing = Path::new("/nonexistent/shalom/profile.json");
        assert!(matches!(load(missing, "sse2"), Err(ProfileError::Io(_))));
    }
}
