//! Chrome trace-event export.
//!
//! Emits the legacy JSON object format (`{"traceEvents": [...]}`) that
//! both `chrome://tracing` and Perfetto load: one complete event
//! (`"ph":"X"`) per span with microsecond timestamps, plus thread-name
//! metadata events so each lane renders as a labeled track.

use crate::TraceSnapshot;

/// Serializes a snapshot as a Chrome trace-event JSON document.
///
/// Lanes become threads of one process (`pid` 1); events within a lane
/// are sorted by start time, so per-thread timestamps are monotone.
/// `args` carries the decoded aux payload (shape for shape-tagged
/// phases, item/task counts), the plan source when present, and the
/// nesting depth.
pub fn chrome_trace_json(snap: &TraceSnapshot) -> String {
    let mut events = Vec::new();
    events.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"shalom\"}}"
            .to_string(),
    );
    for lane in &snap.lanes {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
             \"args\":{{\"name\":\"lane-{}\"}}}}",
            lane.lane, lane.lane
        ));
    }
    for lane in &snap.lanes {
        let mut order: Vec<usize> = (0..lane.spans.len()).collect();
        order.sort_by(|&a, &b| {
            lane.spans[a]
                .t0_ns
                .cmp(&lane.spans[b].t0_ns)
                .then(lane.spans[b].t1_ns.cmp(&lane.spans[a].t1_ns))
        });
        for i in order {
            let s = &lane.spans[i];
            let phase = s.phase();
            let mut args = format!("\"depth\":{}", s.depth);
            if phase.carries_shape() && s.aux != 0 {
                let (m, n, k) = crate::shape_from_key(s.aux);
                args.push_str(&format!(",\"m\":{m},\"n\":{n},\"k\":{k}"));
            } else if s.aux != 0 {
                args.push_str(&format!(",\"aux\":{}", s.aux));
            }
            if let Some(source) = s.plan_source() {
                args.push_str(&format!(",\"plan_source\":\"{}\"", source.as_str()));
            }
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"shalom\",\"ph\":\"X\",\"ts\":{},\
                 \"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{{}}}}}",
                phase.as_str(),
                us(s.t0_ns),
                us(s.duration_ns()),
                lane.lane,
                args
            ));
        }
    }
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ns\"}}",
        events.join(",")
    )
}

/// Nanoseconds to the decimal-microsecond string Chrome expects,
/// without going through floats (exact for any u64).
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;
    use crate::{LaneSnapshot, Phase, SpanRecord};

    fn span(phase: Phase, t0: u64, t1: u64, aux: u64, src: u8) -> SpanRecord {
        SpanRecord {
            t0_ns: t0,
            t1_ns: t1,
            aux,
            phase: phase as u8,
            src,
            depth: 0,
        }
    }

    fn sample() -> TraceSnapshot {
        TraceSnapshot {
            lanes: vec![
                LaneSnapshot {
                    lane: 0,
                    spans: vec![
                        // Close order: child (compute) before parent (serial).
                        span(Phase::Compute, 1500, 2000, 0, 0),
                        span(
                            Phase::Serial,
                            1000,
                            2500,
                            crate::shape_key(64, 64, 64),
                            crate::PlanSource::Profile.code(),
                        ),
                    ],
                    dropped: 0,
                },
                LaneSnapshot {
                    lane: 3,
                    spans: vec![span(Phase::Task, 1200, 1900, 5, 0)],
                    dropped: 0,
                },
            ],
            dropped_unassigned: 0,
        }
    }

    #[test]
    fn export_parses_and_is_monotone_per_thread() {
        let text = chrome_trace_json(&sample());
        let doc = crate::json::parse(&text).expect("chrome JSON parses");
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_arr)
            .expect("traceEvents array");
        // 1 process meta + 2 thread metas + 3 spans.
        assert_eq!(events.len(), 6);
        let mut last_ts: std::collections::HashMap<i64, f64> = Default::default();
        for ev in events {
            let ph = ev.get("ph").and_then(JsonValue::as_str).unwrap();
            if ph == "M" {
                continue;
            }
            assert_eq!(ph, "X");
            let tid = ev.get("tid").and_then(JsonValue::as_f64).unwrap() as i64;
            let ts = ev.get("ts").and_then(JsonValue::as_f64).unwrap();
            let dur = ev.get("dur").and_then(JsonValue::as_f64).unwrap();
            assert!(dur >= 0.0);
            if let Some(prev) = last_ts.insert(tid, ts) {
                assert!(
                    ts >= prev,
                    "timestamps regress on tid {tid}: {prev} -> {ts}"
                );
            }
        }
    }

    #[test]
    fn lane_names_and_args_round_trip() {
        let text = chrome_trace_json(&sample());
        assert!(text.contains("\"name\":\"lane-0\""), "{text}");
        assert!(text.contains("\"name\":\"lane-3\""), "{text}");
        assert!(text.contains("\"plan_source\":\"profile\""), "{text}");
        assert!(text.contains("\"m\":64,\"n\":64,\"k\":64"), "{text}");
        // Task aux is an index, not a shape.
        assert!(text.contains("\"aux\":5"), "{text}");
        // 1500 ns -> 1.500 us.
        assert!(text.contains("\"ts\":1.500"), "{text}");
    }
}
