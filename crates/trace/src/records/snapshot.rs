//! Point-in-time view of everything the telemetry layer has gathered.

use super::counters::CounterTotals;
use super::hist::Histogram;
use super::record::DecisionRecord;
use crate::decision::ShapeClass;
use crate::perf::PerfSample;

/// Consistent-enough copy of the telemetry state: aggregate counters,
/// per-shape-class latency histograms, the recent-decision ring, and —
/// when the `perf-hooks` feature captured them — hardware counters.
///
/// "Consistent enough": counters and ring are sampled without stopping
/// writers, so a snapshot taken mid-GEMM may be one record ahead or
/// behind in one of the views. Snapshots taken between measurement
/// phases (the intended use) are exact.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Summed shard counters.
    pub totals: CounterTotals,
    /// Latency histograms indexed by [`ShapeClass::index`].
    pub histograms: [Histogram; ShapeClass::ALL.len()],
    /// Recent decision records, oldest first (ring-buffer capped).
    pub recent: Vec<DecisionRecord>,
    /// Records the ring dropped because their shard's lock was held: by
    /// a snapshot copying that shard, or by another recording thread
    /// striped onto the same shard (only past [`crate::SHARD_COUNT`]
    /// threads).
    pub dropped_records: u64,
    /// Process-wide hardware counters since `perf::start`, if captured.
    pub perf: Option<PerfSample>,
}

impl TelemetrySnapshot {
    /// Records among `recent` with the given shape class.
    pub fn recent_for_class(&self, class: ShapeClass) -> Vec<&DecisionRecord> {
        self.recent.iter().filter(|r| r.class == class).collect()
    }

    /// Full snapshot as one pretty-stable JSON document.
    ///
    /// Layout (stable keys, append-only by convention):
    /// `{"totals":{...},"histograms":{"small":{...},...},
    ///   "perf":{...}|null,"dropped_records":N,"recent":[...]}`
    pub fn to_json(&self) -> String {
        let hists = ShapeClass::ALL
            .iter()
            .map(|c| {
                format!(
                    "\"{}\":{}",
                    c.as_str(),
                    self.histograms[c.index()].to_json()
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let recent = self
            .recent
            .iter()
            .map(|r| r.to_json())
            .collect::<Vec<_>>()
            .join(",");
        let perf = match &self.perf {
            Some(p) => p.to_json(),
            None => "null".to_string(),
        };
        format!(
            concat!(
                "{{\"totals\":{},\"histograms\":{{{}}},\"perf\":{},",
                "\"dropped_records\":{},\"recent\":[{}]}}"
            ),
            self.totals.to_json(),
            hists,
            perf,
            self.dropped_records,
            recent,
        )
    }

    /// Short human-readable digest for console output.
    pub fn summary(&self) -> String {
        let t = &self.totals;
        let mut lines = vec![format!(
            "telemetry: {} calls ({} small / {} irregular / {} regular), \
             {} fork-joins, {} batch calls ({} items)",
            t.calls,
            t.by_class[0],
            t.by_class[1],
            t.by_class[2],
            t.fork_joins,
            t.batch_calls,
            t.batch_items,
        )];
        lines.push(format!(
            "  plans: {} no-pack / {} fused / {} lookahead / {} sequential; \
             pack {} ns of {} ns total; workspace peak {} B; {} dropped",
            t.by_plan[0],
            t.by_plan[1],
            t.by_plan[2],
            t.by_plan[3],
            t.pack_ns,
            t.total_ns,
            t.workspace_peak_bytes,
            self.dropped_records,
        ));
        if t.trace_spans_recorded + t.trace_spans_dropped > 0 {
            lines.push(format!(
                "  trace spans: {} recorded / {} dropped",
                t.trace_spans_recorded, t.trace_spans_dropped,
            ));
        }
        for c in ShapeClass::ALL {
            let h = &self.histograms[c.index()];
            if let Some(p50) = h.quantile_ns(0.5) {
                lines.push(format!(
                    "  {}: {} calls, p50 ~{} ns, p99 ~{} ns",
                    c.as_str(),
                    h.count(),
                    p50,
                    h.quantile_ns(0.99).unwrap_or(p50),
                ));
            }
        }
        if let Some(p) = &self.perf {
            lines.push(format!(
                "  perf: ipc {:.2}, cache-miss ratio {:.4}",
                p.ipc(),
                p.miss_ratio()
            ));
        }
        lines.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::BPlan;
    use crate::records::hist::HIST_BUCKETS;

    fn snap() -> TelemetrySnapshot {
        let mut totals = CounterTotals {
            calls: 2,
            ..Default::default()
        };
        totals.by_class[ShapeClass::Irregular.index()] = 2;
        totals.by_plan[BPlan::FusedLookahead.index()] = 2;
        let mut h = Histogram {
            buckets: [0; HIST_BUCKETS],
        };
        h.buckets[10] = 2;
        TelemetrySnapshot {
            totals,
            histograms: [
                Histogram {
                    buckets: [0; HIST_BUCKETS],
                },
                h,
                Histogram {
                    buckets: [0; HIST_BUCKETS],
                },
            ],
            recent: vec![DecisionRecord {
                class: ShapeClass::Irregular,
                plan: BPlan::FusedLookahead,
                ..Default::default()
            }],
            dropped_records: 0,
            perf: None,
        }
    }

    #[test]
    fn json_document_shape() {
        let j = snap().to_json();
        for needle in [
            "\"totals\":{",
            "\"histograms\":{\"small\":{}",
            "\"irregular\":{\"1024\":2}",
            "\"perf\":null",
            "\"recent\":[{",
            "\"plan\":\"fused-lookahead\"",
        ] {
            assert!(j.contains(needle), "{j} missing {needle}");
        }
    }

    #[test]
    fn class_filter_and_summary() {
        let s = snap();
        assert_eq!(s.recent_for_class(ShapeClass::Irregular).len(), 1);
        assert_eq!(s.recent_for_class(ShapeClass::Small).len(), 0);
        let text = s.summary();
        assert!(text.contains("2 calls"), "{text}");
        assert!(text.contains("irregular: 2 calls"), "{text}");
    }
}
