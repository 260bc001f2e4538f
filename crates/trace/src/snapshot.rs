//! Owned copies of the lane buffers and the aggregate report derived
//! from them: per-phase self/total times, per-lane utilization, the
//! imbalance ratio, and wait statistics — the Fig 13 breakdown and §6
//! imbalance analysis reproduced from a live trace.

use crate::{Phase, SpanRecord};

/// One lane (one thread) copied out of the tracer.
#[derive(Debug, Clone)]
pub struct LaneSnapshot {
    /// Lane index (stable per thread for the process lifetime).
    pub lane: usize,
    /// Recorded spans in close order (a child closes before its parent,
    /// so parents appear after their children).
    pub spans: Vec<SpanRecord>,
    /// Spans this lane dropped on buffer overflow.
    pub dropped: u64,
}

/// Point-in-time copy of every non-empty lane.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// Non-empty lanes, ascending lane index.
    pub lanes: Vec<LaneSnapshot>,
    /// Spans dropped by threads that never got a lane.
    pub dropped_unassigned: u64,
}

/// Aggregate for one phase across the whole snapshot.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseStat {
    /// Spans of this phase.
    pub count: u64,
    /// Summed span durations (children included — nested phases
    /// double-count here).
    pub total_ns: u64,
    /// Summed *self* time: duration minus time covered by child spans
    /// on the same lane. Self times partition wall time and sum to it.
    pub self_ns: u64,
    /// Longest single span.
    pub max_ns: u64,
}

/// Busy/wait accounting for one lane.
#[derive(Debug, Clone, Copy)]
pub struct LaneStat {
    /// Lane index.
    pub lane: usize,
    /// Spans recorded.
    pub spans: usize,
    /// Self time of non-wait phases.
    pub busy_ns: u64,
    /// Self time of wait phases (queue wait, barrier, park).
    pub wait_ns: u64,
    /// Lane-local wall span: `max(t1) - min(t0)`.
    pub wall_ns: u64,
}

/// The textual-report substrate: everything `render` prints, available
/// as plain numbers for the perf-report pipeline.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Per-phase aggregates indexed by [`Phase::index`].
    pub phases: [PhaseStat; Phase::ALL.len()],
    /// Per-lane busy/wait accounting, ascending lane index.
    pub lanes: Vec<LaneStat>,
    /// Global wall span across all lanes (`max t1 - min t0`), ns.
    pub wall_ns: u64,
    /// Mean over lanes of `busy / global wall`, clamped to `[0, 1]`.
    pub utilization: f64,
    /// `max(busy) / mean(busy)` over lanes with any busy time; 1.0 is
    /// perfectly balanced. 0.0 when nothing was busy.
    pub imbalance: f64,
    /// Total spans aggregated.
    pub total_spans: u64,
    /// Total spans dropped (lane overflow + unassigned threads).
    pub dropped: u64,
}

impl TraceSnapshot {
    /// Spans across all lanes.
    pub fn total_spans(&self) -> usize {
        self.lanes.iter().map(|l| l.spans.len()).sum()
    }

    /// Dropped spans across all lanes plus laneless threads.
    pub fn total_dropped(&self) -> u64 {
        self.dropped_unassigned + self.lanes.iter().map(|l| l.dropped).sum::<u64>()
    }

    /// Aggregates the snapshot into a [`TraceReport`].
    pub fn report(&self) -> TraceReport {
        let mut phases = [PhaseStat::default(); Phase::ALL.len()];
        let mut lanes = Vec::with_capacity(self.lanes.len());
        let mut wall_min = u64::MAX;
        let mut wall_max = 0u64;

        for lane in &self.lanes {
            let mut busy_ns = 0u64;
            let mut wait_ns = 0u64;
            let mut lane_min = u64::MAX;
            let mut lane_max = 0u64;
            for (phase, self_ns) in self_times(&lane.spans) {
                if phase.is_wait() {
                    wait_ns += self_ns;
                } else {
                    busy_ns += self_ns;
                }
                phases[phase.index()].self_ns += self_ns;
            }
            for s in &lane.spans {
                let st = &mut phases[s.phase().index()];
                st.count += 1;
                st.total_ns += s.duration_ns();
                st.max_ns = st.max_ns.max(s.duration_ns());
                lane_min = lane_min.min(s.t0_ns);
                lane_max = lane_max.max(s.t1_ns);
            }
            wall_min = wall_min.min(lane_min);
            wall_max = wall_max.max(lane_max);
            lanes.push(LaneStat {
                lane: lane.lane,
                spans: lane.spans.len(),
                busy_ns,
                wait_ns,
                wall_ns: lane_max.saturating_sub(if lane_min == u64::MAX { 0 } else { lane_min }),
            });
        }

        let wall_ns = wall_max.saturating_sub(if wall_min == u64::MAX { 0 } else { wall_min });
        let busy: Vec<u64> = lanes.iter().map(|l| l.busy_ns).filter(|&b| b > 0).collect();
        let utilization = if wall_ns == 0 || lanes.is_empty() {
            0.0
        } else {
            let sum: f64 = lanes
                .iter()
                .map(|l| (l.busy_ns as f64 / wall_ns as f64).min(1.0))
                .sum();
            sum / lanes.len() as f64
        };
        let imbalance = if busy.is_empty() {
            0.0
        } else {
            let max = busy.iter().copied().max().unwrap_or(0) as f64;
            let mean = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
            if mean > 0.0 {
                max / mean
            } else {
                0.0
            }
        };

        TraceReport {
            phases,
            lanes,
            wall_ns,
            utilization,
            imbalance,
            total_spans: self.total_spans() as u64,
            dropped: self.total_dropped(),
        }
    }
}

impl TraceReport {
    /// Summed self time over every phase (the denominator of
    /// [`TraceReport::phase_share`]).
    pub fn self_total_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.self_ns).sum()
    }

    /// This phase's share of total self time, in `[0, 1]`.
    pub fn phase_share(&self, phase: Phase) -> f64 {
        let total = self.self_total_ns();
        if total == 0 {
            0.0
        } else {
            self.phases[phase.index()].self_ns as f64 / total as f64
        }
    }

    /// Summed self time of one wait phase (queue/barrier/park stats).
    pub fn wait_ns(&self, phase: Phase) -> u64 {
        self.phases[phase.index()].self_ns
    }

    /// Multi-line human-readable report: phase table, lane table, pool
    /// utilization line.
    pub fn render(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut out = format!(
            "trace: {} spans across {} lanes ({} dropped), wall {:.3} ms\n",
            self.total_spans,
            self.lanes.len(),
            self.dropped,
            ms(self.wall_ns),
        );
        out.push_str(&format!(
            "{:<12} {:>8} {:>12} {:>12} {:>7} {:>12}\n",
            "phase", "count", "total ms", "self ms", "share", "max us"
        ));
        for p in Phase::ALL {
            let st = &self.phases[p.index()];
            if st.count == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:<12} {:>8} {:>12.3} {:>12.3} {:>6.1}% {:>12.2}\n",
                p.as_str(),
                st.count,
                ms(st.total_ns),
                ms(st.self_ns),
                self.phase_share(p) * 100.0,
                st.max_ns as f64 / 1e3,
            ));
        }
        out.push_str(&format!(
            "{:<6} {:>8} {:>12} {:>12} {:>7}\n",
            "lane", "spans", "busy ms", "wait ms", "util"
        ));
        for l in &self.lanes {
            let util = if self.wall_ns == 0 {
                0.0
            } else {
                (l.busy_ns as f64 / self.wall_ns as f64).min(1.0)
            };
            out.push_str(&format!(
                "{:<6} {:>8} {:>12.3} {:>12.3} {:>6.1}%\n",
                l.lane,
                l.spans,
                ms(l.busy_ns),
                ms(l.wait_ns),
                util * 100.0,
            ));
        }
        out.push_str(&format!(
            "pool: utilization {:.1}%, imbalance {:.2}, queue-wait {:.3} ms, \
             barrier {:.3} ms, park {:.3} ms\n",
            self.utilization * 100.0,
            self.imbalance,
            ms(self.wait_ns(Phase::QueueWait)),
            ms(self.wait_ns(Phase::Barrier)),
            ms(self.wait_ns(Phase::Park)),
        ));
        out
    }
}

/// Computes per-span self time for one lane: sorts by start time
/// (parents first on equal starts, since they end later), then walks a
/// stack subtracting each child's duration from its parent. Spans on
/// one lane are properly nested by construction (one thread, strict
/// start/end pairing), so overlap without containment cannot occur.
fn self_times(spans: &[SpanRecord]) -> Vec<(Phase, u64)> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by(|&a, &b| {
        spans[a]
            .t0_ns
            .cmp(&spans[b].t0_ns)
            .then(spans[b].t1_ns.cmp(&spans[a].t1_ns))
            // Coarse clocks can stamp a parent and child identically;
            // the recorded depth breaks the tie parent-first.
            .then(spans[a].depth.cmp(&spans[b].depth))
    });
    let mut out = Vec::with_capacity(spans.len());
    // (span index, accumulated child duration)
    let mut stack: Vec<(usize, u64)> = Vec::new();
    let close = |stack: &mut Vec<(usize, u64)>, out: &mut Vec<(Phase, u64)>| {
        if let Some((idx, child_ns)) = stack.pop() {
            let dur = spans[idx].duration_ns();
            out.push((spans[idx].phase(), dur.saturating_sub(child_ns)));
            if let Some(parent) = stack.last_mut() {
                parent.1 += dur;
            }
        }
    };
    for &i in &order {
        while let Some(&(top, _)) = stack.last() {
            if spans[top].t1_ns <= spans[i].t0_ns {
                close(&mut stack, &mut out);
            } else {
                break;
            }
        }
        stack.push((i, 0));
    }
    while !stack.is_empty() {
        close(&mut stack, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(phase: Phase, t0: u64, t1: u64, depth: u8) -> SpanRecord {
        SpanRecord {
            t0_ns: t0,
            t1_ns: t1,
            aux: 0,
            phase: phase as u8,
            src: 0,
            depth,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // serial [0,100] containing pack_a [10,30] and compute [40,90],
        // compute containing pack_b [50,60]; close order: children first.
        let spans = vec![
            span(Phase::PackA, 10, 30, 1),
            span(Phase::PackB, 50, 60, 2),
            span(Phase::Compute, 40, 90, 1),
            span(Phase::Serial, 0, 100, 0),
        ];
        let snap = TraceSnapshot {
            lanes: vec![LaneSnapshot {
                lane: 0,
                spans,
                dropped: 0,
            }],
            dropped_unassigned: 0,
        };
        let rep = snap.report();
        assert_eq!(rep.phases[Phase::Serial.index()].self_ns, 100 - 20 - 50);
        assert_eq!(rep.phases[Phase::Compute.index()].self_ns, 50 - 10);
        assert_eq!(rep.phases[Phase::PackA.index()].self_ns, 20);
        assert_eq!(rep.phases[Phase::PackB.index()].self_ns, 10);
        // Self times partition the serial span's wall time.
        assert_eq!(rep.self_total_ns(), 100);
        assert_eq!(rep.wall_ns, 100);
        let share = rep.phase_share(Phase::Compute);
        assert!((share - 0.40).abs() < 1e-9, "share {share}");
    }

    #[test]
    fn utilization_and_imbalance() {
        // Lane 0 busy 80/100, lane 1 busy 40/100 + 40 barrier wait.
        let snap = TraceSnapshot {
            lanes: vec![
                LaneSnapshot {
                    lane: 0,
                    spans: vec![span(Phase::Task, 0, 80, 0)],
                    dropped: 0,
                },
                LaneSnapshot {
                    lane: 1,
                    spans: vec![span(Phase::Task, 0, 40, 0), span(Phase::Barrier, 50, 90, 0)],
                    dropped: 2,
                },
            ],
            dropped_unassigned: 1,
        };
        let rep = snap.report();
        assert_eq!(rep.wall_ns, 90);
        assert_eq!(rep.dropped, 3);
        assert_eq!(rep.lanes[1].wait_ns, 40);
        assert_eq!(rep.lanes[1].busy_ns, 40);
        let expect_util = (80.0 / 90.0 + 40.0 / 90.0) / 2.0;
        assert!((rep.utilization - expect_util).abs() < 1e-9);
        let expect_imb = 80.0 / 60.0;
        assert!((rep.imbalance - expect_imb).abs() < 1e-9);
        let text = rep.render();
        assert!(text.contains("barrier"), "{text}");
        assert!(text.contains("imbalance 1.33"), "{text}");
    }

    #[test]
    fn empty_snapshot_reports_zeroes() {
        let snap = TraceSnapshot {
            lanes: vec![],
            dropped_unassigned: 0,
        };
        let rep = snap.report();
        assert_eq!(rep.wall_ns, 0);
        assert_eq!(rep.utilization, 0.0);
        assert_eq!(rep.imbalance, 0.0);
        assert_eq!(rep.phase_share(Phase::Compute), 0.0);
        assert!(rep.render().contains("0 spans"));
    }

    #[test]
    fn sibling_spans_do_not_nest() {
        // Two back-to-back siblings under one parent; the second must
        // not be treated as a child of the first.
        let spans = vec![
            span(Phase::PackB, 0, 10, 1),
            span(Phase::Compute, 10, 30, 1),
            span(Phase::Serial, 0, 30, 0),
        ];
        let snap = TraceSnapshot {
            lanes: vec![LaneSnapshot {
                lane: 0,
                spans,
                dropped: 0,
            }],
            dropped_unassigned: 0,
        };
        let rep = snap.report();
        assert_eq!(rep.phases[Phase::Serial.index()].self_ns, 0);
        assert_eq!(rep.phases[Phase::PackB.index()].self_ns, 10);
        assert_eq!(rep.phases[Phase::Compute.index()].self_ns, 20);
    }
}
