//! The harness's own span recorder for `--trace` runs.
//!
//! Spans are recorded from outside the library, around calls that cross
//! a layer boundary. Storage is one preallocated vector; a full recorder
//! counts what it drops instead of growing. Times are on the
//! `shalom_trace::now_ns` clock, the one `Completion::done_at_ns` uses,
//! so service spans and harness spans share a timeline.

use crate::stats::Summary;
use shalom_trace::json::escape;
use std::collections::BTreeMap;
use std::path::Path;

/// `parent` of a root span, and the id [`Recorder::push`] returns when full.
pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    /// Spans of one request (or one probe round) share this.
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Recorder {
    spans: Vec<Span>,
    pub dropped: u64,
}

impl Recorder {
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn capacity(&self) -> usize {
        self.spans.capacity()
    }

    /// Room for `n` more spans? Callers that record a parent with its
    /// children ask first, so a family is kept or dropped whole.
    pub fn has_room(&self, n: usize) -> bool {
        self.spans.len() + n <= self.spans.capacity()
    }

    /// Records one finished span and returns its id, or [`NONE`] when the
    /// recorder is full.
    pub fn push(
        &mut self,
        parent: u32,
        request: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        if !self.has_room(1) {
            self.dropped += 1;
            return NONE;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Widens span `id` to end at `end_ns` (a parent closed after its
    /// children were recorded).
    pub fn close(&mut self, id: u32, end_ns: u64) {
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = s.end_ns.max(end_ns);
        }
    }

    /// Self time of every span, by id: its duration minus the part of
    /// its interval that its children cover (overlapping children are
    /// counted once; a child is clipped to its parent).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = self.spans.get(s.parent as usize) {
                let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
                if lo < hi {
                    children[s.parent as usize].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Per span name: summary of durations and of self times, in ns.
    pub fn by_name(&self) -> BTreeMap<&'static str, (Summary, Summary)> {
        let selfs = self.self_times();
        let mut groups: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            let g = groups.entry(s.name).or_default();
            g.0.push((s.end_ns - s.start_ns) as f64);
            g.1.push(own as f64);
        }
        groups
            .into_iter()
            .map(|(k, (mut d, mut o))| (k, (Summary::of(&mut d), Summary::of(&mut o))))
            .collect()
    }

    /// Each root gets the first lane that is free at its start, and its
    /// descendants share it, so concurrent requests never overlap on a
    /// lane and every lane nests like a call stack.
    fn lanes(&self) -> Vec<u32> {
        let mut lane = vec![0u32; self.spans.len()];
        let mut roots: Vec<&Span> = self.spans.iter().filter(|s| s.parent == NONE).collect();
        roots.sort_by_key(|s| (s.start_ns, s.id));
        let mut free_at: Vec<u64> = Vec::new();
        for r in roots {
            let l = match free_at.iter().position(|&t| t <= r.start_ns) {
                Some(l) => l,
                None => {
                    free_at.push(0);
                    free_at.len() - 1
                }
            };
            free_at[l] = r.end_ns;
            lane[r.id as usize] = l as u32;
        }
        // A parent is always recorded before its children, so one pass
        // in id order reaches every descendant.
        for s in &self.spans {
            if let Some(p) = self.spans.get(s.parent as usize) {
                lane[s.id as usize] = lane[p.id as usize];
            }
        }
        lane
    }

    /// Checks what the trace file promises: every child lies inside its
    /// parent, and on each lane two spans either nest or do not touch.
    pub fn check_nesting(&self) -> Result<(), String> {
        for s in &self.spans {
            if let Some(p) = self.spans.get(s.parent as usize) {
                if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                    return Err(format!("span {} ({}) leaves parent {}", s.id, s.name, p.id));
                }
            } else if s.parent != NONE {
                return Err(format!("span {} has unknown parent {}", s.id, s.parent));
            }
        }
        let lanes = self.lanes();
        let mut order: Vec<&Span> = self.spans.iter().collect();
        order.sort_by_key(|s| (lanes[s.id as usize], s.start_ns, u64::MAX - s.end_ns, s.id));
        let mut stack: Vec<&Span> = Vec::new();
        let mut lane = NONE;
        for s in order {
            if lanes[s.id as usize] != lane {
                lane = lanes[s.id as usize];
                stack.clear();
            }
            while stack.last().is_some_and(|top| top.end_ns <= s.start_ns) {
                stack.pop();
            }
            if let Some(top) = stack.last() {
                if s.end_ns > top.end_ns {
                    return Err(format!(
                        "spans {} ({}) and {} ({}) overlap without nesting",
                        top.id, top.name, s.id, s.name
                    ));
                }
            }
            stack.push(s);
        }
        Ok(())
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete event per span, microsecond times relative to the first.
    pub fn to_chrome_json(&self, workload: &str) -> String {
        let lanes = self.lanes();
        let t0 = self.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let us = |ns: u64| format!("{}.{:03}", ns / 1000, ns % 1000);
        let mut out = format!(
            "{{\"displayTimeUnit\":\"ns\",\"otherData\":{{\"workload\":\"{}\",\"dropped_spans\":{}}},\"traceEvents\":[\n\
             {{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"shalom-benchmark {}\"}}}}",
            escape(workload),
            self.dropped,
            escape(workload)
        );
        for s in &self.spans {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            out.push_str(&format!(
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}",
                escape(s.name),
                escape(s.name.split('.').next().unwrap_or("")),
                us(s.start_ns - t0),
                us(s.end_ns - s.start_ns),
                lanes[s.id as usize] + 1,
                s.id,
                parent,
                s.request
            ));
        }
        out.push_str("\n]}\n");
        out
    }

    /// Writes `trace-<workload>.json` into `dir` and returns what to note
    /// about it: where it went, whether it nests, and per span name the
    /// median duration and self time.
    pub fn write(&self, dir: &Path, workload: &str) -> Vec<String> {
        let mut notes = Vec::new();
        if let Err(e) = self.check_nesting() {
            notes.push(format!("trace is not well nested: {e}"));
        }
        let path = dir.join(format!("trace-{workload}.json"));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, self.to_chrome_json(workload)));
        notes.push(match written {
            Ok(()) => format!(
                "trace: {} spans ({} dropped) in {}",
                self.spans.len(),
                self.dropped,
                path.display()
            ),
            Err(e) => format!("trace not written to {}: {e}", path.display()),
        });
        for (name, (duration, own)) in self.by_name() {
            notes.push(format!(
                "span {name}: n {} median {:.0} ns, self {:.0} ns",
                duration.n, duration.median, own.median
            ));
        }
        notes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let mut r = Recorder::with_capacity(16);
        let root = r.push(NONE, 0, "root", 0, 100);
        let a = r.push(root, 0, "a", 10, 40); // sibling 1
        r.push(root, 0, "b", 50, 70); // sibling 2
        r.push(a, 0, "a.inner", 15, 25); // nested under a
        r.push(root, 0, "c", 60, 80); // overlaps b: union 50..80
        r.push(root, 0, "late", 90, 130); // clipped to the parent's end
        let own = r.self_times();
        assert_eq!(own[root as usize], 100 - 30 - 30 - 10);
        assert_eq!(own[a as usize], 30 - 10);
        assert_eq!(own[3], 10);
        let by = r.by_name();
        assert_eq!(by["a"].0.median, 30.0);
        assert_eq!(by["a"].1.median, 20.0);
    }

    #[test]
    fn full_recorder_drops_and_counts() {
        let mut r = Recorder::with_capacity(2);
        assert_eq!(r.push(NONE, 0, "x", 0, 1), 0);
        assert!(r.has_room(1) && !r.has_room(2));
        assert_eq!(r.push(NONE, 0, "x", 1, 2), 1);
        assert_eq!(r.push(NONE, 0, "x", 2, 3), NONE);
        assert_eq!((r.spans().len(), r.dropped), (2, 1));
    }

    #[test]
    fn concurrent_roots_get_their_own_lane_and_nest() {
        let mut r = Recorder::with_capacity(16);
        let a = r.push(NONE, 1, "service.request", 0, 100);
        let b = r.push(NONE, 2, "service.request", 50, 150); // overlaps a
        r.push(a, 1, "service.submit", 0, 10);
        r.push(b, 2, "service.submit", 50, 60);
        let c = r.push(NONE, 3, "service.request", 100, 120); // reuses a's lane
        assert_eq!(r.lanes(), vec![0, 1, 0, 1, 0]);
        r.check_nesting().unwrap();
        let json = shalom_trace::json::parse(&r.to_chrome_json("w")).unwrap();
        let events = json.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 6);
        assert_eq!(
            events[5].get("args").unwrap().get("id").unwrap().as_u64(),
            Some(c as u64)
        );
        // A child that leaves its parent is reported.
        r.push(c, 3, "bad", 110, 130);
        assert!(r.check_nesting().is_err());
    }
}
