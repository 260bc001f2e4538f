//! What a run reports: the table a person reads, the one-line JSON
//! result the driver reads, and the run file `compare` reads back.

use crate::host::Header;
use crate::metrics;
use crate::stats::Summary;
use shalom_trace::json::{escape, format_f64, parse, JsonValue};

#[derive(Debug, Clone, PartialEq)]
pub struct MetricValue {
    pub name: String,
    pub unit: String,
    /// The reported number.
    pub value: f64,
    /// Median, quartiles and count of what the number was taken from (a
    /// single reading has `n = 1`): how far to trust it.
    pub samples: Summary,
}

#[derive(Debug, Clone, PartialEq)]
pub struct CellRow {
    pub name: String,
    pub threads: usize,
    pub calls_per_sample: u32,
    /// ns per call.
    pub ns: Summary,
    /// GFLOPS (GB/s for a bandwidth probe; 0 where a call has no such rate).
    pub rate: f64,
    pub probe: bool,
}

#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadResult {
    pub workload: String,
    pub attempted: u64,
    pub failed: u64,
    /// Every output check passed.
    pub correct: bool,
    /// `host_drift` above 1.15 or a generator more than 1 ms late at
    /// p99: the host moved under the run, read the numbers with care.
    pub disturbed: bool,
    /// Some cell ended with fewer than 30 samples.
    pub too_few_samples: bool,
    pub errors: Vec<String>,
    pub end_to_end: Vec<MetricValue>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<MetricValue>,
    pub cells: Vec<CellRow>,
    pub notes: Vec<String>,
}

fn summary_json(s: &Summary) -> String {
    format!(
        "\"median\":{},\"q1\":{},\"q3\":{},\"n\":{}",
        format_f64(s.median),
        format_f64(s.q1),
        format_f64(s.q3),
        s.n
    )
}

fn summary_from(v: &JsonValue) -> Option<Summary> {
    Some(Summary {
        median: v.get("median")?.as_f64()?,
        q1: v.get("q1")?.as_f64()?,
        q3: v.get("q3")?.as_f64()?,
        n: v.get("n")?.as_u64()? as usize,
    })
}

fn metrics_json(ms: &[MetricValue]) -> String {
    let items: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},{},\"unit\":\"{}\"}}",
                escape(&m.name),
                format_f64(m.value),
                summary_json(&m.samples),
                escape(&m.unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(","))
}

fn metrics_from(v: &JsonValue) -> Option<Vec<MetricValue>> {
    v.as_obj()?
        .iter()
        .map(|(name, m)| {
            Some(MetricValue {
                name: name.clone(),
                unit: m.get("unit")?.as_str()?.to_string(),
                value: m.get("value")?.as_f64()?,
                samples: summary_from(m)?,
            })
        })
        .collect()
}

fn strings_json(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{}\"", escape(s))).collect();
    format!("[{}]", quoted.join(","))
}

fn strings_from(v: &JsonValue) -> Option<Vec<String>> {
    v.as_arr()?
        .iter()
        .map(|s| Some(s.as_str()?.to_string()))
        .collect()
}

impl WorkloadResult {
    pub fn metric(&self, name: &str) -> Option<&MetricValue> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }

    /// The last line of a single-workload run: exactly the keys the
    /// driver expects, the end-to-end metrics of an untraced run or the
    /// per-layer metrics of a traced one.
    pub fn contract_line(&self, traced: bool) -> String {
        let ms = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let items: Vec<String> = ms
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    escape(&m.name),
                    format_f64(m.value),
                    escape(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            items.join(", ")
        )
    }

    pub fn print(&self) {
        println!("\n== {} ==", self.workload);
        if !self.cells.is_empty() {
            println!(
                "  {:<34} {:>2} {:>7} {:>12} {:>12} {:>12} {:>6} {:>9}",
                "cell", "t", "calls", "median_ns", "q1_ns", "q3_ns", "n", "rate"
            );
        }
        for c in &self.cells {
            println!(
                "  {:<34} {:>2} {:>7} {:>12.1} {:>12.1} {:>12.1} {:>6} {:>9.3}{}",
                c.name,
                c.threads,
                c.calls_per_sample,
                c.ns.median,
                c.ns.q1,
                c.ns.q3,
                c.ns.n,
                c.rate,
                if c.probe { "  probe" } else { "" }
            );
        }
        for note in &self.notes {
            println!("  note: {note}");
        }
        println!("  end-to-end:");
        for m in &self.end_to_end {
            println!(
                "    {:<12} {:>14.4} {:<7} median {:<12.4} q1 {:<12.4} q3 {:<12.4} n {}",
                m.name, m.value, m.unit, m.samples.median, m.samples.q1, m.samples.q3, m.samples.n
            );
        }
        if !self.per_layer.is_empty() {
            println!("  per-layer (0 = layer not on this workload's path):");
            for m in &self.per_layer {
                println!("    {:<44} {:>14.4} {}", m.name, m.value, m.unit);
            }
        }
        println!(
            "  attempted {} failed {} correct {} disturbed {}{}",
            self.attempted,
            self.failed,
            self.correct,
            self.disturbed,
            if self.too_few_samples {
                "  INVALID: a cell has fewer than 30 samples"
            } else {
                ""
            }
        );
        for e in &self.errors {
            println!("  ERROR: {e}");
        }
    }

    fn to_json(&self) -> String {
        let cells: Vec<String> = self
            .cells
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\":\"{}\",\"threads\":{},\"calls_per_sample\":{},{},\"rate\":{},\"probe\":{}}}",
                    escape(&c.name),
                    c.threads,
                    c.calls_per_sample,
                    summary_json(&c.ns),
                    format_f64(c.rate),
                    c.probe
                )
            })
            .collect();
        format!(
            "{{\"workload\":\"{}\",\"attempted\":{},\"failed\":{},\"correct\":{},\"disturbed\":{},\
             \"too_few_samples\":{},\"errors\":{},\"notes\":{},\"end_to_end\":{},\"per_layer\":{},\"cells\":[{}]}}",
            escape(&self.workload),
            self.attempted,
            self.failed,
            self.correct,
            self.disturbed,
            self.too_few_samples,
            strings_json(&self.errors),
            strings_json(&self.notes),
            metrics_json(&self.end_to_end),
            metrics_json(&self.per_layer),
            cells.join(",")
        )
    }

    fn from_json(v: &JsonValue) -> Option<Self> {
        let flag = |k: &str| match v.get(k) {
            Some(JsonValue::Bool(b)) => Some(*b),
            _ => None,
        };
        let cells = v
            .get("cells")?
            .as_arr()?
            .iter()
            .map(|c| {
                Some(CellRow {
                    name: c.get("name")?.as_str()?.to_string(),
                    threads: c.get("threads")?.as_u64()? as usize,
                    calls_per_sample: c.get("calls_per_sample")?.as_u64()? as u32,
                    ns: summary_from(c)?,
                    rate: c.get("rate")?.as_f64()?,
                    probe: matches!(c.get("probe")?, JsonValue::Bool(true)),
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(WorkloadResult {
            workload: v.get("workload")?.as_str()?.to_string(),
            attempted: v.get("attempted")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            correct: flag("correct")?,
            disturbed: flag("disturbed")?,
            too_few_samples: flag("too_few_samples")?,
            errors: strings_from(v.get("errors")?)?,
            notes: strings_from(v.get("notes")?)?,
            end_to_end: metrics_from(v.get("end_to_end")?)?,
            per_layer: metrics_from(v.get("per_layer")?)?,
            cells,
        })
    }
}

/// One invocation's results, as written by `--out`. The header comes
/// first in the file, so what the numbers were measured on is read
/// before the numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct RunFile {
    pub header: Header,
    pub disturbed: bool,
    pub workloads: Vec<WorkloadResult>,
}

impl RunFile {
    pub fn to_json(&self) -> String {
        let ws: Vec<String> = self.workloads.iter().map(WorkloadResult::to_json).collect();
        format!(
            "{{\"header\":{},\n\"disturbed\":{},\n\"workloads\":[\n{}\n]}}\n",
            self.header.to_json(),
            self.disturbed,
            ws.join(",\n")
        )
    }

    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = parse(text)?;
        let h = doc.get("header").ok_or("no header")?;
        let num = |k: &str| {
            h.get(k)
                .and_then(JsonValue::as_u64)
                .ok_or(format!("header.{k}"))
        };
        let text_of = |k: &str| {
            h.get(k)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or(format!("header.{k}"))
        };
        let header = Header {
            isa: text_of("isa")?,
            nproc: num("nproc")? as usize,
            threads: num("threads")? as usize,
            l1: num("l1")? as usize,
            l2: num("l2")? as usize,
            l3: num("l3")? as usize,
            ring_bytes: num("ring_bytes")? as usize,
            seed: num("seed")?,
            seconds: num("seconds")?,
            trace: matches!(h.get("trace"), Some(JsonValue::Bool(true))),
            git_commit: text_of("git_commit")?,
            rustc: text_of("rustc")?,
        };
        let workloads = doc
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .ok_or("no workloads")?
            .iter()
            .map(|w| WorkloadResult::from_json(w).ok_or("malformed workload entry".to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RunFile {
            header,
            disturbed: matches!(doc.get("disturbed"), Some(JsonValue::Bool(true))),
            workloads,
        })
    }
}

/// The end-to-end metrics of a run, named and given units by the
/// registry, in its order: `setup_s`, `gflops_nn`, `gflops_tr`, `op_us`,
/// `sat_gflops`, `rss_mb`.
pub fn end_to_end_values(values: [(f64, Summary); 6]) -> Vec<MetricValue> {
    let defs = metrics::end_to_end();
    assert_eq!(
        defs.len(),
        values.len(),
        "one value per registered end-to-end metric"
    );
    defs.into_iter()
        .zip(values)
        .map(|(d, (value, samples))| MetricValue {
            name: d.name,
            unit: d.unit.to_string(),
            value,
            samples,
        })
        .collect()
}

/// The per-layer metrics of a traced run: every registered name, with
/// the measured value where this workload measured it and 0 elsewhere.
/// A measured name that is not registered is a bug in the benchmark.
pub fn fill_per_layer(measured: Vec<(String, f64)>) -> Vec<MetricValue> {
    let defs = metrics::per_layer();
    for (name, _) in &measured {
        assert!(
            defs.iter().any(|d| &d.name == name),
            "per-layer metric {name} is not in the registry"
        );
    }
    defs.into_iter()
        .map(|d| {
            let value = measured
                .iter()
                .find(|(n, _)| n == &d.name)
                .map_or(0.0, |&(_, v)| if v.is_finite() { v } else { 0.0 });
            MetricValue {
                name: d.name,
                unit: d.unit.to_string(),
                value,
                samples: Summary::point(value),
            }
        })
        .collect()
}

#[cfg(test)]
pub mod tests {
    use super::*;

    pub fn sample_result(workload: &str, gflops: f64) -> WorkloadResult {
        WorkloadResult {
            workload: workload.to_string(),
            attempted: 1234,
            failed: 0,
            correct: true,
            disturbed: false,
            too_few_samples: false,
            errors: vec![],
            notes: vec!["ring 64 MiB \"quoted\"".to_string()],
            end_to_end: vec![
                MetricValue {
                    name: "gflops_nn".into(),
                    unit: "GFLOPS".into(),
                    value: gflops * 1.01,
                    samples: Summary {
                        median: gflops,
                        q1: gflops * 0.99,
                        q3: gflops * 1.01,
                        n: 321,
                    },
                },
                MetricValue {
                    name: "setup_s".into(),
                    unit: "s".into(),
                    value: 0.0123456789,
                    samples: Summary {
                        median: 0.0123456789,
                        q1: 0.01,
                        q3: 0.02,
                        n: 3,
                    },
                },
            ],
            per_layer: fill_per_layer(vec![("plans.hits".into(), 17.0)]),
            cells: vec![CellRow {
                name: "5x5x5_f64_nn".into(),
                threads: 1,
                calls_per_sample: 1459,
                ns: Summary {
                    median: 137.25,
                    q1: 136.0,
                    q3: 139.5,
                    n: 3000,
                },
                rate: 1.8215,
                probe: false,
            }],
        }
    }

    pub fn sample_header() -> Header {
        Header {
            isa: "avx512".into(),
            nproc: 2,
            threads: 2,
            l1: 49152,
            l2: 2 << 20,
            l3: 260 << 20,
            ring_bytes: 64 << 20,
            seed: 7,
            seconds: 10,
            trace: true,
            git_commit: "unknown".into(),
            rustc: "rustc 1.95.0 (59807616e 2026-04-14)".into(),
        }
    }

    #[test]
    fn run_file_round_trips() {
        let run = RunFile {
            header: sample_header(),
            disturbed: true,
            workloads: vec![
                sample_result("tiny_warm", 1.5),
                sample_result("conv_vgg", 44.25),
            ],
        };
        let text = run.to_json();
        assert!(
            text.starts_with("{\"header\":{\"isa\":\"avx512\""),
            "header comes first"
        );
        let back = RunFile::from_json(&text).unwrap();
        assert_eq!(back, run);
        assert_eq!(back.to_json(), text);
        assert!(RunFile::from_json("{\"header\":{}}").is_err());
    }

    #[test]
    fn contract_line_has_exactly_the_expected_keys() {
        let r = sample_result("tiny_warm", 1.5);
        for traced in [false, true] {
            let doc = parse(&r.contract_line(traced)).unwrap();
            let keys: Vec<&str> = doc
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let ms = doc.get("metrics").unwrap().as_obj().unwrap();
            assert_eq!(
                ms.len(),
                if traced {
                    metrics::per_layer().len()
                } else {
                    2
                }
            );
            for (_, m) in ms {
                let keys: Vec<&str> = m
                    .as_obj()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["value", "unit"]);
            }
        }
        let traced = parse(&r.contract_line(true)).unwrap();
        let hits = traced.get("metrics").unwrap().get("plans.hits").unwrap();
        assert_eq!(hits.get("value").unwrap().as_f64(), Some(17.0));
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn an_unregistered_per_layer_name_is_a_bug() {
        fill_per_layer(vec![("nosuch.metric".into(), 1.0)]);
    }
}
