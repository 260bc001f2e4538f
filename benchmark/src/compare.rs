//! `compare A B`: applies the benchmark's bounds to two sets of run
//! files (each argument one `--out` file or a directory of them). One
//! row per workload and end-to-end metric; set A is the base of every
//! ratio.

use crate::metrics::{self, MetricDef};
use crate::report::{RunFile, WorkloadResult};
use crate::stats::Summary;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs of a set disagree by more than the bound and the two
    /// sets overlap: the metric can be called neither held nor worse.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges set `b` against base set `a` for one metric on one workload.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let bound = def.bound.unwrap_or(0.0);
    let (sa, sb) = (Summary::of(&mut a.to_vec()), Summary::of(&mut b.to_vec()));
    // Positive when `b` is worse, as a share of the base median.
    let sign = if def.higher_is_better() { -1.0 } else { 1.0 };
    let worse_by = sign * (sb.median - sa.median) / sa.median.abs().max(f64::MIN_POSITIVE);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if sa.spread() > bound || sb.spread() > bound {
        let b_all_better = if def.higher_is_better() {
            min(b) > max(a)
        } else {
            max(b) < min(a)
        };
        let overlap = min(a) <= max(b) && min(b) <= max(a);
        if b_all_better {
            return Verdict::Ok;
        }
        if overlap {
            return Verdict::Unresolved;
        }
    }
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// The run files of one argument: the file itself, or every `*.json` in
/// the directory that is not a trace.
pub fn load_set(path: &Path) -> Result<Vec<RunFile>, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().to_string();
            if name.ends_with(".json") && !name.starts_with("trace-") {
                files.push(entry.path());
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let runs = files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
            RunFile::from_json(&text).map_err(|e| format!("{}: {e}", f.display()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if runs.is_empty() {
        return Err(format!("{}: no run files", path.display()));
    }
    Ok(runs)
}

/// The comparison table and whether it passes (no `regressed` row and no
/// workload whose share of failed operations rose).
pub fn compare(a: &[RunFile], b: &[RunFile]) -> (String, bool) {
    let mut out = format!(
        "{:<16} {:<10} {:>34} {:>34} {:>8} {:>6}  {}\n",
        "workload",
        "metric",
        "A median [q1, q3] n",
        "B median [q1, q3] n",
        "B/A",
        "bound",
        "verdict"
    );
    let mut pass = true;
    let cell = |s: &Summary| format!("{:.4} [{:.4}, {:.4}] {}", s.median, s.q1, s.q3, s.n);
    for (workload, _) in metrics::WORKLOADS {
        let of = |set: &[RunFile]| -> Vec<WorkloadResult> {
            set.iter()
                .flat_map(|r| {
                    r.workloads
                        .iter()
                        .filter(|w| w.workload == workload)
                        .cloned()
                })
                .collect()
        };
        let (wa, wb) = (of(a), of(b));
        if wa.is_empty() || wb.is_empty() {
            continue;
        }
        let disturbed = wa
            .iter()
            .chain(&wb)
            .any(|w| w.disturbed || w.too_few_samples);
        for def in metrics::end_to_end() {
            let values = |ws: &[WorkloadResult]| -> Vec<f64> {
                ws.iter()
                    .filter_map(|w| w.metric(&def.name))
                    .map(|m| m.value)
                    .collect()
            };
            let (va, vb) = (values(&wa), values(&wb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = judge(&def, &va, &vb);
            pass &= verdict != Verdict::Regressed;
            let (sa, sb) = (Summary::of(&mut va.clone()), Summary::of(&mut vb.clone()));
            out.push_str(&format!(
                "{:<16} {:<10} {:>34} {:>34} {:>8.4} {:>5.0}%  {}{}\n",
                workload,
                def.name,
                cell(&sa),
                cell(&sb),
                sb.median / sa.median,
                100.0 * def.bound.unwrap_or(0.0),
                verdict.label(),
                if disturbed {
                    "  (disturbed run in a set)"
                } else {
                    ""
                }
            ));
        }
        let share = |ws: &[WorkloadResult]| {
            ws.iter().map(|w| w.failed).sum::<u64>() as f64
                / ws.iter().map(|w| w.attempted).sum::<u64>().max(1) as f64
        };
        let (fa, fb) = (share(&wa), share(&wb));
        let worse = fb > fa || wb.iter().any(|w| !w.correct);
        pass &= !worse;
        out.push_str(&format!(
            "{:<16} {:<10} {:>34.6} {:>34.6} {:>8} {:>6}  {}\n",
            workload,
            "fail_share",
            fa,
            fb,
            "",
            "0%",
            if worse { "regressed" } else { "ok" }
        ));
    }
    (out, pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::{sample_header, sample_result};

    /// A metric with a 10 % bound.
    fn def(name: &str) -> MetricDef {
        MetricDef {
            bound: Some(0.10),
            ..metrics::end_to_end()
                .into_iter()
                .find(|m| m.name == name)
                .unwrap()
        }
    }

    #[test]
    fn verdicts_follow_the_bound_the_direction_and_the_spread() {
        let g = def("gflops_nn"); // higher is better
        assert_eq!(
            judge(&g, &[100.0, 101.0, 99.0], &[95.0, 96.0, 94.0]),
            Verdict::Ok
        );
        assert_eq!(
            judge(&g, &[100.0, 101.0, 99.0], &[85.0, 86.0, 84.0]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&g, &[100.0, 101.0, 99.0], &[150.0, 151.0, 149.0]),
            Verdict::Ok
        );
        let t = def("op_us"); // lower is better
        assert_eq!(
            judge(&t, &[10.0, 10.1, 9.9], &[12.0, 12.1, 11.9]),
            Verdict::Regressed
        );
        assert_eq!(judge(&t, &[10.0, 10.1, 9.9], &[8.0, 8.1, 7.9]), Verdict::Ok);
        // Spread wider than the bound and the sets overlap: unresolved.
        assert_eq!(
            judge(&t, &[10.0, 14.0, 7.0], &[11.0, 15.0, 8.0]),
            Verdict::Unresolved
        );
        // Wide spread, but every B run beats every A run: ok.
        assert_eq!(judge(&t, &[10.0, 14.0, 9.0], &[5.0, 8.0, 3.0]), Verdict::Ok);
        // Wide spread and every B run is worse than every A run.
        assert_eq!(
            judge(&t, &[10.0, 14.0, 9.0], &[20.0, 28.0, 18.0]),
            Verdict::Regressed
        );
    }

    #[test]
    fn table_has_a_row_per_metric_and_fails_on_regression_or_failures() {
        let set = |gflops: f64, failed: u64| -> Vec<RunFile> {
            (0..3)
                .map(|i| {
                    let mut w = sample_result("tiny_warm", gflops + i as f64 * 0.001);
                    w.failed = failed;
                    RunFile {
                        header: sample_header(),
                        disturbed: false,
                        workloads: vec![w],
                    }
                })
                .collect()
        };
        let (table, pass) = compare(&set(1.5, 0), &set(1.49, 0));
        assert!(pass, "{table}");
        assert!(
            table.contains("tiny_warm")
                && table.contains("gflops_nn")
                && table.contains("fail_share")
        );
        assert!(
            !table.contains("conv_vgg"),
            "workloads absent from the sets have no rows"
        );
        // Worse by two thirds: past any bound the contract allows.
        let (table, pass) = compare(&set(1.5, 0), &set(0.5, 0));
        assert!(!pass && table.contains("regressed"), "{table}");
        let (table, pass) = compare(&set(1.5, 0), &set(1.5, 1));
        assert!(!pass, "a higher fail share fails the comparison: {table}");
    }
}
