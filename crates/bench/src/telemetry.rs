//! `--telemetry` support for the figure binaries: capture dispatch
//! decision records during a run and write a JSON snapshot next to the
//! figure's CSV.
//!
//! The switches are runtime calls into `shalom-trace`, so every binary
//! calls both entry points unconditionally; without `--telemetry` both
//! are no-ops.

use crate::BenchArgs;
use shalom_trace::Sink;

/// Starts capture if `--telemetry` was passed. Call once, after arg
/// parsing and before the first measured GEMM. With the `perf-hooks`
/// feature this also opens the hardware counters (silently skipped if
/// the kernel refuses, e.g. under a restrictive `perf_event_paranoid`).
pub fn begin(args: &BenchArgs) {
    if args.telemetry {
        shalom_trace::reset();
        shalom_trace::enable(Sink::Records);
        shalom_trace::perf::start();
    }
}

/// Stops capture and writes `<out>/<figure>.telemetry.json` plus a
/// console summary. Call once, after the last measured GEMM.
pub fn finish(args: &BenchArgs, figure: &str) {
    if !args.telemetry {
        return;
    }
    shalom_trace::disable(Sink::Records);
    let snap = shalom_trace::record_snapshot();
    println!("{}", snap.summary());
    let path = std::path::Path::new(&args.out).join(format!("{figure}.telemetry.json"));
    match std::fs::create_dir_all(&args.out).and_then(|()| std::fs::write(&path, snap.to_json())) {
        Ok(()) => println!("telemetry json: {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_op_without_flag() {
        // Must never panic or create files when --telemetry is absent.
        let args = BenchArgs::parse_from(&[]);
        begin(&args);
        finish(&args, "figX");
    }

    #[test]
    fn snapshot_written_with_flag() {
        let dir = std::env::temp_dir().join("shalom_bench_tel_test");
        let args = BenchArgs::parse_from(&["--telemetry", "--out", dir.to_str().unwrap()]);
        begin(&args);
        let a = shalom_matrix::Matrix::<f32>::random(16, 16, 1);
        let b = shalom_matrix::Matrix::<f32>::random(16, 16, 2);
        let mut c = shalom_matrix::Matrix::<f32>::zeros(16, 16);
        shalom_core::sgemm(
            shalom_matrix::Op::NoTrans,
            shalom_matrix::Op::NoTrans,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            c.as_mut(),
        );
        finish(&args, "fig_test");
        let body = std::fs::read_to_string(dir.join("fig_test.telemetry.json")).unwrap();
        assert!(body.contains("\"totals\""));
        assert!(body.contains("\"recent\""));
    }
}
