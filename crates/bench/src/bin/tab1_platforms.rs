//! Table 1: the hardware evaluation platforms.
//!
//! Prints the paper's Table 1 from the machine registry (including the
//! FP32 peaks *derived* from cores x freq x 2 x lanes x FMA pipes — a
//! consistency check against the published numbers) plus the detected
//! host this reproduction actually runs on.

use shalom_bench::{BenchArgs, Report};
use shalom_core::CacheParams;
use shalom_perfmodel::{MachineModel, Precision};

fn fmt_cache(bytes: usize) -> String {
    if bytes == 0 {
        "None".to_string()
    } else if bytes >= 1024 * 1024 {
        format!("{}MB", bytes / (1024 * 1024))
    } else {
        format!("{}KB", bytes / 1024)
    }
}

fn main() {
    let args = BenchArgs::parse();
    let mut r = Report::new(
        "tab1_platforms",
        "Hardware evaluation platforms (paper Table 1)",
    );
    r.columns(&[
        "Platform",
        "PeakFP32(GFLOPS)",
        "Cores",
        "Freq(GHz)",
        "L1",
        "L2",
        "L3",
        "FMApipes",
    ]);
    for m in MachineModel::paper_platforms() {
        r.row(&[
            m.name.to_string(),
            format!("{:.1}", m.peak_gflops(Precision::F32, m.cores)),
            m.cores.to_string(),
            format!("{:.1}", m.freq_ghz),
            fmt_cache(m.l1),
            fmt_cache(m.l2),
            fmt_cache(m.l3),
            m.fma_pipes.to_string(),
        ]);
    }
    let host = CacheParams::detect();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let peak = shalom_bench::host_peak_gflops::<f32>();
    r.row(&[
        "host (this run)".to_string(),
        format!("{peak:.1}*"),
        threads.to_string(),
        "?".to_string(),
        fmt_cache(host.l1),
        fmt_cache(host.l2),
        fmt_cache(host.l3),
        "?".to_string(),
    ]);
    r.note("* host peak is the best measured 128-bit micro-kernel tile (no frequency metadata on this host)");
    r.emit(&args.out);
}
