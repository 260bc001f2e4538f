//! What the numbers were measured on: the refusal to run in a setting
//! that changes the measured path, and the provenance header every
//! output starts with.

use shalom_core::CacheParams;
use shalom_trace::json::escape;
use std::process::Command;

/// Bytes of the `small_cold` operand ring: past every private cache.
pub fn ring_bytes(cache: &CacheParams) -> usize {
    (64 << 20).max(4 * cache.l2)
}

/// Threads the multi-threaded cells use: every core, at most four, so
/// that harness plus workers never exceed the cores present.
pub fn bench_threads(nproc: usize) -> usize {
    nproc.clamp(1, 4)
}

/// Why this process must not measure, if it must not. `SHALOM_NO_POOL`,
/// `SHALOM_NO_PLAN_CACHE` and `SHALOM_PROFILE` silently change the path
/// a call takes, so any `SHALOM_*` variable is refused; a debug build
/// measures nothing callers run.
pub fn refusal(env: impl Iterator<Item = String>, debug_build: bool) -> Option<String> {
    if debug_build {
        return Some("this is a debug build; build with --release".to_string());
    }
    let set: Vec<String> = env.filter(|k| k.starts_with("SHALOM_")).collect();
    (!set.is_empty()).then(|| {
        format!(
            "{} is set and changes the measured path; unset every SHALOM_* variable",
            set.join(", ")
        )
    })
}

#[derive(Debug, Clone, PartialEq)]
pub struct Header {
    pub isa: String,
    pub nproc: usize,
    pub threads: usize,
    pub l1: usize,
    pub l2: usize,
    pub l3: usize,
    pub ring_bytes: usize,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub git_commit: String,
    pub rustc: String,
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

impl Header {
    pub fn collect(seed: u64, seconds: u64, trace: bool) -> Self {
        let cache = CacheParams::detect();
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Header {
            isa: shalom_core::host_isa().label().to_string(),
            nproc,
            threads: bench_threads(nproc),
            l1: cache.l1,
            l2: cache.l2,
            l3: cache.l3,
            ring_bytes: ring_bytes(&cache),
            seed,
            seconds,
            trace,
            // A driver checkout is not a git repository: "unknown" there.
            git_commit: first_line_of("git", &["rev-parse", "HEAD"]),
            rustc: first_line_of("rustc", &["-V"]),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"isa\":\"{}\",\"nproc\":{},\"threads\":{},\"l1\":{},\"l2\":{},\"l3\":{},\
             \"ring_bytes\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
             \"git_commit\":\"{}\",\"rustc\":\"{}\"}}",
            escape(&self.isa),
            self.nproc,
            self.threads,
            self.l1,
            self.l2,
            self.l3,
            self.ring_bytes,
            self.seed,
            self.seconds,
            self.trace,
            escape(&self.git_commit),
            escape(&self.rustc)
        )
    }

    pub fn print(&self) {
        println!(
            "# shalom-benchmark  isa={} nproc={} T={} L1={}K L2={}K L3={}K ring={}MiB (4xL2={}MiB)",
            self.isa,
            self.nproc,
            self.threads,
            self.l1 >> 10,
            self.l2 >> 10,
            self.l3 >> 10,
            self.ring_bytes >> 20,
            (4 * self.l2) >> 20
        );
        println!(
            "# seed={} seconds={} trace={} commit={} {}",
            self.seed, self.seconds, self.trace as u8, self.git_commit, self.rustc
        );
        println!(
            "# baselines run the 128-bit substrate (crates/baselines instantiates T::Vec only)"
        );
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB; 0 where
/// `/proc/self/status` is not readable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refuses_shalom_variables_and_debug_builds() {
        let env = |ks: &[&str]| {
            ks.iter()
                .map(|k| k.to_string())
                .collect::<Vec<_>>()
                .into_iter()
        };
        assert_eq!(refusal(env(&["PATH", "HOME"]), false), None);
        let why = refusal(env(&["PATH", "SHALOM_NO_POOL"]), false).unwrap();
        assert!(why.contains("SHALOM_NO_POOL"), "{why}");
        assert!(refusal(env(&[]), true).unwrap().contains("debug"));
    }

    #[test]
    fn ring_is_past_l2_and_threads_are_capped() {
        let c = |l2| CacheParams {
            l1: 32 << 10,
            l2,
            l3: 0,
        };
        assert_eq!(ring_bytes(&c(2 << 20)), 64 << 20);
        assert_eq!(ring_bytes(&c(32 << 20)), 128 << 20);
        assert_eq!(
            (bench_threads(1), bench_threads(2), bench_threads(64)),
            (1, 2, 4)
        );
    }

    /// A nested workspace does not inherit the root's `[profile.release]`;
    /// the benchmark must link the library as callers build it.
    #[test]
    fn profile_matches_root() {
        let section = |path: &str| -> Vec<String> {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
            let mut lines: Vec<String> = text
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(|l| {
                    l.split('#')
                        .next()
                        .unwrap_or("")
                        .split_whitespace()
                        .collect::<String>()
                })
                .filter(|l| !l.is_empty())
                .collect();
            lines.sort();
            lines
        };
        let own = section(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
        let root = section(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"));
        assert!(own.iter().any(|l| l == "codegen-units=1"), "{own:?}");
        assert_eq!(
            own, root,
            "benchmark/Cargo.toml [profile.release] drifted from the root's"
        );
    }

    #[test]
    fn peak_rss_is_readable_here() {
        assert!(peak_rss_mib() > 0.0);
    }
}
