//! The repo benchmark. Links the default-feature release library and
//! measures every layer from outside, by timing calls into public
//! functions only. See README.md for the workloads, the metrics and the
//! method.
//!
//! ```text
//! shalom-benchmark run [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--out FILE]
//! shalom-benchmark compare A B      # A, B: a run file or a directory of them
//! shalom-benchmark manifest         # the text of BENCHMARK.json
//! ```

mod cell;
mod compare;
mod gemm;
mod host;
mod kernel_probes;
mod metrics;
mod report;
mod rng;
mod service;
mod span;
mod stats;
mod workloads;

use report::RunFile;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// What every workload is run with.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    pub trace: bool,
    /// Threads of the multi-threaded cells.
    pub threads: usize,
    pub cache: shalom_core::CacheParams,
    /// Where trace files go.
    pub out_dir: PathBuf,
}

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS,
        trace: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => r.workload = Some(value("--workload")?),
            "--seed" => {
                r.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                r.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&r.seconds) {
                    return Err("--seconds must be between 1 and 60".to_string());
                }
            }
            "--out" => r.out = Some(PathBuf::from(value("--out")?)),
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                r.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &r.workload {
        if !metrics::WORKLOADS.iter().any(|(n, _)| n == w) {
            let names: Vec<&str> = metrics::WORKLOADS.iter().map(|(n, _)| *n).collect();
            return Err(format!("unknown workload {w}; one of {}", names.join(", ")));
        }
    }
    Ok(r)
}

fn run(args: &[String]) -> ExitCode {
    let args = match parse_run_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("shalom-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(why) = host::refusal(std::env::vars().map(|(k, _)| k), cfg!(debug_assertions)) {
        eprintln!("shalom-benchmark: refusing to measure: {why}");
        return ExitCode::from(2);
    }
    let header = host::Header::collect(args.seed, args.seconds, args.trace);
    header.print();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        threads: header.threads,
        cache: shalom_core::CacheParams::detect(),
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => metrics::WORKLOADS.iter().map(|(n, _)| *n).collect(),
    };
    let mut results = Vec::new();
    for name in names {
        let r = workloads::run_by_name(name, &ctx).expect("names come from the registry");
        r.print();
        results.push(r);
    }
    let run = RunFile {
        header,
        disturbed: results.iter().any(|r| r.disturbed),
        workloads: results,
    };
    println!("\ndisturbed: {}", run.disturbed);
    if let Some(path) = &args.out {
        let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
        let written = parent
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, run.to_json()));
        if let Err(e) = written {
            eprintln!("shalom-benchmark: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", path.display());
    }
    // The driver reads the last line of a single-workload run.
    for r in &run.workloads {
        println!("{}", r.contract_line(args.trace));
    }
    let sound = run
        .workloads
        .iter()
        .all(|r| r.correct && !r.too_few_samples);
    if sound {
        ExitCode::SUCCESS
    } else {
        eprintln!("shalom-benchmark: an output check failed or a cell has too few samples");
        ExitCode::from(1)
    }
}

fn compare_sets(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("usage: shalom-benchmark compare A B");
        return ExitCode::from(2);
    };
    match (
        compare::load_set(Path::new(a)),
        compare::load_set(Path::new(b)),
    ) {
        (Ok(a), Ok(b)) => {
            let (table, pass) = compare::compare(&a, &b);
            print!("{table}");
            println!("{}", if pass { "PASS" } else { "FAIL" });
            if pass {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("shalom-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare_sets(rest),
        Some((cmd, [])) if cmd == "manifest" => {
            print!("{}", metrics::manifest_json());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage: shalom-benchmark run [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--out FILE]\n\
                 \x20      shalom-benchmark compare A B\n\
                 \x20      shalom-benchmark manifest"
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn run_arguments_as_the_driver_and_a_person_pass_them() {
        let a =
            parse_run_args(&args("--workload conv_vgg --seed 7 --seconds 10 --trace 0")).unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("conv_vgg"), 7, 10, false)
        );
        assert!(
            parse_run_args(&args("--workload conv_vgg --trace 1"))
                .unwrap()
                .trace
        );
        let a = parse_run_args(&args("--trace --out x.json")).unwrap();
        assert!(a.trace && a.out == Some(PathBuf::from("x.json")) && a.workload.is_none());
        assert_eq!(parse_run_args(&[]).unwrap().seconds, metrics::RUN_SECONDS);
        assert!(parse_run_args(&args("--workload nosuch")).is_err());
        assert!(parse_run_args(&args("--seconds 0")).is_err());
        assert!(parse_run_args(&args("--bogus")).is_err());
        assert!(parse_run_args(&args("--seed")).is_err());
    }
}
