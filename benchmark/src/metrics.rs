//! The one list of workload and metric names. `BENCHMARK.json` is
//! generated from it (`shalom-benchmark manifest`), the run prints from
//! it, `compare` takes its bounds from it, and a self-test holds the
//! committed `BENCHMARK.json` to it.

use shalom_trace::json::escape;

/// `--seconds` when not given, and `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

/// `(name, why)`: which layer does the work on each workload.
pub const WORKLOADS: [(&str, &str); 8] = [
    ("tiny_warm", "1 thread, fixed warm operands, CP2K f64 and f32 squares up to 32: plan lookup, validation and driver set-up are over half of each call, so plans/api work shows and kernel work barely does"),
    ("small_cold", "same calls, but every call takes A/B/C from a 64 MiB ring in shuffled order: compulsory misses and the pack/no-pack choice dominate, so a warm win bought with memory traffic shows as a loss"),
    ("irregular_1t", "1 thread, warm, tall-and-skinny f32 in NN/NT/TN plus squares 64-128: time is in kernels and the driver block walk (ragged tiles, NT/TN on the 128-bit path); plan lookup is under 0.1 %"),
    ("irregular_mt", "T threads through the pool, VGG-shaped and 32x4096 GEMMs, each also at 1 thread: the section-6 partition and fork-join cost, which nothing single-threaded exercises"),
    ("batch_cp2k", "gemm_batch of 4096 distinct f64 CP2K items at T threads and at 1: per-item dispatch amortisation in core::batch and the pool's dynamic queue"),
    ("conv_vgg", "1 thread, Conv2d::forward on five VGG-shaped layers: the only workload with nn, im2col and per-call allocation on the path"),
    ("service_mix", "open loop at 5k rps then a closed window of 256 over five shape buckets: occupancy stays near 1, so per-request queue, scheduler and wake cost dominate and coalescing is bypassed"),
    ("service_uniform", "the same two phases on one 8x8x8 bucket at 50k rps: coalescing and gemm_batch do the work and the wake is amortised"),
];

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

impl MetricDef {
    pub fn higher_is_better(&self) -> bool {
        self.better == "higher"
    }
}

/// End-to-end metrics, reported by every workload (see README for what
/// each means on each workload). A bound is three times the widest spread
/// (IQR / median over ten seeds) measured for the metric on any workload
/// at the seed commit, rounded up to the next 5 %, cap 25 %; the measured
/// spreads are in README. `sat_gflops` is its own metric because
/// closed-loop saturation of the service is by far the noisiest number
/// here (13 %, which the cap does not cover three times), and a bound is
/// per metric: folded into `gflops_nn` it would have set that bound for
/// every workload.
pub fn end_to_end() -> Vec<MetricDef> {
    [
        ("setup_s", "s", "lower", 0.25),
        ("gflops_nn", "GFLOPS", "higher", 0.20),
        ("gflops_tr", "GFLOPS", "higher", 0.20),
        ("op_us", "us", "lower", 0.20),
        ("sat_gflops", "GFLOPS", "higher", 0.25),
        ("rss_mb", "MiB", "lower", 0.20),
    ]
    .into_iter()
    .map(|(name, unit, better, bound)| MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
    })
    .collect()
}

/// Anchor cells of the `api` layer: three dispatch-bound ones measured
/// on `tiny_warm`, then the seven (`A_BIG`) measured on `irregular_1t`.
pub const A_TINY: [&str; 3] = ["5x5x5_f64_nn", "8x8x8_f32_nn", "8x8x8_f32_nt"];
pub const A_BIG: [&str; 7] = [
    "64x64x64_f32_nn",
    "64x64x64_f32_nt",
    "128x128x128_f32_nn",
    "32x1024x256_f32_nn",
    "1024x32x256_f32_nn",
    "32x1024x256_f32_nt",
    "32x1024x256_f32_tn",
];
pub const TILE_WASTE: [&str; 3] = [
    "32x1024x256_f32_nn",
    "1024x32x256_f32_nn",
    "128x128x128_f32_nn",
];
pub const COLD_OVER_WARM: [usize; 3] = [8, 48, 120];
pub const CP2K: [&str; 5] = ["5x5x5", "13x5x13", "13x13x13", "23x23x23", "26x26x13"];
pub const MT_CELLS: [&str; 9] = [
    "vgg1",
    "vgg2",
    "vgg3",
    "vgg4",
    "vgg5",
    "32x4096x512_nn",
    "32x4096x512_nt",
    "4096x32x512_nn",
    "4096x32x512_nt",
];
pub const CONV_LAYERS: [&str; 5] = ["conv1", "conv2", "conv3", "conv4", "conv5"];

/// Per-layer metrics, printed by `--trace 1` runs. A workload that does
/// not touch a layer reports that layer's metrics as 0.
pub fn per_layer() -> Vec<MetricDef> {
    let mut v: Vec<MetricDef> = Vec::new();
    let mut add = |name: String, unit: &'static str, better: &'static str| {
        v.push(MetricDef {
            name,
            unit,
            better,
            bound: None,
        })
    };
    // plans
    add("plans.lookup_warm_ns".into(), "ns", "lower");
    add("plans.lookup_miss_ns".into(), "ns", "lower");
    add("plans.hits".into(), "count", "higher");
    add("plans.misses".into(), "count", "lower");
    add("plans.hit_ratio".into(), "ratio", "higher");
    // api
    add("api.floor_ns_f32".into(), "ns", "lower");
    add("api.floor_ns_f64".into(), "ns", "lower");
    for a in A_TINY.iter().chain(&A_BIG) {
        add(format!("api.call_ns.{a}"), "ns", "lower");
    }
    for a in A_TINY {
        add(format!("api.overhead_share.{a}"), "ratio", "lower");
    }
    // driver
    for a in A_BIG {
        add(format!("driver.pct_of_peak.{a}"), "%", "higher");
    }
    for a in TILE_WASTE {
        add(format!("driver.tile_waste.{a}"), "ratio", "lower");
    }
    add("driver.twin_ratio".into(), "ratio", "higher");
    add("driver.nt_over_nn.64x64x64".into(), "ratio", "higher");
    add("driver.nt_over_nn.32x1024x256".into(), "ratio", "higher");
    for s in COLD_OVER_WARM {
        add(format!("driver.cold_over_warm.{s}"), "ratio", "lower");
    }
    // kernels
    for name in [
        "base_peak_gflops_f32",
        "base_peak_gflops_f64",
        "family_peak_gflops_f32",
        "family_peak_gflops_f64",
    ] {
        add(format!("kernels.{name}"), "GFLOPS", "higher");
    }
    for name in ["pack_b_gbps", "pack_a_gbps", "pack_transpose_gbps"] {
        add(format!("kernels.{name}"), "GB/s", "higher");
    }
    add("kernels.nt_pack_gflops".into(), "GFLOPS", "higher");
    add("kernels.edge_gflops".into(), "GFLOPS", "higher");
    // pool / parallel
    add("pool.fork_join_us".into(), "us", "lower");
    add("pool.prewarm_ms".into(), "ms", "lower");
    add("parallel.partition_ns".into(), "ns", "lower");
    for c in MT_CELLS {
        add(format!("parallel.par_eff.{c}"), "ratio", "higher");
    }
    // batch
    for s in CP2K {
        add(format!("batch.item_ns.{s}"), "ns", "lower");
    }
    for s in CP2K {
        add(format!("batch.amortization.{s}"), "ratio", "higher");
    }
    for s in CP2K {
        add(format!("batch.par_eff.{s}"), "ratio", "higher");
    }
    // nn
    for l in CONV_LAYERS {
        add(format!("nn.forward_ms.{l}"), "ms", "lower");
    }
    for l in CONV_LAYERS {
        add(format!("nn.im2col_share.{l}"), "ratio", "lower");
    }
    add("nn.gemm_share".into(), "ratio", "higher");
    add("nn.residual_share".into(), "ratio", "lower");
    // service
    for (name, better) in [
        ("submitted", "higher"),
        ("completed", "higher"),
        ("rejected", "lower"),
        ("expired", "lower"),
        ("batches", "lower"),
        ("flush_full", "higher"),
        ("flush_linger", "lower"),
        ("flush_deadline", "lower"),
        ("queue_depth_peak", "lower"),
    ] {
        add(format!("service.{name}"), "count", better);
    }
    add("service.mean_occupancy".into(), "ratio", "higher");
    add("service.submit_ns_p50".into(), "ns", "lower");
    add("service.inflight_us_p50".into(), "us", "lower");
    add("service.direct_ratio".into(), "ratio", "lower");
    for name in ["gen_lag_us_p99", "p99_us", "p99w_us", "max_us"] {
        add(format!("service.{name}"), "us", "lower");
    }
    for r in 1..=3 {
        add(format!("service.p50_us.r{r}"), "us", "lower");
    }
    for r in 1..=3 {
        add(format!("service.p99w_us.r{r}"), "us", "lower");
    }
    add("service.max_ok_rps".into(), "req/s", "higher");
    // baselines
    add(
        "baselines.goto_ratio.64x64x64_f32_nn".into(),
        "ratio",
        "higher",
    );
    add(
        "baselines.goto_ratio.32x1024x256_f32_nt".into(),
        "ratio",
        "higher",
    );
    add(
        "baselines.libxsmm_ratio.5x5x5_f64_nn".into(),
        "ratio",
        "higher",
    );
    add(
        "baselines.blasfeo_ratio.8x8x8_f32_nn".into(),
        "ratio",
        "higher",
    );
    add(
        "baselines.naive_ratio.64x64x64_f32_nn".into(),
        "ratio",
        "higher",
    );
    // harness
    add("harness.trace_overhead".into(), "ratio", "lower");
    add("harness.timer_ns".into(), "ns", "lower");
    add("harness.host_drift".into(), "ratio", "lower");
    add("harness.samples_min".into(), "count", "higher");
    add("harness.verify_s".into(), "s", "lower");
    v
}

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let metric = |m: &MetricDef| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{}}}",
            escape(&m.name),
            m.unit,
            m.better,
            bound
        )
    };
    let list = |ms: &[MetricDef]| ms.iter().map(metric).collect::<Vec<_>>().join(",\n");
    let workloads = WORKLOADS
        .iter()
        .map(|(n, why)| format!("    {{\"name\": \"{n}\", \"why\": \"{}\"}}", escape(why)))
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n  \
         \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        list(&end_to_end()),
        list(&per_layer())
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use shalom_trace::json::{parse, JsonValue};

    fn name_ok(s: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_meet_the_contract() {
        let (e2e, layers) = (end_to_end(), per_layer());
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&e2e.len()));
        assert_eq!(layers.len(), 118);
        assert!(layers.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for (w, why) in WORKLOADS {
            assert!(name_ok(w, 64), "{w}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{w}: why is {}",
                why.len()
            );
            assert!(seen.insert(w.to_string()), "duplicate {w}");
        }
        for m in e2e.iter().chain(&layers) {
            assert!(name_ok(&m.name, 64), "{}", m.name);
            assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
            assert!(m.better == "lower" || m.better == "higher");
        }
        for m in &e2e {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = e2e.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(e2e.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest_json().len() <= 64 * 1024);
    }

    /// The committed `BENCHMARK.json` is exactly what the binary prints.
    #[test]
    fn committed_manifest_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read ../BENCHMARK.json");
        assert_eq!(
            text,
            manifest_json(),
            "regenerate with `shalom-benchmark manifest`"
        );
        let doc = parse(&text).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(JsonValue::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(JsonValue::as_str)
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(|(n, _)| n.to_string()));
        let own = |ms: Vec<MetricDef>| ms.into_iter().map(|m| m.name).collect::<Vec<_>>();
        assert_eq!(names("end_to_end"), own(end_to_end()));
        assert_eq!(names("per_layer"), own(per_layer()));
    }
}
