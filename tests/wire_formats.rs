//! The wire formats the dispatch decisions travel in, pinned byte for
//! byte: the v2 profile file (read back by later processes), a decision
//! record's JSON and the record snapshot around it (read by CI's dispatch
//! check and by the `--telemetry` consumers), and the Chrome trace export
//! with its span plan-source codes (read by `chrome://tracing`/Perfetto).
//! Every literal here is a format something outside the process reads: a
//! change to one is a format change, which for profiles means a new
//! `PROFILE_VERSION`.

use libshalom::capture::{
    chrome_trace_json, shape_key, CounterTotals, DecisionRecord, Histogram, LaneSnapshot, PathTag,
    Phase, SpanRecord, TelemetrySnapshot, TraceSnapshot, HIST_BUCKETS,
};
use libshalom::core::plan::profile;
use libshalom::core::{
    host_isa, load_profile, plan_cache_clear, save_profile, BPlan, EdgeSchedule, Isa, Op, PlanKey,
    PlanSource, ResolvedPlan, ShapeClass, PROFILE_VERSION,
};

/// A v2 profile saved under `avx512`: every class, regime and schedule
/// code, every op pair, four ISA codes, and the extreme blocking values.
const PROFILE: &str = concat!(
    "{\"version\":2,\"isa\":\"avx512\",\"entries\":[\n",
    "{\"elem_bits\":32,\"isa\":1,\"op_a\":\"N\",\"op_b\":\"N\",\"m\":8,\"n\":8,\"k\":8,",
    "\"threads\":1,\"config_fp\":1234567890123,\"class\":0,\"b_plan\":0,\"edge\":0,",
    "\"kc\":256,\"mc\":84,\"nc\":3072,\"tm\":1,\"tn\":1,\"workspace_bytes\":8192},\n",
    "{\"elem_bits\":64,\"isa\":4,\"op_a\":\"T\",\"op_b\":\"N\",\"m\":64,\"n\":2048,\"k\":64,",
    "\"threads\":4,\"config_fp\":18446744073709551615,\"class\":1,\"b_plan\":2,\"edge\":1,",
    "\"kc\":128,\"mc\":63,\"nc\":4096,\"tm\":1,\"tn\":4,\"workspace_bytes\":40960},\n",
    "{\"elem_bits\":32,\"isa\":3,\"op_a\":\"N\",\"op_b\":\"T\",\"m\":300,\"n\":300,\"k\":300,",
    "\"threads\":2,\"config_fp\":0,\"class\":2,\"b_plan\":3,\"edge\":0,",
    "\"kc\":512,\"mc\":105,\"nc\":2048,\"tm\":2,\"tn\":1,\"workspace_bytes\":12345},\n",
    "{\"elem_bits\":64,\"isa\":0,\"op_a\":\"T\",\"op_b\":\"T\",\"m\":5,\"n\":5,\"k\":5,",
    "\"threads\":1,\"config_fp\":42,\"class\":0,\"b_plan\":1,\"edge\":1,",
    "\"kc\":8192,\"mc\":65536,\"nc\":1048576,\"tm\":1,\"tn\":1,\"workspace_bytes\":0}",
    "\n]}\n"
);

/// [`PROFILE`]'s entries, in order.
fn profile_entries() -> Vec<(PlanKey, ResolvedPlan)> {
    use EdgeSchedule::{Batched, Pipelined};
    use Op::{NoTrans as N, Trans as T};
    let key = |elem_bits, isa, (op_a, op_b), (m, n, k), threads, config_fp| PlanKey {
        elem_bits,
        isa,
        op_a,
        op_b,
        m,
        n,
        k,
        threads,
        config_fp,
    };
    let plan = |class, b_plan, edge, (kc, mc, nc), (tm, tn), workspace_bytes| ResolvedPlan {
        class,
        b_plan,
        edge,
        kc,
        mc,
        nc,
        tm,
        tn,
        workspace_bytes,
    };
    vec![
        (
            key(32, Isa::Sse128, (N, N), (8, 8, 8), 1, 1234567890123),
            plan(
                ShapeClass::Small,
                BPlan::Direct,
                Pipelined,
                (256, 84, 3072),
                (1, 1),
                8192,
            ),
        ),
        (
            key(64, Isa::Avx512W512, (T, N), (64, 2048, 64), 4, u64::MAX),
            plan(
                ShapeClass::Irregular,
                BPlan::FusedLookahead,
                Batched,
                (128, 63, 4096),
                (1, 4),
                40960,
            ),
        ),
        (
            key(32, Isa::Avx2W256, (N, T), (300, 300, 300), 2, 0),
            plan(
                ShapeClass::Regular,
                BPlan::Sequential,
                Pipelined,
                (512, 105, 2048),
                (2, 1),
                12345,
            ),
        ),
        (
            key(64, Isa::Scalar, (T, T), (5, 5, 5), 1, 42),
            plan(
                ShapeClass::Small,
                BPlan::Fused,
                Batched,
                (1 << 13, 1 << 16, 1 << 20),
                (1, 1),
                0,
            ),
        ),
    ]
}

#[test]
fn a_v2_profile_decodes_and_reencodes_byte_for_byte() {
    assert_eq!(PROFILE_VERSION, 2);
    assert_eq!(
        profile::from_json(PROFILE, "avx512").expect("the v2 document loads"),
        profile_entries()
    );
    assert_eq!(profile::to_json(&profile_entries(), "avx512"), PROFILE);
}

#[test]
fn load_profile_then_save_profile_reproduces_the_file() {
    // Through the override table, on this host: the header must name the
    // ISA this host dispatches, and one entry keeps the table's iteration
    // order out of the comparison. No call in this binary matches it.
    let last_entry = PROFILE.lines().nth(4).expect("the last entry line");
    let doc = format!(
        "{{\"version\":2,\"isa\":\"{}\",\"entries\":[\n{last_entry}\n]}}\n",
        host_isa().label()
    );
    let dir = std::env::temp_dir();
    let (input, output) = (
        dir.join(format!("shalom_wire_in_{}.json", std::process::id())),
        dir.join(format!("shalom_wire_out_{}.json", std::process::id())),
    );
    std::fs::write(&input, &doc).unwrap();
    plan_cache_clear();
    let loaded = load_profile(&input);
    let saved = save_profile(&output);
    plan_cache_clear();
    let written = std::fs::read_to_string(&output);
    let _ = (std::fs::remove_file(&input), std::fs::remove_file(&output));
    assert_eq!(loaded, Ok(1));
    assert_eq!(saved, Ok(1));
    assert_eq!(written.unwrap(), doc);
}

const RECORD: &str = concat!(
    "{\"seq\":7,\"m\":64,\"n\":50176,\"k\":64,\"op\":\"NT\",\"elem\":\"f32\",",
    "\"class\":\"irregular\",\"plan\":\"fused-lookahead\",\"edge\":\"batched\",",
    "\"plan_source\":\"profile\",\"plan_ns\":120,\"path\":\"parallel\",\"mr\":7,\"nr\":12,",
    "\"tm\":1,\"tn\":4,\"threads\":4,\"workspace_bytes\":4096,\"pack_ns\":10,",
    "\"total_ns\":1000,\"gflops\":411041.792}"
);

fn record() -> DecisionRecord {
    DecisionRecord {
        seq: 7,
        m: 64,
        n: 50176,
        k: 64,
        op_a: b'N',
        op_b: b'T',
        elem_bits: 32,
        class: ShapeClass::Irregular,
        plan: BPlan::FusedLookahead,
        edge: EdgeSchedule::Batched,
        plan_source: PlanSource::Profile,
        plan_ns: 120,
        path: PathTag::Parallel,
        mr: 7,
        nr: 12,
        tm: 1,
        tn: 4,
        threads: 4,
        workspace_bytes: 4096,
        pack_ns: 10,
        total_ns: 1000,
    }
}

#[test]
fn decision_record_and_snapshot_json_are_unchanged() {
    assert_eq!(record().to_json(), RECORD);
    let empty = Histogram {
        buckets: [0; HIST_BUCKETS],
    };
    let mut irregular = empty;
    irregular.buckets[10] = 1;
    let snap = TelemetrySnapshot {
        totals: CounterTotals {
            calls: 3,
            by_class: [1, 1, 1],
            by_plan: [1, 0, 1, 1],
            by_path: [1, 1, 0, 1],
            pack_ns: 10,
            total_ns: 3000,
            ..CounterTotals::default()
        },
        histograms: [empty, irregular, empty],
        recent: vec![record()],
        dropped_records: 0,
        perf: None,
    };
    let want = [
        "{\"totals\":{\"calls\":3,",
        "\"by_class\":{\"small\":1,\"irregular\":1,\"regular\":1},",
        "\"by_plan\":{\"no-pack\":1,\"fused-pack\":0,\"fused-lookahead\":1,\"sequential-pack\":1},",
        "\"by_path\":{\"serial\":1,\"parallel\":1,\"parallel-worker\":0,\"batch\":1},",
        "\"pack_ns\":10,\"total_ns\":3000,\"fork_joins\":0,\"fork_join_overhead_ns\":0,",
        "\"batch_calls\":0,\"batch_items\":0,\"workspace_peak_bytes\":0,",
        "\"dispatches\":0,\"dispatch_ns\":0,\"trace_spans_recorded\":0,\"trace_spans_dropped\":0},",
        "\"histograms\":{\"small\":{},\"irregular\":{\"1024\":1},\"regular\":{}},",
        "\"perf\":null,\"dropped_records\":0,\"recent\":[",
        RECORD,
        "]}",
    ]
    .concat();
    assert_eq!(snap.to_json(), want);
}

#[test]
fn the_chrome_export_keeps_its_span_source_codes_and_labels() {
    // A span's one-byte `src` is 0 (none), 1 (computed) or 2 (profile).
    assert_eq!(PlanSource::Computed.code(), 1);
    assert_eq!(PlanSource::Profile.code(), 2);
    let span = |phase: Phase, t0_ns, t1_ns, aux, src| SpanRecord {
        t0_ns,
        t1_ns,
        aux,
        phase: phase as u8,
        src,
        depth: 0,
    };
    let shape = shape_key(64, 64, 64);
    let snap = TraceSnapshot {
        lanes: vec![LaneSnapshot {
            lane: 0,
            spans: vec![
                span(Phase::PlanLookup, 1000, 1100, shape, 1),
                span(Phase::Compute, 1500, 2000, 0, 0),
                span(Phase::Serial, 1200, 2500, shape, 2),
            ],
            dropped: 0,
        }],
        dropped_unassigned: 0,
    };
    let want = [
        "{\"traceEvents\":[",
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"shalom\"}},",
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"lane-0\"}},",
        "{\"name\":\"plan_lookup\",\"cat\":\"shalom\",\"ph\":\"X\",\"ts\":1.000,\"dur\":0.100,",
        "\"pid\":1,\"tid\":0,\"args\":{\"depth\":0,\"m\":64,\"n\":64,\"k\":64,",
        "\"plan_source\":\"computed\"}},",
        "{\"name\":\"serial\",\"cat\":\"shalom\",\"ph\":\"X\",\"ts\":1.200,\"dur\":1.300,",
        "\"pid\":1,\"tid\":0,\"args\":{\"depth\":0,\"m\":64,\"n\":64,\"k\":64,",
        "\"plan_source\":\"profile\"}},",
        "{\"name\":\"compute\",\"cat\":\"shalom\",\"ph\":\"X\",\"ts\":1.500,\"dur\":0.500,",
        "\"pid\":1,\"tid\":0,\"args\":{\"depth\":0}}",
        "],\"displayTimeUnit\":\"ns\"}",
    ]
    .concat();
    assert_eq!(chrome_trace_json(&snap), want);
}
