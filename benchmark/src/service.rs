//! The two service workloads. One generator thread (this one) drives
//! `shalom_service::Service` and its scheduler thread through two
//! phases: an open loop on a Poisson schedule (latency is measured from
//! each request's *scheduled* time, so a stall is charged to every
//! request it delays), then a closed loop of one client holding 256
//! requests outstanding (throughput under a latency cap).

use crate::cell::{drift_of, spin_ns, timer_ns};
use crate::gemm::{random_matrix, Shape};
use crate::host::peak_rss_mib;
use crate::report::{end_to_end_values, fill_per_layer, CellRow, WorkloadResult};
use crate::rng::{poisson_schedule, Rng};
use crate::span::{Recorder, NONE};
use crate::stats::{quantile_of, windowed_p99, Summary};
use crate::workloads::{more_setups, SPAN_CAPACITY};
use crate::Ctx;
use shalom_core::{gemm_with, plan_cache_clear, plan_cache_stats, GemmConfig, Op};
use shalom_matrix::{MatMut, Matrix};
use shalom_service::{Completion, GemmRequest, Service, ServiceConfig, ServiceError};
use shalom_trace::now_ns;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Requests the closed loop keeps outstanding.
const WINDOW: usize = 256;
/// Output slots, reused round-robin. More than can ever be outstanding
/// (the queue admits 1024 and one batch of 64 runs at a time), so a slot
/// comes up for reuse long after its previous request completed.
const SLOTS: usize = 2048;
/// Every fourth request carries this deadline: the deadline path is
/// exercised, but only a broken service lets one expire.
const DEADLINE: Duration = Duration::from_millis(250);
/// The generator spins for gaps shorter than this and sleeps otherwise.
const SPIN_BELOW_NS: u64 = 300_000;
/// In a traced run the open loop takes its extra timestamps in every
/// other window of this length, so traced and untraced requests see the
/// same host.
const TRACE_WINDOW_NS: u64 = 250_000_000;

struct Spec {
    name: &'static str,
    shapes: Vec<Shape>,
    open_rps: f64,
    ladder_rps: [f64; 3],
}

/// One plan bucket: a shape with fixed operands and the output a direct
/// `gemm_with` gives for them.
struct Bucket {
    shape: Shape,
    a: Matrix<f32>,
    b: Matrix<f32>,
    expect: Matrix<f32>,
    direct_ns: f64,
}

struct Inputs {
    buckets: Vec<Bucket>,
    /// `SLOTS` output tiles, each big enough for the largest shape.
    out: Vec<f32>,
    slot_len: usize,
    /// The bucket whose result each slot holds, once one completed there.
    holds: Vec<Option<u8>>,
    schedule: Vec<u64>,
    picks: Vec<u8>,
}

/// Operands, output slots and the arrival schedule of an open loop of
/// `open_s` seconds at `rps`, all from `seed`.
fn build_inputs(seed: u64, shapes: &[Shape], rps: f64, open_s: f64) -> Inputs {
    let cfg = GemmConfig::with_threads(1);
    let mut rng = Rng::new(seed, 0x5e71);
    let buckets: Vec<Bucket> = shapes
        .iter()
        .map(|&shape| {
            let a = random_matrix::<f32>(&mut rng, shape.m, shape.k);
            let b = random_matrix::<f32>(&mut rng, shape.k, shape.n);
            let mut expect = Matrix::<f32>::zeros(shape.m, shape.n);
            let mut direct = || {
                gemm_with(
                    &cfg,
                    Op::NoTrans,
                    Op::NoTrans,
                    1.0,
                    a.as_ref(),
                    b.as_ref(),
                    0.0,
                    expect.as_mut(),
                )
            };
            direct();
            let t0 = Instant::now();
            for _ in 0..64 {
                direct();
            }
            let direct_ns = t0.elapsed().as_nanos() as f64 / 64.0;
            Bucket {
                shape,
                a,
                b,
                expect,
                direct_ns,
            }
        })
        .collect();
    let slot_len = shapes.iter().map(|s| s.m * s.n).max().unwrap_or(1);
    let n = (rps * open_s) as usize;
    Inputs {
        // Filled, not calloc'ed: no page is first touched by the service.
        out: rng.fill_f32(SLOTS * slot_len),
        slot_len,
        holds: vec![None; SLOTS],
        schedule: poisson_schedule(&mut Rng::new(seed, 0xa771), rps, n),
        picks: {
            let mut r = Rng::new(seed, 0x91c5);
            (0..n).map(|_| r.below(buckets.len()) as u8).collect()
        },
        buckets,
    }
}

/// A request in flight and what is needed to account for it afterwards.
struct InFlight<'scope> {
    idx: usize,
    bucket: u8,
    /// When the open loop scheduled it; `None` in the closed loop, which
    /// has no schedule and keeps no latencies.
    due_ns: Option<u64>,
    /// Clock before and after `submit`; 0 for a request whose window
    /// takes no extra timestamps.
    submit_ns: (u64, u64),
    done: Completion<'scope>,
}

#[derive(Default)]
struct PhaseStats {
    attempted: u64,
    /// Rejected, expired, failed or never sent.
    failed: u64,
    completed: u64,
    /// Open loop only (the closed loop completes millions of requests and
    /// needs their count, not their latencies): `(scheduled time since
    /// phase start in ns, latency in µs)` of every completed request,
    /// split by whether its window took timestamps.
    plain: Vec<(u64, f64)>,
    traced: Vec<(u64, f64)>,
    gen_lag_us: Vec<f64>,
    submit_ns: Vec<f64>,
    inflight_us: Vec<f64>,
    flops: f64,
    wall_s: f64,
    errors: Vec<String>,
}

impl PhaseStats {
    /// Stats of an open loop of `n` requests, with room for every sample.
    fn open(n: usize) -> Self {
        PhaseStats {
            plain: Vec::with_capacity(n),
            traced: Vec::with_capacity(n),
            gen_lag_us: Vec::with_capacity(n),
            ..Default::default()
        }
    }

    fn latencies(&self) -> Vec<f64> {
        self.plain
            .iter()
            .chain(&self.traced)
            .map(|&(_, l)| l)
            .collect()
    }
}

/// Builds the request for `bucket` writing output slot `idx % SLOTS`.
///
/// # Safety
/// The previous request that wrote this slot (request `idx - SLOTS`)
/// must have been observed complete, and `out` must stay allocated and
/// otherwise untouched until this request is observed complete.
unsafe fn request<'env>(
    buckets: &'env [Bucket],
    out: *mut f32,
    slot_len: usize,
    idx: usize,
    bucket: u8,
) -> GemmRequest<'env, f32> {
    let b = &buckets[bucket as usize];
    // SAFETY: the slot is `slot_len >= m * n` elements inside `out`; per
    // this function's contract no other live view covers it.
    let c = unsafe {
        MatMut::from_raw_parts(
            out.add((idx % SLOTS) * slot_len),
            b.shape.m,
            b.shape.n,
            b.shape.n,
        )
    };
    let req = GemmRequest::new(
        GemmConfig::with_threads(1),
        Op::NoTrans,
        Op::NoTrans,
        1.0f32,
        b.a.as_ref(),
        b.b.as_ref(),
        0.0f32,
        c,
    );
    if idx % 4 == 3 {
        req.with_deadline(Instant::now() + DEADLINE)
    } else {
        req
    }
}

/// Accounts for one finished request. `base_ns` is the phase start on
/// the `now_ns` clock.
fn reap(
    f: InFlight<'_>,
    base_ns: u64,
    buckets: &[Bucket],
    holds: &mut [Option<u8>],
    stats: &mut PhaseStats,
    rec: Option<&mut Recorder>,
) {
    match f.done.wait() {
        Ok(()) => {
            holds[f.idx % SLOTS] = Some(f.bucket);
            stats.flops += buckets[f.bucket as usize].shape.flops();
            stats.completed += 1;
            let Some(due_ns) = f.due_ns else { return };
            let done_ns = f.done.done_at_ns().unwrap_or(due_ns);
            let latency_us = done_ns.saturating_sub(due_ns) as f64 / 1e3;
            if f.submit_ns.1 == 0 {
                stats.plain.push((due_ns - base_ns, latency_us));
                return;
            }
            stats.traced.push((due_ns - base_ns, latency_us));
            let (sub0, sub1) = f.submit_ns;
            let done_ns = done_ns.max(sub1);
            stats.submit_ns.push((sub1 - sub0) as f64);
            stats.inflight_us.push((done_ns - sub1) as f64 / 1e3);
            if let Some(rec) = rec.filter(|r| r.has_room(5)) {
                let seen_ns = now_ns().max(done_ns);
                let id = f.idx as u32;
                let root = rec.push(NONE, id, "service.request", due_ns, seen_ns);
                rec.push(root, id, "gen.lag", due_ns, sub0);
                rec.push(root, id, "service.submit", sub0, sub1);
                rec.push(root, id, "service.inflight", sub1, done_ns);
                rec.push(root, id, "client.wait", done_ns, seen_ns);
            }
        }
        Err(_) => stats.failed += 1,
    }
}

/// What the open loop does with an arrival the bounded queue has no room
/// for.
#[derive(Clone, Copy, PartialEq)]
enum WhenFull {
    /// The generator waits for room. The schedule does not wait: the
    /// delay is charged to this request and to every one due meanwhile,
    /// as if the queue were unbounded. A host stall of 20 ms (1024
    /// requests at 50k rps) then shows as latency, not as failures.
    Wait,
    /// The arrival is refused and counts as failed: the overload signal
    /// of the rate ladder.
    Drop,
}

/// Open loop: request `i` is due at `schedule[i]` whatever the service
/// is doing.
fn open_loop(
    svc: &Service,
    inputs: &mut Inputs,
    when_full: WhenFull,
    trace: bool,
    mut rec: Option<&mut Recorder>,
) -> PhaseStats {
    let count = inputs.schedule.len();
    let mut stats = PhaseStats::open(count);
    let (out, slot_len) = (inputs.out.as_mut_ptr(), inputs.slot_len);
    let (buckets, holds) = (&inputs.buckets[..], &mut inputs.holds);
    let (schedule, picks) = (&inputs.schedule[..], &inputs.picks[..]);
    let start = Instant::now();
    svc.scope(|scope| {
        let mut flying: VecDeque<InFlight<'_>> = VecDeque::with_capacity(SLOTS);
        let base_ns = now_ns();
        for (idx, (&at, &bucket)) in schedule.iter().zip(picks).enumerate() {
            let due_ns = base_ns + at;
            let mut now = now_ns();
            while now < due_ns {
                if due_ns - now > SPIN_BELOW_NS {
                    std::thread::sleep(Duration::from_nanos(due_ns - now - SPIN_BELOW_NS));
                } else {
                    std::hint::spin_loop();
                }
                now = now_ns();
            }
            if now - due_ns > 1_000_000_000 {
                // A second behind: the rate is far past what the generator
                // can offer. What is left counts as never sent.
                stats.attempted += (count - idx) as u64;
                stats.failed += (count - idx) as u64;
                break;
            }
            stats.attempted += 1;
            stats.gen_lag_us.push((now - due_ns) as f64 / 1e3);
            // Collect what has finished; wait for the request that last
            // used this slot if, against all sizing, it is still out.
            while flying
                .front()
                .is_some_and(|f| f.idx + SLOTS <= idx || f.done.try_wait().is_some())
            {
                let f = flying.pop_front().expect("front was just seen");
                reap(f, base_ns, buckets, holds, &mut stats, rec.as_deref_mut());
            }
            // SAFETY: every request up to `idx - SLOTS` has been reaped
            // just above; `inputs.out` outlives the scope, which joins
            // every request before it returns.
            let req = unsafe { request(buckets, out, slot_len, idx, bucket) };
            let timed = trace && (at / TRACE_WINDOW_NS) % 2 == 1;
            let submitted = match when_full {
                WhenFull::Wait => scope.submit_blocking(req, None),
                WhenFull::Drop => scope.submit(req),
            };
            match submitted {
                Ok(done) => flying.push_back(InFlight {
                    idx,
                    bucket,
                    due_ns: Some(due_ns),
                    submit_ns: if timed { (now, now_ns()) } else { (0, 0) },
                    done,
                }),
                Err(ServiceError::QueueFull) => stats.failed += 1,
                Err(e) => {
                    stats.failed += 1;
                    stats.errors.push(format!("submit: {e}"));
                }
            }
        }
        for f in flying {
            reap(f, base_ns, buckets, holds, &mut stats, rec.as_deref_mut());
        }
    });
    stats.wall_s = start.elapsed().as_secs_f64();
    stats
}

/// Closed loop: one client keeps `WINDOW` requests outstanding for
/// `duration`, replacing the oldest as it completes. Returns the stats
/// and the completions counted in each 250 ms window.
fn closed_loop(
    svc: &Service,
    inputs: &mut Inputs,
    seed: u64,
    duration: Duration,
) -> (PhaseStats, Vec<f64>) {
    let mut stats = PhaseStats::default();
    let mut per_window: Vec<f64> = Vec::new();
    let (out, slot_len) = (inputs.out.as_mut_ptr(), inputs.slot_len);
    let (buckets, holds) = (&inputs.buckets[..], &mut inputs.holds);
    let mut rng = Rng::new(seed, 0xc105);
    let start = Instant::now();
    svc.scope(|scope| {
        let mut flying: VecDeque<InFlight<'_>> = VecDeque::with_capacity(WINDOW);
        let base_ns = now_ns();
        let (mut idx, mut open) = (0usize, true);
        // The 250 ms window being filled, and the flops done when it began.
        let (mut window, mut window_base) = (0u128, 0.0f64);
        while open || !flying.is_empty() {
            while open && flying.len() < WINDOW {
                let bucket = rng.below(buckets.len()) as u8;
                // SAFETY: the requests outstanding are the last
                // `flying.len() < WINDOW < SLOTS` submitted, so request
                // `idx - SLOTS` was reaped; `inputs.out` outlives the scope.
                let req = unsafe { request(buckets, out, slot_len, idx, bucket) };
                stats.attempted += 1;
                match scope.submit_blocking(req, None) {
                    Ok(done) => flying.push_back(InFlight {
                        idx,
                        bucket,
                        due_ns: None,
                        submit_ns: (0, 0),
                        done,
                    }),
                    Err(e) => {
                        stats.failed += 1;
                        stats.errors.push(format!("submit_blocking: {e}"));
                    }
                }
                idx += 1;
            }
            // Blocks on the oldest, then takes whatever else is ready.
            while let Some(f) = flying.pop_front() {
                reap(f, base_ns, buckets, holds, &mut stats, None);
                if flying.front().is_none_or(|f| f.done.try_wait().is_none()) {
                    break;
                }
            }
            let elapsed = start.elapsed();
            let now_window = elapsed.as_nanos() / 250_000_000;
            if open && now_window != window {
                if now_window == window + 1 {
                    per_window.push((stats.flops - window_base) / 0.25);
                }
                (window, window_base) = (now_window, stats.flops);
            }
            open = open && elapsed < duration;
        }
    });
    stats.wall_s = start.elapsed().as_secs_f64();
    (stats, per_window)
}

/// Every slot that holds a result must equal, bit for bit, what a direct
/// `gemm_with` gave for that bucket. Returns the slots checked.
fn verify_slots(inputs: &Inputs, errors: &mut Vec<String>) -> (u64, u64) {
    let (mut checked, mut wrong) = (0, 0);
    for (slot, held) in inputs.holds.iter().enumerate() {
        let Some(bucket) = held else { continue };
        let b = &inputs.buckets[*bucket as usize];
        let got = &inputs.out[slot * inputs.slot_len..][..b.shape.m * b.shape.n];
        checked += 1;
        if got
            .iter()
            .zip(b.expect.as_slice())
            .any(|(g, w)| g.to_bits() != w.to_bits())
        {
            wrong += 1;
            if wrong == 1 {
                errors.push(format!(
                    "slot {slot} ({}) differs bitwise from a direct gemm_with",
                    b.shape.label()
                ));
            }
        }
    }
    (checked, wrong)
}

fn spin_times(n: usize) -> Vec<f64> {
    (0..n).map(|_| spin_ns()).collect()
}

/// Lower quartile of the per-second-window p99s: the tail on a second
/// the host left alone.
fn p99w(samples: &[(u64, f64)], span_ns: u64) -> f64 {
    quantile_of(&windowed_p99(samples, 1_000_000_000, span_ns), 0.25)
}

fn run_service(ctx: &Ctx, spec: &Spec) -> WorkloadResult {
    let open_s = ctx.seconds * 2.0 / 3.0;
    let closed = Duration::from_secs_f64(ctx.seconds / 3.0);
    let mut result = WorkloadResult {
        workload: spec.name.to_string(),
        ..Default::default()
    };

    // Set-up, several times: operands, one direct call per bucket (plan
    // computation, lazy initialisation), output slots, the arrival
    // schedule and `Service::start`.
    let mut setups = Vec::new();
    let mut state: Option<(Inputs, Service)> = None;
    let started = Instant::now();
    while more_setups(setups.len(), started) {
        drop(state.take());
        plan_cache_clear();
        let t0 = Instant::now();
        let inputs = build_inputs(ctx.seed, &spec.shapes, spec.open_rps, open_s);
        let svc = Service::start(ServiceConfig::default());
        setups.push(t0.elapsed().as_secs_f64());
        state = Some((inputs, svc));
    }
    let (mut inputs, svc) = state.expect("three set-ups ran");

    let mut rec = ctx.trace.then(|| Recorder::with_capacity(SPAN_CAPACITY));
    let plans_before = plan_cache_stats();
    let mut spins = spin_times(50);
    let open = open_loop(&svc, &mut inputs, WhenFull::Wait, ctx.trace, rec.as_mut());
    spins.extend(spin_times(50));
    let mut errors = Vec::new();
    let t_verify = Instant::now();
    let mut wrong = verify_slots(&inputs, &mut errors).1;
    let mut verify_s = t_verify.elapsed().as_secs_f64();
    inputs.holds.fill(None);
    let (sat, windows) = closed_loop(&svc, &mut inputs, ctx.seed, closed);
    spins.extend(spin_times(50));
    let plans_after = plan_cache_stats();
    let t_verify = Instant::now();
    wrong += verify_slots(&inputs, &mut errors).1;
    verify_s += t_verify.elapsed().as_secs_f64();
    svc.shutdown();
    let counts = svc.stats();

    errors.extend(open.errors.iter().chain(&sat.errors).cloned());
    result.attempted = open.attempted + sat.attempted;
    result.failed = open.failed + sat.failed + wrong;
    result.correct = wrong == 0 && errors.is_empty();
    result.errors = errors;

    let host_drift = drift_of(&spins);
    let gen_lag_p99 = quantile_of(&open.gen_lag_us, 0.99);
    result.disturbed = host_drift > 1.15 || gen_lag_p99 > 1000.0;

    let mut latencies = open.latencies();
    let latency = Summary::of(&mut latencies);
    let mut window_gflops: Vec<f64> = windows.iter().map(|f| f / 1e9).collect();
    let sat_gflops = Summary::of(&mut window_gflops);
    let (setup, rss) = (Summary::of(&mut setups), peak_rss_mib());
    let mean_flops =
        inputs.buckets.iter().map(|b| b.shape.flops()).sum::<f64>() / inputs.buckets.len() as f64;
    // As for a direct call, the rate of one operation is its flops over
    // the time it takes as its caller sees it; every request is NN, so the
    // transposed rate repeats it. The median is the metric here: the
    // samples are requests, not repetitions of one measurement.
    let per_request = latency.map(|us| mean_flops / (us * 1e3));
    result.end_to_end = end_to_end_values([
        (setup.median, setup),
        (per_request.median, per_request),
        (per_request.median, per_request),
        (latency.median, latency),
        (sat_gflops.undisturbed_rate(), sat_gflops),
        (rss, Summary::point(rss)),
    ]);
    result.too_few_samples = latency.n < 1000 || sat_gflops.n < 4;
    result.notes.extend([
        format!(
            "phase A: open loop {:.0} rps for {:.2} s: {} sent, {} completed, {} failed; svc_p50_us {:.2}, p99 {:.1}, gen lag p99 {:.1} us",
            spec.open_rps,
            open.wall_s,
            open.attempted,
            open.completed,
            open.failed,
            latency.median,
            quantile_of(&latencies, 0.99),
            gen_lag_p99
        ),
        format!(
            "phase B: closed loop, window {WINDOW}, {:.2} s: {} completed, {} failed; svc_sat_rps {:.0} (upper quartile of 250 ms windows; whole phase {:.0})",
            sat.wall_s,
            sat.completed,
            sat.failed,
            sat_gflops.undisturbed_rate() * 1e9 / mean_flops,
            sat.completed as f64 / sat.wall_s
        ),
        format!("host_drift {host_drift:.3}, verify {verify_s:.3} s"),
    ]);
    result.cells = inputs
        .buckets
        .iter()
        .map(|b| CellRow {
            name: format!("direct.{}_f32_nn", b.shape.label()),
            threads: 1,
            calls_per_sample: 64,
            ns: Summary::point(b.direct_ns),
            rate: b.shape.flops() / b.direct_ns,
            probe: true,
        })
        .collect();

    if let Some(rec) = rec {
        let span_ns = (open_s * 1e9) as u64;
        let all: Vec<(u64, f64)> = open.plain.iter().chain(&open.traced).copied().collect();
        let direct_us = inputs.buckets.iter().map(|b| b.direct_ns).sum::<f64>()
            / inputs.buckets.len() as f64
            / 1e3;
        let lat = |v: &[(u64, f64)]| v.iter().map(|&(_, l)| l).collect::<Vec<_>>();
        let mut layers: Vec<(String, f64)> = vec![
            ("service.submitted".into(), counts.submitted as f64),
            ("service.completed".into(), counts.completed as f64),
            ("service.rejected".into(), counts.rejected as f64),
            ("service.expired".into(), counts.expired as f64),
            ("service.batches".into(), counts.batches as f64),
            ("service.mean_occupancy".into(), counts.mean_occupancy()),
            ("service.flush_full".into(), counts.flush_full as f64),
            ("service.flush_linger".into(), counts.flush_linger as f64),
            (
                "service.flush_deadline".into(),
                counts.flush_deadline as f64,
            ),
            (
                "service.queue_depth_peak".into(),
                counts.queue_depth_peak as f64,
            ),
            (
                "service.submit_ns_p50".into(),
                quantile_of(&open.submit_ns, 0.5),
            ),
            (
                "service.inflight_us_p50".into(),
                quantile_of(&open.inflight_us, 0.5),
            ),
            ("service.direct_ratio".into(), latency.median / direct_us),
            ("service.gen_lag_us_p99".into(), gen_lag_p99),
            ("service.p99_us".into(), quantile_of(&latencies, 0.99)),
            ("service.p99w_us".into(), p99w(&all, span_ns)),
            ("service.max_us".into(), quantile_of(&latencies, 1.0)),
            (
                "harness.trace_overhead".into(),
                quantile_of(&lat(&open.traced), 0.5) / quantile_of(&lat(&open.plain), 0.5),
            ),
            ("harness.timer_ns".into(), timer_ns()),
            ("harness.host_drift".into(), host_drift),
            ("harness.samples_min".into(), latency.n as f64),
            ("harness.verify_s".into(), verify_s),
        ];
        // The rate ladder: the same open loop, a fresh service per rung.
        let rung_s = ctx.seconds.min(3.0);
        let mut max_ok = 0.0;
        for (r, &rps) in spec.ladder_rps.iter().enumerate() {
            let rung_seed = ctx.seed.wrapping_add(r as u64 + 1);
            let mut rung_in = build_inputs(rung_seed, &spec.shapes, rps, rung_s);
            let svc = Service::start(ServiceConfig::default());
            let s = open_loop(&svc, &mut rung_in, WhenFull::Drop, false, None);
            svc.shutdown();
            let tail = p99w(&s.plain, (rung_s * 1e9) as u64);
            let half = (rung_s * 0.5e9) as u64;
            let offered_late = rung_in.schedule.iter().filter(|&&t| t >= half).count();
            let done_late = s.plain.iter().filter(|&&(t, _)| t >= half).count();
            let ok = tail > 0.0
                && tail <= 2000.0
                && s.failed as f64 <= 0.001 * s.attempted as f64
                && done_late as f64 >= 0.98 * offered_late as f64;
            if ok {
                max_ok = rps;
            }
            layers.push((
                format!("service.p50_us.r{}", r + 1),
                quantile_of(&lat(&s.plain), 0.5),
            ));
            layers.push((format!("service.p99w_us.r{}", r + 1), tail));
            result.notes.push(format!(
                "ladder r{} {:.0} rps: {} sent, {} completed, {} failed, p50 {:.1} us, p99w {:.1} us, {}",
                r + 1,
                rps,
                s.attempted,
                s.completed,
                s.failed,
                quantile_of(&lat(&s.plain), 0.5),
                tail,
                if ok { "ok" } else { "over the limit" }
            ));
        }
        layers.push(("service.max_ok_rps".into(), max_ok));
        let (hits, misses) = (
            plans_after.hits - plans_before.hits,
            plans_after.misses - plans_before.misses,
        );
        layers.extend([
            ("plans.hits".to_string(), hits as f64),
            ("plans.misses".to_string(), misses as f64),
            (
                "plans.hit_ratio".to_string(),
                hits as f64 / (hits + misses).max(1) as f64,
            ),
        ]);
        result.per_layer = fill_per_layer(layers);
        result.notes.extend(rec.write(&ctx.out_dir, spec.name));
    }
    result
}

/// The five VGG conv GEMMs scaled to microsecond requests (M/8, N/256,
/// K/64): five live buckets, a few requests in each at any time.
pub fn service_mix(ctx: &Ctx) -> WorkloadResult {
    let shapes = shalom_workloads::vgg_layers()
        .into_iter()
        .map(|s| Shape::new(s.m.div_ceil(8), s.n.div_ceil(256), s.k.div_ceil(64)))
        .collect();
    run_service(
        ctx,
        &Spec {
            name: "service_mix",
            shapes,
            open_rps: 5_000.0,
            ladder_rps: [20_000.0, 80_000.0, 160_000.0],
        },
    )
}

/// One 8x8x8 bucket at ten times the rate: batches fill.
pub fn service_uniform(ctx: &Ctx) -> WorkloadResult {
    run_service(
        ctx,
        &Spec {
            name: "service_uniform",
            shapes: vec![Shape::square(8)],
            open_rps: 50_000.0,
            ladder_rps: [100_000.0, 200_000.0, 300_000.0],
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two buckets at 5 000 rps for `seconds`.
    fn inputs(seed: u64, seconds: f64) -> Inputs {
        let shapes = [Shape::square(8), Shape::new(8, 196, 9)];
        build_inputs(seed, &shapes, 5_000.0, seconds)
    }

    #[test]
    fn inputs_follow_the_seed() {
        let (a, b, c) = (inputs(1, 0.1), inputs(1, 0.1), inputs(2, 0.1));
        assert_eq!(a.schedule.len(), 500);
        assert_eq!((&a.schedule, &a.picks), (&b.schedule, &b.picks));
        assert_eq!(a.buckets[1].a, b.buckets[1].a);
        assert_ne!(a.schedule, c.schedule);
        assert_ne!(a.picks, c.picks);
        assert_ne!(a.buckets[1].a, c.buckets[1].a);
        assert_eq!(a.slot_len, 8 * 196);
    }

    /// Both loops against a real service: everything sent completes,
    /// slots are reused many times over, and every result left in a slot
    /// is bitwise what a direct call gives.
    #[test]
    fn both_loops_complete_and_verify() {
        let mut inputs = inputs(3, 0.6);
        let svc = Service::start(ServiceConfig::default());
        let mut rec = Recorder::with_capacity(4096);
        let n = inputs.schedule.len();
        let open = open_loop(&svc, &mut inputs, WhenFull::Wait, true, Some(&mut rec));
        assert_eq!(open.attempted, n as u64);
        // (A deadline can expire when the other tests hog both cores, so
        // zero failures is not asserted: every request is accounted for.)
        assert_eq!(open.completed + open.failed, n as u64);
        assert!(!open.traced.is_empty() && !open.plain.is_empty());
        rec.check_nesting().unwrap();
        assert!(rec.spans().iter().any(|s| s.name == "service.inflight"));
        let mut errors = Vec::new();
        let (checked, wrong) = verify_slots(&inputs, &mut errors);
        assert!(checked > 0 && wrong == 0, "{errors:?}");

        inputs.holds.fill(None);
        let (sat, _) = closed_loop(&svc, &mut inputs, 3, Duration::from_millis(300));
        svc.shutdown();
        assert!(sat.completed > WINDOW as u64);
        assert_eq!(sat.completed + sat.failed, sat.attempted);
        let (checked, wrong) = verify_slots(&inputs, &mut errors);
        assert!(checked > 0 && wrong == 0, "{errors:?}");
        let slot = inputs.holds.iter().position(Option::is_some).unwrap();
        // A flipped bit in a held slot is caught.
        let at = slot * inputs.slot_len;
        inputs.out[at] = f32::from_bits(inputs.out[at].to_bits() ^ 1);
        assert_eq!(verify_slots(&inputs, &mut errors).1, 1);
    }
}
