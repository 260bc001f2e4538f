//! Cells and the round-robin that times them.
//!
//! A *cell* is one (shape, dtype, ops, threads) point; a *sample* is one
//! timed block of calls sized to about 200 µs. The cells of a workload
//! are visited round-robin, one sample each, until the budget is spent,
//! so host drift lands on every cell alike; a cell's value is the lower
//! quartile of its samples (`Summary::undisturbed_time` says why).

use crate::span::{Recorder, NONE};
use crate::stats::{quantile_of, Summary};
use shalom_trace::now_ns;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target length of one sample.
const SAMPLE_NS: f64 = 200_000.0;
/// Fewer samples than this in any cell invalidates the run.
pub const MIN_SAMPLES: usize = 30;

/// Where a traced block reports its calls: one span per call while the
/// cell's quota lasts, so that every cell appears in a bounded trace.
pub struct CallSink<'a> {
    rec: &'a mut Recorder,
    parent: u32,
    request: u32,
    name: &'static str,
    quota: &'a mut u32,
    /// Calls of one sample that are bracketed by clock reads.
    per_sample: u32,
}

impl CallSink<'_> {
    #[inline]
    fn call(&mut self, start_ns: u64, end_ns: u64) {
        if *self.quota > 0 {
            *self.quota -= 1;
            self.rec
                .push(self.parent, self.request, self.name, start_ns, end_ns);
        }
    }
}

/// Runs `f` `calls` times. With a sink, calls are bracketed by two clock
/// reads each (up to the sink's count per sample); without one the loop
/// takes no timestamps at all.
#[inline(always)]
pub fn repeat(calls: u32, sink: Option<&mut CallSink<'_>>, mut f: impl FnMut()) {
    let bracketed = sink.as_ref().map_or(0, |s| s.per_sample.min(calls));
    if let Some(sink) = sink {
        for _ in 0..bracketed {
            let t0 = now_ns();
            f();
            sink.call(t0, now_ns());
        }
    }
    for _ in bracketed..calls {
        f();
    }
}

/// The operation a cell times, owning its operands.
pub trait Work {
    fn run(&mut self, calls: u32, sink: Option<&mut CallSink<'_>>);

    /// Checks the outputs the timed calls left behind (or repeats one
    /// call and checks that). Runs after timing.
    fn verify(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// [`Work`] for a probe that has nothing to verify.
pub struct FnWork<F: FnMut()>(pub F);

impl<F: FnMut()> Work for FnWork<F> {
    fn run(&mut self, calls: u32, sink: Option<&mut CallSink<'_>>) {
        repeat(calls, sink, &mut self.0);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Both operands as stored.
    Nn,
    /// NT or TN.
    Tr,
}

pub struct Cell {
    pub name: String,
    /// Span name of one call: the public function it enters.
    pub span: &'static str,
    /// `Some(parent span)` for a probe cell, which runs in traced rounds
    /// only and feeds per-layer metrics; `None` for a cell of the workload.
    pub probe: Option<&'static str>,
    pub mode: Mode,
    pub threads: usize,
    /// Useful flops per call (bytes moved, for a bandwidth probe).
    pub work_per_call: f64,
    pub calls: u32,
    work: Box<dyn Work>,
    /// ns per call, one entry per sample, rounds without spans.
    plain: Vec<f64>,
    /// The same for rounds with spans.
    traced: Vec<f64>,
    span_quota: u32,
    /// Make one untimed call before each sample (see [`Cell::rewarmed`]).
    warm: bool,
}

impl Cell {
    /// Builds the cell, makes its first call (lazy initialisation, plan
    /// computation and workspace growth happen here, inside set-up) and
    /// sizes its sample.
    pub fn new(
        name: impl Into<String>,
        span: &'static str,
        mode: Mode,
        threads: usize,
        work_per_call: f64,
        work: Box<dyn Work>,
    ) -> Self {
        let mut cell = Cell {
            name: name.into(),
            span,
            probe: None,
            mode,
            threads,
            work_per_call,
            calls: 1,
            work,
            plain: Vec::new(),
            traced: Vec::new(),
            span_quota: 0,
            warm: false,
        };
        cell.work.run(1, None);
        let mut calls = 1u32;
        loop {
            let t0 = Instant::now();
            cell.work.run(calls, None);
            let ns = t0.elapsed().as_nanos() as f64;
            if ns >= 20_000.0 || calls >= 1 << 14 {
                cell.calls = ((SAMPLE_NS * calls as f64 / ns.max(1.0)) as u32).clamp(1, 1 << 16);
                return cell;
            }
            calls *= 4;
        }
    }

    /// Makes one untimed call before each sample. Between two samples of
    /// a cell every other cell has had the caches, so without it a "warm"
    /// cell whose samples are a call or two long would be timed cold
    /// (32x1024x256 NN measures 26 GFLOPS instead of 40). For cells whose
    /// operands fit in L2; larger ones cannot be warm there anyway.
    pub fn rewarmed(mut self) -> Self {
        self.warm = true;
        self
    }

    pub fn probe(mut self, parent: &'static str) -> Self {
        self.probe = Some(parent);
        self
    }

    /// ns per call over the rounds without spans.
    pub fn ns(&self) -> Summary {
        Summary::of(&mut self.plain.clone())
    }

    /// ns per call over the rounds with spans.
    pub fn ns_traced(&self) -> Summary {
        Summary::of(&mut self.traced.clone())
    }

    /// The samples this cell's numbers are taken from: a probe cell runs
    /// in traced rounds only (with two bracketed calls a sample), a
    /// workload cell is read from the rounds without spans.
    pub fn samples(&self) -> Summary {
        if self.probe.is_some() {
            self.ns_traced()
        } else {
            self.ns()
        }
    }

    /// `work_per_call` per ns: GFLOPS for flops, GB/s for bytes.
    pub fn rate(&self) -> Summary {
        self.ns().map(|ns| self.work_per_call / ns)
    }

    pub fn timed_calls(&self) -> u64 {
        (self.plain.len() + self.traced.len()) as u64 * self.calls as u64
    }

    pub fn verify(&mut self) -> Result<(), String> {
        self.work
            .verify()
            .map_err(|e| format!("{}: {e}", self.name))
    }
}

/// What the round-robin saw besides the cells' samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rounds {
    pub rounds: usize,
    /// p90/p10 of a fixed integer spin loop timed every round: how much
    /// the host's speed moved under the run.
    pub host_drift: f64,
    pub elapsed_s: f64,
}

/// A fixed amount of integer work no optimisation in the library touches.
fn spin() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..20_000 {
        x = black_box(
            x.wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407),
        );
    }
    x
}

/// ns one [`spin`] took just now.
pub fn spin_ns() -> f64 {
    let t0 = Instant::now();
    black_box(spin());
    t0.elapsed().as_nanos() as f64
}

/// Cost of one `Instant::now()`, the clock every sample is bracketed by.
pub fn timer_ns() -> f64 {
    let t0 = Instant::now();
    for _ in 0..1000 {
        black_box(Instant::now());
    }
    t0.elapsed().as_nanos() as f64 / 1000.0
}

/// p90 over p10 of spin times: how much the host's speed moved.
pub fn drift_of(spins: &[f64]) -> f64 {
    let p10 = quantile_of(spins, 0.1);
    if p10 > 0.0 {
        quantile_of(spins, 0.9) / p10
    } else {
        1.0
    }
}

/// Visits the cells round-robin for `budget`. Without a recorder every
/// round is plain and probe cells are skipped. With one, odd rounds are
/// traced: every call is bracketed by clock reads and recorded while the
/// cell's span quota lasts, and probe cells run under their parent span.
/// Whole rounds only, so every cell of a kind ends with the same count.
pub fn run_rounds(cells: &mut [Cell], budget: Duration, mut rec: Option<&mut Recorder>) -> Rounds {
    if let Some(rec) = rec.as_deref() {
        // An eighth of the room is kept for the probe parents.
        let share = (rec.capacity() / 8 * 7 / cells.len().max(1)) as u32;
        for c in cells.iter_mut() {
            c.span_quota = share;
        }
    }
    let mut spins = Vec::new();
    let start = Instant::now();
    let mut round = 0usize;
    while start.elapsed() < budget {
        let traced_round = rec.is_some() && round % 2 == 1;
        // The probe parent open right now: (name, span id).
        let mut open: Option<(&'static str, u32)> = None;
        for cell in cells.iter_mut() {
            if cell.probe.is_some() && !traced_round {
                continue;
            }
            if cell.warm {
                cell.work.run(1, None);
            }
            let (t0, ns);
            match rec.as_deref_mut().filter(|_| traced_round) {
                None => {
                    t0 = Instant::now();
                    cell.work.run(cell.calls, None);
                    ns = t0.elapsed().as_nanos() as f64;
                    cell.plain.push(ns / cell.calls as f64);
                }
                Some(rec) => {
                    if open.map(|(name, _)| name) != cell.probe {
                        if let Some((_, id)) = open.take() {
                            rec.close(id, now_ns());
                        }
                        if let Some(name) = cell.probe {
                            let now = now_ns();
                            open = Some((name, rec.push(NONE, round as u32, name, now, now)));
                        }
                    }
                    let mut sink = CallSink {
                        rec,
                        parent: open.map_or(NONE, |(_, id)| id),
                        request: round as u32,
                        name: cell.span,
                        quota: &mut cell.span_quota,
                        // A probe's number must not carry the clock reads:
                        // two of its calls per sample are bracketed, the
                        // rest run bare. A workload cell brackets them all,
                        // which is the overhead `trace_overhead` reports.
                        per_sample: if cell.probe.is_some() { 2 } else { u32::MAX },
                    };
                    t0 = Instant::now();
                    cell.work.run(cell.calls, Some(&mut sink));
                    ns = t0.elapsed().as_nanos() as f64;
                    cell.traced.push(ns / cell.calls as f64);
                }
            }
        }
        if let (Some((_, id)), Some(rec)) = (open, rec.as_deref_mut()) {
            rec.close(id, now_ns());
        }
        spins.push(spin_ns());
        round += 1;
    }
    Rounds {
        rounds: round,
        host_drift: drift_of(&spins),
        elapsed_s: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell as Counter;
    use std::rc::Rc;

    fn counting(name: &str, count: &Rc<Counter<u64>>) -> Cell {
        let count = Rc::clone(count);
        Cell::new(
            name,
            "test.call",
            Mode::Nn,
            1,
            1.0,
            Box::new(FnWork(move || {
                count.set(count.get() + 1);
                black_box(spin());
            })),
        )
    }

    #[test]
    fn plain_rounds_skip_probes_and_traced_rounds_nest_them() {
        let (main, probe) = (Rc::new(Counter::new(0)), Rc::new(Counter::new(0)));
        let mut cells = vec![
            counting("main", &main),
            counting("p1", &probe).probe("probe.test"),
            counting("p2", &probe).probe("probe.test"),
        ];
        let before = probe.get();
        let r = run_rounds(&mut cells, Duration::from_millis(5), None);
        assert!(r.rounds >= 1 && r.host_drift >= 1.0);
        assert_eq!(probe.get(), before, "plain rounds must not run probe cells");
        assert_eq!(cells[0].ns().n, r.rounds);
        assert_eq!(cells[0].ns_traced().n, 0);

        let mut rec = Recorder::with_capacity(4096);
        let r = run_rounds(&mut cells, Duration::from_millis(20), Some(&mut rec));
        assert!(r.rounds >= 2);
        assert!(probe.get() > before);
        assert_eq!(cells[1].ns_traced().n, r.rounds / 2);
        rec.check_nesting().unwrap();
        let parents: Vec<_> = rec
            .spans()
            .iter()
            .filter(|s| s.name == "probe.test")
            .collect();
        assert_eq!(parents.len(), r.rounds / 2, "one parent per traced round");
        assert!(rec
            .spans()
            .iter()
            .filter(|s| s.parent != NONE)
            .all(|s| rec.spans()[s.parent as usize].name == "probe.test"));
        assert!(cells[0].timed_calls() > 0);
    }
}
