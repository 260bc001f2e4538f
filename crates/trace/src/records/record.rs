//! The per-call decision record: everything the §4/§5/§6 dispatch
//! pipeline decided about one GEMM, in one flat `Copy` struct.

use crate::decision::{BPlan, EdgeSchedule, PlanSource, ShapeClass};

/// Which dispatch layer emitted the record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PathTag {
    /// Single-threaded driver invoked directly.
    #[default]
    Serial,
    /// The §6 fork-join parent (one per parallel API call).
    Parallel,
    /// One worker's sub-block inside a fork-join scope.
    ParallelWorker,
    /// One item of a `gemm_batch` (§7.4 batched small GEMM).
    Batch,
}

impl PathTag {
    /// Stable label used in JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            PathTag::Serial => "serial",
            PathTag::Parallel => "parallel",
            PathTag::ParallelWorker => "parallel-worker",
            PathTag::Batch => "batch",
        }
    }

    /// Dense index for counter arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// All variants, in `index` order.
    pub const ALL: [PathTag; 4] = [
        PathTag::Serial,
        PathTag::Parallel,
        PathTag::ParallelWorker,
        PathTag::Batch,
    ];
}

/// One GEMM dispatch decision, fully resolved.
#[derive(Debug, Clone, Copy, Default)]
pub struct DecisionRecord {
    /// Monotone global sequence number (assigned at submission).
    pub seq: u64,
    /// Output rows.
    pub m: usize,
    /// Output columns.
    pub n: usize,
    /// Contraction depth.
    pub k: usize,
    /// `b'N'` or `b'T'` for A.
    pub op_a: u8,
    /// `b'N'` or `b'T'` for B.
    pub op_b: u8,
    /// Element width: 32 (f32) or 64 (f64).
    pub elem_bits: u8,
    /// §2.1 shape class the classifier assigned.
    pub class: ShapeClass,
    /// §4 packing plan the driver executed.
    pub plan: BPlan,
    /// §5.4 edge-kernel schedule in effect.
    pub edge: EdgeSchedule,
    /// Where the dispatch plan came from (computed or an override).
    pub plan_source: PlanSource,
    /// Nanoseconds spent resolving the plan (lookup or recompute).
    pub plan_ns: u64,
    /// Which dispatch layer this record describes.
    pub path: PathTag,
    /// Register-tile rows (`mr`).
    pub mr: u8,
    /// Register-tile columns (`nr`, in elements).
    pub nr: u8,
    /// §6 thread-grid rows (1 when serial).
    pub tm: u16,
    /// §6 thread-grid columns (1 when serial).
    pub tn: u16,
    /// Resolved worker count for the call.
    pub threads: u16,
    /// Per-thread workspace high-water mark for this call, bytes.
    pub workspace_bytes: usize,
    /// Nanoseconds spent in *sequential* packing (fused packing is
    /// overlapped with compute by design and therefore not separable).
    pub pack_ns: u64,
    /// Wall nanoseconds for the whole dispatch.
    pub total_ns: u64,
}

impl DecisionRecord {
    /// Floating-point operations of the call (`2*M*N*K`).
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.k as f64
    }

    /// Achieved GFLOPS at the recorded wall time (0 when untimed).
    pub fn gflops(&self) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        self.flops() / self.total_ns as f64
    }

    /// One JSON object, no trailing newline.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"seq\":{},\"m\":{},\"n\":{},\"k\":{},\"op\":\"{}{}\",",
                "\"elem\":\"f{}\",\"class\":\"{}\",\"plan\":\"{}\",",
                "\"edge\":\"{}\",\"plan_source\":\"{}\",\"plan_ns\":{},",
                "\"path\":\"{}\",\"mr\":{},\"nr\":{},",
                "\"tm\":{},\"tn\":{},\"threads\":{},\"workspace_bytes\":{},",
                "\"pack_ns\":{},\"total_ns\":{},\"gflops\":{:.3}}}"
            ),
            self.seq,
            self.m,
            self.n,
            self.k,
            self.op_a as char,
            self.op_b as char,
            self.elem_bits,
            self.class.as_str(),
            self.plan.as_str(),
            self.edge.as_str(),
            self.plan_source.as_str(),
            self.plan_ns,
            self.path.as_str(),
            self.mr,
            self.nr,
            self.tm,
            self.tn,
            self.threads,
            self.workspace_bytes,
            self.pack_ns,
            self.total_ns,
            self.gflops(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_ordered() {
        for (i, p) in PathTag::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn json_contains_all_decisions() {
        let r = DecisionRecord {
            seq: 7,
            m: 64,
            n: 50176,
            k: 64,
            op_a: b'N',
            op_b: b'T',
            elem_bits: 32,
            class: ShapeClass::Irregular,
            plan: BPlan::Fused,
            edge: EdgeSchedule::Pipelined,
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
        };
        let j = r.to_json();
        for needle in [
            "\"op\":\"NT\"",
            "\"class\":\"irregular\"",
            "\"plan\":\"fused-pack\"",
            "\"path\":\"parallel\"",
            "\"tn\":4",
            "\"elem\":\"f32\"",
            "\"plan_source\":\"profile\"",
            "\"plan_ns\":120",
        ] {
            assert!(j.contains(needle), "{j} missing {needle}");
        }
    }

    #[test]
    fn gflops_math() {
        let r = DecisionRecord {
            m: 10,
            n: 10,
            k: 10,
            total_ns: 2000,
            ..Default::default()
        };
        assert_eq!(r.flops(), 2000.0);
        assert!((r.gflops() - 1.0).abs() < 1e-12);
        let untimed = DecisionRecord::default();
        assert_eq!(untimed.gflops(), 0.0);
    }
}
