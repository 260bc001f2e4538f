//! Registry of memory-ordering justification tags.
//!
//! Every atomic operation in the audited files must carry an
//! `// ORDERING(SHALOM-O-…): why` comment whose tag is registered here,
//! mirroring the contract-tag registry in `shalom-contracts`. The
//! registry also records per-tag facts the pattern rules consume:
//! whether a `Relaxed` store under this tag is allowed to coexist with
//! `Acquire` loads of the same atomic (an external happens-before edge
//! exists), the tag's *class* (what kind of happens-before argument it
//! makes — the `protocols` pass groups sites per atomic object and
//! checks that an object's tags tell one coherent story), and which
//! executable `shalom-modelcheck` model verifies the protocol the tag
//! belongs to.

/// The shape of the happens-before argument a tag makes. The
/// `protocols` pass checks that every tag attached to one atomic
/// *object* argues compatibly: an object cannot be "a racy statistic"
/// at one site and "the publication word of a protocol" at another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TagClass {
    /// Monotonic statistic or unique-id tick: `Relaxed` everywhere is
    /// the whole story; readers accept racy snapshots by design.
    Counter,
    /// On/off hint flag: stale reads only skip or admit one extra
    /// operation; no data is published through the flag itself.
    Gate,
    /// Ordering is provided *externally* — a mutex, the pool's call
    /// protocol, or an init-once — so the atomic itself stays
    /// `Relaxed`.
    Guarded,
    /// Valid only under external quiescence (a `&mut` phase, test
    /// setup, an explicit "no concurrent writers" contract): wipes and
    /// resets between measurement phases.
    Quiescent,
    /// A real `Release`/`Acquire` publication edge: the store side
    /// must use `Release` (or `AcqRel`) and some site must consume it
    /// with `Acquire`/`SeqCst`.
    Publish,
}

impl TagClass {
    /// Whether an object whose sites are all `Relaxed` is fully
    /// justified by a tag of this class (the `relaxed-only-object`
    /// protocol rule). A `Publish` argument *requires* non-relaxed
    /// events, so it can never justify a relaxed-only object.
    pub fn relaxed_only_ok(self) -> bool {
        matches!(
            self,
            TagClass::Counter | TagClass::Gate | TagClass::Guarded | TagClass::Quiescent
        )
    }

    /// Stable lowercase name for diagnostics.
    pub fn as_str(self) -> &'static str {
        match self {
            TagClass::Counter => "counter",
            TagClass::Gate => "gate",
            TagClass::Guarded => "guarded",
            TagClass::Quiescent => "quiescent",
            TagClass::Publish => "publish",
        }
    }
}

/// One registered ordering tag.
#[derive(Debug, Clone, Copy)]
pub struct OrderingTag {
    /// Tag id, e.g. `SHALOM-O-POOL-TASK`.
    pub id: &'static str,
    /// One-line summary of the happens-before argument.
    pub summary: &'static str,
    /// When true, the relaxed-publish rule accepts `Relaxed` stores
    /// under this tag even though the same atomic is `Acquire`-loaded
    /// elsewhere in the file (ordering is provided externally — a
    /// mutex, quiescence, or a fence).
    pub relaxed_publish_ok: bool,
    /// The class of happens-before argument this tag makes; the
    /// `protocols` pass enforces per-object class coherence.
    pub class: TagClass,
    /// The `shalom-modelcheck` model that verifies the protocol this
    /// tag belongs to, if one exists (`None` for pure statistics).
    /// Names match `shalom_modelcheck::models::MODEL_NAMES`.
    pub model: Option<&'static str>,
}

/// All tags the audit accepts. Adding an atomic site means either
/// reusing one of these arguments or registering a new tag here with a
/// real happens-before story.
pub const ORDERING_TAGS: &[OrderingTag] = &[
    OrderingTag {
        id: "SHALOM-O-POOL-TASK",
        summary: "pool task cursor: Relaxed RMW/reset; the epoch mutex+condvar publish the batch",
        relaxed_publish_ok: true,
        class: TagClass::Guarded,
        model: Some("pool-epoch"),
    },
    OrderingTag {
        id: "SHALOM-O-POOL-NAME",
        summary: "pool name counter: Relaxed unique-id tick, no data published",
        relaxed_publish_ok: false,
        class: TagClass::Counter,
        model: None,
    },
    OrderingTag {
        id: "SHALOM-O-PLAN-FLAG",
        summary: "override-table occupancy hint: Relaxed, stored under the table's write lock; \
                  stale reads only skip the table (the call computes its plan)",
        relaxed_publish_ok: true,
        class: TagClass::Gate,
        model: Some("plan-shard"),
    },
    OrderingTag {
        id: "SHALOM-O-CACHE-STATS",
        summary:
            "override-table hit/miss counters: Relaxed monotonic stats, read for reporting only",
        relaxed_publish_ok: true,
        class: TagClass::Counter,
        model: Some("plan-shard"),
    },
    OrderingTag {
        id: "SHALOM-O-CAPTURE-STATE",
        summary: "capture state word: Relaxed sink-enable/pause bits only gate capture; records \
                  are published by the ring's shard locks and sharded counters, the lane arena \
                  by OnceLock init, span data by each lane's Release len store",
        relaxed_publish_ok: false,
        class: TagClass::Gate,
        model: None,
    },
    OrderingTag {
        id: "SHALOM-O-TEL-COUNTER",
        summary: "telemetry counters: Relaxed per-shard adds; totals are a racy snapshot by design",
        relaxed_publish_ok: true,
        class: TagClass::Counter,
        model: None,
    },
    OrderingTag {
        id: "SHALOM-O-TEL-SHARD-IDX",
        summary: "shard round-robin cursor: Relaxed tick, only distributes contention",
        relaxed_publish_ok: false,
        class: TagClass::Counter,
        model: None,
    },
    OrderingTag {
        id: "SHALOM-O-RING-TICKET",
        summary: "ring ticket: Relaxed fetch_add numbers records; the shard mutex orders them",
        relaxed_publish_ok: true,
        class: TagClass::Counter,
        model: None,
    },
    OrderingTag {
        id: "SHALOM-O-RING-RESET",
        summary: "ring clear: Relaxed ticket/drop-count wipe valid only under external quiescence",
        relaxed_publish_ok: true,
        class: TagClass::Quiescent,
        model: None,
    },
    OrderingTag {
        id: "SHALOM-O-HIST",
        summary: "histogram buckets: Relaxed adds; snapshots tolerate cross-bucket skew",
        relaxed_publish_ok: true,
        class: TagClass::Counter,
        model: None,
    },
    OrderingTag {
        id: "SHALOM-O-PERF-FD",
        summary: "perf fd slot: AcqRel CAS publishes the opened fd; Acquire load observes it",
        relaxed_publish_ok: false,
        class: TagClass::Publish,
        model: None,
    },
    OrderingTag {
        id: "SHALOM-O-TRACE-LANE-IDX",
        summary: "lane assignment counter: Relaxed fetch_add hands out unique indices only",
        relaxed_publish_ok: false,
        class: TagClass::Counter,
        model: None,
    },
    OrderingTag {
        id: "SHALOM-O-TRACE-PUBLISH",
        summary:
            "single-writer lane: Release len store publishes the slot; Acquire load in snapshot",
        relaxed_publish_ok: false,
        class: TagClass::Publish,
        model: Some("trace-lane"),
    },
    OrderingTag {
        id: "SHALOM-O-TRACE-RESET",
        summary:
            "lane reset: Relaxed wipe valid only under external quiescence (disable/test setup)",
        relaxed_publish_ok: true,
        class: TagClass::Quiescent,
        model: None,
    },
    OrderingTag {
        id: "SHALOM-O-TRACE-DROP",
        summary: "overflow drop counters: Relaxed monotonic stats, read for reporting only",
        relaxed_publish_ok: true,
        class: TagClass::Counter,
        model: None,
    },
    OrderingTag {
        id: "SHALOM-O-SVC-DONE",
        summary: "completion state: Release store under the cell mutex publishes the output \
                  matrix; waiters Acquire-load and recheck under the same mutex before sleeping",
        relaxed_publish_ok: false,
        class: TagClass::Publish,
        model: Some("service-queue"),
    },
    OrderingTag {
        id: "SHALOM-O-SVC-STAMP",
        summary: "completion timestamp: Relaxed stamp sequenced before the state Release on the \
                  scheduler thread; readers only look after Acquiring the state",
        relaxed_publish_ok: true,
        class: TagClass::Guarded,
        model: Some("service-queue"),
    },
    OrderingTag {
        id: "SHALOM-O-SVC-PENDING",
        summary: "scope pending count: Relaxed add under the queue mutex before the item is \
                  reachable; Release sub after cell publish pairs with the Acquire in wait_zero",
        relaxed_publish_ok: true,
        class: TagClass::Publish,
        model: Some("service-queue"),
    },
    OrderingTag {
        id: "SHALOM-O-SVC-STATS",
        summary: "service counters: Relaxed monotone adds/maxes, read for reporting only",
        relaxed_publish_ok: true,
        class: TagClass::Counter,
        model: None,
    },
];

/// Looks a tag up by id.
pub fn find(id: &str) -> Option<&'static OrderingTag> {
    ORDERING_TAGS.iter().find(|t| t.id == id)
}

/// All registered tag ids (for the unknown-tag diagnostic).
pub fn known_ids() -> impl Iterator<Item = &'static str> {
    ORDERING_TAGS.iter().map(|t| t.id)
}

/// The model names referenced by the registry, deduplicated — the
/// modelcheck suite asserts it implements every one of these.
pub fn referenced_models() -> Vec<&'static str> {
    let mut out: Vec<&'static str> = ORDERING_TAGS.iter().filter_map(|t| t.model).collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_are_unique_and_well_formed() {
        let mut seen = HashSet::new();
        for t in ORDERING_TAGS {
            assert!(t.id.starts_with("SHALOM-O-"), "bad prefix: {}", t.id);
            assert!(seen.insert(t.id), "duplicate tag {}", t.id);
            assert!(!t.summary.is_empty());
        }
    }

    #[test]
    fn find_works() {
        assert!(find("SHALOM-O-POOL-TASK").is_some());
        assert!(find("SHALOM-O-NOPE").is_none());
    }

    #[test]
    fn referenced_models_are_the_four_protocols() {
        assert_eq!(
            referenced_models(),
            vec!["plan-shard", "pool-epoch", "service-queue", "trace-lane"]
        );
    }

    #[test]
    fn relaxed_only_classes() {
        assert!(TagClass::Counter.relaxed_only_ok());
        assert!(TagClass::Quiescent.relaxed_only_ok());
        assert!(!TagClass::Publish.relaxed_only_ok());
        assert_eq!(TagClass::Gate.as_str(), "gate");
    }
}
