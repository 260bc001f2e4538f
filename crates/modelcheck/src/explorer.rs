//! The interleaving explorer: exhaustive DFS over every schedule of a
//! finite-state concurrent [`System`].
//!
//! # Shape
//!
//! A model implements [`System`]: a value type holding the *entire*
//! program state — shared memory, every thread's program counter and
//! locals. The explorer owns scheduling: at each state it asks every
//! thread for its enabled actions and branches on all of them, so every
//! reachable interleaving (under sequential consistency) is visited
//! exactly once.
//!
//! Three design points keep exhaustive exploration tractable and
//! useful:
//!
//! * **State dedup.** States are `Eq + Hash`; a visited set prunes
//!   re-entered states, collapsing the `O(C(n·k, k))` schedule tree
//!   into its state graph. Invariants are checked on *states*, so
//!   pruning never skips a violation.
//! * **Blocking as enabledness.** Mutex acquire and condvar waits are
//!   modeled as actions that are simply absent until their predicate
//!   holds. A state where no thread has an action and not every thread
//!   is finished is a deadlock (which covers lost-wakeup bugs).
//! * **Weak memory as extra actions.** The explorer itself is
//!   sequentially consistent. A weakened ordering (a Release store
//!   downgraded to Relaxed) is modeled by the
//!   *mutated* system offering the reordered step as an additional
//!   nondeterministic action — the exact transformation the weaker
//!   ordering permits. The checker then searches for a schedule where
//!   the reordering is observable.
//!
//! Every transition carries a `&'static str` label (the per-step
//! atomic-event record); a violation reports the full schedule of
//! labels that reaches it, which reads as a human-checkable
//! interleaving proof.

use std::collections::HashSet;
use std::hash::Hash;

/// A finite-state concurrent program under test.
///
/// The value *is* the global state; `step` is the only mutator. The
/// explorer clones states freely, so keep them small (a few machine
/// words of PCs, locals and shared cells).
pub trait System: Clone + Eq + Hash {
    /// Number of threads. Thread ids are `0..thread_count()`.
    fn thread_count(&self) -> usize;

    /// Labels of the actions thread `tid` can take *now*. Empty means
    /// the thread is either finished or blocked (a mutex held by
    /// another thread, a condvar predicate not yet true).
    fn actions(&self, tid: usize) -> Vec<&'static str>;

    /// Whether thread `tid` has terminated. Distinguishes "no actions
    /// because done" from "no actions because blocked" for deadlock
    /// detection.
    fn finished(&self, tid: usize) -> bool;

    /// Execute action `action` (an index into `actions(tid)`) of
    /// thread `tid`. Must be deterministic: all nondeterminism lives
    /// in the choice of `(tid, action)`.
    fn step(&mut self, tid: usize, action: usize);

    /// The safety invariant, checked on every reachable state.
    /// `Err(message)` fails exploration with a counterexample trace.
    fn check(&self) -> Result<(), String>;
}

/// Exploration bounds. Both are backstops, not tuning knobs: the
/// models in this crate stay far below the defaults.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Maximum schedule length before `DepthExceeded`.
    pub max_depth: usize,
    /// Maximum distinct states before `StateBudget`.
    pub max_states: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            max_depth: 512,
            max_states: 2_000_000,
        }
    }
}

/// One scheduled transition in a counterexample trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    /// The thread that ran.
    pub tid: usize,
    /// The action's label, as returned by [`System::actions`].
    pub label: &'static str,
}

/// Why exploration stopped early.
#[derive(Clone, Debug)]
pub enum Violation {
    /// [`System::check`] failed on a reachable state.
    Invariant {
        /// The message from `check()`.
        message: String,
        /// The schedule that reaches the bad state.
        trace: Vec<Step>,
    },
    /// A reachable state where no thread can act and not all finished.
    Deadlock {
        /// The schedule that reaches the stuck state.
        trace: Vec<Step>,
    },
    /// A schedule exceeded [`Options::max_depth`] — the model likely
    /// has an unbounded loop.
    DepthExceeded {
        /// The schedule at the depth limit.
        trace: Vec<Step>,
    },
    /// More than [`Options::max_states`] distinct states.
    StateBudget {
        /// The number of states at the point of giving up.
        states: usize,
    },
}

impl Violation {
    /// The counterexample schedule, if this violation carries one.
    pub fn trace(&self) -> &[Step] {
        match self {
            Violation::Invariant { trace, .. }
            | Violation::Deadlock { trace }
            | Violation::DepthExceeded { trace } => trace,
            Violation::StateBudget { .. } => &[],
        }
    }

    /// Human-readable report: the verdict plus the numbered schedule.
    pub fn render(&self) -> String {
        let mut out = match self {
            Violation::Invariant { message, .. } => format!("invariant violated: {message}\n"),
            Violation::Deadlock { .. } => "deadlock: no thread can act\n".to_string(),
            Violation::DepthExceeded { .. } => "schedule depth limit exceeded\n".to_string(),
            Violation::StateBudget { states } => {
                return format!("state budget exceeded after {states} states")
            }
        };
        for (i, s) in self.trace().iter().enumerate() {
            out.push_str(&format!("  {:>3}. t{} {}\n", i + 1, s.tid, s.label));
        }
        out
    }
}

/// Exploration statistics for a model with no violation.
#[derive(Clone, Copy, Debug, Default)]
pub struct Report {
    /// Distinct states visited (after dedup).
    pub distinct_states: usize,
    /// Transitions executed (edges of the state graph).
    pub transitions: usize,
    /// Distinct terminal states (every thread finished).
    pub terminal_states: usize,
    /// Longest schedule explored.
    pub max_depth: usize,
}

/// Exhaustively explores every interleaving of `initial`.
///
/// Returns the exploration [`Report`] if every reachable state passes
/// [`System::check`], no state deadlocks, and the bounds hold;
/// otherwise the first [`Violation`] found, with its schedule.
pub fn explore<S: System>(initial: S, opts: &Options) -> Result<Report, Violation> {
    struct Frame<S> {
        state: S,
        /// `(tid, action-index, label)` for every enabled action.
        choices: Vec<(usize, usize, &'static str)>,
        next: usize,
    }

    enum Entered {
        Expanded,
        Pruned,
    }

    let mut visited: HashSet<S> = HashSet::new();
    let mut stack: Vec<Frame<S>> = Vec::new();
    let mut trace: Vec<Step> = Vec::new();
    let mut report = Report::default();

    // Checks a newly reached state and either pushes a frame for it
    // (Expanded) or drops it (Pruned: already visited, or terminal).
    let enter = |state: S,
                 stack: &mut Vec<Frame<S>>,
                 trace: &[Step],
                 visited: &mut HashSet<S>,
                 report: &mut Report|
     -> Result<Entered, Violation> {
        if let Err(message) = state.check() {
            return Err(Violation::Invariant {
                message,
                trace: trace.to_vec(),
            });
        }
        if !visited.insert(state.clone()) {
            return Ok(Entered::Pruned);
        }
        report.distinct_states += 1;
        if report.distinct_states > opts.max_states {
            return Err(Violation::StateBudget {
                states: report.distinct_states,
            });
        }
        let mut choices = Vec::new();
        for tid in 0..state.thread_count() {
            for (a, label) in state.actions(tid).into_iter().enumerate() {
                choices.push((tid, a, label));
            }
        }
        if choices.is_empty() {
            return if (0..state.thread_count()).all(|t| state.finished(t)) {
                report.terminal_states += 1;
                Ok(Entered::Pruned)
            } else {
                Err(Violation::Deadlock {
                    trace: trace.to_vec(),
                })
            };
        }
        if trace.len() >= opts.max_depth {
            return Err(Violation::DepthExceeded {
                trace: trace.to_vec(),
            });
        }
        stack.push(Frame {
            state,
            choices,
            next: 0,
        });
        Ok(Entered::Expanded)
    };

    enter(initial, &mut stack, &trace, &mut visited, &mut report)?;

    while let Some(top) = stack.last_mut() {
        if top.next < top.choices.len() {
            let (tid, action, label) = top.choices[top.next];
            top.next += 1;
            let mut next = top.state.clone();
            next.step(tid, action);
            report.transitions += 1;
            trace.push(Step { tid, label });
            report.max_depth = report.max_depth.max(trace.len());
            if let Entered::Pruned = enter(next, &mut stack, &trace, &mut visited, &mut report)? {
                trace.pop();
            }
        } else {
            stack.pop();
            if !stack.is_empty() {
                // Pop the edge that led into the finished frame; the
                // root frame has no incoming edge.
                trace.pop();
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two threads each increment a shared counter `k` times; a third
    /// "thread" is already finished at start. No blocking, no bugs.
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct Counters {
        left: u8,
        done: [u8; 2],
        k: u8,
    }

    impl System for Counters {
        fn thread_count(&self) -> usize {
            2
        }
        fn actions(&self, tid: usize) -> Vec<&'static str> {
            if self.done[tid] < self.k {
                vec!["inc"]
            } else {
                vec![]
            }
        }
        fn finished(&self, tid: usize) -> bool {
            self.done[tid] == self.k
        }
        fn step(&mut self, tid: usize, _action: usize) {
            self.left += 1;
            self.done[tid] += 1;
        }
        fn check(&self) -> Result<(), String> {
            if self.left > 2 * self.k {
                return Err("over-incremented".into());
            }
            Ok(())
        }
    }

    #[test]
    fn counts_states_and_terminals() {
        let r = explore(
            Counters {
                left: 0,
                done: [0, 0],
                k: 3,
            },
            &Options::default(),
        )
        .expect("no violation");
        // The state is (done0, done1) — `left` is their sum — so the
        // graph is the 4x4 grid: 16 states, 1 terminal, 24 edges.
        assert_eq!(r.distinct_states, 16);
        assert_eq!(r.terminal_states, 1);
        assert_eq!(r.transitions, 24);
        assert_eq!(r.max_depth, 6);
    }

    /// Classic ABBA: two threads take two locks in opposite order.
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct Abba {
        locks: [Option<usize>; 2],
        pc: [u8; 2],
    }

    impl System for Abba {
        fn thread_count(&self) -> usize {
            2
        }
        fn actions(&self, tid: usize) -> Vec<&'static str> {
            // Thread 0 takes lock 0 then 1; thread 1 takes 1 then 0;
            // both then release the pair.
            match (tid, self.pc[tid]) {
                (0, 0) | (1, 1) if self.locks[0].is_none() => vec!["lock A"],
                (0, 1) | (1, 0) if self.locks[1].is_none() => vec!["lock B"],
                (_, 2) => vec!["unlock both"],
                _ => vec![],
            }
        }
        fn finished(&self, tid: usize) -> bool {
            self.pc[tid] >= 3
        }
        fn step(&mut self, tid: usize, _action: usize) {
            match (tid, self.pc[tid]) {
                (0, 0) | (1, 1) => self.locks[0] = Some(tid),
                (0, 1) | (1, 0) => self.locks[1] = Some(tid),
                (_, 2) => self.locks = [None, None],
                _ => {}
            }
            self.pc[tid] += 1;
        }
        fn check(&self) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn abba_deadlock_is_found_with_trace() {
        let v = explore(
            Abba {
                locks: [None, None],
                pc: [0, 0],
            },
            &Options::default(),
        )
        .expect_err("must deadlock");
        match &v {
            Violation::Deadlock { trace } => {
                assert_eq!(trace.len(), 2, "{}", v.render());
                let tids: Vec<usize> = trace.iter().map(|s| s.tid).collect();
                assert!(tids.contains(&0) && tids.contains(&1));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    /// A thread that can always act never terminates: the depth bound
    /// must fire rather than spinning forever, even with dedup off the
    /// table (the state changes every step).
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct Runaway {
        n: u64,
    }

    impl System for Runaway {
        fn thread_count(&self) -> usize {
            1
        }
        fn actions(&self, _tid: usize) -> Vec<&'static str> {
            vec!["spin"]
        }
        fn finished(&self, _tid: usize) -> bool {
            false
        }
        fn step(&mut self, _tid: usize, _action: usize) {
            self.n += 1;
        }
        fn check(&self) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn depth_bound_stops_unbounded_models() {
        let v = explore(
            Runaway { n: 0 },
            &Options {
                max_depth: 16,
                ..Options::default()
            },
        )
        .expect_err("must hit the depth bound");
        assert!(matches!(v, Violation::DepthExceeded { .. }), "{v:?}");
        assert_eq!(v.trace().len(), 16);
    }

    /// Invariant failures carry the schedule that reaches them.
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct Bomb {
        n: u8,
    }

    impl System for Bomb {
        fn thread_count(&self) -> usize {
            1
        }
        fn actions(&self, _tid: usize) -> Vec<&'static str> {
            if self.n < 3 {
                vec!["tick"]
            } else {
                vec![]
            }
        }
        fn finished(&self, _tid: usize) -> bool {
            self.n >= 3
        }
        fn step(&mut self, _tid: usize, _action: usize) {
            self.n += 1;
        }
        fn check(&self) -> Result<(), String> {
            if self.n == 2 {
                Err("boom".into())
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn invariant_violation_renders_the_schedule() {
        let v = explore(Bomb { n: 0 }, &Options::default()).expect_err("must fail");
        match &v {
            Violation::Invariant { message, trace } => {
                assert_eq!(message, "boom");
                assert_eq!(trace.len(), 2);
            }
            other => panic!("expected invariant violation, got {other:?}"),
        }
        let r = v.render();
        assert!(r.contains("boom") && r.contains("t0 tick"), "{r}");
    }
}
