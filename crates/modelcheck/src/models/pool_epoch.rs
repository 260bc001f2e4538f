//! Executable model of the worker pool's call-publish protocol
//! (`SHALOM-O-POOL-TASK` and the park/unpark handshake around it).
//!
//! The leader locks the pool mutex, writes the call slot (the job
//! payload), bumps the epoch, then unlocks and notifies. Parked
//! workers wake when the epoch moves past the one they last served,
//! read the job *under the mutex*, reserve the workspace size the slot
//! carries (the payload `prewarm` publishes), then drain tasks from a
//! **Relaxed** shared counter — safe only because the mutex already
//! ordered the job publish before any counter traffic. Finally each
//! worker retires under the lock and the last one wakes the leader.
//! Completion waits on the workers alone, so a call with no tasks at all
//! (a `prewarm`) completes exactly like one with many.
//!
//! Safety properties:
//!
//! * a worker never executes a job observed *stale* — its job value
//!   must match the epoch it woke for (the happens-before edge the
//!   mutex provides);
//! * every task index is claimed exactly once (the Relaxed counter's
//!   only obligation — atomicity of `fetch_add`);
//! * every worker reserved the current call's size before it retired;
//! * the park/unpark handshake is deadlock-free (condvars are modeled
//!   as enabledness, so a lost wakeup shows up as a deadlock).
//!
//! The seeded mutation [`Mutation::UnsyncedPublish`] removes the
//! mutex edge from the publish: the leader's epoch bump may drift
//! ahead of the job write (the transformation a Relaxed publish
//! permits), and workers check the epoch without taking the lock. The
//! explorer finds the schedule where a worker runs the *previous*
//! call's job payload — a stale read.
//!
//! The seeded mutation [`Mutation::BarrierPrewarm`] is `prewarm` as it
//! was: every task waits at a barrier sized to the task count, which it
//! set to the *requested* participant count. With fewer workers than
//! that (a failed spawn) each claims one task and waits for arrivals
//! that never come — the explorer reports the deadlock.

use crate::explorer::System;

/// Which (if any) bug is seeded into the model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mutation {
    /// The protocol as shipped: publish and wake under the mutex.
    None,
    /// Publish the epoch without the mutex edge: the leader may bump
    /// the epoch before the job write lands, and workers spot the new
    /// epoch without locking.
    UnsyncedPublish,
    /// Every task waits at a barrier of `tasks` arrivals, with `tasks`
    /// set to a participant count the pool may not have.
    BarrierPrewarm,
}

const L_DONE: u8 = 9;
const W_DONE: u8 = 9;

#[derive(Clone, PartialEq, Eq, Hash)]
struct Worker {
    pc: u8,
    seen_epoch: u8,
    job: u8,
    /// The slot payload this worker reserved its workspace for (0: not
    /// yet).
    reserved: u8,
}

/// The model: a leader (tid 0) publishing one call of `tasks` task
/// indices to `workers.len()` workers.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PoolEpoch {
    mutation: Mutation,
    /// The pool mutex: `Some(tid)` while held.
    lock: Option<u8>,
    /// Monotone call counter (`PoolState::epoch`).
    epoch: u8,
    /// The call slot payload; for epoch `e` the correct value is `e`.
    job: u8,
    /// `Pool::next_task`, the Relaxed drain counter.
    next_task: u8,
    tasks: u8,
    /// Which task indices have been executed (and by how many claims).
    executed: Vec<u8>,
    /// Tasks that reached the barrier ([`Mutation::BarrierPrewarm`]).
    arrived: u8,
    /// Workers retired from the current call.
    retired: u8,
    leader: u8,
    workers: Vec<Worker>,
    /// Set when a worker runs with a job value that does not match the
    /// epoch it woke for.
    stale: Option<(u8, u8)>,
}

impl PoolEpoch {
    /// A fresh instance: one published call of `tasks` tasks drained
    /// by `workers` workers.
    pub fn new(workers: usize, tasks: u8, mutation: Mutation) -> PoolEpoch {
        PoolEpoch {
            mutation,
            lock: None,
            epoch: 0,
            job: 0,
            next_task: 0,
            tasks,
            executed: vec![0; tasks as usize],
            arrived: 0,
            retired: 0,
            leader: 0,
            workers: vec![
                Worker {
                    pc: 0,
                    seen_epoch: 0,
                    job: 0,
                    reserved: 0,
                };
                workers
            ],
            stale: None,
        }
    }

    fn leader_actions(&self) -> Vec<&'static str> {
        match self.leader {
            0 => {
                if self.lock.is_none() {
                    vec!["L: lock pool mutex"]
                } else {
                    vec![]
                }
            }
            1 => {
                let mut a = vec!["L: call slot = job"];
                if self.mutation == Mutation::UnsyncedPublish {
                    a.push("L: epoch += 1 EARLY (publish unordered)");
                }
                a
            }
            2 => vec!["L: epoch += 1 (publish)"],
            3 => vec!["L: unlock + notify_all(work_cv)"],
            4 => {
                // wait(done_cv) until every worker retired: modeled as
                // an action that only exists once the predicate holds.
                if self.retired as usize == self.workers.len() {
                    vec!["L: observe all retired (done_cv)"]
                } else {
                    vec![]
                }
            }
            // UnsyncedPublish tail: the job write lands after the
            // early epoch bump.
            5 => vec!["L: late call slot = job"],
            _ => vec![],
        }
    }

    fn leader_step(&mut self, action: usize) {
        match (self.leader, action) {
            (0, _) => {
                self.lock = Some(0);
                self.leader = 1;
            }
            (1, 0) => {
                self.job = 1;
                self.leader = 2;
            }
            // Mutated path: epoch bump drifts ahead of the job write.
            (1, 1) => {
                self.epoch = 1;
                self.leader = 5;
            }
            (2, _) => {
                self.epoch = 1;
                self.leader = 3;
            }
            (3, _) => {
                self.lock = None;
                self.leader = 4;
            }
            (4, _) => {
                self.leader = L_DONE;
            }
            (5, _) => {
                self.job = 1;
                self.leader = 3;
            }
            _ => unreachable!("leader stepped while done"),
        }
    }

    fn worker_actions(&self, w: &Worker) -> Vec<&'static str> {
        match w.pc {
            0 => match self.mutation {
                // wait(work_cv) until the epoch moves, then re-acquire
                // the mutex: one combined wake-holding-lock action.
                Mutation::None | Mutation::BarrierPrewarm => {
                    if self.epoch > w.seen_epoch && self.lock.is_none() {
                        vec!["W: wake with lock (epoch moved)"]
                    } else {
                        vec![]
                    }
                }
                // Mutated: spot the epoch without the lock.
                Mutation::UnsyncedPublish => {
                    if self.epoch > w.seen_epoch {
                        vec!["W: spot epoch WITHOUT lock"]
                    } else {
                        vec![]
                    }
                }
            },
            1 => vec!["W: read call slot, unlock"],
            2 => vec!["W: reserve the slot's workspace size"],
            3 => vec!["W: fetch_add(next_task, Relaxed)"],
            4 => {
                if self.lock.is_none() {
                    vec!["W: lock for retire"]
                } else {
                    vec![]
                }
            }
            5 => vec!["W: retired += 1, unlock + notify(done_cv)"],
            6 => {
                if self.arrived as usize == self.executed.len() {
                    vec!["W: leave barrier (all tasks arrived)"]
                } else {
                    vec![]
                }
            }
            _ => vec![],
        }
    }

    fn worker_step(&mut self, idx: usize, action: usize) {
        let tid = (idx + 1) as u8;
        let epoch = self.epoch;
        let job = self.job;
        let pc = self.workers[idx].pc;
        match (pc, action) {
            (0, _) => {
                if self.mutation != Mutation::UnsyncedPublish {
                    self.lock = Some(tid);
                }
                self.workers[idx].pc = 1;
            }
            (1, _) => {
                let w = &mut self.workers[idx];
                w.job = job;
                w.seen_epoch = epoch;
                if self.mutation != Mutation::UnsyncedPublish {
                    self.lock = None;
                }
                self.workers[idx].pc = 2;
            }
            (2, _) => {
                let w = &mut self.workers[idx];
                // Reserving *uses* the payload the slot carries, so a
                // stale slot read shows here even in a call with no tasks.
                if w.job != w.seen_epoch {
                    self.stale = Some((w.job, w.seen_epoch));
                }
                w.reserved = w.job;
                w.pc = 3;
            }
            (3, _) => {
                let i = self.next_task;
                self.next_task += 1;
                if (i as usize) < self.executed.len() {
                    self.executed[i as usize] += 1;
                    let w = &self.workers[idx];
                    // Executing a task *uses* the job payload: the
                    // stale-read detection point.
                    if w.job != w.seen_epoch {
                        self.stale = Some((w.job, w.seen_epoch));
                    }
                    if self.mutation == Mutation::BarrierPrewarm {
                        self.arrived += 1;
                        self.workers[idx].pc = 6;
                    }
                } else {
                    self.workers[idx].pc = 4;
                }
            }
            (4, _) => {
                self.lock = Some(tid);
                self.workers[idx].pc = 5;
            }
            (5, _) => {
                self.retired += 1;
                self.lock = None;
                self.workers[idx].pc = W_DONE;
            }
            (6, _) => {
                self.workers[idx].pc = 3;
            }
            _ => unreachable!("worker stepped while done"),
        }
    }
}

impl System for PoolEpoch {
    fn thread_count(&self) -> usize {
        1 + self.workers.len()
    }

    fn actions(&self, tid: usize) -> Vec<&'static str> {
        if tid == 0 {
            self.leader_actions()
        } else {
            self.worker_actions(&self.workers[tid - 1])
        }
    }

    fn finished(&self, tid: usize) -> bool {
        if tid == 0 {
            self.leader == L_DONE
        } else {
            self.workers[tid - 1].pc == W_DONE
        }
    }

    fn step(&mut self, tid: usize, action: usize) {
        if tid == 0 {
            self.leader_step(action);
        } else {
            self.worker_step(tid - 1, action);
        }
    }

    fn check(&self) -> Result<(), String> {
        if let Some((job, epoch)) = self.stale {
            return Err(format!(
                "stale job read: worker ran payload {job} for epoch {epoch}"
            ));
        }
        for (i, &n) in self.executed.iter().enumerate() {
            if n > 1 {
                return Err(format!("task {i} claimed {n} times"));
            }
        }
        if let Some(w) = self
            .workers
            .iter()
            .position(|w| w.pc == W_DONE && w.reserved != self.epoch)
        {
            return Err(format!(
                "worker {w} retired without reserving the call's size"
            ));
        }
        let all_done = self.leader == L_DONE && self.workers.iter().all(|w| w.pc == W_DONE);
        if all_done {
            if let Some(i) = self.executed.iter().position(|&n| n == 0) {
                return Err(format!("call completed but task {i} never ran"));
            }
        }
        Ok(())
    }
}
