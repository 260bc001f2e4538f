//! Executable model of the plan-override table (`SHALOM-O-CACHE-STATS`,
//! `SHALOM-O-PLAN-FLAG` and the RwLock discipline around them).
//!
//! Lookups take the table's read lock, installs the write lock; an
//! entry is written in two steps (key, then value), which is only safe
//! because the write lock excludes readers for the whole pair. Two
//! kinds of **Relaxed** atomics sit beside the lock and never
//! synchronize anything: the hit/miss statistics (counter-class), and
//! the occupancy hint (gate-class) — stored under the write lock after
//! the entry it counts, loaded by a lookup *before* it takes any lock.
//! A looker that reads 0 computes its plan and never touches the table.
//! The explorer is sequentially consistent, so a stale hint read is the
//! interleaving that reads earlier, and all a stale 0 can mean is "this
//! call computes". The inserter installs two overrides in a row, so a
//! looker can pass the gate on the first while the second is in flight.
//!
//! Safety properties:
//!
//! * readers never observe a half-written entry (key set, value not);
//! * the hint never runs ahead of the table: a looker that read `h`
//!   finds the first `h` entries whole once it holds the read lock;
//! * the lock itself is exclusive: never a writer and a reader inside
//!   simultaneously.
//!
//! The seeded mutation [`Mutation::UnlockedInsert`] drops the write
//! lock around the installs — the explorer finds the schedule where a
//! looker admitted by the first override's hint lands between the two
//! writes of the second and observes the torn entry. No variant flags
//! the Relaxed atomics themselves: losing ordering on them is benign,
//! which is exactly why the audit classifies them gate- and
//! counter-class.

use crate::explorer::System;

/// Which (if any) bug is seeded into the model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mutation {
    /// The protocol as shipped: installs hold the write lock.
    None,
    /// Install without taking the write lock.
    UnlockedInsert,
}

/// Overrides the inserter installs, one after the other.
const ENTRIES: u8 = 2;
/// Inserter steps per override: lock, key, value, hint, unlock.
const I_STEPS: u8 = 5;
const I_DONE: u8 = ENTRIES * I_STEPS;
const L_DONE: u8 = 9;

#[derive(Clone, PartialEq, Eq, Hash)]
struct Looker {
    pc: u8,
    /// The hint value that admitted this looker past the gate.
    saw_hint: u8,
    saw_torn: bool,
    hint_ran_ahead: bool,
}

/// The model: one inserter (tid 0) plus `lookers.len()` lookup
/// threads over a two-entry table.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PlanShard {
    mutation: Mutation,
    /// Read-side of the table RwLock: number of readers inside.
    readers_in: u8,
    /// Write-side of the table RwLock.
    writer_in: bool,
    /// The two-step entries: key slot, then value slot.
    key_set: [bool; ENTRIES as usize],
    val_set: [bool; ENTRIES as usize],
    /// Relaxed occupancy hint: entries installed so far.
    hint: u8,
    /// Relaxed statistics counters (benign by design).
    hits: u8,
    misses: u8,
    inserter: u8,
    lookers: Vec<Looker>,
}

impl PlanShard {
    /// An empty table with `lookers` concurrent lookup threads and two
    /// installs in flight.
    pub fn new(lookers: usize, mutation: Mutation) -> PlanShard {
        PlanShard {
            mutation,
            readers_in: 0,
            writer_in: false,
            key_set: [false; ENTRIES as usize],
            val_set: [false; ENTRIES as usize],
            hint: 0,
            hits: 0,
            misses: 0,
            inserter: 0,
            lookers: vec![
                Looker {
                    pc: 0,
                    saw_hint: 0,
                    saw_torn: false,
                    hint_ran_ahead: false,
                };
                lookers
            ],
        }
    }

    fn inserter_actions(&self) -> Vec<&'static str> {
        if self.inserter >= I_DONE {
            return vec![];
        }
        match self.inserter % I_STEPS {
            0 => match self.mutation {
                Mutation::None => {
                    if self.readers_in == 0 && !self.writer_in {
                        vec!["ins: write-lock table"]
                    } else {
                        vec![]
                    }
                }
                Mutation::UnlockedInsert => vec!["ins: SKIP write lock"],
            },
            1 => vec!["ins: entry.key = k"],
            2 => vec!["ins: entry.value = plan"],
            3 => vec!["ins: hint.store(len, Relaxed)"],
            _ => match self.mutation {
                Mutation::None => vec!["ins: write-unlock table"],
                Mutation::UnlockedInsert => vec!["ins: (nothing to unlock)"],
            },
        }
    }

    fn inserter_step(&mut self) {
        let entry = (self.inserter / I_STEPS) as usize;
        let locked = self.mutation == Mutation::None;
        match self.inserter % I_STEPS {
            0 => self.writer_in = locked,
            1 => self.key_set[entry] = true,
            2 => self.val_set[entry] = true,
            3 => self.hint = entry as u8 + 1,
            _ => self.writer_in = false,
        }
        self.inserter += 1;
    }

    fn looker_actions(&self, l: &Looker) -> Vec<&'static str> {
        match l.pc {
            0 => vec!["look: hint.load(Relaxed); 0 -> compute, no table read"],
            1 => {
                if !self.writer_in {
                    vec!["look: read-lock table"]
                } else {
                    vec![]
                }
            }
            2 => vec!["look: read entries (key, value)"],
            3 => vec!["look: hit/miss stat (Relaxed), read-unlock"],
            _ => vec![],
        }
    }

    fn looker_step(&mut self, idx: usize) {
        let whole = |e: usize| self.key_set[e] && self.val_set[e];
        let torn = (0..ENTRIES as usize).any(|e| self.key_set[e] != self.val_set[e]);
        let hint = self.hint;
        let looker = &self.lookers[idx];
        let ran_ahead = (0..looker.saw_hint as usize).any(|e| !whole(e));
        let found = whole(0);
        let looker = &mut self.lookers[idx];
        match looker.pc {
            0 => {
                looker.saw_hint = hint;
                looker.pc = if hint == 0 { L_DONE } else { 1 };
            }
            1 => {
                self.readers_in += 1;
                looker.pc = 2;
            }
            2 => {
                looker.saw_torn |= torn;
                looker.hint_ran_ahead |= ran_ahead;
                looker.pc = 3;
            }
            3 => {
                if found {
                    self.hits += 1;
                } else {
                    self.misses += 1;
                }
                self.readers_in -= 1;
                looker.pc = L_DONE;
            }
            _ => unreachable!("looker stepped while done"),
        }
    }
}

impl System for PlanShard {
    fn thread_count(&self) -> usize {
        1 + self.lookers.len()
    }

    fn actions(&self, tid: usize) -> Vec<&'static str> {
        if tid == 0 {
            self.inserter_actions()
        } else {
            self.looker_actions(&self.lookers[tid - 1])
        }
    }

    fn finished(&self, tid: usize) -> bool {
        if tid == 0 {
            self.inserter == I_DONE
        } else {
            self.lookers[tid - 1].pc == L_DONE
        }
    }

    fn step(&mut self, tid: usize, _action: usize) {
        if tid == 0 {
            self.inserter_step();
        } else {
            self.looker_step(tid - 1);
        }
    }

    fn check(&self) -> Result<(), String> {
        if self.writer_in && self.readers_in > 0 {
            return Err(format!(
                "rwlock exclusion violated: writer inside with {} readers",
                self.readers_in
            ));
        }
        for (i, l) in self.lookers.iter().enumerate() {
            if l.saw_torn {
                return Err(format!("torn shard entry observed by looker {i}"));
            }
            if l.hint_ran_ahead {
                return Err(format!(
                    "looker {i} was admitted by hint {} but found fewer whole entries",
                    l.saw_hint
                ));
            }
        }
        Ok(())
    }
}
