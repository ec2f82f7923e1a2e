//! Join operators: hybrid hash join (with grace partitioning), merge join,
//! and block nested-loop join.

use super::spill::{RunHandle, RunWriter, GRACE_PARTITIONS};
use super::{ExecContext, TupleIter};
use crate::expr::Expr;
use qpipe_common::{MemClass, MemLease, QResult, Tuple, Value};
use std::collections::HashMap;

fn concat(left: &Tuple, right: &Tuple) -> Tuple {
    let mut out = Vec::with_capacity(left.len() + right.len());
    out.extend(left.iter().cloned());
    out.extend(right.iter().cloned());
    out
}

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

/// Hybrid hash join. Build side = left input.
///
/// If the build side fits the memory budget, a single in-memory hash table is
/// used. Otherwise both sides are partitioned to temp files by key hash
/// (grace hash join) and each partition pair is joined in memory. The paper's
/// WoP analysis (§3.2) treats the build/partition phase as *full* overlap and
/// the probe phase as *step* overlap.
pub struct HashJoinIter {
    left_key: usize,
    right_key: usize,
    ctx: ExecContext,
    state: HjState,
}

enum HjState {
    /// Both inputs, not yet read: the first `next` builds.
    Pending {
        left: Box<dyn TupleIter>,
        right: Box<dyn TupleIter>,
    },
    /// In-memory probe: hash table + streaming right input.
    Probing {
        table: HashMap<u64, Vec<Tuple>>,
        right: Box<dyn TupleIter>,
        /// Matches pending for the current right tuple.
        pending: Vec<Tuple>,
        /// Lease covering the build table for the probe's duration.
        _lease: MemLease,
    },
    /// Grace: per-partition joining.
    Grace {
        parts: Vec<(RunHandle, RunHandle)>,
        current: usize,
        table: HashMap<u64, Vec<Tuple>>,
        right_rows: std::vec::IntoIter<Tuple>,
        pending: Vec<Tuple>,
        /// Lease re-acquired per partition pair as it loads. A denial here
        /// has no further fallback (partitions are already the fallback) —
        /// it is counted as `mem_waited` and the load proceeds, making
        /// partition-sized overshoot visible instead of silent.
        lease: MemLease,
    },
    Done,
}

impl HashJoinIter {
    pub fn new(
        left: Box<dyn TupleIter>,
        right: Box<dyn TupleIter>,
        left_key: usize,
        right_key: usize,
        ctx: ExecContext,
    ) -> Self {
        Self { left_key, right_key, ctx, state: HjState::Pending { left, right } }
    }

    fn key_hash(v: &Value) -> u64 {
        v.stable_hash()
    }

    /// Build phase: returns either an in-memory table or grace partitions.
    fn build(
        &self,
        mut left: Box<dyn TupleIter>,
        mut right: Box<dyn TupleIter>,
    ) -> QResult<HjState> {
        // The build side grows under a governor lease: a denied grant (hash
        // budget reached, or the global budget exhausted by concurrent
        // queries) is the overflow-to-grace decision.
        let mut lease = self.ctx.governor.lease(MemClass::Hash);
        let mut buffered: Vec<Tuple> = Vec::new();
        let mut overflow = false;
        while let Some(t) = left.next()? {
            buffered.push(t);
            if !lease.covers(buffered.len()) {
                overflow = true;
                break;
            }
        }

        if !overflow {
            let mut table: HashMap<u64, Vec<Tuple>> = HashMap::with_capacity(buffered.len());
            for t in buffered {
                if t[self.left_key].is_null() {
                    continue;
                }
                table.entry(Self::key_hash(&t[self.left_key])).or_default().push(t);
            }
            return Ok(HjState::Probing { table, right, pending: Vec::new(), _lease: lease });
        }

        // Grace: partition build side (buffered prefix + remainder)...
        let disk = self.ctx.catalog.disk().clone();
        let mut lw: Vec<RunWriter> = (0..GRACE_PARTITIONS)
            .map(|_| RunWriter::create(disk.clone(), "hj-build"))
            .collect::<QResult<_>>()?;
        let push_left = |t: &Tuple, lw: &mut Vec<RunWriter>| -> QResult<()> {
            if !t[self.left_key].is_null() {
                let p = (Self::key_hash(&t[self.left_key]) % GRACE_PARTITIONS as u64) as usize;
                lw[p].push(t)?;
            }
            Ok(())
        };
        for t in &buffered {
            push_left(t, &mut lw)?;
        }
        drop(buffered);
        while let Some(t) = left.next()? {
            push_left(&t, &mut lw)?;
        }
        // ...then the probe side.
        let mut rw: Vec<RunWriter> = (0..GRACE_PARTITIONS)
            .map(|_| RunWriter::create(disk.clone(), "hj-probe"))
            .collect::<QResult<_>>()?;
        while let Some(t) = right.next()? {
            if !t[self.right_key].is_null() {
                let p = (Self::key_hash(&t[self.right_key]) % GRACE_PARTITIONS as u64) as usize;
                rw[p].push(&t)?;
            }
        }
        let mut parts = Vec::with_capacity(GRACE_PARTITIONS);
        for (l, r) in lw.into_iter().zip(rw) {
            parts.push((l.finish()?, r.finish()?));
        }
        lease.shrink_to(0);
        Ok(HjState::Grace {
            parts,
            current: 0,
            table: HashMap::new(),
            right_rows: Vec::new().into_iter(),
            pending: Vec::new(),
            lease,
        })
    }
}

impl TupleIter for HashJoinIter {
    fn next(&mut self) -> QResult<Option<Tuple>> {
        loop {
            match &mut self.state {
                HjState::Pending { .. } => {
                    if let HjState::Pending { left, right } =
                        std::mem::replace(&mut self.state, HjState::Done)
                    {
                        self.state = self.build(left, right)?;
                    }
                }
                HjState::Probing { table, right, pending, _lease } => {
                    if let Some(out) = pending.pop() {
                        return Ok(Some(out));
                    }
                    let Some(rt) = right.next()? else {
                        self.state = HjState::Done;
                        continue;
                    };
                    let key = &rt[self.right_key];
                    if key.is_null() {
                        continue;
                    }
                    if let Some(matches) = table.get(&Self::key_hash(key)) {
                        for lt in matches {
                            // Hash collisions: confirm real key equality.
                            if lt[self.left_key] == *key {
                                pending.push(concat(lt, &rt));
                            }
                        }
                    }
                }
                HjState::Grace { parts, current, table, right_rows, pending, lease } => {
                    if let Some(out) = pending.pop() {
                        return Ok(Some(out));
                    }
                    // Advance within the current partition's probe rows.
                    if let Some(rt) = right_rows.next() {
                        let key = &rt[self.right_key];
                        if let Some(matches) = table.get(&Self::key_hash(key)) {
                            for lt in matches {
                                if lt[self.left_key] == *key {
                                    pending.push(concat(lt, &rt));
                                }
                            }
                        }
                        continue;
                    }
                    // Load the next partition.
                    if *current >= parts.len() {
                        self.state = HjState::Done;
                        continue;
                    }
                    let (lrun, rrun) = &parts[*current];
                    *current += 1;
                    table.clear();
                    lease.shrink_to(0);
                    let mut loaded = 0usize;
                    let mut lr = lrun.reader();
                    let lk = self.left_key;
                    while let Some(t) = lr.next()? {
                        table.entry(Self::key_hash(&t[lk])).or_default().push(t);
                        loaded += 1;
                    }
                    let mut rows = Vec::new();
                    let mut rr = rrun.reader();
                    while let Some(t) = rr.next()? {
                        rows.push(t);
                        loaded += 1;
                    }
                    // Account the partition pair against the governor; see
                    // the `lease` field docs for the denial semantics.
                    let _ = lease.covers(loaded);
                    *right_rows = rows.into_iter();
                }
                HjState::Done => return Ok(None),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Merge join
// ---------------------------------------------------------------------------

/// Merge join over inputs sorted ascending on their keys. Handles duplicate
/// keys on both sides by buffering the right-side group.
pub struct MergeJoinIter {
    left: Box<dyn TupleIter>,
    right: Box<dyn TupleIter>,
    left_key: usize,
    right_key: usize,
    current_left: Option<Tuple>,
    right_group: Vec<Tuple>,
    group_pos: usize,
    /// Lookahead right tuple not yet part of a group.
    right_peek: Option<Tuple>,
    done: bool,
}

impl MergeJoinIter {
    pub fn new(
        left: Box<dyn TupleIter>,
        right: Box<dyn TupleIter>,
        left_key: usize,
        right_key: usize,
    ) -> Self {
        Self {
            left,
            right,
            left_key,
            right_key,
            current_left: None,
            right_group: Vec::new(),
            group_pos: 0,
            right_peek: None,
            done: false,
        }
    }

    fn next_right(&mut self) -> QResult<Option<Tuple>> {
        if let Some(t) = self.right_peek.take() {
            return Ok(Some(t));
        }
        self.right.next()
    }

    /// Load the group of right tuples with key = `key`; assumes the stream is
    /// positioned at or before that key's group.
    fn load_right_group(&mut self, key: &Value) -> QResult<bool> {
        // Reuse the current group if it already matches.
        if self.right_group.first().is_some_and(|t| t[self.right_key] == *key) {
            self.group_pos = 0;
            return Ok(true);
        }
        self.right_group.clear();
        self.group_pos = 0;
        loop {
            let Some(rt) = self.next_right()? else {
                return Ok(false);
            };
            let rk = &rt[self.right_key];
            if rk < key {
                continue;
            }
            if rk == key {
                self.right_group.push(rt);
                // Pull the rest of the group.
                loop {
                    match self.next_right()? {
                        Some(t) if t[self.right_key] == *key => self.right_group.push(t),
                        Some(t) => {
                            self.right_peek = Some(t);
                            break;
                        }
                        None => break,
                    }
                }
                return Ok(true);
            }
            // rk > key: stash and report no group.
            self.right_peek = Some(rt);
            return Ok(false);
        }
    }
}

impl TupleIter for MergeJoinIter {
    fn next(&mut self) -> QResult<Option<Tuple>> {
        if self.done {
            return Ok(None);
        }
        loop {
            // Emit remaining pairs for the current left tuple.
            if let Some(lt) = &self.current_left {
                if self.group_pos < self.right_group.len() {
                    let out = concat(lt, &self.right_group[self.group_pos]);
                    self.group_pos += 1;
                    return Ok(Some(out));
                }
            }
            // Advance left.
            let Some(lt) = self.left.next()? else {
                self.done = true;
                return Ok(None);
            };
            let key = lt[self.left_key].clone();
            if key.is_null() {
                continue;
            }
            let has_group = self.load_right_group(&key)?;
            self.current_left = Some(lt);
            if !has_group {
                self.current_left = None;
                self.right_group.clear();
                self.group_pos = 0;
                continue;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Nested-loop join
// ---------------------------------------------------------------------------

/// Block nested-loop join: the right side is buffered in memory once, then
/// each left tuple is tested against every right tuple.
pub struct NestedLoopJoinIter {
    left: Box<dyn TupleIter>,
    right: Option<Box<dyn TupleIter>>,
    predicate: Expr,
    right_rows: Vec<Tuple>,
    current_left: Option<Tuple>,
    right_pos: usize,
}

impl NestedLoopJoinIter {
    pub fn new(left: Box<dyn TupleIter>, right: Box<dyn TupleIter>, predicate: Expr) -> Self {
        Self {
            left,
            right: Some(right),
            predicate,
            right_rows: Vec::new(),
            current_left: None,
            right_pos: 0,
        }
    }
}

impl TupleIter for NestedLoopJoinIter {
    fn next(&mut self) -> QResult<Option<Tuple>> {
        // The first call buffers the right side.
        if let Some(mut right) = self.right.take() {
            while let Some(t) = right.next()? {
                self.right_rows.push(t);
            }
        }
        loop {
            if let Some(lt) = &self.current_left {
                while self.right_pos < self.right_rows.len() {
                    let rt = &self.right_rows[self.right_pos];
                    self.right_pos += 1;
                    let joined = concat(lt, rt);
                    if self.predicate.eval_bool(&joined)? {
                        return Ok(Some(joined));
                    }
                }
            }
            match self.left.next()? {
                None => return Ok(None),
                Some(lt) => {
                    self.current_left = Some(lt);
                    self.right_pos = 0;
                }
            }
        }
    }
}
