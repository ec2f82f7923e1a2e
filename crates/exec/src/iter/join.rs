//! Join operators: in-memory hash join, merge join, and block nested-loop
//! join.

use super::TupleIter;
use crate::expr::Expr;
use qpipe_common::{QResult, Tuple, Value};
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

/// Hash join. Build side = left input, held whole in one in-memory hash
/// table; the right input streams past it. NULL keys never join. The paper's
/// WoP analysis (§3.2) treats the build phase as *full* overlap and the
/// probe phase as *step* overlap.
pub struct HashJoinIter {
    left_key: usize,
    right_key: usize,
    /// The build input, until the first `next` hashes it into `table`.
    left: Option<Box<dyn TupleIter>>,
    right: Box<dyn TupleIter>,
    /// Build rows by key hash.
    table: HashMap<u64, Vec<Tuple>>,
    /// Matches pending for the current right tuple.
    pending: Vec<Tuple>,
}

impl HashJoinIter {
    pub fn new(
        left: Box<dyn TupleIter>,
        right: Box<dyn TupleIter>,
        left_key: usize,
        right_key: usize,
    ) -> Self {
        Self {
            left_key,
            right_key,
            left: Some(left),
            right,
            table: HashMap::new(),
            pending: Vec::new(),
        }
    }
}

impl TupleIter for HashJoinIter {
    fn next(&mut self) -> QResult<Option<Tuple>> {
        if let Some(mut left) = self.left.take() {
            while let Some(t) = left.next()? {
                if !t[self.left_key].is_null() {
                    self.table.entry(t[self.left_key].stable_hash()).or_default().push(t);
                }
            }
        }
        loop {
            if let Some(out) = self.pending.pop() {
                return Ok(Some(out));
            }
            let Some(rt) = self.right.next()? else {
                return Ok(None);
            };
            let key = &rt[self.right_key];
            if key.is_null() {
                continue;
            }
            if let Some(matches) = self.table.get(&key.stable_hash()) {
                // Hash collisions: confirm real key equality.
                for lt in matches.iter().filter(|lt| lt[self.left_key] == *key) {
                    self.pending.push(concat(lt, &rt));
                }
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
