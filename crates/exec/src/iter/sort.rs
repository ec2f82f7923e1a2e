//! In-memory sort.
//!
//! The first `next` collects the whole input and stable-sorts it; later
//! calls hand the rows out in order. The paper treats sort as a two-phase
//! operator (§3.2): phase 1 (consume and sort) is a *full* overlap (any
//! newcomer can share), phase 2 pipelines like a file scan. This is the
//! oracle's sort: it never spills, so the staged engine's external sort
//! (`VecSort`) is checked against a reference that shares none of its run
//! or merge code.

use super::TupleIter;
use crate::plan::SortKey;
use qpipe_common::{QResult, Tuple};
use std::cmp::Ordering;

/// Compare two tuples on a key list.
pub fn cmp_keys(a: &Tuple, b: &Tuple, keys: &[SortKey]) -> Ordering {
    for k in keys {
        let ord = a[k.col].cmp(&b[k.col]);
        let ord = if k.asc { ord } else { ord.reverse() };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

pub struct SortIter {
    keys: Vec<SortKey>,
    /// The unread input, until the first `next` sorts it into `sorted`.
    input: Option<Box<dyn TupleIter>>,
    sorted: std::vec::IntoIter<Tuple>,
}

impl SortIter {
    pub fn new(input: Box<dyn TupleIter>, keys: Vec<SortKey>) -> Self {
        Self { keys, input: Some(input), sorted: Vec::new().into_iter() }
    }
}

impl TupleIter for SortIter {
    fn next(&mut self) -> QResult<Option<Tuple>> {
        if let Some(input) = self.input.take() {
            let mut rows = super::collect(input)?;
            rows.sort_by(|a, b| cmp_keys(a, b, &self.keys));
            self.sorted = rows.into_iter();
        }
        Ok(self.sorted.next())
    }
}
