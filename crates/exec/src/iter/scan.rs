//! The oracle's one scan: a sequential heap scan, which answers a table scan
//! and both index scans alike. An index scan is the same scan with its key
//! range checked on every row: the oracle never reads an index, so it checks
//! the index code the staged engine runs (`viter::PageRangeReader`) instead
//! of sharing it.

use super::{ExecContext, TupleIter};
use crate::expr::Expr;
use crate::plan::PlanNode;
use qpipe_common::{QError, QResult, Tuple, Value};
use qpipe_storage::catalog::TableInfo;
use qpipe_storage::lock::TableLockGuard;
use qpipe_storage::BufferPool;
use std::sync::Arc;

/// Sequential scan over a heap file, through the buffer pool, in page then
/// slot order — the order both index scans return. It reads every page, as
/// it must not assume the heap is sorted, so it issues each next page's read
/// before it decodes the current one, as the staged engine's scanner does:
/// the disk moves the next block while the CPU decodes this one.
pub struct SeqScanIter {
    pool: Arc<BufferPool>,
    table: Arc<TableInfo>,
    /// An index scan's key column and bounds `[lo, hi]` under `Value`'s total
    /// order. NULL sorts lowest, so an unbounded side keeps NULL keys, as the
    /// index does.
    range: Option<(usize, Option<Value>, Option<Value>)>,
    predicate: Option<Expr>,
    projection: Option<Vec<usize>>,
    num_pages: u64,
    next_page: u64,
    current: std::vec::IntoIter<Tuple>,
    /// Shared table lock held for the scan's lifetime (§4.3.4).
    _lock: TableLockGuard,
}

impl SeqScanIter {
    /// Open a scan plan: a table scan or either index scan. A scan naming a
    /// column its table lacks, in its predicate or its projection, or an
    /// index the table lacks, is refused with `QError::Plan` before any page
    /// is read.
    pub fn open(plan: &PlanNode, ctx: &ExecContext) -> QResult<Self> {
        let (table, predicate, projection) = match plan {
            PlanNode::TableScan { table, predicate, projection, .. }
            | PlanNode::ClusteredIndexScan { table, predicate, projection, .. }
            | PlanNode::UnclusteredIndexScan { table, predicate, projection, .. } => {
                (table, predicate, projection)
            }
            _ => return Err(QError::Exec(format!("{} is not a table scan", plan.op_name()))),
        };
        let info = ctx.catalog.table(table)?;
        let width = info.schema.len();
        let mut cols = projection.clone().unwrap_or_default();
        if let Some(p) = predicate {
            p.collect_cols(&mut cols);
        }
        if let Some(c) = cols.into_iter().find(|&c| c >= width) {
            return Err(QError::Plan(format!(
                "scan column {c} out of range for table {table:?} of {width} columns"
            )));
        }
        let range = match plan {
            PlanNode::ClusteredIndexScan { lo, hi, .. } => {
                let ci = info.clustered.as_ref().ok_or_else(|| {
                    QError::Plan(format!("table {table:?} has no clustered index"))
                })?;
                Some((ci.key_col(), lo.clone(), hi.clone()))
            }
            PlanNode::UnclusteredIndexScan { column, lo, hi, .. } => {
                let idx = info.unclustered_index(column).ok_or_else(|| {
                    QError::Plan(format!("no unclustered index on {table}.{column}"))
                })?;
                Some((idx.key_col(), lo.clone(), hi.clone()))
            }
            _ => None,
        };
        let lock = ctx.catalog.locks().lock_shared(table);
        Ok(Self {
            pool: ctx.catalog.pool().clone(),
            num_pages: info.num_pages()?,
            table: info,
            range,
            predicate: predicate.clone(),
            projection: projection.clone(),
            next_page: 0,
            current: Vec::new().into_iter(),
            _lock: lock,
        })
    }

    /// Is `row` within the range, its predicate true?
    fn keeps(&self, row: &Tuple) -> QResult<bool> {
        if let Some((key, lo, hi)) = &self.range {
            let k = column(row, *key)?;
            if lo.as_ref().is_some_and(|lo| k < lo) || hi.as_ref().is_some_and(|hi| k > hi) {
                return Ok(false);
            }
        }
        self.predicate.as_ref().map_or(Ok(true), |p| p.eval_bool(row))
    }
}

/// Column `c` of `row`, or an error if the row is too short for it.
fn column(row: &Tuple, c: usize) -> QResult<&Value> {
    row.get(c)
        .ok_or_else(|| QError::Storage(format!("a row of {} columns has no column {c}", row.len())))
}

impl TupleIter for SeqScanIter {
    fn next(&mut self) -> QResult<Option<Tuple>> {
        loop {
            while let Some(row) = self.current.next() {
                if self.keeps(&row)? {
                    return Ok(Some(match &self.projection {
                        None => row,
                        Some(cols) => cols
                            .iter()
                            .map(|&c| column(&row, c).cloned())
                            .collect::<QResult<_>>()?,
                    }));
                }
            }
            if self.next_page >= self.num_pages {
                return Ok(None);
            }
            let block = self.pool.get(self.table.file_id(), self.next_page)?;
            self.next_page += 1;
            if self.next_page < self.num_pages {
                self.pool.prefetch(self.table.file_id(), self.next_page);
            }
            self.current = block.rows()?.into_iter();
        }
    }
}
