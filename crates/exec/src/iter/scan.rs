//! Scan operators: sequential heap scan, clustered index (range) scan, and
//! two-phase unclustered index scan.

use super::{finish_tuple, ExecContext, TupleIter};
use crate::expr::Expr;
use qpipe_common::{QError, QResult, Tuple, Value};
use qpipe_storage::catalog::TableInfo;
use qpipe_storage::lock::TableLockGuard;
use qpipe_storage::{BufferPool, Rid};
use std::sync::Arc;

/// Sequential scan over a heap file, through the buffer pool. It reads
/// every page, so it issues each next page's read before it decodes the
/// current one, as the staged engine's scanner does: the disk moves the
/// next block while the CPU decodes this one.
pub struct SeqScanIter {
    pool: Arc<BufferPool>,
    table: Arc<TableInfo>,
    predicate: Option<Expr>,
    projection: Option<Vec<usize>>,
    num_pages: u64,
    next_page: u64,
    current: Vec<Tuple>,
    pos: usize,
    /// Shared table lock held for the scan's lifetime (§4.3.4).
    _lock: TableLockGuard,
}

impl SeqScanIter {
    pub fn open(
        ctx: &ExecContext,
        table: &str,
        predicate: Option<Expr>,
        projection: Option<Vec<usize>>,
    ) -> QResult<Self> {
        let info = ctx.catalog.table(table)?;
        let lock = ctx.catalog.locks().lock_shared(table);
        Ok(Self {
            pool: ctx.catalog.pool().clone(),
            num_pages: info.num_pages()?,
            table: info,
            predicate,
            projection,
            next_page: 0,
            current: Vec::new(),
            pos: 0,
            _lock: lock,
        })
    }
}

impl TupleIter for SeqScanIter {
    fn next(&mut self) -> QResult<Option<Tuple>> {
        loop {
            while self.pos < self.current.len() {
                let t = std::mem::take(&mut self.current[self.pos]);
                self.pos += 1;
                if let Some(out) = finish_tuple(t, &self.predicate, &self.projection)? {
                    return Ok(Some(out));
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
            self.current = block.rows()?;
            self.pos = 0;
        }
    }
}

/// Clustered index scan: reads only the page range covering `[lo, hi]` on
/// the table's sort key, re-checking the key bounds per tuple.
pub struct ClusteredIndexScanIter {
    pool: Arc<BufferPool>,
    table: Arc<TableInfo>,
    key_col: usize,
    lo: Option<Value>,
    hi: Option<Value>,
    predicate: Option<Expr>,
    projection: Option<Vec<usize>>,
    next_page: u64,
    end_page: u64,
    current: Vec<Tuple>,
    pos: usize,
    _lock: TableLockGuard,
}

impl ClusteredIndexScanIter {
    pub fn open(
        ctx: &ExecContext,
        table: &str,
        lo: Option<Value>,
        hi: Option<Value>,
        predicate: Option<Expr>,
        projection: Option<Vec<usize>>,
    ) -> QResult<Self> {
        let info = ctx.catalog.table(table)?;
        let ci = info
            .clustered
            .as_ref()
            .ok_or_else(|| QError::Plan(format!("table {table:?} has no clustered index")))?;
        let (start, end) = ci.page_range(lo.as_ref(), hi.as_ref());
        let key_col = ci.key_col();
        let lock = ctx.catalog.locks().lock_shared(table);
        Ok(Self {
            pool: ctx.catalog.pool().clone(),
            table: info,
            key_col,
            lo,
            hi,
            predicate,
            projection,
            next_page: start,
            end_page: end,
            current: Vec::new(),
            pos: 0,
            _lock: lock,
        })
    }
}

impl TupleIter for ClusteredIndexScanIter {
    fn next(&mut self) -> QResult<Option<Tuple>> {
        loop {
            while self.pos < self.current.len() {
                let t = std::mem::take(&mut self.current[self.pos]);
                self.pos += 1;
                let key = &t[self.key_col];
                if self.lo.as_ref().is_some_and(|v| key < v) {
                    continue;
                }
                if self.hi.as_ref().is_some_and(|v| key > v) {
                    // Sorted: nothing further can match.
                    self.next_page = self.end_page;
                    self.current.clear();
                    self.pos = 0;
                    return Ok(None);
                }
                if let Some(out) = finish_tuple(t, &self.predicate, &self.projection)? {
                    return Ok(Some(out));
                }
            }
            if self.next_page >= self.end_page {
                return Ok(None);
            }
            let block = self.pool.get(self.table.file_id(), self.next_page)?;
            self.next_page += 1;
            self.current = block.rows()?;
            self.pos = 0;
        }
    }
}

/// Unclustered index scan (paper §3.2): phase 1 probes the index and builds a
/// RID list sorted by page (full overlap); phase 2 fetches heap pages in
/// ascending page order.
pub struct UnclusteredIndexScanIter {
    ctx: ExecContext,
    table_name: String,
    column: String,
    lo: Option<Value>,
    hi: Option<Value>,
    predicate: Option<Expr>,
    projection: Option<Vec<usize>>,
    state: Option<FetchState>,
    _lock: Option<TableLockGuard>,
}

struct FetchState {
    pool: Arc<BufferPool>,
    table: Arc<TableInfo>,
    rids: Vec<Rid>,
    next: usize,
    /// Cached page to serve consecutive RIDs on the same page. Slotted pages
    /// decode only the fetched record; columnar pages materialize whole-page
    /// (cached inside the page handle, so repeat RIDs are refcount bumps).
    cached_page: Option<(u64, qpipe_storage::Block)>,
}

impl UnclusteredIndexScanIter {
    #[allow(clippy::too_many_arguments)]
    pub fn open(
        ctx: &ExecContext,
        table: &str,
        column: &str,
        lo: Option<Value>,
        hi: Option<Value>,
        predicate: Option<Expr>,
        projection: Option<Vec<usize>>,
    ) -> QResult<Self> {
        // Validate eagerly so planning errors surface at open.
        let info = ctx.catalog.table(table)?;
        info.unclustered_index(column)
            .ok_or_else(|| QError::Plan(format!("no unclustered index on {table}.{column}")))?;
        let lock = ctx.catalog.locks().lock_shared(table);
        Ok(Self {
            ctx: ctx.clone(),
            table_name: table.to_string(),
            column: column.to_string(),
            lo,
            hi,
            predicate,
            projection,
            state: None,
            _lock: Some(lock),
        })
    }

    /// Phase 1: RID-list creation (sorted on page number inside).
    fn probe(&self) -> QResult<FetchState> {
        let table = self.ctx.catalog.table(&self.table_name)?;
        let idx = table
            .unclustered_index(&self.column)
            .ok_or_else(|| QError::NotFound(format!("index {}", self.column)))?;
        let pool = self.ctx.catalog.pool().clone();
        let rids = idx.rid_list(&pool, self.lo.as_ref(), self.hi.as_ref())?;
        Ok(FetchState { pool, table, rids, next: 0, cached_page: None })
    }
}

impl TupleIter for UnclusteredIndexScanIter {
    fn next(&mut self) -> QResult<Option<Tuple>> {
        let st = match self.state {
            Some(ref mut st) => st,
            None => self.state.insert(self.probe()?),
        };
        while st.next < st.rids.len() {
            let rid = st.rids[st.next];
            st.next += 1;
            let block = match st.cached_page {
                Some((page, ref block)) if page == rid.page => block,
                _ => {
                    let block = st.pool.get(st.table.file_id(), rid.page)?;
                    &st.cached_page.insert((rid.page, block)).1
                }
            };
            let tuple = match block {
                qpipe_storage::Block::Slotted(page) => {
                    qpipe_storage::page::decode_tuple(page.record(rid.slot)?)?
                }
                qpipe_storage::Block::Columnar(cp) => {
                    let batch = cp.materialize()?;
                    if (rid.slot as usize) >= batch.len() {
                        return Err(QError::Storage(format!(
                            "no slot {} on page {}",
                            rid.slot, rid.page
                        )));
                    }
                    batch.row(rid.slot as usize)
                }
            };
            if let Some(out) = finish_tuple(tuple, &self.predicate, &self.projection)? {
                return Ok(Some(out));
            }
        }
        Ok(None)
    }
}
