//! Circular scans (paper §4.3.1, Figure 7).
//!
//! A *scanner* serves each in-progress shared scan of a relation. It is a job
//! on the scan µEngine's pool (§4.2: a µEngine is a queue served by a pool of
//! threads): it holds its worker until the scan ends, then the worker goes
//! back to the pool for the next group. The first scan request starts the
//! scanner; later requests attach as satellites. Per-consumer
//! predicates/projections are applied by the scanner, so queries with
//! *different* selection predicates still share one physical scan — the
//! property Figure 12's random-predicate TPC-H mix exploits. With OSP
//! disabled every request gets a dedicated scanner and all sharing
//! degenerates to buffer-pool timing — the paper's Baseline.
//!
//! The scanner is the group's only reader: it claims one page at a time,
//! waits for the page's read, issues the read of the page after it (when an
//! enrolled consumer still needs one), then decodes the page and runs every
//! consumer's kernel itself. So the disk moves page p + 1 while the scanner
//! works on page p, as the paper's circular scan overlaps its disk with its
//! CPU, and the group still reads its file in page order, one read ahead —
//! which the disk charges as sequential reads (`disk_seq_reads`) rather than
//! seeks. The read ahead belongs to the buffer pool, not to the scanner
//! (`BufferPool::prefetch`): whoever asks for that page next completes it,
//! so a scanner parked on a full pipe holds up no other reader.
//!
//! Each consumer's predicate and projection form its [`ScanKernel`], the
//! one statement of how a base-table scan reads a page, which the
//! index-scan reader runs too. [`ScanManager::submit`] builds it against the
//! table's width and refuses a request naming a column the table lacks: its
//! pipe fails with the `QError::Plan`, and it reads no page. Per page, the
//! scanner decodes the union of its consumers' columns once (every column,
//! when one consumer reads them all or the union does); each consumer picks
//! its own columns out of that batch with one `project` (`Arc` bumps) and
//! runs its kernel, whose evaluation errors fail the scan.
//!
//! Past its fetch, a page's layout matters only to its codec: the scanner
//! asks `Block::decode` for the union, and the page's decode cache hands out
//! each column an earlier visit decoded as an `Arc` bump. A columnar page
//! carries that cache in every copy, so its columns are decoded at most once
//! per run; a slotted page has one only as the pool's frame, so a page the
//! scanner found resident decodes only the columns no earlier visit did, and
//! one it had to read decodes afresh.
//!
//! # Scan start and attach rules
//!
//! Scan start is wait-free: a new scanner takes the table's shared lock and
//! claims page 0 at once, so a query that opens a group pays nothing for
//! sharing it may never get (§5, "negligible overhead"). No clock takes part
//! in attaching. What a newcomer gets depends only on the group's
//! `pages_read`, which the scanner advances under the group lock in the same
//! critical section in which it adopts its inbox and *claims* a page:
//!
//! * **`pages_read == 0`** — the group is indexed but its first page is
//!   not claimed yet. The newcomer joins at position 0 with the host: same
//!   page sequence, no wrap, and ordered consumers are welcome. [`ScanManager::submit`] attaches or indexes a
//!   group under one lock, and indexes it *before* handing its scanner to
//!   the pool, so the scans of a burst submitted right behind the first one
//!   land here, from whichever thread dispatches them. So does everything
//!   submitted while the table is exclusively locked (§4.3.4): the scanner
//!   blocks on the shared lock before it claims anything.
//! * **`pages_read > 0`** — the scan is under way. The newcomer records the
//!   scanner's current position as its own start (thereby "setting the new
//!   termination point"); the group becomes *staggered*: when the scanner
//!   reaches end-of-file with unsatisfied consumers it wraps around and keeps
//!   reading, so every consumer still sees every page exactly once. Column
//!   pruning is the same either way: the union of what the consumers read.
//! * **Ordered consumers** (spike overlap) may only join at
//!   `pages_read == 0`, unless their packet is flagged `split_ok` (an
//!   ancestor merge-join will restart at the wrap point, §4.3.2); otherwise
//!   they get a dedicated scanner.
//! * A group whose scanner has exited (`finished`) refuses attaches; the
//!   request starts a new group.
//!
//! Adoption is not instantaneous — the scanner picks its inbox up before it
//! claims each page — but *enrollment* is: from that moment the request's
//! pipe names the scanner as its producer in the waits-for graph (§4.3.3), so a
//! deadlock cycle through a scanner parked on a full pipe with requests
//! still in its inbox is visible to the detector.
//!
//! # Delivery: full batches
//!
//! A consumer's share of a page may be a handful of rows, and every batch on
//! the wire costs its reader a wake-up. So each consumer's surviving rows go
//! through the delivery rule every producer follows, stated once in
//! [`Rechunk`]: a batch goes out only once the consumer has at least
//! [`ColBatch::DEFAULT_CAPACITY`] rows pending, or when it has seen its last
//! page. A page share that is already that large, arriving with nothing
//! pending, goes out as it is — for an unfiltered page, the page's batch,
//! whose columns are the ones its decode cache holds. Rows keep their page
//! order. A consumer that is abandoned, or whose group fails, drops its
//! pending rows unsent: a failed scan never reads as a shorter complete one.
//!
//! Pending rows cannot wedge a query. The scanner blocks only on its own
//! pipe sends, the buffer pool and the table lock; a consumer waiting for
//! rows that sit pending keeps its waits-for edge to the scanner, so any
//! cycle through the scanner also passes through one of the scanner's own
//! full pipes, which the waits-for graph materializes as it does for any
//! producer's.

use crate::pipe::PipeProducer;
use crate::pool::WorkerPool;
use parking_lot::Mutex;
use qpipe_common::trace::{OpProbe, QueryTrace, TraceEvent};
use qpipe_common::{ColBatch, Metrics, QError, QResult};
use qpipe_exec::expr::Expr;
use qpipe_exec::iter::ExecContext;
use qpipe_exec::viter::{Rechunk, ScanKernel};
use std::collections::HashMap;
use std::sync::Arc;

/// A request to scan one table on behalf of one packet.
pub struct ScanRequest {
    pub table: String,
    pub predicate: Option<Expr>,
    pub projection: Option<Vec<usize>>,
    pub output: PipeProducer,
    /// Consumer requires stored order.
    pub ordered: bool,
    /// Wrapped delivery acceptable despite `ordered` (merge-join restart).
    pub split_ok: bool,
    /// The requesting scan operator's profiling probe (`None` when tracing
    /// is off).
    pub probe: Option<Arc<OpProbe>>,
    /// The requesting query's event journal (`None` when tracing is off).
    pub trace: Option<Arc<QueryTrace>>,
}

struct ScanConsumer {
    kernel: ScanKernel,
    /// Needs stored order and cannot take a wrapped delivery: joins only a
    /// group that has not claimed a page.
    in_order: bool,
    output: PipeProducer,
    /// Rows that survived this consumer's kernel but are not sent yet (see
    /// the module docs, "Delivery: full batches").
    pending: Rechunk,
    pages_seen: u64,
    probe: Option<Arc<OpProbe>>,
    trace: Option<Arc<QueryTrace>>,
    /// Attached to an already-running scanner (OSP satellite): pages reach
    /// this consumer from the host's scan, not from its own disk reads.
    satellite: bool,
    /// Pages delivered while riding the shared scan (reported in the
    /// `OspDetach` event at completion).
    pages_from_host: u64,
}

impl ScanConsumer {
    fn new(req: ScanRequest, kernel: ScanKernel) -> Self {
        Self {
            kernel,
            in_order: req.ordered && !req.split_ok,
            output: req.output,
            pending: Rechunk::default(),
            pages_seen: 0,
            probe: req.probe,
            trace: req.trace,
            satellite: false,
            pages_from_host: 0,
        }
    }

    /// Put one batch on the wire; the probe counts what the wire carries.
    fn send(&mut self, batch: Arc<ColBatch>) {
        if let Some(p) = &self.probe {
            p.add_rows(batch.len() as u64);
            p.add_batches(1);
        }
        self.output.push_shared(batch);
    }

    /// The consumer has seen its last page (or the table has none): send
    /// its pending rows, stamp its completion events and end its stream.
    fn complete(mut self) {
        if let Some(last) = self.pending.take() {
            self.send(last);
        }
        self.note_detach();
        self.output.finish();
    }

    /// Stamp the consumer's completion events (no-op when untraced); call
    /// exactly once, when the consumer leaves the group. Scan packets never
    /// route through the µEngine operator wrapper, so the scanner charges the
    /// probe itself (`serve_page`: kernel time per consumer, fetch + decode
    /// to the host) and emits the `OperatorFinished` journal entry from its
    /// counters; satellites additionally stamp their `OspDetach`.
    fn note_detach(&self) {
        let Some(tr) = &self.trace else {
            return;
        };
        if let Some(p) = &self.probe {
            tr.push(TraceEvent::finished("scan", p.stats()));
        }
        if self.satellite {
            tr.push(TraceEvent::OspDetach {
                engine: "scan",
                pages_from_host: self.pages_from_host,
            });
        }
    }
}

/// The table columns a page is decoded with for `consumers`: the union of
/// their kernels' columns, or `None` (every column) when one of them reads
/// every column or the union covers all `width` of them.
fn union_cols(consumers: &[ScanConsumer], width: usize) -> Option<Vec<usize>> {
    let mut union: Vec<usize> = Vec::new();
    for c in consumers {
        union.extend(c.kernel.cols()?);
    }
    union.sort_unstable();
    union.dedup();
    (union.len() < width).then_some(union)
}

struct GroupInner {
    /// Next page the scanner will read.
    position: u64,
    /// Total pages read by this scanner (0 ⇒ brand new, ordered-joinable).
    pages_read: u64,
    /// Consumers waiting to be adopted by the scanner.
    inbox: Vec<ScanConsumer>,
    /// Set when the scanner has returned; no further attaches.
    finished: bool,
}

/// One shared scan of one table, driven by one scanner job.
pub struct ScanGroup {
    table: String,
    /// The scanner's identity in the waits-for graph (§4.3.3: all
    /// outputs of one executing thread share one node). Every enrolled
    /// request's pipe is re-pointed at it *when it enrolls*, not when the
    /// scanner adopts it: a request parked in the inbox of a scanner that is
    /// itself blocked on a full pipe is already waiting on that scanner, and
    /// a cycle through it must be visible to the detector.
    node: crate::deadlock::NodeId,
    inner: Mutex<GroupInner>,
}

impl ScanGroup {
    /// Try to enroll a consumer; applies the WoP rules for ordered scans.
    /// The Err hands the consumer back, with `true` when this live group's
    /// window had closed for it (an OSP rejection, as a host counts one).
    #[allow(clippy::result_large_err)]
    fn try_attach(&self, mut c: ScanConsumer) -> Result<(), (ScanConsumer, bool)> {
        let mut g = self.inner.lock();
        if g.finished {
            return Err((c, false));
        }
        if c.in_order && g.pages_read > 0 {
            // Spike overlap: the window closed the moment the first page went
            // out of order for this newcomer.
            return Err((c, true));
        }
        if let Some(tr) = &c.trace {
            tr.push(TraceEvent::OspAttach { engine: "scan" });
        }
        c.output.pipe().set_producer_node(self.node);
        c.satellite = true;
        g.inbox.push(c);
        Ok(())
    }
}

/// Manages all shared scans; one entry point for scan/iscan packets.
pub struct ScanManager {
    ctx: ExecContext,
    /// OSP on/off: on, a request attaches to an in-progress scanner of its
    /// table whenever the attach rules allow; off means one dedicated
    /// scanner per request (Baseline). No timer takes part: when a request
    /// may attach, and what it then receives, is decided by the group's
    /// `pages_read` alone (module docs, "Scan start and attach rules").
    osp: bool,
    metrics: Metrics,
    groups: Mutex<HashMap<String, Vec<Arc<ScanGroup>>>>,
    /// The scan µEngine's pool: one job per group runs its scanner. A job
    /// holds an `Arc` of the manager, so the last one to finish may drop
    /// the pool on its own worker (`pool.rs` allows it).
    pool: WorkerPool,
}

impl ScanManager {
    pub fn new(ctx: ExecContext, osp: bool, metrics: Metrics) -> Arc<Self> {
        let pool = WorkerPool::new("scan", metrics.clone());
        Arc::new(Self { ctx, osp, metrics, groups: Mutex::new(HashMap::new()), pool })
    }

    /// Number of live scan groups for `table` (tests/metrics).
    pub fn group_count(&self, table: &str) -> usize {
        self.groups.lock().get(table).map_or(0, |v| v.len())
    }

    /// Submit a scan request: attach to an in-progress scanner when OSP
    /// allows it, otherwise start a new group and its scanner. The attach
    /// attempt and a new group's indexing happen under one `groups` lock, so
    /// the scans of a burst, dispatched from different threads, all find the
    /// first one's group. A request whose kernel its table refuses fails
    /// its pipe with the `QError::Plan` it returns, and reads nothing.
    pub fn submit(self: &Arc<Self>, req: ScanRequest) -> QResult<()> {
        let info = self.ctx.catalog.table(&req.table)?;
        let width = info.schema.len();
        let kernel =
            ScanKernel::new(width, req.predicate.as_ref(), req.projection.as_deref(), None);
        let mut consumer = match kernel {
            Ok(kernel) => ScanConsumer::new(req, kernel),
            Err(e) => {
                req.output.fail(e.clone());
                return Err(e);
            }
        };
        let mut groups = self.groups.lock();
        if self.osp {
            let mut rejected = false;
            for g in groups.get(&info.name).into_iter().flatten() {
                match g.try_attach(consumer) {
                    Ok(()) => {
                        self.metrics.add_osp_attach("scan");
                        return Ok(());
                    }
                    Err((back, closed)) => {
                        consumer = back;
                        rejected |= closed;
                    }
                }
            }
            if rejected {
                self.metrics.add_osp_rejection();
            }
        }
        // Index a new group under the `groups` lock, release it, then hand
        // the group's scanner to the pool.
        let (file, num_pages) = (info.file_id(), info.num_pages()?);
        let node = crate::packet::fresh_node();
        consumer.output.pipe().set_producer_node(node);
        let group = Arc::new(ScanGroup {
            table: info.name.clone(),
            node,
            inner: Mutex::new(GroupInner {
                position: 0,
                pages_read: 0,
                inbox: vec![consumer],
                finished: false,
            }),
        });
        groups.entry(group.table.clone()).or_default().push(group.clone());
        drop(groups);
        let job = ScannerJob { mgr: self.clone(), group, clean: false };
        self.pool.execute(move || job.run(file, num_pages, width));
        Ok(())
    }

    /// Storage failed mid-scan: fail every attached packet (adopted and
    /// still-inboxed alike) with the error, and refuse further attaches.
    /// Delivering a clean EOF here would pass truncated output off as
    /// complete results — the silent-data-loss bug this replaces.
    fn fail_group(&self, group: &Arc<ScanGroup>, consumers: &mut Vec<ScanConsumer>, e: QError) {
        let stragglers = {
            let mut g = group.inner.lock();
            g.finished = true;
            std::mem::take(&mut g.inbox)
        };
        for c in consumers.drain(..).chain(stragglers) {
            c.output.fail(e.clone());
        }
    }

    /// Fetch + decode one page for the scanner, issuing page `ahead`'s read
    /// between the two. Whatever the page's layout, the batch is
    /// `Block::decode` of the columns `cols` (`None`: all of them): the
    /// columns an earlier visit decoded come from the page's cache as `Arc`
    /// bumps (so an unfiltered columnar page goes on the wire as its cached
    /// columns, no copy), and only the others are decoded.
    fn fetch_page(
        &self,
        file: qpipe_storage::FileId,
        position: u64,
        ahead: Option<u64>,
        cols: Option<&[usize]>,
    ) -> QResult<(Arc<ColBatch>, FetchObs)> {
        let pool = self.ctx.catalog.pool();
        let started = std::time::Instant::now();
        let (block, retries) = pool.get_observed(file, position)?;
        let fetch_ns = started.elapsed().as_nanos() as u64;
        if ahead.is_some_and(|next| pool.prefetch(file, next)) {
            self.metrics.add_scan_page_read_ahead();
        }
        let batch = block.decode(cols)?;
        if cols.is_some() {
            self.metrics.add_pruned_page();
        }
        let decode_ns = (started.elapsed().as_nanos() as u64).saturating_sub(fetch_ns);
        Ok((batch, FetchObs { fetch_ns, decode_ns, retries }))
    }

    /// Serve one claimed page on the scanner: fetch + decode its consumers'
    /// column union once (with the next page's read issued in between),
    /// then run every consumer's kernel over its columns of the shared batch
    /// and deliver the result under the delivery rule ([`Rechunk`]): it is
    /// sent, or kept pending until the consumer has a full batch. A consumer
    /// that has now seen every page sends what is pending and leaves
    /// `consumers`; one that was abandoned leaves with its pending rows
    /// dropped.
    ///
    /// The time the page's read was actually waited for and the decode time
    /// are charged to the host's probe, each consumer's kernel time to its
    /// own (tracing off: one `Option` branch per consumer).
    fn serve_page(
        &self,
        file: qpipe_storage::FileId,
        position: u64,
        num_pages: u64,
        width: usize,
        consumers: &mut Vec<ScanConsumer>,
    ) -> QResult<()> {
        // Read ahead only a page some enrolled consumer will still take:
        // never past a lone scan's last page, and past the file's last page
        // only when a staggered consumer wraps to page 0.
        let ahead = consumers
            .iter()
            .any(|c| c.pages_seen + 1 < num_pages)
            .then_some((position + 1) % num_pages);
        let union = union_cols(consumers, width);
        let (page, fetch) = self.fetch_page(file, position, ahead, union.as_deref())?;
        // The host is the first non-satellite consumer — the scan reads disk
        // on its behalf — or any consumer once the host has finished and
        // satellites are wrapping. A probe's busy time is total − waits, so
        // the decode lands in `busy_ns`.
        if let Some(host) = consumers.iter().find(|c| !c.satellite).or(consumers.first()) {
            if let Some(p) = &host.probe {
                p.add_io_wait_ns(fetch.fetch_ns);
                p.add_total_ns(fetch.fetch_ns + fetch.decode_ns);
            }
            if let Some(tr) = host.trace.as_ref().filter(|_| fetch.retries > 0) {
                tr.push(TraceEvent::BufferpoolRetry { retries: fetch.retries });
            }
        }
        let mut i = 0;
        while i < consumers.len() {
            let c = &mut consumers[i];
            // The cancellation rule (`host.rs`): a cancelled query's scan
            // may still feed a join/agg host that other queries share;
            // deliver while anyone is attached. (Cancelled *and* abandoned
            // consumers detach their pipes, so the pipe probe covers the
            // plain cancellation case too.)
            if c.output.abandoned() {
                consumers.remove(i);
                continue;
            }
            let share = |c: &ScanConsumer| c.kernel.apply(&c.kernel.pick(&page, union.as_deref()));
            let delivery = match &c.probe {
                Some(p) => {
                    let started = std::time::Instant::now();
                    let delivery = share(c);
                    p.add_total_ns(started.elapsed().as_nanos() as u64);
                    delivery
                }
                None => share(c),
            }?;
            if let Some(full) = delivery.map(|share| c.pending.push(share)).transpose()?.flatten() {
                c.send(full);
            }
            if c.satellite {
                c.pages_from_host += 1;
                if let Some(p) = &c.probe {
                    p.add_pages_from_host(1);
                }
            } else if let Some(p) = &c.probe {
                p.add_pages_from_disk(1);
            }
            c.pages_seen += 1;
            if c.pages_seen >= num_pages {
                consumers.remove(i).complete();
            } else {
                i += 1;
            }
        }
        Ok(())
    }

    /// The scanner body: circular page delivery to all consumers.
    ///
    /// Each iteration adopts newcomers and claims one page under the group
    /// lock — advancing the position *at claim time*, so the attach rules
    /// see the truth — then serves that page itself, issuing the next
    /// page's read once this one's is in. One reader takes the file in page
    /// order, which the disk charges as sequential reads; attach/detach and
    /// failure are decided here, between pages, and the column union of
    /// whoever is enrolled, per page.
    fn run_scanner(
        &self,
        group: &Arc<ScanGroup>,
        file: qpipe_storage::FileId,
        num_pages: u64,
        width: usize,
    ) {
        // Shared table lock held for the whole scan (§4.3.4: if the table is
        // locked for writing, the scan — and all its satellites — waits).
        // Nothing is claimed before the lock is granted, so requests arriving
        // meanwhile attach at position 0.
        let _lock = self.ctx.catalog.locks().lock_shared(&group.table);
        let mut consumers: Vec<ScanConsumer> = Vec::new();
        loop {
            // Adopt newcomers and decide termination under the lock; claim
            // the next page in the same critical section. Position and
            // pages_read advance *now*, before the page is served, so an
            // ordered newcomer racing `try_attach` can never observe
            // `pages_read == 0` while delivery is already past page 0.
            let position = {
                let mut g = group.inner.lock();
                consumers.append(&mut g.inbox);
                if consumers.is_empty() || num_pages == 0 {
                    g.finished = true;
                    drop(g);
                    consumers.drain(..).for_each(ScanConsumer::complete);
                    return;
                }
                let position = g.position;
                g.pages_read += 1;
                g.position = (position + 1) % num_pages;
                position
            };
            self.metrics.add_scan_page_claimed();
            // Fetch + decode each page ONCE; every consumer's kernel then
            // runs over the same `ColBatch` (selection vector → gather), so
            // the per-page cost of N attached consumers is N kernel passes
            // over primitive slices — no per-row allocation, no `Value`
            // cloning.
            //
            // * Columnar tables read each column straight from the PAX byte
            //   regions (zero row decode, and cached in every copy of the
            //   page — later visits are refcount bumps).
            // * Row tables walk each record's tag stream once, straight into
            //   typed columns — no tuple per row — cached in the pool's frame.
            //
            // A staggered group (late attacher ⇒ wrap ⇒ pages visited more
            // than once) prunes like any other: a re-visit takes the union's
            // columns from the page's decode cache. Fetch, decode or a kernel
            // failing fails every attached packet — consumers observe the
            // error, never a silently-empty page.
            //
            // A panic out of the page path (e.g. an injected Panic fault
            // surfacing through the buffer pool) is converted to an error
            // here, while the consumer list is still intact, so `fail_group`
            // poisons every attached packet with an error naming the page.
            // The job's drop guard (`ScannerJob`) is only a backstop.
            let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.serve_page(file, position, num_pages, width, &mut consumers)
            }))
            .unwrap_or_else(|_| {
                self.metrics.add_worker_panic();
                Err(QError::Exec(format!(
                    "scanner for {} panicked reading page {position}",
                    group.table
                )))
            });
            if let Err(e) = served {
                self.fail_group(group, &mut consumers, e);
                return;
            }
            if (position + 1).is_multiple_of(num_pages) && !consumers.is_empty() {
                self.metrics.add_circular_wrap();
            }
        }
    }
}

/// A scanner job's hold on its group, moved into the job. Dropped, it takes
/// the group out of the index. Dropped before the scanner returned — the job
/// unwound, or the pool refused it and dropped it unrun — it first fails
/// every packet still enrolled, so none reads a truncated scan as complete.
struct ScannerJob {
    mgr: Arc<ScanManager>,
    group: Arc<ScanGroup>,
    clean: bool,
}

impl ScannerJob {
    fn run(mut self, file: qpipe_storage::FileId, num_pages: u64, width: usize) {
        self.mgr.run_scanner(&self.group, file, num_pages, width);
        self.clean = true;
    }
}

impl Drop for ScannerJob {
    fn drop(&mut self) {
        let (mgr, group) = (&self.mgr, &self.group);
        if !self.clean {
            let err = QError::Exec(format!("scanner for {} did not finish", group.table));
            mgr.fail_group(group, &mut Vec::new(), err);
        }
        let mut groups = mgr.groups.lock();
        if let Some(v) = groups.get_mut(&group.table) {
            v.retain(|g| !Arc::ptr_eq(g, group));
            if v.is_empty() {
                groups.remove(&group.table);
            }
        }
    }
}

/// Observations for one fetched page: wall time spent in the buffer pool
/// (a miss waits for what is left of the page's disk read — nothing, when
/// its read ahead is already in), then issuing the next page's read and
/// decoding the block into the shared batch, and verified-read retries.
struct FetchObs {
    fetch_ns: u64,
    decode_ns: u64,
    retries: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadlock::{NodeId, WaitRegistry};
    use crate::pipe::{Pipe, PipeConfig, PipeConsumer};
    use qpipe_common::{DataType, Metrics, Schema, Value};
    use qpipe_storage::{BufferPool, BufferPoolConfig, Catalog, DiskConfig, PolicyKind, SimDisk};
    use std::time::Duration;

    fn ctx_with_table_layout(
        rows: i64,
        layout: qpipe_storage::StorageLayout,
    ) -> (ExecContext, Metrics) {
        ctx_with_named_table("t", rows, layout)
    }

    fn ctx_with_named_table(
        name: &str,
        rows: i64,
        layout: qpipe_storage::StorageLayout,
    ) -> (ExecContext, Metrics) {
        let schema = Schema::of(&[("k", DataType::Int)]);
        ctx_with(name, schema, (0..rows).map(|i| vec![Value::Int(i)]).collect(), 16, layout)
    }

    /// A fresh catalog over an instant disk and a pool of `frames` pages,
    /// holding one table clustered on its first column.
    fn ctx_with(
        name: &str,
        schema: Schema,
        rows: Vec<qpipe_common::Tuple>,
        frames: usize,
        layout: qpipe_storage::StorageLayout,
    ) -> (ExecContext, Metrics) {
        let metrics = Metrics::new();
        let disk = SimDisk::new(DiskConfig::instant(), metrics.clone());
        let pool = BufferPool::new(disk.clone(), BufferPoolConfig::new(frames, PolicyKind::Lru));
        let catalog = Catalog::new(disk, pool);
        catalog.create_table_with_layout(name, schema, rows, Some(0), layout).unwrap();
        (ExecContext::new(catalog), metrics)
    }

    fn ctx_with_table(rows: i64) -> (ExecContext, Metrics) {
        ctx_with_table_layout(rows, qpipe_storage::StorageLayout::Row)
    }

    fn request(
        reg: &Arc<WaitRegistry>,
        ordered: bool,
        split_ok: bool,
    ) -> (ScanRequest, PipeConsumer) {
        request_cap(reg, ordered, split_ok, 1024)
    }

    fn pair(reg: &Arc<WaitRegistry>, capacity: usize) -> (PipeProducer, PipeConsumer) {
        Pipe::pair(PipeConfig { capacity }, NodeId(1), NodeId(2), reg.clone())
    }

    /// A request whose output pipe holds `capacity` batches of up to
    /// [`ColBatch::DEFAULT_CAPACITY`] rows. Left undrained, it parks the
    /// scanner once the pipe is full and the next batch is ready, so the
    /// scanner first claims pages worth about `(capacity + 1) × 1 024` of its
    /// rows. Only a table several times that long parks it mid-table (see
    /// [`wait_parked_mid_table`]).
    fn request_cap(
        reg: &Arc<WaitRegistry>,
        ordered: bool,
        split_ok: bool,
        capacity: usize,
    ) -> (ScanRequest, PipeConsumer) {
        let (output, consumer) = pair(reg, capacity);
        let req = ScanRequest {
            table: "t".into(),
            predicate: None,
            projection: None,
            output,
            ordered,
            split_ok,
            probe: None,
            trace: None,
        };
        (req, consumer)
    }

    fn manager(ctx: &ExecContext, metrics: &Metrics, osp: bool) -> Arc<ScanManager> {
        ScanManager::new(ctx.clone(), osp, metrics.clone())
    }

    /// Submit `reqs` while `table` is exclusively locked (§4.3.4). The first
    /// request's scanner blocks on the shared lock before claiming page 0, so
    /// every request deterministically joins one group at position 0 — the
    /// attach-before-first-page window, held open by a lock instead of a
    /// clock.
    fn submit_gated(
        ctx: &ExecContext,
        mgr: &Arc<ScanManager>,
        table: &str,
        reqs: Vec<ScanRequest>,
    ) {
        let gate = ctx.catalog.locks().lock_exclusive(table);
        for req in reqs {
            mgr.submit(req).unwrap();
        }
        drop(gate);
    }

    /// Spin (bounded) until `done`: for state another thread reaches a few
    /// instructions after an event this thread already observed, with no
    /// channel to wait on. Never a sleep, never unbounded.
    fn poll_until(what: &str, done: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "timed out: {what}");
            std::thread::yield_now();
        }
    }

    /// Block until the scanner has claimed and read its first page, i.e. the
    /// position-0 window is closed (`pages_read > 0`).
    fn wait_for_first_page(m: &Metrics) {
        poll_until("scanner never read a page", || m.snapshot().disk_blocks_read > 0);
    }

    /// Block until the scanner parks on an undrained pipe, and check the
    /// premise of every latecomer test: it parked mid-table, with pages
    /// still unread, so a request attaching now starts past page 0 and the
    /// scan must wrap for it. (A latecomer attaching after the last claim
    /// starts at page 0 and never wraps.)
    fn wait_parked_mid_table(reg: &WaitRegistry, m: &Metrics, pages: u64) {
        use crate::deadlock::WaitKind;
        poll_until("the scanner never parked", || {
            reg.edges().iter().any(|e| e.kind == WaitKind::ProducerFull)
        });
        let read = m.snapshot().disk_blocks_read;
        assert!(read < pages, "the scanner parked after reading {read} of {pages} pages");
    }

    fn sorted(mut rows: Vec<qpipe_common::Tuple>) -> Vec<qpipe_common::Tuple> {
        rows.sort_by(|a, b| {
            a.iter()
                .zip(b)
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| !o.is_eq())
                .unwrap_or(a.len().cmp(&b.len()))
        });
        rows
    }

    #[test]
    fn single_scan_delivers_everything_in_order() {
        let (ctx, m) = ctx_with_table(5000);
        let mgr = manager(&ctx, &m, true);
        let reg = Arc::new(WaitRegistry::default());
        let (req, consumer) = request(&reg, true, false);
        mgr.submit(req).unwrap();
        let rows = consumer.collect_tuples().unwrap();
        assert_eq!(rows.len(), 5000);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r[0], Value::Int(i as i64), "stored order preserved");
        }
    }

    /// One reader per group, in page order: a lone scan through a cold pool
    /// reads each of the table's pages from disk once, and every read after
    /// the first continues the file's sequential run.
    #[test]
    fn lone_scan_reads_its_table_as_one_sequential_run() {
        let (ctx, m) = ctx_with_table(5000);
        let pages = ctx.catalog.table("t").unwrap().num_pages().unwrap();
        assert!(pages > 2, "a run needs a few pages: {pages}");
        ctx.catalog.pool().clear();
        let before = m.snapshot();
        let mgr = manager(&ctx, &m, true);
        let reg = Arc::new(WaitRegistry::default());
        let (req, consumer) = request(&reg, false, false);
        mgr.submit(req).unwrap();
        assert_eq!(consumer.collect_tuples().unwrap().len(), 5000);
        let d = m.snapshot().delta_since(&before);
        assert_eq!(d.disk_blocks_read, pages, "a cold pool: every page from disk, once");
        assert_eq!(d.disk_seq_reads, pages - 1, "only the first read seeks");
        assert_eq!(d.morsels_dispatched, pages, "one claim per page");
    }

    /// The same cold scan reads every page after the first ahead: page p + 1
    /// is issued while page p is served, and nothing past the last page.
    #[test]
    fn lone_cold_scan_reads_every_page_after_the_first_ahead() {
        let (ctx, m) = ctx_with_table(5000);
        let pages = ctx.catalog.table("t").unwrap().num_pages().unwrap();
        ctx.catalog.pool().clear();
        let before = m.snapshot();
        let mgr = manager(&ctx, &m, true);
        let reg = Arc::new(WaitRegistry::default());
        let (req, consumer) = request(&reg, false, false);
        mgr.submit(req).unwrap();
        assert_eq!(consumer.collect_tuples().unwrap().len(), 5000);
        let d = m.snapshot().delta_since(&before);
        assert_eq!(d.scan_pages_read_ahead, pages - 1, "every page but the first read ahead");
        assert_eq!(d.disk_blocks_read, pages, "and no page past the last");
        assert_eq!(d.bp_misses, pages, "one miss per page, counted at issue");
        assert_eq!(d.bp_hits, 0, "completing a read ahead is no hit");
    }

    /// A scan of a resident table issues nothing: each page still costs one
    /// pool lookup, and the read ahead finds the next page resident.
    #[test]
    fn scan_of_a_resident_table_reads_nothing_ahead() {
        let (ctx, m) = ctx_with_table(5000);
        let pages = ctx.catalog.table("t").unwrap().num_pages().unwrap();
        let mgr = manager(&ctx, &m, true);
        let reg = Arc::new(WaitRegistry::default());
        let (warm, c) = request(&reg, false, false);
        mgr.submit(warm).unwrap();
        assert_eq!(c.collect_tuples().unwrap().len(), 5000);
        let before = m.snapshot();
        let (req, c) = request(&reg, false, false);
        mgr.submit(req).unwrap();
        assert_eq!(c.collect_tuples().unwrap().len(), 5000);
        let d = m.snapshot().delta_since(&before);
        assert_eq!(d.scan_pages_read_ahead, 0);
        assert_eq!((d.disk_blocks_read, d.bp_misses, d.bp_hits), (0, 0, pages));
    }

    /// `t(k)` of 50 000 rows — far more pages than the pool's 4 frames, so a
    /// scan that wraps reads its early pages from disk again.
    fn ctx_with_evicting_table() -> (ExecContext, Metrics) {
        let schema = Schema::of(&[("k", DataType::Int)]);
        let rows = (0..50_000).map(|i| vec![Value::Int(i)]).collect();
        ctx_with("t", schema, rows, 4, qpipe_storage::StorageLayout::Row)
    }

    /// A staggered group reads page 0 ahead after the file's last page only
    /// because the latecomer still needs it: every disk read after the
    /// scan's first was issued ahead, the wrapped re-reads included, and
    /// nothing past the latecomer's last page was.
    #[test]
    fn staggered_group_reads_page_0_ahead_only_for_a_consumer_that_needs_it() {
        let (ctx, m) = ctx_with_evicting_table();
        let pages = ctx.catalog.table("t").unwrap().num_pages().unwrap();
        ctx.catalog.pool().clear();
        let before = m.snapshot();
        let mgr = manager(&ctx, &m, true);
        let reg = Arc::new(WaitRegistry::default());
        // The host parks on its undrained 2-batch pipe a few pages in.
        let (host, host_rows) = request_cap(&reg, false, false, 2);
        mgr.submit(host).unwrap();
        wait_parked_mid_table(&reg, &m, pages);
        let (late, late_rows) = request(&reg, false, false);
        mgr.submit(late).unwrap();
        assert_eq!(mgr.group_count("t"), 1, "the latecomer rides the host's scan");
        let drain_host = std::thread::spawn(move || host_rows.collect_tuples().unwrap().len());
        assert_eq!(late_rows.collect_tuples().unwrap().len(), 50_000);
        assert_eq!(drain_host.join().unwrap(), 50_000);
        let d = m.snapshot().delta_since(&before);
        assert!(d.circular_wraps >= 1, "the scan wraps for the latecomer");
        assert!(d.morsels_dispatched > pages, "{} claims of {pages} pages", d.morsels_dispatched);
        assert_eq!(d.disk_blocks_read, d.morsels_dispatched, "one disk read per claim");
        assert_eq!(d.scan_pages_read_ahead, d.disk_blocks_read - 1, "all but the first ahead");
    }

    /// A fault on the page after page k fails only the consumer that needs
    /// it: the read ahead that meets the fault leaves page k alone, so the
    /// host, whose last page is k, completes; the latecomer, which wraps to
    /// page k + 1, is failed.
    #[test]
    fn fault_on_the_page_read_ahead_fails_only_the_consumer_that_needs_it() {
        use qpipe_common::{FaultInjector, FaultKind, FaultOp, FaultRule};
        let (ctx, m) = ctx_with_evicting_table();
        ctx.catalog.pool().clear();
        let mgr = manager(&ctx, &m, true);
        let reg = Arc::new(WaitRegistry::default());
        let pages = ctx.catalog.table("t").unwrap().num_pages().unwrap();
        let (host, host_rows) = request_cap(&reg, false, false, 2);
        mgr.submit(host).unwrap();
        wait_parked_mid_table(&reg, &m, pages);
        // Page 0 is read: from here on every read of it fails. The host's
        // last page is the file's last, k; the wrap's first is 0 = k + 1.
        ctx.catalog.disk().set_fault_injector(Some(Arc::new(FaultInjector::new(
            1,
            vec![FaultRule::new(FaultKind::Permanent).on_op(FaultOp::Read).on_blocks(0..1)],
        ))));
        let (late, late_rows) = request(&reg, false, false);
        mgr.submit(late).unwrap();
        assert_eq!(mgr.group_count("t"), 1, "the latecomer rides the host's scan");
        let drain_host = std::thread::spawn(move || host_rows.collect_tuples());
        let err = late_rows.collect_tuples().expect_err("page 0 never reads");
        assert!(matches!(err, QError::Storage(_)), "got {err:?}");
        assert_eq!(drain_host.join().unwrap().unwrap().len(), 50_000, "the host completes");
        assert_eq!(m.snapshot().io_retries, 2, "the read ahead was the first of three attempts");
    }

    #[test]
    fn burst_of_unordered_scans_shares_one_group() {
        let (ctx, m) = ctx_with_table(5000);
        let mgr = manager(&ctx, &m, true);
        let reg = Arc::new(WaitRegistry::default());
        let (reqs, consumers): (Vec<_>, Vec<_>) =
            (0..4).map(|_| request(&reg, false, false)).unzip();
        submit_gated(&ctx, &mgr, "t", reqs);
        let handles: Vec<_> = consumers
            .into_iter()
            .map(|c| std::thread::spawn(move || c.collect_tuples().unwrap().len()))
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 5000);
        }
        assert_eq!(m.snapshot().osp_attaches, 3, "three satellites on one host scan");
        let pages = ctx.catalog.table("t").unwrap().num_pages().unwrap();
        assert_eq!(m.snapshot().disk_blocks_read, pages, "one physical read");
    }

    #[test]
    fn osp_off_gives_every_request_its_own_group() {
        let (ctx, m) = ctx_with_table(2000);
        let mgr = manager(&ctx, &m, false);
        let reg = Arc::new(WaitRegistry::default());
        let (r1, c1) = request(&reg, false, false);
        let (r2, c2) = request(&reg, false, false);
        mgr.submit(r1).unwrap();
        mgr.submit(r2).unwrap();
        assert_eq!(c1.collect_tuples().unwrap().len(), 2000);
        assert_eq!(c2.collect_tuples().unwrap().len(), 2000);
        assert_eq!(m.snapshot().osp_attaches, 0);
    }

    #[test]
    fn ordered_late_arrival_gets_dedicated_group() {
        let (ctx, m) = ctx_with_table(50_000);
        let mgr = manager(&ctx, &m, true);
        let reg = Arc::new(WaitRegistry::default());
        // r1 stays undrained behind a 2-page pipe, so its scanner parks
        // mid-scan: the ordered newcomer finds `pages_read > 0` for certain.
        let (r1, c1) = request_cap(&reg, false, false, 2);
        mgr.submit(r1).unwrap();
        wait_for_first_page(&m);
        let (r2, c2) = request(&reg, true, false);
        mgr.submit(r2).unwrap();
        assert_eq!(m.snapshot().osp_attaches, 0, "the spike-overlap window is closed");
        assert_eq!(m.snapshot().osp_rejections, 1, "the miss counts like a host's");
        let drain1 = std::thread::spawn(move || c1.collect_tuples().unwrap().len());
        let rows = c2.collect_tuples().unwrap();
        assert_eq!(rows.len(), 50_000);
        // Strictly in order despite the in-progress unordered scan.
        for w in rows.windows(2) {
            assert!(w[0][0] <= w[1][0]);
        }
        assert_eq!(drain1.join().unwrap(), 50_000);
    }

    #[test]
    fn ordered_with_split_ok_attaches_wrapped() {
        let (ctx, m) = ctx_with_table(50_000);
        let mgr = manager(&ctx, &m, true);
        let reg = Arc::new(WaitRegistry::default());
        // Don't drain r1 yet: after two pages the scanner parks on r1's
        // full pipe, holding the group mid-scan no matter how fast pages
        // decode — so the late split_ok arrival deterministically finds an
        // in-progress scan (`pages_read > 0` ⇒ wrapped delivery).
        let (r1, c1) = request_cap(&reg, false, false, 2);
        mgr.submit(r1).unwrap();
        wait_for_first_page(&m);
        let (r2, c2) = request(&reg, true, true);
        mgr.submit(r2).unwrap();
        let drain1 = std::thread::spawn(move || c1.collect_tuples().unwrap().len());
        let rows = c2.collect_tuples().unwrap();
        assert_eq!(rows.len(), 50_000, "wrapped delivery still covers every tuple");
        assert_eq!(m.snapshot().osp_attaches, 1, "split_ok scan must attach");
        assert_eq!(drain1.join().unwrap(), 50_000);
    }

    #[test]
    fn abandoned_consumer_detaches_without_blocking_group() {
        let (ctx, m) = ctx_with_table(20_000);
        let mgr = manager(&ctx, &m, true);
        let reg = Arc::new(WaitRegistry::default());
        let (r1, c1) = request(&reg, false, false);
        let (r2, c2) = request(&reg, false, false);
        submit_gated(&ctx, &mgr, "t", vec![r1, r2]);
        // Dropping the pipe consumer is how a scan is abandoned (its reader —
        // a client, or a cancelled query's operator — went away).
        drop(c1);
        // The second consumer still gets the full table.
        assert_eq!(c2.collect_tuples().unwrap().len(), 20_000);
    }

    #[test]
    fn per_consumer_predicates_filter_independently() {
        let (ctx, m) = ctx_with_table(1000);
        let mgr = manager(&ctx, &m, true);
        let reg = Arc::new(WaitRegistry::default());
        let mk = |lo: i64| {
            let (output, c) = pair(&reg, 1024);
            (
                ScanRequest {
                    table: "t".into(),
                    predicate: Some(Expr::col(0).ge(Expr::lit(lo))),
                    projection: Some(vec![0]),
                    output,
                    ordered: false,
                    split_ok: false,
                    probe: None,
                    trace: None,
                },
                c,
            )
        };
        let (r1, c1) = mk(500);
        let (r2, c2) = mk(900);
        mgr.submit(r1).unwrap();
        mgr.submit(r2).unwrap();
        assert_eq!(c1.collect_tuples().unwrap().len(), 500);
        assert_eq!(c2.collect_tuples().unwrap().len(), 100);
    }

    #[test]
    fn columnar_table_shares_one_scan_with_zero_row_decode() {
        let (ctx, m) = ctx_with_table_layout(5000, qpipe_storage::StorageLayout::Columnar);
        let mgr = manager(&ctx, &m, true);
        let reg = Arc::new(WaitRegistry::default());
        let (reqs, consumers): (Vec<_>, Vec<_>) =
            (0..4).map(|_| request(&reg, false, false)).unzip();
        submit_gated(&ctx, &mgr, "t", reqs);
        let handles: Vec<_> = consumers
            .into_iter()
            .map(|c| std::thread::spawn(move || c.collect_tuples().unwrap()))
            .collect();
        for h in handles {
            let rows = h.join().unwrap();
            assert_eq!(rows.len(), 5000);
            let mut keys: Vec<i64> =
                rows.iter().map(|r| r[0].as_int().expect("typed int column")).collect();
            keys.sort();
            assert_eq!(keys, (0..5000).collect::<Vec<_>>(), "every row exactly once");
        }
        assert_eq!(m.snapshot().osp_attaches, 3, "three satellites on one host scan");
        let pages = ctx.catalog.table("t").unwrap().num_pages().unwrap();
        assert_eq!(m.snapshot().disk_blocks_read, pages, "one physical read");
    }

    #[test]
    fn columnar_scan_applies_per_consumer_predicates() {
        let (ctx, m) = ctx_with_table_layout(1000, qpipe_storage::StorageLayout::Columnar);
        let mgr = manager(&ctx, &m, true);
        let reg = Arc::new(WaitRegistry::default());
        let (output, c) = pair(&reg, 1024);
        mgr.submit(ScanRequest {
            table: "t".into(),
            predicate: Some(Expr::col(0).ge(Expr::lit(900))),
            projection: Some(vec![0]),
            output,
            ordered: false,
            split_ok: false,
            probe: None,
            trace: None,
        })
        .unwrap();
        assert_eq!(c.collect_tuples().unwrap().len(), 100);
    }

    fn ctx_with_wide_table(
        rows: i64,
        layout: qpipe_storage::StorageLayout,
    ) -> (ExecContext, Metrics) {
        let schema =
            Schema::of(&[("k", DataType::Int), ("v", DataType::Int), ("s", DataType::Str)]);
        let rows = (0..rows)
            .map(|i| vec![Value::Int(i), Value::Int(i * 2), Value::str(format!("s{i}"))])
            .collect();
        ctx_with("w", schema, rows, 64, layout)
    }

    fn pruned_request(
        reg: &Arc<WaitRegistry>,
        lo: i64,
        projection: Vec<usize>,
    ) -> (ScanRequest, PipeConsumer) {
        let (output, c) = pair(reg, 1024);
        let req = ScanRequest {
            table: "w".into(),
            predicate: Some(Expr::col(0).ge(Expr::lit(lo))),
            projection: Some(projection),
            output,
            ordered: false,
            split_ok: false,
            probe: None,
            trace: None,
        };
        (req, c)
    }

    #[test]
    fn single_consumer_columnar_scan_prunes_columns() {
        let (ctx, m) = ctx_with_wide_table(3000, qpipe_storage::StorageLayout::Columnar);
        let mgr = manager(&ctx, &m, true);
        let reg = Arc::new(WaitRegistry::default());
        // Predicate on col 0, output col 2: only columns {0, 2} decode.
        let (req, c) = pruned_request(&reg, 2900, vec![2]);
        mgr.submit(req).unwrap();
        let rows = c.collect_tuples().unwrap();
        assert_eq!(rows.len(), 100);
        assert!(rows.iter().all(|r| r.len() == 1 && r[0].as_str().is_some()));
        let snap = m.snapshot();
        assert!(snap.pruned_pages > 0, "single-consumer columnar scan must prune");
        assert_eq!(snap.pruned_pages, snap.disk_blocks_read, "every page pruned");
    }

    #[test]
    fn shared_scan_with_full_width_union_does_not_prune() {
        let (ctx, m) = ctx_with_wide_table(3000, qpipe_storage::StorageLayout::Columnar);
        let mgr = manager(&ctx, &m, true);
        let reg = Arc::new(WaitRegistry::default());
        // Referenced sets {0,2} ∪ {0,1} = {0,1,2} = every column: the shared
        // scan decodes the whole page, which is no pruning at all.
        let (r1, c1) = pruned_request(&reg, 0, vec![2]);
        let (r2, c2) = pruned_request(&reg, 1500, vec![1]);
        submit_gated(&ctx, &mgr, "w", vec![r1, r2]);
        let h1 = std::thread::spawn(move || c1.collect_tuples().unwrap().len());
        let h2 = std::thread::spawn(move || c2.collect_tuples().unwrap().len());
        assert_eq!(h1.join().unwrap(), 3000);
        assert_eq!(h2.join().unwrap(), 1500);
        assert_eq!(m.snapshot().osp_attaches, 1, "second request must share the scan");
        assert_eq!(m.snapshot().pruned_pages, 0, "a full-width union is the full-width path");
    }

    /// Satellite acceptance: a *shared* columnar scan decodes the union of
    /// all attached consumers' referenced columns — each consumer still gets
    /// exactly its own predicate/projection output.
    #[test]
    fn shared_scan_decodes_union_of_referenced_columns() {
        let (ctx, m) = ctx_with_wide_table(3000, qpipe_storage::StorageLayout::Columnar);
        let mgr = manager(&ctx, &m, true);
        let reg = Arc::new(WaitRegistry::default());
        // Consumer 1 references {0}; consumer 2 references {0, 1}; the union
        // {0, 1} is a strict subset of the 3-column page.
        let (r1, c1) = pruned_request(&reg, 2900, vec![0]);
        let (r2, c2) = pruned_request(&reg, 1500, vec![1]);
        submit_gated(&ctx, &mgr, "w", vec![r1, r2]);
        let h1 = std::thread::spawn(move || c1.collect_tuples().unwrap());
        let h2 = std::thread::spawn(move || c2.collect_tuples().unwrap());
        let rows1 = h1.join().unwrap();
        let rows2 = h2.join().unwrap();
        assert_eq!(rows1.len(), 100);
        assert!(rows1.iter().all(|r| r.len() == 1 && r[0].as_int().unwrap() >= 2900));
        assert_eq!(rows2.len(), 1500);
        assert!(rows2.iter().all(|r| r.len() == 1 && r[0].as_int().unwrap() >= 3000), "v = 2k");
        let snap = m.snapshot();
        assert_eq!(snap.osp_attaches, 1, "second request must share the scan");
        assert!(snap.pruned_pages > 0, "shared scan must decode the union, pruned");
        assert_eq!(snap.disk_blocks_read, snap.pruned_pages, "every page pruned, read once");
    }

    /// One unprunable consumer (no projection) keeps the whole shared scan
    /// full-width — correctness over savings — whatever the page layout.
    #[test]
    fn unprunable_consumer_disables_union_pruning() {
        for layout in [qpipe_storage::StorageLayout::Row, qpipe_storage::StorageLayout::Columnar] {
            let (ctx, m) = ctx_with_wide_table(2000, layout);
            let mgr = manager(&ctx, &m, true);
            let reg = Arc::new(WaitRegistry::default());
            let (r1, c1) = pruned_request(&reg, 1000, vec![0]);
            let (r2, c2) = request(&reg, false, false); // full-width consumer
            let mut r2 = r2;
            r2.table = "w".into();
            submit_gated(&ctx, &mgr, "w", vec![r1, r2]);
            let h1 = std::thread::spawn(move || c1.collect_tuples().unwrap().len());
            let h2 = std::thread::spawn(move || c2.collect_tuples().unwrap().len());
            assert_eq!(h1.join().unwrap(), 1000, "{layout:?}");
            assert_eq!(h2.join().unwrap(), 2000, "{layout:?}");
            let pruned = m.snapshot().pruned_pages;
            assert_eq!(pruned, 0, "{layout:?}: an unprunable consumer disables pruning");
        }
    }

    /// A *staggered* shared group keeps pruning on either layout: a
    /// wrapped re-visit takes the union's columns from the page's decode
    /// cache (a columnar page's, or a resident slotted frame's). A slotted
    /// page read again decodes afresh, while a columnar page read again
    /// keeps the columns already decoded — so decoding only the union
    /// always wins. Both consumers still get exactly the iterator engine's
    /// answer.
    #[test]
    fn staggered_group_keeps_pruning_and_matches_the_iterator_engine() {
        for layout in [qpipe_storage::StorageLayout::Row, qpipe_storage::StorageLayout::Columnar] {
            let (ctx, m) = ctx_with_wide_table(6000, layout);
            let mgr = manager(&ctx, &m, true);
            let reg = Arc::new(WaitRegistry::default());
            let plan_of = |r: &ScanRequest| qpipe_exec::plan::PlanNode::TableScan {
                table: "w".into(),
                predicate: r.predicate.clone(),
                projection: r.projection.clone(),
                ordered: false,
            };
            // The host (references {0}) parks on its undrained 2-batch pipe
            // at the third of its six batches, so the latecomer (references {0, 1}) attaches mid-scan: union
            // {0, 1} of a 3-column table, staggered.
            let (output, host_rows) = pair(&reg, 2);
            let host = ScanRequest {
                table: "w".into(),
                predicate: Some(Expr::col(0).ge(Expr::lit(10))),
                projection: Some(vec![0]),
                output,
                ordered: false,
                split_ok: false,
                probe: None,
                trace: None,
            };
            let host_plan = plan_of(&host);
            let pages = ctx.catalog.table("w").unwrap().num_pages().unwrap();
            mgr.submit(host).unwrap();
            wait_parked_mid_table(&reg, &m, pages);
            let (late, late_rows) = pruned_request(&reg, 700, vec![1]);
            let late_plan = plan_of(&late);
            mgr.submit(late).unwrap();
            assert_eq!(mgr.group_count("w"), 1, "{layout:?}: the latecomer rides the host's scan");
            let drain_host = std::thread::spawn(move || host_rows.collect_tuples().unwrap());
            let got = late_rows.collect_tuples().unwrap();
            let host_got = drain_host.join().unwrap();
            let want = qpipe_exec::iter::run(&late_plan, &ctx).unwrap();
            assert_eq!(sorted(got), sorted(want), "{layout:?}");
            let want = qpipe_exec::iter::run(&host_plan, &ctx).unwrap();
            assert_eq!(sorted(host_got), sorted(want), "{layout:?}");
            let snap = m.snapshot();
            assert_eq!(snap.osp_attaches, 1, "{layout:?}");
            assert!(snap.circular_wraps >= 1, "{layout:?}: the scan wraps for the latecomer");
            assert_eq!(
                snap.pruned_pages, snap.morsels_dispatched,
                "{layout:?}: every visit pruned, the wrapped re-visits too"
            );
            let pages = ctx.catalog.table("w").unwrap().num_pages().unwrap();
            assert!(snap.pruned_pages > pages, "{layout:?}: {} of > {pages}", snap.pruned_pages);
        }
    }

    #[test]
    fn pruned_scan_matches_unpruned_results_across_layouts() {
        for layout in [qpipe_storage::StorageLayout::Row, qpipe_storage::StorageLayout::Columnar] {
            let (ctx, m) = ctx_with_wide_table(1000, layout);
            let mgr = manager(&ctx, &m, true);
            let reg = Arc::new(WaitRegistry::default());
            let (req, c) = pruned_request(&reg, 500, vec![2, 0]);
            mgr.submit(req).unwrap();
            let mut rows = c.collect_tuples().unwrap();
            rows.sort_by(|a, b| a[1].cmp(&b[1]));
            assert_eq!(rows.len(), 500, "{layout:?}");
            for (i, r) in rows.iter().enumerate() {
                let k = 500 + i as i64;
                assert_eq!(r[0], Value::str(format!("s{k}")), "{layout:?}");
                assert_eq!(r[1], Value::Int(k), "{layout:?}");
            }
        }
    }

    /// A predicate naming a column the table lacks is refused at submit, as
    /// the iterator engine errs on it: `submit` returns the `QError::Plan`,
    /// the request's pipe fails with it, and no page is read.
    #[test]
    fn out_of_range_predicate_column_is_refused_at_submit() {
        for layout in [qpipe_storage::StorageLayout::Row, qpipe_storage::StorageLayout::Columnar] {
            let (ctx, m) = ctx_with_wide_table(500, layout);
            let mgr = manager(&ctx, &m, true);
            let reg = Arc::new(WaitRegistry::default());
            let (output, c) = pair(&reg, 1024);
            let (predicate, projection) = (Expr::col(9).ge(Expr::lit(0)), vec![0]);
            let plan = qpipe_exec::plan::PlanNode::TableScan {
                table: "w".into(),
                predicate: Some(predicate.clone()),
                projection: Some(projection.clone()),
                ordered: false,
            };
            assert!(qpipe_exec::iter::run(&plan, &ctx).is_err(), "{layout:?}: the oracle errs");
            let before = m.snapshot();
            let refused = mgr.submit(ScanRequest {
                table: "w".into(),
                predicate: Some(predicate),
                projection: Some(projection),
                output,
                ordered: false,
                split_ok: false,
                probe: None,
                trace: None,
            });
            let err = refused.expect_err("a column past the width must be refused");
            assert!(matches!(&err, QError::Plan(msg) if msg.contains('9')), "{layout:?}: {err:?}");
            let got = c.collect_tuples().expect_err("the request's pipe fails");
            assert_eq!(got.to_string(), err.to_string(), "{layout:?}");
            let d = m.snapshot().delta_since(&before);
            assert_eq!((d.morsels_dispatched, d.bp_hits + d.bp_misses), (0, 0), "{layout:?}");
            assert_eq!(mgr.group_count("w"), 0, "{layout:?}");
        }
    }

    #[test]
    fn corrupt_page_fails_every_attached_packet() {
        let (ctx, m) = ctx_with_table(20_000);
        // Overwrite a mid-table block with a page whose record is garbage:
        // the tuple codec must error, and the scanner must surface it.
        let info = ctx.catalog.table("t").unwrap();
        let mut bad = qpipe_storage::Page::new();
        bad.append_record(&[0xFF, 0xFF, 0x01]).unwrap(); // claims 65535 values, truncated
        ctx.catalog.disk().write_block(info.file_id(), 3, bad).unwrap();
        let mgr = manager(&ctx, &m, true);
        let reg = Arc::new(WaitRegistry::default());
        let (r1, c1) = request(&reg, false, false);
        let (r2, c2) = request(&reg, false, false);
        submit_gated(&ctx, &mgr, "t", vec![r1, r2]);
        assert_eq!(m.snapshot().osp_attaches, 1, "both packets ride the failing scan");
        for c in [c1, c2] {
            let err = std::thread::spawn(move || c.collect_tuples())
                .join()
                .unwrap()
                .expect_err("codec error must fail the packet, not truncate it");
            assert!(matches!(err, qpipe_common::QError::Storage(_)), "got {err:?}");
        }
    }

    /// Scan-start contract (a): everything submitted before the scanner
    /// claims its first page — here, while the table is exclusively locked —
    /// joins ONE group at position 0, the ordered request included. Nobody is
    /// staggered: one table's worth of disk reads, no wrap, and the shared
    /// scan still decodes only the column union.
    #[test]
    fn requests_gated_before_first_page_join_one_unstaggered_group() {
        let (ctx, m) = ctx_with_wide_table(3000, qpipe_storage::StorageLayout::Columnar);
        let mgr = manager(&ctx, &m, true);
        let reg = Arc::new(WaitRegistry::default());
        // Referenced sets {0}, {0,1}, {0}, {0,1}: union {0,1} ⊂ 3 columns.
        let mut reqs = Vec::new();
        let mut consumers = Vec::new();
        for (i, lo) in [0i64, 1000, 2000, 2900].into_iter().enumerate() {
            let (mut req, c) = pruned_request(&reg, lo, vec![i % 2]);
            req.ordered = i == 2;
            reqs.push(req);
            consumers.push((lo, i % 2, c));
        }
        // `submit_gated`, inlined to look at the index while the gate still
        // holds the scan back (afterwards the group may already be gone).
        let gate = ctx.catalog.locks().lock_exclusive("w");
        for req in reqs {
            mgr.submit(req).unwrap();
        }
        assert_eq!(mgr.group_count("w"), 1, "one group serves the whole burst");
        drop(gate);
        let handles: Vec<_> = consumers
            .into_iter()
            .map(|(lo, col, c)| std::thread::spawn(move || (lo, col, c.collect_tuples().unwrap())))
            .collect();
        for h in handles {
            let (lo, col, rows) = h.join().unwrap();
            // Position-0 delivery is stored order for every member (the
            // ordered one relies on it): k ascending, projected k or v = 2k.
            let want: Vec<_> = (lo..3000).map(|k| vec![Value::Int(k * (1 + col as i64))]).collect();
            assert_eq!(rows, want, "lo {lo}, col {col}");
        }
        let snap = m.snapshot();
        let pages = ctx.catalog.table("w").unwrap().num_pages().unwrap();
        assert_eq!(snap.osp_attaches, 3, "three satellites, the ordered one among them");
        assert_eq!(snap.disk_blocks_read, pages, "one table's worth of disk blocks");
        assert_eq!(snap.circular_wraps, 0, "nobody staggered, nothing to wrap for");
        assert_eq!(snap.pruned_pages, pages, "column-union pruning on every page");
    }

    /// Scan-start contract (b): a request arriving after the first page
    /// attaches mid-scan, the scan wraps for it, and it still receives every
    /// page exactly once — its output equals the iterator engine's, as a
    /// multiset.
    #[test]
    fn request_attached_after_first_page_wraps_and_sees_every_page_once() {
        let (ctx, m) = ctx_with_wide_table(20_000, qpipe_storage::StorageLayout::Row);
        let pages = ctx.catalog.table("w").unwrap().num_pages().unwrap();
        let mgr = manager(&ctx, &m, true);
        let reg = Arc::new(WaitRegistry::default());
        // The host parks on its undrained 1-batch pipe about ten pages into
        // the table's 80: the scan is under way and cannot finish before the
        // latecomer attaches.
        let (mut host, host_rows) = request_cap(&reg, false, false, 1);
        host.table = "w".into();
        mgr.submit(host).unwrap();
        wait_parked_mid_table(&reg, &m, pages);
        let (late, late_rows) = pruned_request(&reg, 700, vec![2, 1]);
        let plan = qpipe_exec::plan::PlanNode::TableScan {
            table: "w".into(),
            predicate: late.predicate.clone(),
            projection: late.projection.clone(),
            ordered: false,
        };
        mgr.submit(late).unwrap();
        assert_eq!(mgr.group_count("w"), 1, "the latecomer rides the host's scan");
        let drain_host = std::thread::spawn(move || host_rows.collect_tuples().unwrap());
        let got = late_rows.collect_tuples().unwrap();
        let host_got = drain_host.join().unwrap();
        assert_eq!(sorted(got), sorted(qpipe_exec::iter::run(&plan, &ctx).unwrap()));
        let full = qpipe_exec::plan::PlanNode::scan("w");
        assert_eq!(sorted(host_got), sorted(qpipe_exec::iter::run(&full, &ctx).unwrap()));
        let snap = m.snapshot();
        assert_eq!(snap.osp_attaches, 1);
        assert!(snap.circular_wraps >= 1, "the scan wraps for the staggered consumer");
    }

    /// Scan-start contract (c): a scanner that starts at once also ends at
    /// once, and hands its worker back — 200 back-to-back one-page scans each
    /// leave no group indexed, and one scan worker runs them all (an instant
    /// disk makes the scan itself negligible, so start/stop bookkeeping is all
    /// there is).
    #[test]
    fn back_to_back_single_page_scans_leave_no_group_and_reuse_one_worker() {
        let (ctx, metrics) = ctx_with_named_table("tiny", 10, qpipe_storage::StorageLayout::Row);
        assert_eq!(ctx.catalog.table("tiny").unwrap().num_pages().unwrap(), 1);
        let mgr = manager(&ctx, &metrics, true);
        let reg = Arc::new(WaitRegistry::default());
        for i in 0..200 {
            let (mut req, c) = request(&reg, false, false);
            req.table = "tiny".into();
            mgr.submit(req).unwrap();
            assert_eq!(c.collect_tuples().unwrap().len(), 10, "scan {i}");
            // The consumer sees EOF a few instructions before the scanner job
            // unindexes its group and its worker parks again.
            poll_until("a finished scan left its group indexed or its worker busy", || {
                mgr.group_count("tiny") == 0 && mgr.pool.workers().1 == 1
            });
        }
        assert_eq!(mgr.pool.workers().0, 1, "one scan worker ran all 200 scans");
        assert_eq!(metrics.snapshot().circular_wraps, 0);
    }

    /// A scanner job the pool refuses (shut down, or no thread to be had) is
    /// dropped unrun: its guard fails the packet — an error, never a clean
    /// EOF — and takes the group out of the index.
    #[test]
    fn scanner_job_the_pool_refuses_fails_its_packet_and_leaves_no_group() {
        let (ctx, m) = ctx_with_table(100);
        let mgr = manager(&ctx, &m, true);
        mgr.pool.shutdown();
        let reg = Arc::new(WaitRegistry::default());
        let (req, c) = request(&reg, false, false);
        mgr.submit(req).unwrap();
        assert_eq!(mgr.group_count("t"), 0, "the refused group left the index");
        let err = c.collect_tuples().expect_err("an unrun scan must not read as complete");
        assert!(matches!(err, QError::Exec(_)), "got {err:?}");
    }

    /// A request enrolled in the inbox of a scanner that is itself parked on
    /// a full pipe waits on that scanner from the moment it enrolls — even if
    /// its consumer was already blocked on the (then unowned) pipe. Were the
    /// pipe re-pointed only at adoption, a deadlock cycle through the parked
    /// scanner would be invisible to the detector: the scanner cannot reach
    /// its next adoption point without the very materialization that needs
    /// the cycle to be seen.
    #[test]
    fn request_parked_in_a_blocked_scanners_inbox_waits_on_the_scanner() {
        use crate::deadlock::WaitKind;
        let (ctx, m) = ctx_with_table(50_000);
        let mgr = manager(&ctx, &m, true);
        let reg = Arc::new(WaitRegistry::default());
        // The host never drains its 2-page pipe: the scanner parks on it.
        let (host, host_rows) = request_cap(&reg, false, false, 2);
        mgr.submit(host).unwrap();
        let parked = || reg.edges().into_iter().find(|e| e.kind == WaitKind::ProducerFull);
        poll_until("scanner never parked", || parked().is_some());
        let scanner = parked().unwrap().waiter;
        // The latecomer's consumer blocks on its pipe *before* the request
        // enrolls, registering a wait on the pipe's original producer node.
        let (late_node, orphan) = (NodeId(8), NodeId(7));
        let (output, late_rows) =
            Pipe::pair(PipeConfig { capacity: 1024 }, orphan, late_node, reg.clone());
        let drain_late = std::thread::spawn(move || late_rows.collect_tuples().unwrap().len());
        let waits_on = |holder: NodeId| {
            reg.edges().iter().any(|e| e.waiter == late_node && e.holder == holder)
        };
        poll_until("latecomer never blocked", || waits_on(orphan));
        mgr.submit(ScanRequest {
            table: "t".into(),
            predicate: None,
            projection: None,
            output,
            ordered: false,
            split_ok: false,
            probe: None,
            trace: None,
        })
        .unwrap();
        assert_eq!(m.snapshot().osp_attaches, 1, "enrolled in the parked scanner's inbox");
        poll_until("latecomer's wait never re-pointed at the scanner", || waits_on(scanner));
        assert_eq!(parked().map(|e| e.waiter), Some(scanner), "scanner still parked");
        // Draining the host releases the scanner; both get the whole table.
        assert_eq!(host_rows.collect_tuples().unwrap().len(), 50_000);
        assert_eq!(drain_late.join().unwrap(), 50_000);
    }

    /// `t(k, m)` with `m = k % 20`: `m = 0` keeps one row in twenty, spread
    /// evenly over every page.
    fn ctx_with_sparse_table(
        rows: i64,
        layout: qpipe_storage::StorageLayout,
    ) -> (ExecContext, Metrics) {
        let schema = Schema::of(&[("k", DataType::Int), ("m", DataType::Int)]);
        let rows = (0..rows).map(|i| vec![Value::Int(i), Value::Int(i % 20)]).collect();
        ctx_with("t", schema, rows, 64, layout)
    }

    fn filtered_request(
        reg: &Arc<WaitRegistry>,
        predicate: Expr,
    ) -> (ScanRequest, PipeConsumer, qpipe_exec::plan::PlanNode) {
        let (output, c) = pair(reg, 1024);
        let req = ScanRequest {
            table: "t".into(),
            predicate: Some(predicate),
            projection: Some(vec![0]),
            output,
            ordered: false,
            split_ok: false,
            probe: None,
            trace: None,
        };
        let plan = qpipe_exec::plan::PlanNode::TableScan {
            table: "t".into(),
            predicate: req.predicate.clone(),
            projection: req.projection.clone(),
            ordered: false,
        };
        (req, c, plan)
    }

    fn batches(c: &PipeConsumer) -> QResult<Vec<Arc<ColBatch>>> {
        std::iter::from_fn(|| c.recv().transpose()).collect()
    }

    /// A resident row page decodes each column once: the first scan that
    /// finds the table resident fills the frame's cache, and the next scan
    /// is handed the very same columns. The scan that read the table from
    /// disk cached nothing. A slotted page holds fewer than
    /// `DEFAULT_CAPACITY` rows, so a page goes out as it is only as the
    /// whole of a stream: the table is one page.
    #[test]
    fn a_second_scan_of_a_resident_row_table_shares_the_first_ones_columns() {
        let (ctx, m) = ctx_with_table(500);
        assert_eq!(ctx.catalog.table("t").unwrap().num_pages().unwrap(), 1);
        let mgr = manager(&ctx, &m, true);
        let reg = Arc::new(WaitRegistry::default());
        let scan = || {
            let (req, c) = request(&reg, false, false);
            mgr.submit(req).unwrap();
            let mut got = batches(&c).unwrap();
            assert_eq!(got.len(), 1, "one page, one batch");
            got.remove(0)
        };
        let (cold, first, second) = (scan(), scan(), scan());
        assert_eq!(m.snapshot().bp_hits, 2);
        assert_eq!((cold.len(), first.len(), second.len()), (500, 500, 500));
        assert!(!Arc::ptr_eq(&cold.columns()[0], &first.columns()[0]), "a miss caches nothing");
        assert!(Arc::ptr_eq(&first.columns()[0], &second.columns()[0]), "decoded again");
    }

    /// The delivery rule: a 5 %-selective scan keeps a page's few surviving
    /// rows pending, so every batch but the last carries at least
    /// `DEFAULT_CAPACITY` rows, and the rows are still the iterator engine's.
    #[test]
    fn selective_scan_sends_full_batches() {
        for layout in [qpipe_storage::StorageLayout::Row, qpipe_storage::StorageLayout::Columnar] {
            let (ctx, m) = ctx_with_sparse_table(40_000, layout);
            let pages = ctx.catalog.table("t").unwrap().num_pages().unwrap();
            let mgr = manager(&ctx, &m, true);
            let reg = Arc::new(WaitRegistry::default());
            let (req, c, plan) = filtered_request(&reg, Expr::col(1).eq(Expr::lit(0)));
            mgr.submit(req).unwrap();
            let got = batches(&c).unwrap();
            let (last, full) = got.split_last().expect("2 000 rows survive");
            assert!((got.len() as u64) < pages, "{layout:?}: {pages} pages, {} sends", got.len());
            for b in full {
                assert!(b.len() >= ColBatch::DEFAULT_CAPACITY, "{layout:?}: {} rows", b.len());
            }
            assert!(!last.is_empty(), "{layout:?}");
            let rows: Vec<_> = got.iter().flat_map(|b| b.to_rows()).collect();
            assert_eq!(rows, qpipe_exec::iter::run(&plan, &ctx).unwrap(), "{layout:?}");
        }
    }

    /// Zero-copy stays: an unfiltered columnar page of at least
    /// `DEFAULT_CAPACITY` rows goes on the wire as the page's cached
    /// columns themselves — every column the one the resident page holds.
    /// A page of 4-byte dates holds about 2 000 rows.
    #[test]
    fn unfiltered_columnar_page_arrives_as_its_pool_resident_batch() {
        let schema = Schema::of(&[("d", DataType::Date)]);
        let rows = (0..3000).map(|i| vec![Value::Date(i)]).collect();
        let (ctx, m) = ctx_with("t", schema, rows, 16, qpipe_storage::StorageLayout::Columnar);
        let file = ctx.catalog.table("t").unwrap().file_id();
        let mgr = manager(&ctx, &m, true);
        let reg = Arc::new(WaitRegistry::default());
        let (req, c) = request(&reg, false, false);
        mgr.submit(req).unwrap();
        let first = c.recv().unwrap().expect("page 0");
        assert!(first.len() >= ColBatch::DEFAULT_CAPACITY, "{} rows", first.len());
        let resident = ctx.catalog.pool().get(file, 0).unwrap();
        assert!(matches!(resident, qpipe_storage::Block::Columnar(_)), "a columnar table");
        let resident = resident.decode(None).unwrap();
        assert_eq!((first.len(), first.num_cols()), (resident.len(), resident.num_cols()));
        for (sent, kept) in first.columns().iter().zip(resident.columns()) {
            assert!(Arc::ptr_eq(sent, kept), "page 0 was copied on its way out");
        }
        let rest: usize = batches(&c).unwrap().iter().map(|b| b.len()).sum();
        assert_eq!(first.len() + rest, 3000);
    }

    /// A latecomer whose rows are still pending when the scan wraps sends
    /// them together with the rows of the pages after the wrap — in one
    /// batch, end of the table first — and sees every row exactly once.
    #[test]
    fn rows_pending_across_the_wrap_are_delivered_once() {
        for layout in [qpipe_storage::StorageLayout::Row, qpipe_storage::StorageLayout::Columnar] {
            let n = 40_000;
            let (ctx, m) = ctx_with_sparse_table(n, layout);
            let mgr = manager(&ctx, &m, true);
            let reg = Arc::new(WaitRegistry::default());
            // The host parks on its undrained 2-batch pipe a few pages in:
            // the latecomer starts mid-scan, well before the table's end.
            let pages = ctx.catalog.table("t").unwrap().num_pages().unwrap();
            let (host, host_rows) = request_cap(&reg, false, false, 2);
            mgr.submit(host).unwrap();
            wait_parked_mid_table(&reg, &m, pages);
            // 100 rows on page 0, 100 on the last page: 200 pending, less
            // than one batch, until the latecomer's last page after the wrap.
            let edges =
                Expr::or([Expr::col(0).lt(Expr::lit(100)), Expr::col(0).ge(Expr::lit(n - 100))]);
            let (late, late_rows, plan) = filtered_request(&reg, edges);
            mgr.submit(late).unwrap();
            assert_eq!(mgr.group_count("t"), 1, "{layout:?}: the latecomer rides the host's scan");
            let drain_host = std::thread::spawn(move || host_rows.collect_tuples().unwrap().len());
            let got = batches(&late_rows).unwrap();
            assert_eq!(drain_host.join().unwrap(), n as usize, "{layout:?}");
            assert_eq!(got.len(), 1, "{layout:?}: one batch across the wrap");
            let rows = got[0].to_rows();
            let want: Vec<_> = (n - 100..n).chain(0..100).map(|k| vec![Value::Int(k)]).collect();
            assert_eq!(rows, want, "{layout:?}: page order, wrapped");
            assert_eq!(sorted(rows), sorted(qpipe_exec::iter::run(&plan, &ctx).unwrap()));
            assert!(m.snapshot().circular_wraps >= 1, "{layout:?}");
        }
    }

    /// A scan that fails after rows went pending never passes them off as a
    /// shorter complete answer: the consumer's first read is the error.
    #[test]
    fn read_fault_after_rows_are_pending_fails_the_consumer() {
        use qpipe_common::{FaultInjector, FaultKind, FaultOp, FaultRule};
        let (ctx, m) = ctx_with_sparse_table(40_000, qpipe_storage::StorageLayout::Row);
        ctx.catalog.pool().clear();
        ctx.catalog.disk().set_fault_injector(Some(Arc::new(FaultInjector::new(
            1,
            vec![FaultRule::new(FaultKind::Permanent).on_op(FaultOp::Read).on_blocks(3..u64::MAX)],
        ))));
        let mgr = manager(&ctx, &m, true);
        let reg = Arc::new(WaitRegistry::default());
        // Page 0's 100 rows are pending when page 3 fails.
        let (req, c, _) = filtered_request(&reg, Expr::col(0).lt(Expr::lit(100)));
        mgr.submit(req).unwrap();
        let err = c.recv().expect_err("pending rows must not be sent ahead of the failure");
        assert!(matches!(err, QError::Storage(_)), "got {err:?}");
    }

    #[test]
    fn missing_table_errors() {
        let (ctx, m) = ctx_with_table(10);
        let mgr = manager(&ctx, &m, true);
        let reg = Arc::new(WaitRegistry::default());
        let (mut req, _c) = request(&reg, false, false);
        req.table = "missing".into();
        assert!(mgr.submit(req).is_err());
    }
}
