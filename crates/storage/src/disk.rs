//! Simulated block device.
//!
//! Substitute for the paper's 4-disk SCSI RAID-0 array. Files are vectors
//! of fixed-size blocks held in memory; every read *charges* a latency —
//! sequential reads are cheaper than random ones, mirroring disk
//! behaviour — and bumps the per-file counters that Figure 8 plots.
//!
//! The latency charge is what turns block counts into response time. It is
//! not small next to CPU work: a lineitem row page decodes in about as long
//! as its 20 µs sequential charge. So, as on the paper's disks, a read is
//! two steps. [`SimDisk::issue_read`] does the bookkeeping — fault check,
//! sequential/random classification in issue order, counters — and returns
//! the block with the instant its charge ends; [`IssuedRead::wait`] spins
//! only what is left of it. A reader that issues its next read before it
//! decodes the current page overlaps the two, as a disk moving the next
//! block while the CPU works on this one does. Nothing is returned early:
//! every block is handed over at or after its issue plus its charge.
//! [`SimDisk::read_block`] is issue-then-wait.

use crate::colpage::ColPage;
use crate::page::Page;
use parking_lot::{Mutex, RwLock};
use qpipe_common::colbatch::Column;
use qpipe_common::{
    ColBatch, FaultAction, FaultInjector, FaultOp, Metrics, QError, QResult, Tuple,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Identifies a file on the simulated disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

/// A page's decode cache, the same for both layouts: one slot per page
/// column, each filled by the first decode of its column
/// ([`Block::decode`]). The slots are made by the page's first decode;
/// a slotted page's checks every record, a columnar page's checks nothing,
/// since a columnar column is checked when it is decoded.
pub(crate) type ColCache = OnceLock<Box<[OnceLock<Arc<Column>>]>>;

/// One 8 KiB disk block: either a classic slotted page (row layout) or a
/// PAX-style columnar page. The disk and buffer pool move blocks without
/// caring which layout they carry; past its codec, a page is read through
/// [`Block::decode`] whatever its layout.
#[derive(Debug, Clone)]
pub enum Block {
    Slotted(Page),
    Columnar(ColPage),
}

impl Block {
    /// Number of records (rows) stored in the block.
    pub fn num_records(&self) -> usize {
        match self {
            Block::Slotted(p) => p.num_records(),
            Block::Columnar(p) => p.num_rows(),
        }
    }

    /// Borrow the slotted page, erroring on layout mismatch.
    pub fn as_slotted(&self) -> QResult<&Page> {
        match self {
            Block::Slotted(p) => Ok(p),
            Block::Columnar(_) => {
                Err(QError::Storage("expected a slotted page, found a columnar page".into()))
            }
        }
    }

    /// Take the slotted page, erroring on layout mismatch.
    pub fn into_slotted(self) -> QResult<Page> {
        match self {
            Block::Slotted(p) => Ok(p),
            Block::Columnar(_) => {
                Err(QError::Storage("expected a slotted page, found a columnar page".into()))
            }
        }
    }

    /// Borrow the columnar page, erroring on layout mismatch.
    pub fn as_columnar(&self) -> QResult<&ColPage> {
        match self {
            Block::Columnar(p) => Ok(p),
            Block::Slotted(_) => {
                Err(QError::Storage("expected a columnar page, found a slotted page".into()))
            }
        }
    }

    /// Columns per row: a columnar page's stored width, a slotted page's
    /// widest record ([`Page::width`]).
    pub fn num_cols(&self) -> QResult<usize> {
        match self {
            Block::Slotted(p) => p.width(),
            Block::Columnar(p) => Ok(p.num_cols()),
        }
    }

    /// The page as a batch of the named columns (every column for `None`),
    /// in the given order — the staged engine's one page → batch step, and
    /// the one place a page's decode cache is read or filled. Both layouts
    /// keep the same cache ([`ColCache`]): one slot per page column.
    ///
    /// A page with no cache (a slotted page that is not the pool's frame)
    /// is its layout's decoder. Otherwise a column some earlier call decoded
    /// is handed out as an `Arc` bump; the missing ones come from the
    /// layout's uncached decoder in one call, outside any lock, and the
    /// first copy of a column to reach the cache is the one every reader
    /// gets. A column at or past the page's width errs whatever is cached,
    /// and a failed decode caches nothing.
    pub fn decode(&self, cols: Option<&[usize]>) -> QResult<Arc<ColBatch>> {
        let cache = match self {
            Block::Slotted(p) => p.cache.as_deref(),
            Block::Columnar(p) => Some(&*p.cache),
        };
        let Some(cache) = cache else { return self.decode_uncached(cols).map(Arc::new) };
        let width = match cache.get() {
            Some(slots) => slots.len(),
            None => self.num_cols()?,
        };
        let order: Vec<usize> = cols.map_or_else(|| (0..width).collect(), <[usize]>::to_vec);
        if let Some(&c) = order.iter().find(|&&c| c >= width) {
            return Err(QError::Storage(format!("column {c} beyond page width {width}")));
        }
        let cached = |c: usize| cache.get().and_then(|slots| slots[c].get());
        let mut missing: Vec<usize> =
            order.iter().copied().filter(|&c| cached(c).is_none()).collect();
        missing.sort_unstable();
        missing.dedup();
        // A first decode runs even with nothing missing: on a slotted page
        // it checks every record; a columnar column is checked when decoded.
        if cache.get().is_none() || !missing.is_empty() {
            let fresh = self.decode_uncached(Some(&missing))?;
            let slots = cache.get_or_init(|| (0..width).map(|_| OnceLock::new()).collect());
            for (&c, col) in missing.iter().zip(fresh.columns()) {
                slots[c].get_or_init(|| col.clone());
            }
        }
        let columns = order.iter().map(|&c| cached(c).cloned()).collect::<Option<Vec<_>>>();
        let columns =
            columns.ok_or_else(|| QError::Storage("decode cache lost a column".into()))?;
        Ok(Arc::new(ColBatch::from_shared(self.num_records(), columns)))
    }

    /// The layout's decoder: the named columns, decoded afresh.
    fn decode_uncached(&self, cols: Option<&[usize]>) -> QResult<ColBatch> {
        match self {
            Block::Slotted(p) => p.decode_cols(cols),
            Block::Columnar(p) => p.decode_cols(cols),
        }
    }

    /// The copy the buffer pool installs as the block's frame. A slotted
    /// page gets a cache only here: the frame starts with an empty one and
    /// its clones — every hit — share it. A columnar page carries its cache
    /// from construction, shared by every clone, the disk's stored copy
    /// included, so it is its own frame and decodes at most once per run.
    pub(crate) fn framed(&self) -> Self {
        match self {
            Block::Slotted(p) => Block::Slotted(p.framed()),
            Block::Columnar(_) => self.clone(),
        }
    }

    /// Decode every record as a tuple, whichever layout the block carries
    /// (the layout-agnostic row-engine adapter). A slotted page decodes its
    /// tuples and never reads or fills a frame's cache; a columnar page goes
    /// through [`decode`](Self::decode).
    pub fn rows(&self) -> QResult<Vec<Tuple>> {
        match self {
            Block::Slotted(p) => p.decode_tuples(),
            Block::Columnar(_) => Ok(self.decode(None)?.to_rows()),
        }
    }

    /// Seal the block's checksum; the disk calls this the moment a block
    /// becomes durable (columnar pages are already sealed at build time).
    pub fn seal(&mut self) {
        if let Block::Slotted(p) = self {
            p.seal();
        }
    }

    /// Verify the sealed checksum against the block's current contents.
    pub fn verify_checksum(&self) -> bool {
        match self {
            Block::Slotted(p) => p.verify_checksum(),
            Block::Columnar(p) => p.verify_checksum(),
        }
    }

    /// A copy with one payload bit flipped under an intact seal — the
    /// fault injector's corruption primitive.
    pub fn corrupted_copy(&self, bit: u64) -> Self {
        match self {
            Block::Slotted(p) => {
                let mut p = p.clone();
                p.corrupt_bit(bit);
                Block::Slotted(p)
            }
            Block::Columnar(p) => Block::Columnar(p.corrupted_copy(bit)),
        }
    }
}

impl From<Page> for Block {
    fn from(p: Page) -> Self {
        Block::Slotted(p)
    }
}

impl From<ColPage> for Block {
    fn from(p: ColPage) -> Self {
        Block::Columnar(p)
    }
}

/// Latency model for the simulated disk.
#[derive(Debug, Clone, Copy)]
pub struct DiskConfig {
    /// Charge for a block that continues a sequential run on the same file.
    pub seq_read_latency: Duration,
    /// Charge for a block that breaks the sequential run (seek).
    pub rand_read_latency: Duration,
    /// Charge for writing a block.
    pub write_latency: Duration,
}

impl DiskConfig {
    /// Latency-free configuration for tests that only care about counters:
    /// every charge is zero, and a zero charge waits for nothing.
    pub fn instant() -> Self {
        Self {
            seq_read_latency: Duration::ZERO,
            rand_read_latency: Duration::ZERO,
            write_latency: Duration::ZERO,
        }
    }

    /// Default experiment profile: 8 KiB blocks at 20 µs
    /// sequential / 60 µs random, i.e. ≈400 MB/s sequential paper-scale
    /// bandwidth at the default `TimeScale`.
    pub fn experiment() -> Self {
        Self {
            seq_read_latency: Duration::from_micros(20),
            rand_read_latency: Duration::from_micros(60),
            write_latency: Duration::from_micros(25),
        }
    }
}

impl Default for DiskConfig {
    fn default() -> Self {
        Self::experiment()
    }
}

/// A read the device has accepted: the block it serves and the instant its
/// charge ends. The device time runs from the issue, whoever waits; the
/// block is only handed over by [`IssuedRead::wait`], so never early.
#[derive(Debug)]
pub struct IssuedRead {
    block: Block,
    ready_at: Instant,
}

impl IssuedRead {
    /// The instant the read's charge ends.
    pub fn ready_at(&self) -> Instant {
        self.ready_at
    }

    /// Wait out what is left of the charge and take the block.
    pub fn wait(self) -> Block {
        spin_sleep(self.ready_at.saturating_duration_since(Instant::now()));
        self.block
    }
}

/// What an injected fault does to an access that still goes ahead.
#[derive(Default)]
struct Injected {
    /// The bit to flip in the served block.
    corrupt: Option<u64>,
    /// Latency added to the access.
    delay: Duration,
}

#[derive(Debug, Default)]
struct FileState {
    /// Shared, so a read names its file without allocating.
    name: Arc<str>,
    blocks: Vec<Block>,
}

/// The simulated disk: a set of named block files with latency accounting.
#[derive(Debug)]
pub struct SimDisk {
    config: DiskConfig,
    files: RwLock<HashMap<FileId, Arc<RwLock<FileState>>>>,
    names: Mutex<HashMap<String, FileId>>,
    next_id: AtomicU64,
    /// Last block read per file, to classify sequential vs random access.
    last_read: Mutex<HashMap<FileId, u64>>,
    metrics: Metrics,
    /// Optional fault schedule consulted on every block access.
    injector: Mutex<Option<Arc<FaultInjector>>>,
}

impl SimDisk {
    pub fn new(config: DiskConfig, metrics: Metrics) -> Arc<Self> {
        Arc::new(Self {
            config,
            files: RwLock::new(HashMap::new()),
            names: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            last_read: Mutex::new(HashMap::new()),
            metrics,
            injector: Mutex::new(None),
        })
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Install (or clear) a fault injector; all subsequent block accesses
    /// consult its schedule.
    pub fn set_fault_injector(&self, injector: Option<Arc<FaultInjector>>) {
        *self.injector.lock() = injector;
    }

    /// Consult the installed fault injector for this access. Injected
    /// errors return `Err`; a delay or a corruption comes back for the
    /// caller to apply; injected panics propagate.
    fn check_fault(&self, name: &str, block_no: u64, op: FaultOp) -> QResult<Injected> {
        let inj = self.injector.lock().clone();
        let Some(inj) = inj else { return Ok(Injected::default()) };
        let Some(action) = inj.decide(name, block_no, op) else { return Ok(Injected::default()) };
        self.metrics.add_fault_injected();
        match action {
            FaultAction::Delay(delay) => Ok(Injected { delay, ..Injected::default() }),
            FaultAction::CorruptBit { bit } => {
                Ok(Injected { corrupt: Some(bit), ..Injected::default() })
            }
            FaultAction::Error => Err(QError::Storage(format!(
                "injected I/O error: {op:?} block {block_no} of {name:?}"
            ))),
            FaultAction::Panic => {
                // lint:allow(panic): an injected panic, on purpose; the pool contains it
                panic!("injected fault: panic on {op:?} block {block_no} of {name:?}")
            }
        }
    }

    pub fn config(&self) -> DiskConfig {
        self.config
    }

    /// Create a new empty file. Names must be unique.
    pub fn create_file(&self, name: &str) -> QResult<FileId> {
        let mut names = self.names.lock();
        if names.contains_key(name) {
            return Err(QError::Storage(format!("file {name:?} already exists")));
        }
        let id = FileId(self.next_id.fetch_add(1, Ordering::Relaxed) as u32);
        names.insert(name.to_string(), id);
        self.files
            .write()
            .insert(id, Arc::new(RwLock::new(FileState { name: name.into(), blocks: Vec::new() })));
        Ok(id)
    }

    /// Look up a file by name.
    pub fn file_id(&self, name: &str) -> Option<FileId> {
        self.names.lock().get(name).copied()
    }

    fn file(&self, id: FileId) -> QResult<Arc<RwLock<FileState>>> {
        self.files
            .read()
            .get(&id)
            .cloned()
            .ok_or_else(|| QError::Storage(format!("no such file id {id:?}")))
    }

    /// Number of blocks in the file.
    pub fn num_blocks(&self, id: FileId) -> QResult<u64> {
        Ok(self.file(id)?.read().blocks.len() as u64)
    }

    /// Delete a file, releasing its blocks and name. Temp-spill lifecycle:
    /// external-sort runs and grace-join partitions delete their files when
    /// the last handle drops, so spill storage returns to baseline after
    /// every query (completed, cancelled, or failed).
    pub fn delete_file(&self, id: FileId) -> QResult<()> {
        let file = self
            .files
            .write()
            .remove(&id)
            .ok_or_else(|| QError::Storage(format!("no such file id {id:?}")))?;
        self.names.lock().remove(&*file.read().name);
        self.last_read.lock().remove(&id);
        Ok(())
    }

    /// Number of files currently on the disk (leak observability).
    pub fn file_count(&self) -> usize {
        self.files.read().len()
    }

    /// Names of every file currently on the disk (leak observability —
    /// `qpipe_exec::spill::run_files` picks the spill runs out of them).
    pub fn file_names(&self) -> Vec<String> {
        self.files.read().values().map(|f| f.read().name.to_string()).collect()
    }

    /// Read one block, charging latency and counting the I/O: issue the
    /// read, then wait for it.
    pub fn read_block(&self, id: FileId, block_no: u64) -> QResult<Block> {
        self.issue_read(id, block_no).map(IssuedRead::wait)
    }

    /// Issue a read of one block without waiting for it: the fault check,
    /// the sequential/random classification (in issue order) and the
    /// counters happen now; the block comes back with the instant its charge
    /// (plus any injected delay) ends, measured from now.
    pub fn issue_read(&self, id: FileId, block_no: u64) -> QResult<IssuedRead> {
        let issued = Instant::now();
        let file = self.file(id)?;
        let (mut page, name) = {
            let f = file.read();
            let page = f.blocks.get(block_no as usize).cloned().ok_or_else(|| {
                QError::Storage(format!(
                    "read past EOF: block {block_no} of {:?} ({} blocks)",
                    f.name,
                    f.blocks.len()
                ))
            })?;
            (page, f.name.clone())
        };
        let fault = self.check_fault(&name, block_no, FaultOp::Read)?;
        if let Some(bit) = fault.corrupt {
            page = page.corrupted_copy(bit);
        }
        let sequential = {
            let mut last = self.last_read.lock();
            let seq = last.get(&id).is_some_and(|&prev| prev + 1 == block_no);
            last.insert(id, block_no);
            seq
        };
        self.metrics.add_disk_read(&name, 1);
        if sequential {
            self.metrics.add_disk_seq_read();
        }
        let charge =
            if sequential { self.config.seq_read_latency } else { self.config.rand_read_latency };
        Ok(IssuedRead { block: page, ready_at: issued + fault.delay + charge })
    }

    /// Append a block to the end of the file; returns its block number.
    /// The block's checksum is sealed here, the moment it becomes durable.
    pub fn append_block(&self, id: FileId, page: impl Into<Block>) -> QResult<u64> {
        let file = self.file(id)?;
        let mut block = page.into();
        block.seal();
        let name = file.read().name.clone();
        // Write faults target the block number about to be assigned; corrupt
        // after sealing so the damage is detectable on a later read.
        let fault = self.check_fault(&name, file.read().blocks.len() as u64, FaultOp::Write)?;
        spin_sleep(fault.delay);
        if let Some(bit) = fault.corrupt {
            block = block.corrupted_copy(bit);
        }
        let block_no = {
            let mut f = file.write();
            f.blocks.push(block);
            (f.blocks.len() - 1) as u64
        };
        self.metrics.add_disk_write(1);
        spin_sleep(self.config.write_latency);
        Ok(block_no)
    }

    /// Overwrite an existing block in place (checksum sealed like append).
    pub fn write_block(&self, id: FileId, block_no: u64, page: impl Into<Block>) -> QResult<()> {
        let file = self.file(id)?;
        let mut block = page.into();
        block.seal();
        let name = file.read().name.clone();
        let fault = self.check_fault(&name, block_no, FaultOp::Write)?;
        spin_sleep(fault.delay);
        if let Some(bit) = fault.corrupt {
            block = block.corrupted_copy(bit);
        }
        {
            let mut f = file.write();
            let len = f.blocks.len();
            let slot = f.blocks.get_mut(block_no as usize).ok_or_else(|| {
                QError::Storage(format!("write past EOF: block {block_no} of {len} blocks"))
            })?;
            *slot = block;
        }
        self.metrics.add_disk_write(1);
        spin_sleep(self.config.write_latency);
        Ok(())
    }
}

/// Sleep that stays accurate for the microsecond-scale charges we use.
///
/// `thread::sleep` has ~50 µs+ granularity on Linux; for sub-100 µs charges
/// we spin on `Instant`, otherwise we sleep.
fn spin_sleep(d: Duration) {
    if d.is_zero() {
        return;
    }
    if d >= Duration::from_micros(200) {
        std::thread::sleep(d);
        return;
    }
    let start = std::time::Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpipe_common::Metrics;

    fn disk() -> Arc<SimDisk> {
        SimDisk::new(DiskConfig::instant(), Metrics::new())
    }

    #[test]
    fn create_and_roundtrip_block() {
        let d = disk();
        let f = d.create_file("t").unwrap();
        let mut p = Page::new();
        p.append_record(b"hello").unwrap();
        let n = d.append_block(f, p.clone()).unwrap();
        assert_eq!(n, 0);
        let back = d.read_block(f, 0).unwrap();
        assert_eq!(back.as_slotted().unwrap().record(0).unwrap(), b"hello");
    }

    #[test]
    fn duplicate_name_rejected() {
        let d = disk();
        d.create_file("t").unwrap();
        assert!(d.create_file("t").is_err());
    }

    #[test]
    fn read_past_eof_errors() {
        let d = disk();
        let f = d.create_file("t").unwrap();
        assert!(d.read_block(f, 0).is_err());
    }

    #[test]
    fn per_file_read_counters() {
        let m = Metrics::new();
        let d = SimDisk::new(DiskConfig::instant(), m.clone());
        let f = d.create_file("lineitem").unwrap();
        for _ in 0..3 {
            d.append_block(f, Page::new()).unwrap();
        }
        for b in 0..3 {
            d.read_block(f, b).unwrap();
        }
        d.read_block(f, 0).unwrap();
        let s = m.snapshot();
        assert_eq!(s.disk_blocks_read, 4);
        assert_eq!(s.disk_seq_reads, 2, "blocks 1 and 2 continue the run; re-reading 0 seeks");
        assert_eq!(s.per_file_reads["lineitem"], 4);
        assert_eq!(s.disk_blocks_written, 3);
    }

    /// A read is classified and counted when it is issued, and its block is
    /// ready a charge (plus any injected delay) after that.
    #[test]
    fn an_issued_read_is_counted_at_issue_and_ready_a_charge_later() {
        use qpipe_common::{FaultInjector, FaultKind, FaultRule};
        let config = DiskConfig {
            seq_read_latency: Duration::from_micros(20),
            rand_read_latency: Duration::from_micros(60),
            write_latency: Duration::ZERO,
        };
        let m = Metrics::new();
        let d = SimDisk::new(config, m.clone());
        let f = d.create_file("t").unwrap();
        for _ in 0..3 {
            d.append_block(f, Page::new()).unwrap();
        }
        let before = Instant::now();
        let first = d.issue_read(f, 0).unwrap();
        let second = d.issue_read(f, 1).unwrap();
        let s = m.snapshot();
        assert_eq!((s.disk_blocks_read, s.disk_seq_reads), (2, 1), "counted before any wait");
        assert!(first.ready_at >= before + config.rand_read_latency, "the first read seeks");
        assert!(second.ready_at >= before + config.seq_read_latency, "the second continues it");
        second.wait();
        first.wait();
        assert!(before.elapsed() >= config.rand_read_latency, "no block is handed over early");
        let delay = Duration::from_millis(1);
        d.set_fault_injector(Some(Arc::new(FaultInjector::new(
            3,
            vec![FaultRule::new(FaultKind::Latency).on_op(FaultOp::Read).with_delay(delay)],
        ))));
        let issued = Instant::now();
        let slow = d.issue_read(f, 2).unwrap();
        assert!(slow.ready_at >= issued + delay + config.seq_read_latency, "delay is added");
    }

    #[test]
    fn delete_file_releases_blocks_and_name() {
        let d = disk();
        let f = d.create_file("t").unwrap();
        d.append_block(f, Page::new()).unwrap();
        assert_eq!(d.file_count(), 1);
        d.delete_file(f).unwrap();
        assert_eq!(d.file_count(), 0);
        assert!(d.read_block(f, 0).is_err(), "deleted file is gone");
        assert!(d.file_id("t").is_none(), "name released");
        // The name can be reused after deletion.
        d.create_file("t").unwrap();
        assert!(d.delete_file(f).is_err(), "double delete errors");
    }

    #[test]
    fn injected_transient_read_error_heals() {
        use qpipe_common::{FaultInjector, FaultKind, FaultRule};
        let d = disk();
        let f = d.create_file("t").unwrap();
        let mut p = Page::new();
        p.append_record(b"hello").unwrap();
        d.append_block(f, p).unwrap();
        d.set_fault_injector(Some(Arc::new(FaultInjector::new(
            1,
            vec![FaultRule::new(FaultKind::Transient).on_op(qpipe_common::FaultOp::Read).times(2)],
        ))));
        assert!(d.read_block(f, 0).is_err());
        assert!(d.read_block(f, 0).is_err());
        let back = d.read_block(f, 0).unwrap();
        assert!(back.verify_checksum(), "healed read serves the clean block");
        assert_eq!(d.metrics().snapshot().faults_injected, 2);
    }

    #[test]
    fn injected_corruption_is_caught_by_checksum() {
        use qpipe_common::{FaultInjector, FaultKind, FaultRule};
        let d = disk();
        let f = d.create_file("t").unwrap();
        let mut p = Page::new();
        p.append_record(b"payload").unwrap();
        d.append_block(f, p).unwrap();
        d.set_fault_injector(Some(Arc::new(FaultInjector::new(
            2,
            vec![FaultRule::new(FaultKind::Corrupt).on_op(qpipe_common::FaultOp::Read).times(1)],
        ))));
        let bad = d.read_block(f, 0).unwrap();
        assert!(!bad.verify_checksum(), "corrupted serve must fail verification");
        let good = d.read_block(f, 0).unwrap();
        assert!(good.verify_checksum(), "corruption heals after one serve");
        d.set_fault_injector(None);
        assert!(d.read_block(f, 0).unwrap().verify_checksum());
    }

    #[test]
    fn blocks_are_sealed_on_write() {
        let d = disk();
        let f = d.create_file("t").unwrap();
        let mut p = Page::new();
        p.append_record(b"x").unwrap();
        assert!(p.verify_checksum(), "unsealed page trivially passes");
        d.append_block(f, p).unwrap();
        let back = d.read_block(f, 0).unwrap();
        let Block::Slotted(page) = back else { panic!("slotted") };
        let mut tampered = page.clone();
        tampered.corrupt_bit(0);
        assert!(!tampered.verify_checksum(), "disk write sealed the page");
    }

    #[test]
    fn write_block_in_place() {
        let d = disk();
        let f = d.create_file("t").unwrap();
        d.append_block(f, Page::new()).unwrap();
        let mut p2 = Page::new();
        p2.append_record(b"v2").unwrap();
        d.write_block(f, 0, p2).unwrap();
        assert_eq!(d.read_block(f, 0).unwrap().as_slotted().unwrap().record(0).unwrap(), b"v2");
        assert!(d.write_block(f, 9, Page::new()).is_err());
    }
}
