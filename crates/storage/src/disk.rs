//! Simulated block device.
//!
//! Substitute for the paper's 4-disk SCSI RAID-0 array. Files are vectors
//! of fixed-size blocks held in memory; every read *charges* a latency —
//! sequential reads are cheaper than random ones, mirroring disk
//! behaviour — and bumps the per-file counters that Figure 8 plots.
//!
//! The latency charge is what turns block counts into response time: all the
//! time-axis experiments (Figures 9–13) are dominated by I/O exactly as in
//! the paper, because the per-block charge dwarfs per-tuple CPU work.

use crate::colpage::ColPage;
use crate::page::{Page, PAGE_SIZE};
use parking_lot::{Mutex, RwLock};
use qpipe_common::{
    ColBatch, FaultAction, FaultInjector, FaultOp, Metrics, QError, QResult, Tuple,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Identifies a file on the simulated disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

/// One 8 KiB disk block: either a classic slotted page (row layout) or a
/// PAX-style columnar page. The disk and buffer pool move blocks without
/// caring which layout they carry; readers dispatch on the variant.
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

    /// The page as a batch of the named columns (every column for `None`) —
    /// the staged engine's one page → batch step. A whole columnar page is
    /// its pool-resident batch ([`ColPage::materialize`]); anything else is
    /// the layout's column decoder.
    pub fn decode(&self, cols: Option<&[usize]>) -> QResult<Arc<ColBatch>> {
        match (self, cols) {
            (Block::Columnar(p), None) => p.materialize(),
            (Block::Columnar(p), Some(cols)) => Ok(Arc::new(p.decode_cols(cols)?)),
            (Block::Slotted(p), cols) => Ok(Arc::new(p.decode_cols(cols)?)),
        }
    }

    /// Decode every record as a tuple, whichever layout the block carries
    /// (the layout-agnostic row-engine adapter).
    pub fn rows(&self) -> QResult<Vec<Tuple>> {
        match self {
            Block::Slotted(p) => p.decode_tuples(),
            Block::Columnar(p) => p.rows(),
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
    /// When false, no latency is charged (unit tests use this).
    pub charge_latency: bool,
}

impl DiskConfig {
    /// Latency-free configuration for tests that only care about counters.
    pub fn instant() -> Self {
        Self {
            seq_read_latency: Duration::ZERO,
            rand_read_latency: Duration::ZERO,
            write_latency: Duration::ZERO,
            charge_latency: false,
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
            charge_latency: true,
        }
    }
}

impl Default for DiskConfig {
    fn default() -> Self {
        Self::experiment()
    }
}

#[derive(Debug, Default)]
struct FileState {
    name: String,
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

    /// Consult the installed fault injector for this access. Delays are
    /// charged here; injected errors return `Err`; corruption returns the
    /// bit to flip in the served block; injected panics propagate.
    fn check_fault(&self, name: &str, block_no: u64, op: FaultOp) -> QResult<Option<u64>> {
        let inj = self.injector.lock().clone();
        let Some(inj) = inj else { return Ok(None) };
        let Some(action) = inj.decide(name, block_no, op) else { return Ok(None) };
        self.metrics.add_fault_injected();
        match action {
            FaultAction::Delay(d) => {
                spin_sleep(d);
                Ok(None)
            }
            FaultAction::CorruptBit { bit } => Ok(Some(bit)),
            FaultAction::Error => Err(QError::Storage(format!(
                "injected I/O error: {op:?} block {block_no} of {name:?}"
            ))),
            FaultAction::Panic => {
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
        self.files.write().insert(
            id,
            Arc::new(RwLock::new(FileState { name: name.to_string(), blocks: Vec::new() })),
        );
        Ok(id)
    }

    /// Look up a file by name.
    pub fn file_id(&self, name: &str) -> Option<FileId> {
        self.names.lock().get(name).copied()
    }

    /// Human-readable name of a file.
    pub fn file_name(&self, id: FileId) -> QResult<String> {
        Ok(self.file(id)?.read().name.clone())
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
        self.names.lock().remove(&file.read().name);
        self.last_read.lock().remove(&id);
        Ok(())
    }

    /// Number of files currently on the disk (leak observability).
    pub fn file_count(&self) -> usize {
        self.files.read().len()
    }

    /// Names of every file currently on the disk (leak observability —
    /// spill temps are recognizable by their `__tmp.` prefix).
    pub fn file_names(&self) -> Vec<String> {
        self.files.read().values().map(|f| f.read().name.clone()).collect()
    }

    /// Read one block, charging latency and counting the I/O.
    pub fn read_block(&self, id: FileId, block_no: u64) -> QResult<Block> {
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
        if let Some(bit) = self.check_fault(&name, block_no, FaultOp::Read)? {
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
        if self.config.charge_latency {
            let lat = if sequential {
                self.config.seq_read_latency
            } else {
                self.config.rand_read_latency
            };
            spin_sleep(lat);
        }
        Ok(page)
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
        if let Some(bit) =
            self.check_fault(&name, file.read().blocks.len() as u64, FaultOp::Write)?
        {
            block = block.corrupted_copy(bit);
        }
        let block_no = {
            let mut f = file.write();
            f.blocks.push(block);
            (f.blocks.len() - 1) as u64
        };
        self.metrics.add_disk_write(1);
        if self.config.charge_latency {
            spin_sleep(self.config.write_latency);
        }
        Ok(block_no)
    }

    /// Overwrite an existing block in place (checksum sealed like append).
    pub fn write_block(&self, id: FileId, block_no: u64, page: impl Into<Block>) -> QResult<()> {
        let file = self.file(id)?;
        let mut block = page.into();
        block.seal();
        let name = file.read().name.clone();
        if let Some(bit) = self.check_fault(&name, block_no, FaultOp::Write)? {
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
        if self.config.charge_latency {
            spin_sleep(self.config.write_latency);
        }
        Ok(())
    }

    /// Total bytes currently stored (all files).
    pub fn total_bytes(&self) -> u64 {
        self.files.read().values().map(|f| f.read().blocks.len() as u64 * PAGE_SIZE as u64).sum()
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
