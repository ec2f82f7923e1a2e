//! Storage manager substrate for the QPipe reproduction.
//!
//! The paper builds QPipe on top of BerkeleyDB; QPipe only uses BerkeleyDB's
//! page-level access methods, buffer pool and table locking. This crate
//! implements exactly that surface, plus the simulated disk that stands in
//! for the authors' 4-disk RAID array:
//!
//! * [`disk`] — an in-memory block device that charges a configurable latency
//!   per block read and counts per-file I/O (Figure 8's metric). Blocks are
//!   a [`Block`] enum so one file can carry either page layout, and
//!   [`Block::decode`] is the one page → batch step for both: it keeps the
//!   decode cache both layouts share, one slot per page column.
//! * [`page`] — **row layout**: slotted 8 KiB pages with a compact tagged
//!   binary tuple codec. Reads decode tuple-by-tuple for the iterator
//!   engine, or walk each record once straight into the typed columns a
//!   scan needs (`Page::decode_cols`).
//! * [`colpage`] — **columnar layout**: PAX-style 8 KiB pages with per-column
//!   typed value regions, null bitmaps and a page-local string dictionary.
//!   A column decodes from its byte regions in bulk — scans over columnar
//!   tables skip the row codec entirely, which is what lets one shared
//!   circular scan feed N consumers with vectorized kernels at near-zero
//!   per-page cost.
//! * [`heap`] — one append-only heap file for both layouts: its open tail
//!   is a slotted page or a columnar page builder, with an O(1)-amortized
//!   bulk-load path either way.
//! * [`bufferpool`] — a buffer pool with the two replacement policies the
//!   evaluated systems run: LRU (QPipe, Baseline) and 2Q (DBMS X). It caches
//!   [`Block`]s. Where a decode cache attaches is the layouts' one
//!   difference past their codecs: a slotted page has one only as the
//!   pool's resident copy (its *frame*), for as long as it stays resident;
//!   a columnar page carries one in every copy, the disk's stored one
//!   included, so each of its columns is decoded at most once per run —
//!   even across eviction.
//! * [`index`] — bulk-loaded paged indexes: clustered (table stored in key
//!   order) and unclustered (key → RID list, fetched in page order). Both
//!   work over either table layout. The staged engine's page-range reader
//!   is their one reader; the iterator engine, the test oracle, reads no
//!   index and answers an index scan by filtering a full scan.
//! * [`catalog`] — table metadata and creation/loading helpers; each table
//!   records its [`StorageLayout`] (`Row` or `Columnar`), chosen at
//!   create/load time.
//! * [`lock`] — table-level shared/exclusive locks for the update path.

pub mod bufferpool;
pub mod catalog;
pub mod colpage;
pub mod disk;
pub mod heap;
pub mod index;
pub mod lock;
pub mod page;

pub use bufferpool::{BufferPool, BufferPoolConfig, PolicyKind};
pub use catalog::{Catalog, StorageLayout, TableInfo};
pub use colpage::{ColPage, ColPageBuilder};
pub use disk::{Block, DiskConfig, FileId, IssuedRead, SimDisk};
pub use heap::{HeapFile, Rid};
pub use index::{ClusteredIndex, UnclusteredIndex};
pub use lock::{LockManager, TableLockGuard};
pub use page::{Page, PAGE_SIZE};
