//! Catalog: table metadata, creation and bulk loading.

use crate::bufferpool::BufferPool;
use crate::disk::{FileId, SimDisk};
use crate::heap::{HeapFile, Rid};
use crate::index::{ClusteredIndex, UnclusteredIndex};
use crate::lock::LockManager;
use parking_lot::RwLock;
use qpipe_common::{QError, QResult, Schema, Tuple, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Physical page layout of a table, chosen at create/load time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StorageLayout {
    /// Classic slotted pages; tuples decoded row-at-a-time on read.
    #[default]
    Row,
    /// PAX-style columnar pages; scans materialize `ColBatch`es straight
    /// from the page's typed value regions — no row codec on the read path.
    Columnar,
}

/// Everything the engine knows about one table.
pub struct TableInfo {
    pub name: String,
    pub schema: Schema,
    /// The table's heap file, in either page layout.
    pub heap: HeapFile,
    /// Column the heap is physically sorted on, if bulk-loaded sorted.
    pub sort_key: Option<usize>,
    /// Fence-key directory when `sort_key` is set.
    pub clustered: Option<ClusteredIndex>,
    /// Secondary indexes by indexed column name (added via `create_index`).
    unclustered: RwLock<HashMap<String, Arc<UnclusteredIndex>>>,
}

impl std::fmt::Debug for TableInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableInfo")
            .field("name", &self.name)
            .field("tuples", &self.num_tuples())
            .field("sort_key", &self.sort_key)
            .finish_non_exhaustive()
    }
}

impl TableInfo {
    pub fn num_pages(&self) -> QResult<u64> {
        self.heap.num_pages()
    }

    pub fn num_tuples(&self) -> u64 {
        self.heap.num_tuples()
    }

    /// The page layout this table was loaded with.
    pub fn layout(&self) -> StorageLayout {
        self.heap.layout()
    }

    /// Backing file of the table's heap, whichever layout it uses.
    pub fn file_id(&self) -> FileId {
        self.heap.file_id()
    }

    /// Secondary index on `column`, if one was built.
    pub fn unclustered_index(&self, column: &str) -> Option<Arc<UnclusteredIndex>> {
        self.unclustered.read().get(column).cloned()
    }
}

/// The catalog owns the disk, the shared buffer pool, the lock manager and
/// the table map. It is the single storage handle both engines receive.
pub struct Catalog {
    disk: Arc<SimDisk>,
    pool: Arc<BufferPool>,
    locks: Arc<LockManager>,
    tables: RwLock<HashMap<String, Arc<TableInfo>>>,
}

impl std::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Catalog").field("tables", &self.table_names()).finish_non_exhaustive()
    }
}

impl Catalog {
    pub fn new(disk: Arc<SimDisk>, pool: Arc<BufferPool>) -> Arc<Self> {
        Arc::new(Self {
            disk,
            pool,
            locks: Arc::new(LockManager::new()),
            tables: RwLock::new(HashMap::new()),
        })
    }

    pub fn disk(&self) -> &Arc<SimDisk> {
        &self.disk
    }

    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    pub fn locks(&self) -> &Arc<LockManager> {
        &self.locks
    }

    /// Bulk-load a table in the default row layout. When `sort_key` is given
    /// the rows are sorted on that column first and a clustered fence-key
    /// index is built.
    pub fn create_table(
        &self,
        name: &str,
        schema: Schema,
        rows: Vec<Tuple>,
        sort_key: Option<usize>,
    ) -> QResult<Arc<TableInfo>> {
        self.create_table_with_layout(name, schema, rows, sort_key, StorageLayout::Row)
    }

    /// Bulk-load a table with an explicit page [`StorageLayout`]. Columnar
    /// tables require schema-conformant rows (NULLs are always admitted);
    /// everything downstream — clustered/unclustered indexes, both engines,
    /// the shared circular scanner — works over either layout.
    pub fn create_table_with_layout(
        &self,
        name: &str,
        schema: Schema,
        mut rows: Vec<Tuple>,
        sort_key: Option<usize>,
        layout: StorageLayout,
    ) -> QResult<Arc<TableInfo>> {
        if self.tables.read().contains_key(name) {
            return Err(QError::Storage(format!("table {name:?} already exists")));
        }
        if let Some(col) = sort_key {
            if col >= schema.len() {
                return Err(QError::Plan(format!("sort key {col} out of range")));
            }
            rows.sort_by(|a, b| a[col].cmp(&b[col]));
        }
        let heap = HeapFile::create(self.disk.clone(), name, layout, &schema)?;
        let mut fences: Vec<Value> = Vec::new();
        let mut last_page = u64::MAX;
        for row in &rows {
            let rid = heap.append(row)?;
            if let Some(col) = sort_key {
                if rid.page != last_page {
                    fences.push(row[col].clone());
                    last_page = rid.page;
                }
            }
        }
        heap.flush()?;
        let clustered = sort_key.map(|col| ClusteredIndex::new(col, fences));
        let info = Arc::new(TableInfo {
            name: name.to_string(),
            schema,
            heap,
            sort_key,
            clustered,
            unclustered: RwLock::new(HashMap::new()),
        });
        self.tables.write().insert(name.to_string(), info.clone());
        Ok(info)
    }

    /// Build an unclustered index on `column` of an existing table.
    ///
    /// Reads the table once through the raw disk (a build-time bulk
    /// operation, like the paper's load phase) collecting `(key, rid)` pairs.
    pub fn create_index(&self, table: &str, column: &str) -> QResult<()> {
        let info = self.table(table)?;
        let col = info
            .schema
            .index_of(column)
            .ok_or_else(|| QError::Plan(format!("no column {column:?} in {table:?}")))?;
        let mut entries = Vec::new();
        for page_no in 0..info.num_pages()? {
            let block = self.disk.read_block(info.file_id(), page_no)?;
            for (slot, tuple) in block.rows()?.into_iter().enumerate() {
                entries.push((tuple[col].clone(), Rid { page: page_no, slot: slot as u16 }));
            }
        }
        let idx =
            UnclusteredIndex::build(&self.disk, &format!("{table}.{column}.idx"), col, entries)?;
        info.unclustered.write().insert(column.to_string(), Arc::new(idx));
        Ok(())
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> QResult<Arc<TableInfo>> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| QError::NotFound(format!("table {name}")))
    }

    /// All table names (sorted, for stable output).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bufferpool::{BufferPoolConfig, PolicyKind};
    use crate::disk::DiskConfig;
    use qpipe_common::{DataType, Metrics};

    fn catalog() -> Arc<Catalog> {
        let disk = SimDisk::new(DiskConfig::instant(), Metrics::new());
        let pool = BufferPool::new(disk.clone(), BufferPoolConfig::new(256, PolicyKind::Lru));
        Catalog::new(disk, pool)
    }

    fn rows(n: i64) -> Vec<Tuple> {
        (0..n).map(|i| vec![Value::Int((n - i) % 97), Value::str(format!("r{i}"))]).collect()
    }

    fn schema() -> Schema {
        Schema::of(&[("k", DataType::Int), ("v", DataType::Str)])
    }

    #[test]
    fn create_and_lookup() {
        let c = catalog();
        c.create_table("t", schema(), rows(100), None).unwrap();
        let t = c.table("t").unwrap();
        assert_eq!(t.num_tuples(), 100);
        assert!(c.table("missing").is_err());
        assert_eq!(c.table_names(), vec!["t"]);
    }

    #[test]
    fn duplicate_table_rejected() {
        let c = catalog();
        c.create_table("t", schema(), rows(1), None).unwrap();
        assert!(c.create_table("t", schema(), rows(1), None).is_err());
    }

    #[test]
    fn sorted_load_builds_clustered_index() {
        let c = catalog();
        let t = c.create_table("t", schema(), rows(5000), Some(0)).unwrap();
        let ci = t.clustered.as_ref().expect("clustered index");
        assert_eq!(ci.num_pages(), t.num_pages().unwrap());
        // Fences must be non-decreasing.
        let (start, end) = ci.page_range(Some(&Value::Int(50)), Some(&Value::Int(60)));
        assert!(start <= end && end <= ci.num_pages());
        // Verify the heap really is sorted by reading it back.
        let mut last = Value::Null;
        for p in 0..t.num_pages().unwrap() {
            let block = c.disk().read_block(t.file_id(), p).unwrap();
            for tup in block.rows().unwrap() {
                assert!(tup[0] >= last, "heap not sorted");
                last = tup[0].clone();
            }
        }
    }

    #[test]
    fn secondary_index_probes() {
        let c = catalog();
        c.create_table("t", schema(), rows(2000), None).unwrap();
        c.create_index("t", "k").unwrap();
        let t = c.table("t").unwrap();
        let idx = t.unclustered_index("k").expect("index exists");
        let rids = idx.rid_list(c.pool(), Some(&Value::Int(3)), Some(&Value::Int(3))).unwrap();
        assert!(!rids.is_empty());
        // Every fetched RID must hold key 3.
        for rid in rids {
            let block = c.disk().read_block(t.file_id(), rid.page).unwrap();
            let tup = block.rows().unwrap()[rid.slot as usize].clone();
            assert_eq!(tup[0], Value::Int(3));
        }
        assert!(t.unclustered_index("v").is_none());
        assert!(c.create_index("t", "nope").is_err());
    }

    #[test]
    fn bad_sort_key_rejected() {
        let c = catalog();
        assert!(c.create_table("t", schema(), rows(1), Some(9)).is_err());
    }

    #[test]
    fn columnar_table_round_trips_and_sorts() {
        let c = catalog();
        let t = c
            .create_table_with_layout("ct", schema(), rows(5000), Some(0), StorageLayout::Columnar)
            .unwrap();
        assert_eq!(t.layout(), StorageLayout::Columnar);
        assert_eq!(t.num_tuples(), 5000);
        assert!(t.clustered.is_some());
        let mut last = Value::Null;
        let mut seen = 0;
        for p in 0..t.num_pages().unwrap() {
            let block = c.disk().read_block(t.file_id(), p).unwrap();
            assert!(block.as_columnar().is_ok(), "columnar table stores columnar pages");
            for tup in block.rows().unwrap() {
                assert!(tup[0] >= last, "columnar heap not sorted");
                last = tup[0].clone();
                seen += 1;
            }
        }
        assert_eq!(seen, 5000);
    }

    #[test]
    fn secondary_index_over_columnar_table() {
        let c = catalog();
        c.create_table_with_layout("ct", schema(), rows(2000), None, StorageLayout::Columnar)
            .unwrap();
        c.create_index("ct", "k").unwrap();
        let t = c.table("ct").unwrap();
        let idx = t.unclustered_index("k").expect("index exists");
        let rids = idx.rid_list(c.pool(), Some(&Value::Int(3)), Some(&Value::Int(3))).unwrap();
        assert!(!rids.is_empty());
        for rid in rids {
            let block = c.disk().read_block(t.file_id(), rid.page).unwrap();
            assert_eq!(block.rows().unwrap()[rid.slot as usize][0], Value::Int(3));
        }
    }

    #[test]
    fn columnar_layout_rejects_nonconformant_rows() {
        let c = catalog();
        // Schema says (Int, Str) but the row is (Str, Str).
        let bad = vec![vec![Value::str("x"), Value::str("y")]];
        assert!(c
            .create_table_with_layout("ct", schema(), bad, None, StorageLayout::Columnar)
            .is_err());
    }
}
