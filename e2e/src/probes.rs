//! Layer probes: one thread, an idle engine, timing one layer's public call
//! at a time on the workload's own catalog. They price a layer in isolation,
//! which the closed loop cannot.

use crate::report::Metric;
use crate::stats;
use crate::workload::{PoolQuery, Workload};
use qpipe_common::{QError, QResult};
use qpipe_core::QueryClass;
use qpipe_planner::PlannerOptions;
use qpipe_storage::{Block, TableInfo};
use qpipe_workloads::harness::Driver;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Pages each storage probe touches; below every workload's pool capacity,
/// so the resident sweep really hits.
const PROBE_PAGES: u64 = 128;
const NOOP_QUERIES: usize = 200;

fn us_per(iters: u64, start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64 / 1e3 / iters.max(1) as f64
}

fn largest_table(driver: &Driver) -> QResult<Arc<TableInfo>> {
    let catalog = driver.catalog();
    let mut tables = Vec::new();
    for name in catalog.table_names() {
        let table = catalog.table(&name)?;
        tables.push((table.num_pages()?, table));
    }
    tables
        .into_iter()
        .max_by_key(|(pages, _)| *pages)
        .map(|(_, table)| table)
        .ok_or_else(|| QError::Storage("empty catalog".into()))
}

pub fn run(workload: Workload, driver: &Driver, pool: &[PoolQuery]) -> QResult<Vec<Metric>> {
    let table = largest_table(driver)?;
    let file = table.file_id();
    let pages = table.num_pages()?.min(PROBE_PAGES);
    let (disk, bufferpool) = (driver.catalog().disk(), driver.catalog().pool());

    let start = Instant::now();
    let mut blocks = Vec::with_capacity(pages as usize);
    for b in 0..pages {
        blocks.push(disk.read_block(file, b)?);
    }
    let seq_read_us = us_per(pages, start);

    // Decode from a page's bytes, bypassing the cache a resident columnar
    // page carries with it.
    let start = Instant::now();
    for block in &blocks {
        match block {
            Block::Slotted(page) => drop(black_box(page.decode_tuples()?)),
            Block::Columnar(page) => drop(black_box(page.decode()?)),
        }
    }
    let decode_us = us_per(pages, start);

    bufferpool.clear();
    let start = Instant::now();
    for b in 0..pages {
        black_box(bufferpool.get(file, b)?);
    }
    let miss_us = us_per(pages, start);
    let start = Instant::now();
    for b in 0..pages {
        black_box(bufferpool.get(file, b)?);
    }
    let hit_us = us_per(pages, start);

    let sql: Vec<&str> = pool.iter().filter_map(|q| q.sql.as_deref()).collect();
    let start = Instant::now();
    for text in &sql {
        black_box(driver.plan_sql(text, &PlannerOptions::default())?);
    }
    let plan_us = if sql.is_empty() { 0.0 } else { us_per(sql.len() as u64, start) };

    let mut noop_us = Vec::with_capacity(NOOP_QUERIES);
    for _ in 0..NOOP_QUERIES {
        let start = Instant::now();
        let handle = driver
            .submit_sql(workload.noop_sql(), QueryClass::Interactive, &PlannerOptions::default())
            .expect("staged driver")?;
        black_box(handle.try_collect()?);
        noop_us.push(us_per(1, start));
    }

    Ok(vec![
        Metric::new("storage.disk.seq_read_us", seq_read_us, "us"),
        Metric::new("storage.bufferpool.hit_us", hit_us, "us"),
        Metric::new("storage.bufferpool.miss_us", miss_us, "us"),
        Metric::new("storage.page.decode_us", decode_us, "us"),
        Metric::new("planner.plan_us", plan_us, "us"),
        Metric::new("core.engine.noop_query_us", stats::median(&noop_us), "us"),
    ])
}
