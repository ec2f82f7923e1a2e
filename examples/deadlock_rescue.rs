//! Demonstrates the deadlock problem of simultaneous pipelining (paper
//! §4.3.3) and QPipe's resolution: two consumers draining two shared
//! producers in *opposite* orders deadlock through bounded pipes; the
//! waits-for-graph detector materializes the cheapest pipe and execution
//! completes.
//!
//! ```sh
//! cargo run --release --example deadlock_rescue
//! ```

use qpipe_common::{ColBatch, Metrics, Value};
use qpipe_core::deadlock::{DeadlockDetector, NodeId, WaitRegistry};
use qpipe_core::pipe::{Pipe, PipeConfig};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let metrics = Metrics::new();
    let registry = Arc::new(WaitRegistry::new());
    // The rescue service: scans the waits-for graph every 20 ms.
    let _detector =
        DeadlockDetector::spawn(registry.clone(), metrics.clone(), Duration::from_millis(20))
            .expect("spawn the detector thread");

    // Two producers (think: two shared scans, A and B), each broadcasting to
    // both queries through tiny bounded pipes. A pipe enters itself in the
    // registry it is built with, so the detector can break it.
    let cfg = PipeConfig { capacity: 1 };
    let pipe_a = Pipe::new(cfg, NodeId(1), registry.clone());
    let pipe_b = Pipe::new(cfg, NodeId(2), registry.clone());

    // Query 1 reads A fully, then B. Query 2 reads B fully, then A.
    let q1_a = pipe_a.attach_consumer(NodeId(3));
    let q1_b = pipe_b.attach_consumer(NodeId(3));
    let q2_b = pipe_b.attach_consumer(NodeId(4));
    let q2_a = pipe_a.attach_consumer(NodeId(4));

    // 16 batches of 256 rows per producer; a pipe carries whole batches.
    let batch = |b: i64| {
        let rows = ColBatch::DEFAULT_CAPACITY as i64;
        let rows: Vec<_> = (b * rows..(b + 1) * rows).map(|i| vec![Value::Int(i)]).collect();
        ColBatch::from_rows(&rows)
    };
    let mut prod_a = pipe_a.producer();
    let mut prod_b = pipe_b.producer();
    let pa = std::thread::spawn(move || {
        (0..16).for_each(|b| prod_a.push_cols(batch(b)));
        prod_a.finish();
        println!("producer A finished");
    });
    let pb = std::thread::spawn(move || {
        (0..16).for_each(|b| prod_b.push_cols(batch(b)));
        prod_b.finish();
        println!("producer B finished");
    });
    let q1 = std::thread::spawn(move || {
        let a = q1_a.collect_tuples().unwrap().len();
        let b = q1_b.collect_tuples().unwrap().len();
        println!("query 1 consumed A={a} then B={b}");
    });
    let q2 = std::thread::spawn(move || {
        let b = q2_b.collect_tuples().unwrap().len();
        let a = q2_a.collect_tuples().unwrap().len();
        println!("query 2 consumed B={b} then A={a}");
    });

    // Without the detector this program would hang: Q1 drains A and ignores
    // B, so producer B fills Q1's queue and blocks; symmetrically producer A
    // blocks on Q2 — while each query waits for the other producer.
    pa.join().unwrap();
    pb.join().unwrap();
    q1.join().unwrap();
    q2.join().unwrap();
    let resolved = metrics.snapshot().deadlocks_resolved;
    println!("\ndeadlocks detected & resolved by materialization: {resolved}");
    assert!(resolved > 0, "the detector must have intervened");
}
