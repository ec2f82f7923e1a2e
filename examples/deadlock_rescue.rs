//! Demonstrates the deadlock problem of simultaneous pipelining (paper
//! §4.3.3) and QPipe's resolution: two queries draining two shared
//! producers in *opposite* orders deadlock through bounded pipes. Every
//! blocked wait is an edge in a waits-for graph, and the thread whose edge
//! closes the cycle breaks it at once — it materializes the cheapest pipe on
//! the cycle, with no thread or tick of its own — and execution completes.
//!
//! ```sh
//! cargo run --release --example deadlock_rescue
//! ```

use qpipe_common::{ColBatch, Metrics, Value};
use qpipe_core::deadlock::{NodeId, WaitRegistry};
use qpipe_core::pipe::{Pipe, PipeConfig, PipeProducer};
use std::sync::Arc;

fn main() {
    let metrics = Metrics::new();
    // The waits-for graph; it counts the deadlocks its waiters resolve.
    let registry = Arc::new(WaitRegistry::new(metrics.clone()));

    // Two producers (think: two shared scans, A and B), each feeding both
    // queries through one tiny bounded pipe per query. Every blocked wait on
    // a pipe is reported to the registry, and the wait that closes a cycle
    // breaks it.
    let cfg = PipeConfig { capacity: 1 };
    let (a, b, q1, q2) = (NodeId(1), NodeId(2), NodeId(3), NodeId(4));
    let (a_to_q1, q1_a) = Pipe::pair(cfg, a, q1, registry.clone());
    let (a_to_q2, q2_a) = Pipe::pair(cfg, a, q2, registry.clone());
    let (b_to_q1, q1_b) = Pipe::pair(cfg, b, q1, registry.clone());
    let (b_to_q2, q2_b) = Pipe::pair(cfg, b, q2, registry.clone());

    // 16 batches of `DEFAULT_CAPACITY` (1 024) rows per producer; a pipe
    // carries whole batches.
    let batch = |b: i64| {
        let rows = ColBatch::DEFAULT_CAPACITY as i64;
        let rows: Vec<_> = (b * rows..(b + 1) * rows).map(|i| vec![Value::Int(i)]).collect();
        Arc::new(ColBatch::from_rows(&rows))
    };
    // Each producer pushes every batch to its two pipes in turn, the way an
    // OSP host broadcasts to the queries it serves.
    let produce = move |name: &'static str, mut outs: [PipeProducer; 2]| {
        std::thread::spawn(move || {
            for b in 0..16 {
                let shared = batch(b);
                outs.iter_mut().for_each(|out| out.push_shared(shared.clone()));
            }
            outs.into_iter().for_each(|out| out.finish());
            println!("producer {name} finished");
        })
    };
    let pa = produce("A", [a_to_q1, a_to_q2]);
    let pb = produce("B", [b_to_q1, b_to_q2]);
    // Query 1 reads A fully, then B. Query 2 reads B fully, then A.
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

    // Without the resolution this program would hang: Q1 drains A and ignores
    // B, so producer B fills its pipe to Q1 and blocks; symmetrically
    // producer A blocks on its pipe to Q2 — while each query waits for the
    // other producer.
    pa.join().unwrap();
    pb.join().unwrap();
    q1.join().unwrap();
    q2.join().unwrap();
    let resolved = metrics.snapshot().deadlocks_resolved;
    println!("\ndeadlocks detected & resolved by materialization: {resolved}");
    assert!(resolved > 0, "the waiter closing the cycle must have intervened");
}
