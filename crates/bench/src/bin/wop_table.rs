//! Figure 4: the Window-of-Opportunity taxonomy (4a) and the enhancement
//! functions (4b), printed as tables, with sampled savings curves.
//!
//! This is the paper's model, kept as data. The rule the engine runs is
//! stated once elsewhere: `qpipe_core::ops::attach_window` for operator
//! hosts, `ScanGroup::try_attach` for scans.

use qpipe_bench::{print_header, print_row};
use OverlapClass::{Full, Linear, Spike, Step};

/// The four basic overlap types of Figure 4a.
#[derive(Debug, Clone, Copy)]
enum OverlapClass {
    /// Newcomer can always exploit the *uncompleted* part (unordered scans).
    Linear,
    /// Full savings until the host emits its first output tuple, then none.
    Step,
    /// Full savings for the host's entire lifetime.
    Full,
    /// Shareable only at the exact start (strictly ordered scans).
    Spike,
}

/// Figure 4a: (operation, phase, class).
const INVENTORY: [(&str, &str, OverlapClass); 14] = [
    ("table scan (unordered)", "single phase", Linear),
    ("table scan (ordered)", "single phase", Spike),
    ("clustered index scan (unordered)", "single phase", Linear),
    ("clustered index scan (ordered)", "single phase", Spike),
    ("non-clustered index scan", "RID list creation", Full),
    ("non-clustered index scan", "fetch", Linear),
    ("sort", "sorting", Full),
    ("sort", "pipelining sorted tuples", Linear),
    ("single aggregate", "single phase", Full),
    ("group-by", "single phase", Step),
    ("nested-loop join", "single phase", Step),
    ("merge join", "merging", Step),
    ("hash join", "partitioning/build", Full),
    ("hash join", "probe", Step),
];

/// Figure 4b: (class, with buffering, with materialization). Buffering turns
/// a spike into a step — the newcomer may attach while the buffer still
/// holds everything; materialization turns it into a (shallower) linear.
const ENHANCED: [(OverlapClass, OverlapClass, OverlapClass); 4] =
    [(Linear, Linear, Linear), (Step, Step, Step), (Full, Full, Full), (Spike, Step, Linear)];

/// Fraction of the host's cost a newcomer saves by attaching when the host
/// is `progress` (0..=1) through it; a step window closes at first output.
fn savings(class: OverlapClass, progress: f64, first_output_emitted: bool) -> f64 {
    let all_or_nothing = |open: bool| if open { 1.0 } else { 0.0 };
    match class {
        Linear => 1.0 - progress,
        Step => all_or_nothing(!first_output_emitted),
        Full => 1.0,
        Spike => all_or_nothing(progress == 0.0),
    }
}

fn main() {
    println!("Figure 4a: operator overlap classification\n");
    let widths = [36, 26, 8];
    print_header(&["operation", "phase", "class"], &widths);
    for (op, phase, class) in INVENTORY {
        print_row(&[op.to_string(), phase.to_string(), format!("{class:?}")], &widths);
    }

    println!("\nSavings for Q2 as a function of Q1 progress (Figure 4a curves):\n");
    let widths = [10, 9, 9, 9, 9];
    print_header(&["progress", "linear", "step*", "full", "spike"], &widths);
    for p in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let emitted = p > 0.3; // step's first output appears at 30% here
        let mut cells = vec![format!("{:.0}%", p * 100.0)];
        for class in [Linear, Step, Full, Spike] {
            cells.push(format!("{:.0}%", 100.0 * savings(class, p, emitted)));
        }
        print_row(&cells, &widths);
    }
    println!("(* step emits its first output tuple at 30% progress in this example)");

    println!("\nFigure 4b: enhancement functions\n");
    let widths = [8, 18, 18];
    print_header(&["class", "+buffering", "+materialization"], &widths);
    for (class, buffered, materialized) in ENHANCED {
        print_row(
            &[format!("{class:?}"), format!("{buffered:?}"), format!("{materialized:?}")],
            &widths,
        );
    }
}
