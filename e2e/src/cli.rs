//! Command line of the benchmark binary (`run.sh` builds it and passes its
//! arguments through, adding only `--out`).
//!
//! * `--workload W --trace 0|1` runs one workload once in this process and
//!   ends with the one-line JSON result.
//! * Without `--trace` it runs the suite: for each workload (all four, or
//!   the one named) a measured and a traced run, each in a process of its
//!   own so that `peak_rss_mb` and the thread pools start fresh, merged into
//!   one JSON document.
//! * `--check` runs the suite twice and compares the end-to-end metrics.

use crate::bench::{self, BenchResult};
use crate::json::Json;
use crate::report::parse_lines;
use crate::workload::{Workload, CLIENTS};
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// An end-to-end metric as `BENCHMARK.json` declares it.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the first value the second may differ by under `--check`
    /// (and by which a later change may worsen the median).
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "throughput_qps", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "latency_p95_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "blocks_per_query_plus1", unit: "blocks", better: "lower", bound: 0.07 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.25 },
];

const USAGE: &str = "usage: run.sh [--workload mix_io|mix_cpu|noshare_io|sql_short] \
                     [--seed N] [--seconds N] [--trace 0|1] [--check]";

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    check: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 20,
        trace: None,
        check: false,
        out: PathBuf::from("e2e/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--check" {
            parsed.check = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                let w =
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?;
                parsed.workload = Some(w);
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.clamp(1, 60),
            "--trace" => parsed.trace = Some(number()? != 0),
            "--out" => parsed.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if parsed.trace.is_some() && (parsed.workload.is_none() || parsed.check) {
        return Err(
            "--trace runs one workload once: it needs --workload and excludes --check".into()
        );
    }
    Ok(parsed)
}

/// Entry point; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let args = match parse_args(args) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return 2;
        }
    };
    let result = match (args.workload, args.trace) {
        (Some(workload), Some(trace)) => single(workload, trace, &args),
        _ if args.check => check(&args),
        _ => run_suite(&args).map(|(doc, _, ok)| {
            println!("{}", doc.render());
            ok
        }),
    };
    match result {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            1
        }
    }
}

/// One workload, once, in this process. Exits 0 even when queries failed:
/// the result line then says `"correct": false` with the count, which is
/// how the benchmark contract wants a wrong run reported.
fn single(workload: Workload, trace: bool, args: &Args) -> BenchResult<bool> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# qpipe-e2e workload={} seed={} seconds={} trace={} clients={CLIENTS} cores={cores}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(trace),
    );
    let output = if trace {
        bench::traced(workload, args.seed, args.seconds, &args.out)?
    } else {
        bench::measured(workload, args.seed, args.seconds)?
    };
    print!("{}", output.lines());
    println!("{}", output.json().render());
    Ok(true)
}

/// What the suite keeps of one child run.
struct Child {
    values: Vec<(String, f64)>,
    /// The child's one-line JSON result.
    json: String,
}

fn run_child(workload: Workload, trace: bool, args: &Args) -> BenchResult<Child> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stderr(Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let json = stdout.lines().last().unwrap_or_default().to_string();
    if !output.status.success() || !json.starts_with('{') {
        return Err(format!(
            "{} (trace {trace}) did not finish: {}",
            workload.name(),
            output.status
        )
        .into());
    }
    Ok(Child { values: parse_lines(&stdout), json })
}

type Measured = Vec<(Workload, Vec<(String, f64)>)>;

/// Run the suite once. Returns the merged document, the measured values per
/// workload, and whether every measured run was free of failures.
fn run_suite(args: &Args) -> BenchResult<(Json, Measured, bool)> {
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut docs = Vec::new();
    let mut measured = Vec::new();
    let mut ok = true;
    for workload in workloads {
        eprintln!("== {}: measured run", workload.name());
        let end_to_end = run_child(workload, false, args)?;
        eprintln!("== {}: traced run", workload.name());
        let per_layer = run_child(workload, true, args)?;
        ok &= end_to_end.values.iter().any(|(name, v)| name == "failed" && *v == 0.0);
        docs.push((
            workload.name(),
            Json::obj([
                ("end_to_end", Json::Raw(end_to_end.json)),
                ("per_layer", Json::Raw(per_layer.json)),
            ]),
        ));
        measured.push((workload, end_to_end.values));
    }
    let doc = Json::obj([
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Int(args.seconds)),
        ("clients", Json::Int(CLIENTS as u64)),
        ("workloads", Json::obj(docs)),
    ]);
    std::fs::create_dir_all(&args.out)?;
    std::fs::write(args.out.join("e2e.json"), doc.render())?;
    Ok((doc, measured, ok))
}

/// Two suites back to back; fails when an end-to-end metric of any workload
/// differs between them by more than its bound.
fn check(args: &Args) -> BenchResult<bool> {
    let (_, first, ok_first) = run_suite(args)?;
    let (_, second, ok_second) = run_suite(args)?;
    let mut ok = ok_first && ok_second;
    println!(
        "{:<12} {:<24} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "first", "second", "ratio", "bound"
    );
    for ((workload, a), (_, b)) in first.iter().zip(&second) {
        for metric in &END_TO_END {
            let value = |vals: &[(String, f64)]| {
                vals.iter().find(|(n, _)| n == metric.name).map(|(_, v)| *v)
            };
            let (Some(x), Some(y)) = (value(a), value(b)) else {
                return Err(format!("{}: {} was not reported", workload.name(), metric.name).into());
            };
            let ratio = y / x;
            let within = (ratio - 1.0).abs() <= metric.bound;
            ok &= within;
            println!(
                "{:<12} {:<24} {:>14.4} {:>14.4} {:>8.4} {:>6.2} {}",
                workload.name(),
                metric.name,
                x,
                y,
                ratio,
                metric.bound,
                if within { "" } else { "DIFFERS" }
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn contract_invocation_parses() {
        let a =
            args(&["--workload", "sql_short", "--seed", "7", "--seconds", "10", "--trace", "1"])
                .unwrap();
        assert_eq!(a.workload, Some(Workload::SqlShort));
        assert_eq!((a.seed, a.seconds, a.trace, a.check), (7, 10, Some(true), false));
    }

    #[test]
    fn defaults_and_rejections() {
        let a = args(&[]).unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (None, 1, 20, None));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seed", "x"]).is_err());
        assert!(args(&["--trace", "1"]).is_err(), "--trace needs --workload");
        assert!(args(&["--frobnicate", "1"]).is_err());
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what
    /// `--check` enforces. They must say the same.
    #[test]
    fn benchmark_json_declares_the_same_end_to_end_metrics() {
        let manifest = include_str!("../../BENCHMARK.json");
        for m in &END_TO_END {
            let entry = format!(
                r#"{{"name": "{}", "unit": "{}", "better": "{}", "bound": {}}}"#,
                m.name, m.unit, m.better, m.bound
            );
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in Workload::ALL {
            assert!(manifest.contains(&format!(r#"{{"name": "{}", "why": "#, w.name())));
        }
    }
}
