//! Command line of the benchmark:
//!
//! ```sh
//! cargo run --release --manifest-path gfbench/Cargo.toml -- \
//!     --workload virus-fleet --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints the seed and host record, the workload's own figures and any
//! failed output check, then, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits 1 when an output check fails, 2 on bad arguments.

use gfbench::{run, RunArgs, END_TO_END, PER_LAYER, WORKLOADS};
use serde_json::{json, Map, Value};
use std::path::PathBuf;

/// Where run outputs (spans, durable-crash store directories) go,
/// relative to the working directory.
const OUT_DIR: &str = ".bench_out";

fn usage(why: &str) -> ! {
    eprintln!("gfbench: {why}");
    eprintln!(
        "usage: gfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(&format!("bad argument {flag} {value}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage("--workload, --seed, --seconds and --trace are all required");
    };

    let args = RunArgs {
        seed,
        seconds,
        trace,
        out_dir: PathBuf::from(OUT_DIR),
    };
    let report = run(&workload, &args);

    println!(
        "record {}",
        Value::Object(
            report
                .record
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect()
        )
    );
    for (name, value, unit) in &report.detail {
        println!("detail {name} {value} {unit}");
    }
    for problem in report.problems.iter().take(10) {
        println!("check failed: {problem}");
    }
    if report.problems.len() > 10 {
        println!("check failed: ... {} in all", report.problems.len());
    }

    let wanted = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Map::new();
    for (name, unit) in wanted {
        // A per-layer metric a workload does not exercise reads 0; an
        // end-to-end metric is always measured.
        let value = match report.metrics.get(name) {
            Some(v) => *v,
            None if trace => 0.0,
            None => panic!("workload {workload} did not measure {name}"),
        };
        println!("metric {name} {value} {unit}");
        metrics.insert(name.to_string(), json!({"value": value, "unit": unit}));
    }
    let correct = report.correct();
    let result = json!({
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": Value::Object(metrics),
    });
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}
