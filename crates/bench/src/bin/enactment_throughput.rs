//! **Engine throughput — concurrent multi-case enactment.**
//!
//! Drive fleets of N ∈ {1, 8, 64, 512, 2048, 100000} dinner cases
//! through the `gridflow-engine` scheduler over one shared world, and
//! report cases/sec (wall clock) plus the
//! p50/p99 virtual-tick makespan per case and the fleet's total
//! blocked ticks.  The 100k tier runs with per-case checkpointing off
//! (its cost is pure scheduling, not snapshot serialization) and is
//! sized out of CI via `--max-cases 2048`.  Results land in
//! `BENCH_enactment.json` in the working directory.
//!
//! A second sweep drives the **workload × policy matrix**: the dinner
//! fixture, two generated taxonomy shapes (wide fan-out, choice-dense),
//! and the paper's virus-reconstruction case study, each under every
//! admission policy (FIFO, priority, fair-share, EDF).  Matrix cells
//! land in the same report under `"matrix"`; the legacy `"results"`
//! array keeps its schema (and the N=512/FIFO guard cell) untouched.
//!
//! A third sweep quantifies **durable-store overhead**: the N=512 fleet
//! traced only, journalled into a `MemStore`, and journalled into a
//! `FileStore` (snapshot cadence 32), reported as cases/sec under
//! `"store"`.
//!
//! ```sh
//! cargo run --release --bin enactment_throughput
//! cargo run --release --bin enactment_throughput -- --max-cases 64   # CI smoke
//! cargo run --release --bin enactment_throughput -- --guard          # + regression gate
//! cargo run --release --bin enactment_throughput -- --matrix-cases 8 # shrink the matrix
//! ```
//!
//! `--guard` reads the committed `BENCH_enactment.json` *before*
//! overwriting it and exits non-zero if
//!
//! - the headline point (N=512, best of three measurements) regressed
//!   more than 20% in cases/sec against it — the CI seam that keeps the
//!   event core's throughput claim honest; or
//! - the memory or file store cell's wall time over the trace-only
//!   cell's (best of three measurements of each) exceeds 1.5× the
//!   committed ratio — the seam that keeps durability's cost from
//!   creeping back.
//!
//! The report records the host's `available_parallelism` under
//! `"host"`: cells from hosts with different CPU counts are not a
//! comparison.

use gridflow_bench::{banner, render_table};
use gridflow_engine::{CaseHints, CaseScheduler, CaseSpec, EngineConfig, PolicySpec};
use gridflow_harness::workload::{
    dinner_case_for_fleet, dinner_workload, virus_reconstruction_workload, GraphShape, Workload,
    WorkloadGen,
};
use gridflow_harness::{FaultPlan, MultiCaseScenario};
use gridflow_store::{FileStore, MemStore, Store};
use serde_json::json;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const FLEET_SIZES: [usize; 6] = [1, 8, 64, 512, 2048, 100_000];
/// Above this fleet size the throughput sweep turns per-case
/// checkpointing off: the 100k tier measures pure scheduling, and at
/// one snapshot per productive step it would mostly measure
/// serialization.
const CHECKPOINT_OFF_ABOVE: usize = 2048;
/// The regression gate's reference point and tolerance.
const GUARD_CASES: u64 = 512;
const GUARD_FLOOR: f64 = 0.8;
/// Guard comparisons use the best of this many measurements of the
/// guard cell — shared CI runners jitter wall-clock throughput far
/// more than any real regression, and best-of-N strips the downward
/// noise without hiding a genuine slowdown.
const GUARD_MEASUREMENTS: usize = 3;
/// Default fleet size per workload × policy matrix cell.
const MATRIX_CASES: usize = 32;
/// Fleet size and snapshot cadence for the durable-store overhead sweep.
const STORE_CASES: usize = 512;
const STORE_SNAPSHOT_EVERY: u64 = 32;
const STORE_BACKENDS: [&str; 3] = ["trace-only", "memory", "file"];
/// The store gate: a store cell's wall over the trace-only cell's may
/// grow to this multiple of the committed ratio.
const STORE_GUARD_SLACK: f64 = 1.5;

/// Staggered hints so every non-FIFO policy visibly reorders the
/// fleet: alternating tenants, three priority classes, deadlines
/// running against submission order.
fn matrix_hints(i: usize) -> CaseHints {
    CaseHints {
        priority: (i % 3) as i64,
        tenant: Some(if i.is_multiple_of(2) {
            "a".into()
        } else {
            "b".into()
        }),
        deadline_tick: Some(1_000 - (i as u64 % 100) * 10),
    }
}

/// The matrix's workload axis, each sized for a fleet of `fleet`
/// concurrent cases over one shared world.
fn matrix_workloads(fleet: usize) -> Vec<(&'static str, Workload)> {
    let mut dinner = dinner_workload();
    dinner.case = dinner_case_for_fleet(fleet);
    vec![
        ("dinner", dinner),
        (
            "generated-wide",
            WorkloadGen::new(7)
                .shape(GraphShape::FanOutJoin)
                .width(3)
                .depth(2)
                .fleet(fleet)
                .build(),
        ),
        (
            "generated-choice",
            WorkloadGen::new(7)
                .shape(GraphShape::ChoiceDense)
                .width(3)
                .depth(2)
                .fleet(fleet)
                .build(),
        ),
        ("virus", virus_reconstruction_workload()),
    ]
}

/// One throughput measurement of a headline-sweep cell: `fleet` dinner
/// cases through a raw `CaseScheduler`.
fn measure_cell(wl: &Workload, plan: &FaultPlan, fleet: usize) -> f64 {
    let mut scheduler = CaseScheduler::new(EngineConfig {
        max_in_flight: 64,
        ..EngineConfig::default()
    });
    let case = std::sync::Arc::new(dinner_case_for_fleet(fleet));
    for i in 0..fleet {
        scheduler.submit(CaseSpec {
            label: format!("dinner-{i}"),
            graph: wl.graph.clone(),
            case: case.clone(),
            config: wl.config.clone(),
            hints: Default::default(),
        });
    }
    let mut world = wl.fresh_world(plan, 0);
    let start = Instant::now();
    let outcome = scheduler.run(&mut world);
    let wall = start.elapsed();
    assert!(outcome.all_succeeded(), "guard re-measurement cell failed");
    fleet as f64 / wall.as_secs_f64().max(1e-9)
}

fn percentile_ticks(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pct / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// The committed baseline cases/sec for the guard point, if the report
/// on disk has one.  Reports written while the engine still had a
/// `workers` knob carry one row per worker count; the workers=1 row is
/// the guard point.
fn baseline_cases_per_sec(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let report: serde_json::Value = serde_json::from_str(&text).ok()?;
    report.get("results")?.as_array()?.iter().find_map(|r| {
        let cases = r.get("cases")?.as_u64()?;
        let workers = r.get("workers").and_then(|w| w.as_u64()).unwrap_or(1);
        (cases == GUARD_CASES && workers == 1)
            .then(|| r.get("cases_per_sec")?.as_f64())
            .flatten()
    })
}

/// One measurement of a durable-store overhead cell: `cases` dinner
/// cases traced only, or journalled into a `MemStore` or a `FileStore`
/// (in a throwaway directory, removed afterwards).  Returns the tick
/// count and the wall time.
fn measure_store_cell(
    backend: &str,
    plan: &FaultPlan,
    wl: &Workload,
    cases: usize,
) -> (u64, Duration) {
    let scenario = MultiCaseScenario::new(plan, wl, cases).max_in_flight(64);
    let file_dir = (backend == "file")
        .then(|| std::env::temp_dir().join(format!("gridflow-bench-store-{}", std::process::id())));
    let scenario = match backend {
        "trace-only" => scenario.traced(),
        "memory" => scenario.store(
            Arc::new(Mutex::new(MemStore::new())) as Arc<Mutex<dyn Store>>,
            STORE_SNAPSHOT_EVERY,
        ),
        _ => {
            let dir = file_dir.as_ref().expect("file cell has a dir");
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).expect("create bench store dir");
            let (fs, _) = FileStore::open(dir, 4096).expect("open bench store");
            scenario.store(
                Arc::new(Mutex::new(fs)) as Arc<Mutex<dyn Store>>,
                STORE_SNAPSHOT_EVERY,
            )
        }
    };
    let start = Instant::now();
    let outcome = scenario.run().engine;
    let wall = start.elapsed();
    if let Some(dir) = file_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    assert!(
        outcome.all_succeeded(),
        "store cell {backend} did not fully succeed"
    );
    (outcome.ticks, wall)
}

/// The committed wall-time ratio of each store cell over the
/// trace-only cell, if the report on disk has N=`STORE_CASES` store
/// cells.
fn baseline_store_ratios(path: &str) -> Option<Vec<(String, f64)>> {
    let text = std::fs::read_to_string(path).ok()?;
    let report: serde_json::Value = serde_json::from_str(&text).ok()?;
    let cells = report.get("store")?.as_array()?;
    let wall = |backend: &str| {
        cells.iter().find_map(|c| {
            (c.get("backend")?.as_str()? == backend
                && c.get("cases")?.as_u64()? == STORE_CASES as u64)
                .then(|| c.get("wall_ms")?.as_f64())
                .flatten()
        })
    };
    let trace_only = wall("trace-only")?;
    STORE_BACKENDS[1..]
        .iter()
        .map(|b| Some((b.to_string(), wall(b)? / trace_only)))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let max_cases = args
        .iter()
        .position(|a| a == "--max-cases")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(usize::MAX);
    let guard = args.iter().any(|a| a == "--guard");
    let matrix_cases = args
        .iter()
        .position(|a| a == "--matrix-cases")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(MATRIX_CASES);

    let path = "BENCH_enactment.json";
    let baseline = guard.then(|| baseline_cases_per_sec(path)).flatten();
    let store_baseline = guard.then(|| baseline_store_ratios(path)).flatten();

    banner("engine throughput: concurrent multi-case enactment");
    let wl = dinner_workload();
    let plan = FaultPlan::default();

    let mut rows = Vec::new();
    let mut results = Vec::new();
    let mut guard_measured: Option<f64> = None;
    for &fleet in FLEET_SIZES.iter().filter(|&&n| n <= max_cases) {
        let mut scheduler = CaseScheduler::new(EngineConfig {
            max_in_flight: 64,
            ..EngineConfig::default()
        });
        // The shared world's fresh-id counter is fleet-global, so
        // the goal range must be sized to the fleet.
        let case = std::sync::Arc::new(dinner_case_for_fleet(fleet));
        let mut config = wl.config.clone();
        if fleet > CHECKPOINT_OFF_ABOVE {
            config.checkpoint_every = None;
        }
        for i in 0..fleet {
            scheduler.submit(CaseSpec {
                label: format!("dinner-{i}"),
                graph: wl.graph.clone(),
                case: case.clone(),
                config: config.clone(),
                hints: Default::default(),
            });
        }
        let mut world = wl.fresh_world(&plan, 0);
        let start = Instant::now();
        let outcome = scheduler.run(&mut world);
        let wall = start.elapsed();

        // Percentiles over cases that actually ran; a refusal has
        // no makespan and must not be counted as an instant one.
        let mut makespans: Vec<u64> = outcome
            .cases
            .iter()
            .filter_map(|c| c.admitted_makespan_ticks())
            .collect();
        makespans.sort_unstable();
        let p50 = percentile_ticks(&makespans, 50.0);
        let p99 = percentile_ticks(&makespans, 99.0);
        let blocked: u64 = outcome.cases.iter().map(|c| c.blocked_ticks).sum();
        let secs = wall.as_secs_f64().max(1e-9);
        let cases_per_sec = fleet as f64 / secs;
        assert!(
            outcome.all_succeeded(),
            "fleet of {fleet} did not fully succeed"
        );
        if fleet as u64 == GUARD_CASES {
            guard_measured = Some(cases_per_sec);
        }

        rows.push(vec![
            fleet.to_string(),
            outcome.ticks.to_string(),
            format!("{:.1}", wall.as_secs_f64() * 1e3),
            format!("{cases_per_sec:.0}"),
            p50.to_string(),
            p99.to_string(),
            blocked.to_string(),
        ]);
        results.push(json!({
            "cases": fleet,
            "ticks": outcome.ticks,
            "wall_ms": wall.as_secs_f64() * 1e3,
            "cases_per_sec": cases_per_sec,
            "p50_makespan_ticks": p50,
            "p99_makespan_ticks": p99,
            "blocked_ticks_total": blocked,
            "all_succeeded": true,
        }));
    }

    println!(
        "{}",
        render_table(
            &[
                "cases",
                "ticks",
                "wall ms",
                "cases/s",
                "p50 makespan",
                "p99 makespan",
                "blocked ticks",
            ],
            &rows,
        )
    );

    banner("workload x policy admission matrix");
    let mut matrix_rows = Vec::new();
    let mut matrix = Vec::new();
    for (name, wl) in matrix_workloads(matrix_cases) {
        for policy in PolicySpec::ALL {
            let start = Instant::now();
            let outcome = MultiCaseScenario::new(&plan, &wl, matrix_cases)
                .max_in_flight(64)
                .policy(policy)
                .case_hints(matrix_hints)
                .run()
                .engine;
            let wall = start.elapsed();
            assert!(
                outcome.all_succeeded(),
                "matrix cell {name}/{} did not fully succeed",
                policy.name()
            );
            let mut makespans: Vec<u64> = outcome
                .cases
                .iter()
                .filter_map(|c| c.admitted_makespan_ticks())
                .collect();
            makespans.sort_unstable();
            let p50 = percentile_ticks(&makespans, 50.0);
            let p99 = percentile_ticks(&makespans, 99.0);
            let cases_per_sec = matrix_cases as f64 / wall.as_secs_f64().max(1e-9);
            matrix_rows.push(vec![
                name.to_string(),
                policy.name().to_string(),
                matrix_cases.to_string(),
                outcome.ticks.to_string(),
                format!("{:.1}", wall.as_secs_f64() * 1e3),
                format!("{cases_per_sec:.0}"),
                p50.to_string(),
                p99.to_string(),
            ]);
            matrix.push(json!({
                "workload": name,
                "policy": policy.name(),
                "cases": matrix_cases,
                "ticks": outcome.ticks,
                "wall_ms": wall.as_secs_f64() * 1e3,
                "cases_per_sec": cases_per_sec,
                "p50_makespan_ticks": p50,
                "p99_makespan_ticks": p99,
                "all_succeeded": true,
            }));
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "workload",
                "policy",
                "cases",
                "ticks",
                "wall ms",
                "cases/s",
                "p50 makespan",
                "p99 makespan",
            ],
            &matrix_rows,
        )
    );

    banner("durable store overhead");
    let store_cases = STORE_CASES.min(max_cases.max(1));
    let mut store_wl = dinner_workload();
    store_wl.case = dinner_case_for_fleet(store_cases);
    let mut store_rows = Vec::new();
    let mut store_cells = Vec::new();
    let mut store_walls = Vec::new();
    for backend in STORE_BACKENDS {
        let (ticks, wall) = measure_store_cell(backend, &plan, &store_wl, store_cases);
        store_walls.push(wall);
        let cases_per_sec = store_cases as f64 / wall.as_secs_f64().max(1e-9);
        store_rows.push(vec![
            backend.to_string(),
            store_cases.to_string(),
            ticks.to_string(),
            format!("{:.1}", wall.as_secs_f64() * 1e3),
            format!("{cases_per_sec:.0}"),
        ]);
        store_cells.push(json!({
            "backend": backend,
            "cases": store_cases,
            "snapshot_every": STORE_SNAPSHOT_EVERY,
            "ticks": ticks,
            "wall_ms": wall.as_secs_f64() * 1e3,
            "cases_per_sec": cases_per_sec,
            "all_succeeded": true,
        }));
    }
    println!(
        "{}",
        render_table(
            &["backend", "cases", "ticks", "wall ms", "cases/s"],
            &store_rows,
        )
    );

    let available_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = json!({
        "bench": "enactment_throughput",
        "host": {"available_parallelism": available_parallelism},
        "workload": wl.name,
        "engine": {"max_in_flight": 64, "enforce_reservations": true},
        "results": results,
        "matrix": matrix,
        "store": store_cells,
    });
    std::fs::write(
        path,
        serde_json::to_string_pretty(&report).expect("serializes"),
    )
    .expect("write BENCH_enactment.json");
    println!("wrote {path}");

    if guard {
        let Some(mut measured) = guard_measured else {
            eprintln!("guard: no N={GUARD_CASES} point was measured (--max-cases too low?)");
            std::process::exit(1);
        };
        // Best-of-N: re-measure the guard cell and keep the fastest
        // observation (see GUARD_MEASUREMENTS).
        for _ in 1..GUARD_MEASUREMENTS {
            measured = measured.max(measure_cell(&wl, &plan, GUARD_CASES as usize));
        }
        match baseline {
            Some(base) => {
                let floor = base * GUARD_FLOOR;
                println!(
                    "guard: N={GUARD_CASES}: {measured:.0} cases/s \
                     vs committed baseline {base:.0} (floor {floor:.0})"
                );
                if measured < floor {
                    eprintln!("guard: throughput regressed more than 20% — failing");
                    std::process::exit(1);
                }
            }
            None => println!("guard: no committed baseline for the guard point; recording only"),
        }
        match store_baseline {
            Some(committed) if store_cases == STORE_CASES => {
                // Best-of-N per cell, as for the headline point.
                for _ in 1..GUARD_MEASUREMENTS {
                    for (backend, best) in STORE_BACKENDS.iter().zip(&mut store_walls) {
                        *best = (*best)
                            .min(measure_store_cell(backend, &plan, &store_wl, store_cases).1);
                    }
                }
                let trace_only = store_walls[0].as_secs_f64().max(1e-9);
                for ((backend, committed), wall) in committed.iter().zip(&store_walls[1..]) {
                    let ratio = wall.as_secs_f64() / trace_only;
                    let ceiling = committed * STORE_GUARD_SLACK;
                    println!(
                        "guard: {backend} store / trace-only wall: {ratio:.2} \
                         vs committed {committed:.2} (ceiling {ceiling:.2})"
                    );
                    if ratio > ceiling {
                        eprintln!("guard: {backend} store overhead grew past 1.5x — failing");
                        std::process::exit(1);
                    }
                }
            }
            _ => println!("guard: no committed N={STORE_CASES} store cells; recording only"),
        }
    }
}
