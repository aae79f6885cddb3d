//! `plan-stream`: one client sends seeded `PlanningService::plan`
//! requests over the virtual-lab world, with the Table 1 GP
//! configuration and one shared plan cache.  The requests range over 45
//! distinct plan keys built from the case-study catalog; the first
//! request for a key runs GP and every repeat hits the cache.

use crate::spans::{write_spans, SpanId, Spans};
use crate::stats::{median, percentile};
use crate::wrappers::{CacheCall, TimedCache, TimedSink};
use crate::{Report, RunArgs, Window};
use gridflow::casestudy::{self, classifications::*};
use gridflow_planner::genetic::random_tree;
use gridflow_planner::{evaluate, GoalSpec, GpConfig, GpPlanner, PlanKey, PlanningProblem};
use gridflow_services::{
    GridWorld, InProcPlanCache, PlanCacheHandle, PlanRequest, PlanResponse, PlanningService,
};
use gridflow_telemetry::{TraceLog, TraceSink};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Goal classifications requested.
const GOALS: [&str; 3] = [ORIENTATION, MODEL_3D, RESOLUTION];
/// Goal counts requested.
const MIN_COUNTS: [usize; 4] = [1, 2, 3, 4];
/// Pipeline progress: what the case has produced so far.
const PROGRESS: [&[&str]; 4] = [
    &[],
    &[ORIENTATION],
    &[ORIENTATION, MODEL_3D],
    &[ORIENTATION, MODEL_3D, MODEL_3D],
];
/// Requests per distinct key in one pass.
pub const REPEATS: usize = 8;
/// Set-ups timed per measured pass.
const SETUPS_PER_PASS: usize = 25;
/// Random trees timed through `fitness::evaluate`.
const EVALUATE_SAMPLE: usize = 2000;

/// The distinct requests: every goal × count × progress combination,
/// except that a case asks for more than two resolution files only once
/// it has made progress (one stage per extra file).  From less progress
/// the Table 1 search budget does not reach a viable plan for those
/// three combinations.
pub fn distinct_requests() -> Vec<PlanRequest> {
    let mut requests = Vec::new();
    for goal in GOALS {
        for min_count in MIN_COUNTS {
            for (stage, produced) in PROGRESS.iter().enumerate() {
                if goal == RESOLUTION && min_count > 2 + stage {
                    continue;
                }
                requests.push(PlanRequest {
                    initial: casestudy::initial_classifications(),
                    goals: vec![GoalSpec {
                        classification: goal.into(),
                        min_count,
                    }],
                    produced: produced.iter().map(|c| c.to_string()).collect(),
                    excluded: vec![],
                });
            }
        }
    }
    requests
}

/// The order a pass sends requests in, as indices into
/// [`distinct_requests`]: each key [`REPEATS`] times, shuffled by `seed`.
pub fn request_order(seed: u64, distinct: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..distinct)
        .flat_map(|k| std::iter::repeat_n(k, REPEATS))
        .collect();
    order.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
    order
}

/// The problem the planning service derives from `request`.
fn problem(world: &GridWorld, request: &PlanRequest) -> PlanningProblem {
    let mut initial = request.initial.clone();
    initial.extend(request.produced.iter().cloned());
    world
        .planning_problem(initial, request.goals.clone())
        .without_activities(request.excluded.iter().map(String::as_str))
}

/// A client ready to stream, with the wall-clock bounds of its set-up.
struct Client {
    world: GridWorld,
    service: PlanningService,
    cache: PlanCacheHandle,
    requests: Vec<PlanRequest>,
    order: Vec<usize>,
    world_build: (Instant, Instant),
    setup_s: f64,
}

fn set_up(seed: u64, cache: PlanCacheHandle, sink: Option<Arc<dyn TraceSink>>) -> Client {
    let t0 = Instant::now();
    let world = casestudy::virtual_lab_world(0, seed);
    let t1 = Instant::now();
    let requests = distinct_requests();
    let order = request_order(seed, requests.len());
    let mut service = PlanningService::new(GpConfig::default()).with_plan_cache(cache.clone());
    if let Some(sink) = sink {
        service = service.with_trace(sink);
    }
    let setup_s = t0.elapsed().as_secs_f64();
    Client {
        world,
        service,
        cache,
        requests,
        order,
        world_build: (t0, t1),
        setup_s,
    }
}

/// What one pass measured.
struct Pass {
    wall_s: f64,
    gp_ms: Vec<f64>,
    hit_us: Vec<f64>,
    /// Entry and exit of each request, in order.
    calls: Vec<(Instant, Instant)>,
}

/// Send every request of `client` in order and check each response:
/// every plan is viable, and every hit equals the response its key's
/// miss published.  `published` holds that response per key, across
/// passes (GP is deterministic, so each pass's miss must match too).
fn pass(client: &Client, published: &mut [Option<PlanResponse>], report: &mut Report) -> Pass {
    let mut gp_ms = Vec::new();
    let mut hit_us = Vec::new();
    let mut calls = Vec::with_capacity(client.order.len());
    let start = Instant::now();
    for &k in &client.order {
        let misses = client.cache.stats().misses;
        let t0 = Instant::now();
        let result = client.service.plan(&client.world, &client.requests[k]);
        let t1 = Instant::now();
        calls.push((t0, t1));
        let missed = client.cache.stats().misses > misses;
        report.attempted += 1;
        let response = match result {
            Ok(r) => r,
            Err(e) => {
                report.failed += 1;
                eprintln!("plan request {k} failed: {e}");
                continue;
            }
        };
        if !response.viable {
            report.problem(format!("request {k}: plan not viable"));
        }
        if missed {
            gp_ms.push((t1 - t0).as_secs_f64() * 1e3);
        } else {
            hit_us.push((t1 - t0).as_secs_f64() * 1e6);
        }
        match &published[k] {
            Some(first) if *first != response => report.problem(format!(
                "request {k}: {} differs from the key's published plan",
                if missed {
                    "a repeated GP run"
                } else {
                    "a cache hit"
                }
            )),
            Some(_) => {}
            None if missed => published[k] = Some(response),
            None => report.problem(format!("request {k}: a hit before any miss")),
        }
    }
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        gp_ms,
        hit_us,
        calls,
    }
}

/// Run the workload.
pub fn run(args: &RunArgs) -> Report {
    let mut report = Report::new(args.seed);
    let requests = distinct_requests();
    let config = GpConfig::default();
    report.note("workload", "plan-stream");
    report.note("distinct_keys", requests.len());
    report.note("requests_per_pass", requests.len() * REPEATS);
    report.note("gp_population", config.population_size);
    report.note("gp_generations", config.generations);
    report.note("gp_effective_threads", config.effective_threads());
    report.note("clients", 1);

    let world = casestudy::virtual_lab_world(0, args.seed);
    let keys: BTreeSet<PlanKey> = requests
        .iter()
        .map(|r| PlanKey::compute(&config, &problem(&world, r), &r.excluded))
        .collect();
    if keys.len() != requests.len() {
        report.problem(format!(
            "{} requests map to only {} distinct plan keys",
            requests.len(),
            keys.len()
        ));
    }
    let mut published = vec![None; requests.len()];
    // Warm-up pass: checked, not timed.
    let warm = set_up(args.seed, PlanCacheHandle::in_proc(), None);
    pass(&warm, &mut published, &mut report);
    if args.trace {
        traced(args, &mut report, &mut published);
    } else {
        untraced(args, &mut report, &mut published);
    }
    report
}

fn untraced(args: &RunArgs, report: &mut Report, published: &mut [Option<PlanResponse>]) {
    let window = Window::open(args.seconds);
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut gp_ms = Vec::new();
    let mut hit_us = Vec::new();
    while window.more(rates.len()) {
        // A set-up is some ten thousand times shorter than a pass, so
        // each pass takes several set-up samples.
        for _ in 1..SETUPS_PER_PASS {
            setups.push(set_up(args.seed, PlanCacheHandle::in_proc(), None).setup_s);
        }
        let client = set_up(args.seed, PlanCacheHandle::in_proc(), None);
        setups.push(client.setup_s);
        let p = pass(&client, published, report);
        rates.push(client.order.len() as f64 / p.wall_s);
        gp_ms.extend(p.gp_ms);
        hit_us.extend(p.hit_us);
    }
    if gp_ms.is_empty() || hit_us.is_empty() {
        report.problem("a pass produced no cache misses or no cache hits");
        gp_ms.push(f64::NAN);
        hit_us.push(f64::NAN);
    }
    report.set_end_to_end(&setups, median(&rates), median(&gp_ms));
    report.detail("plans_per_s", median(&rates), "1/s");
    report.detail("gp_plan_p50_ms", median(&gp_ms), "ms");
    report.detail("gp_plan_p75_ms", percentile(&gp_ms, 75.0), "ms");
    report.detail("gp_plan_samples", gp_ms.len() as f64, "count");
    report.detail("cached_plan_p50_us", median(&hit_us), "us");
    report.detail("cached_plan_samples", hit_us.len() as f64, "count");
    report.detail("passes_measured", rates.len() as f64, "count");
}

fn traced(args: &RunArgs, report: &mut Report, published: &mut [Option<PlanResponse>]) {
    // Untraced passes, the baseline of the traced one.
    let window = Window::open(args.seconds);
    let mut walls = Vec::new();
    while window.more(walls.len()) {
        let client = set_up(args.seed, PlanCacheHandle::in_proc(), None);
        walls.push(pass(&client, published, report).wall_s);
    }

    let mut spans = Spans::new();
    let root = spans.open("harness.workload", None);
    let cache = Arc::new(TimedCache::new(InProcPlanCache::default()));
    let sink = Arc::new(TimedSink::new(Arc::new(TraceLog::new())));
    let client = set_up(
        args.seed,
        PlanCacheHandle::new(cache.clone()),
        Some(sink.clone()),
    );
    spans.record(
        "services.world_build",
        client.world_build.0,
        client.world_build.1,
        Some(root),
        None,
    );
    let p = pass(&client, published, report);
    spans.close(root);
    let cache_calls = cache.take_calls();
    let gp_s = request_spans(&mut spans, root, &p.calls, &cache_calls);

    let stats = client.cache.stats();
    report.set(
        "services.world_build_s",
        (client.world_build.1 - client.world_build.0).as_secs_f64(),
    );
    report.set("plan_cache.hits", stats.hits as f64);
    report.set("plan_cache.misses", stats.misses as f64);
    report.set("plan_cache.coalesced", stats.coalesced as f64);
    report.set("plan_cache.hit_rate", stats.hit_rate());
    report.set("planner.gp_s", gp_s);
    report.set(
        "planner.generations",
        published
            .iter()
            .flatten()
            .map(|r| r.history.len())
            .sum::<usize>() as f64,
    );
    let log = sink.take_log();
    report.set("telemetry.events", log.events as f64);
    report.set("telemetry.emit_self_s", log.emit_time.as_secs_f64());
    report.set("trace_overhead_ratio", p.wall_s / median(&walls));

    planner_layer(args.seed, &client, published, report);
    write_spans(args, "plan-stream", &spans, report);
}

/// Add a span per request under `parent`, with its cache calls and its
/// GP run (from the missed `get` to the `insert` that published the
/// plan) beneath it.  Returns the total GP seconds.
fn request_spans(
    spans: &mut Spans,
    parent: SpanId,
    requests: &[(Instant, Instant)],
    cache_calls: &[CacheCall],
) -> f64 {
    let mut gp_s = 0.0;
    let mut calls = cache_calls.iter().peekable();
    for (i, &(start, end)) in requests.iter().enumerate() {
        let id = Some(i.to_string());
        let span = spans.record(
            "services.planning.plan",
            start,
            end,
            Some(parent),
            id.clone(),
        );
        let mut missed_at = None;
        while let Some(call) = calls.next_if(|c| c.start >= start && c.end <= end) {
            match call.get_hit {
                Some(hit) => {
                    spans.record(
                        "plan_cache.get",
                        call.start,
                        call.end,
                        Some(span),
                        id.clone(),
                    );
                    if !hit {
                        missed_at = Some(call.end);
                    }
                }
                None => {
                    if let Some(from) = missed_at.take() {
                        gp_s += (call.start - from).as_secs_f64();
                        spans.record("planner.gp", from, call.start, Some(span), id.clone());
                    }
                    spans.record(
                        "plan_cache.insert",
                        call.start,
                        call.end,
                        Some(span),
                        id.clone(),
                    );
                }
            }
        }
    }
    gp_s
}

/// The planner's own layer, measured beside the stream: `PlanKey`
/// computation per request, a re-run of `GpPlanner::run` on each
/// distinct problem (checked equal to the plan the service published)
/// for its evaluation counts, and `fitness::evaluate` on a seeded
/// sample of random trees.
fn planner_layer(
    seed: u64,
    client: &Client,
    published: &[Option<PlanResponse>],
    report: &mut Report,
) {
    let config = client.service.config;
    let mut key_us = Vec::with_capacity(client.order.len());
    for &k in &client.order {
        let request = &client.requests[k];
        let problem = problem(&client.world, request);
        let start = Instant::now();
        std::hint::black_box(PlanKey::compute(&config, &problem, &request.excluded));
        key_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    report.set("planner.key_compute_us", median(&key_us));

    // One evaluation thread, so that evaluation count × evaluation cost
    // and the run's wall time measure the same CPU time.
    let serial = GpConfig {
        threads: 1,
        ..config
    };
    let mut evaluations = 0usize;
    let mut memo_hits = 0u64;
    let mut gp_wall_s = 0.0;
    for (k, request) in client.requests.iter().enumerate() {
        let start = Instant::now();
        let result = GpPlanner::new(serial, problem(&client.world, request)).run();
        gp_wall_s += start.elapsed().as_secs_f64();
        evaluations += result.evaluations;
        // Read by name, so the benchmark keeps building if the memo
        // counter is ever removed from `GpResult`.
        memo_hits += serde_json::to_value(&result)
            .ok()
            .and_then(|v| v.get("memo_hits").and_then(|h| h.as_u64()))
            .unwrap_or(0);
        match &published[k] {
            Some(plan) if plan.fitness == result.best_fitness && plan.history == result.history => {
            }
            _ => report.problem(format!(
                "request {k}: GpPlanner::run does not reproduce the service's plan"
            )),
        }
    }
    report.set("planner.fitness_evals", evaluations as f64);
    report.set("planner.memo_hits", memo_hits as f64);
    report.set(
        "planner.memo_hit_ratio",
        memo_hits as f64 / evaluations.max(1) as f64,
    );

    let problem = casestudy::planning_problem();
    let names: Vec<String> = problem.activities.iter().map(|a| a.name.clone()).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut eval_us = Vec::with_capacity(EVALUATE_SAMPLE);
    for _ in 0..EVALUATE_SAMPLE {
        let size = rng.gen_range(1..=config.init_max_size);
        let tree = random_tree(&mut rng, size, &names);
        let start = Instant::now();
        std::hint::black_box(evaluate(
            &tree,
            &problem,
            config.smax,
            config.weights,
            config.flow_cap,
        ));
        eval_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    let evaluate_us = median(&eval_us);
    report.set("planner.evaluate_us", evaluate_us);
    let fresh = evaluations as f64 - memo_hits as f64;
    let share = (fresh * evaluate_us / (gp_wall_s * 1e6)).clamp(0.0, 1.0);
    report.set("planner.evaluate_share_est", share);
    report.set("planner.breed_share_est", 1.0 - share);
}
