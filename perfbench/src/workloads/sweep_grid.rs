//! `sweep_grid`: repeated capacity queries. Each query is one
//! `run_sweep` over seeds × rate scales × fleet sizes of a short,
//! exact-mode copy of `serve_live`'s scenario, on a two-thread pool,
//! plus the report's JSON. Every query is replayed on one thread from
//! public pieces and must reproduce the pooled report byte for byte.

use std::sync::Arc;
use std::time::Instant;

use s2m3::core::objective::total_latency;
use s2m3::serve::{prepare, ServeReport, ServeSession};
use s2m3::sweep::report::{aggregate_cell, capacity_frontier};
use s2m3::sweep::{cost_slo_frontier, run_sweep, ReplicaSummary, SweepReport, SweepSpec};

use crate::metrics::Values;
use crate::scenario;
use crate::stats::{self, fnv1a};
use crate::workloads::{initial_plan, mean_self_ms, placement_mem_gib};
use crate::{record_common, Ctx, Outcome, Phase, Timings};

/// Requests per replica.
const REQUESTS: usize = 600;
/// Pool threads.
const THREADS: usize = 2;

/// The query's grid: the full four-device fleet and two smaller prefixes
/// of it, rate scales around the full fleet's capacity, four seeds.
fn spec(seed: u64) -> SweepSpec {
    let mut base = scenario::serve_live(seed, REQUESTS);
    base.streaming = None;
    base.max_windows = None;
    base.snapshot_every = 50;
    base.seed = format!("perfbench/sweep_grid/{seed}");
    let bin_s = scenario::horizon_s(&base) / 8.0;
    SweepSpec {
        base,
        seeds: 4,
        rate_scales: vec![1.0, 1.5, 2.5, 3.5],
        fleet_sizes: vec![2, 3, 4],
        bin_s,
        miss_budget: 0.06,
        threads: THREADS,
    }
}

/// Parses the sweep spec, timing it into `setup_s`.
fn set_up(ctx: &mut Ctx, text: &str, setup_s: &mut Vec<f64>) -> Result<SweepSpec, String> {
    let t = Instant::now();
    let parsed = ctx
        .tracer
        .span("sweep.spec.parse", || SweepSpec::from_json(text));
    setup_s.push(t.elapsed().as_secs_f64());
    parsed
}

/// What the one-thread replay of a query yields.
struct Replay {
    report: SweepReport,
    reports: Vec<ServeReport>,
    wall_s: f64,
    replica_ms: Vec<f64>,
    aggregate_ms: f64,
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let text = spec(ctx.seed).to_json()?;

    // --- Set-up: parse and validate the sweep spec. Every query parses
    // it again, so the set-up samples span the run as the queries do. ---
    let mut setup_s = Vec::new();
    let base_spec = set_up(ctx, &text, &mut setup_s)?;
    let per_query = (base_spec.replica_count() * REQUESTS) as u64;

    let mut timings = Timings {
        setup_s,
        steps_ms: Vec::new(),
        completed: 0,
    };
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut replica_ms: Vec<f64> = Vec::new();
    let mut aggregate_ms: Vec<f64> = Vec::new();
    let mut replay_s = 0.0;
    // The full fleet's frontier point of query 0. Nothing else of a
    // query outlives it, so the live heap each query starts from is the
    // same whatever the run's length.
    let mut frontier: Option<(Option<f64>, Option<f64>)> = None;
    let full = *base_spec.fleet_sizes.iter().max().expect("fleet sizes");

    let mut phase = Phase::begin();
    let mut step = 0u64;
    while step == 0 || phase.elapsed() < ctx.budget {
        ctx.tracer.set_step(step);
        let mut spec = set_up(ctx, &text, &mut timings.setup_s)?;
        spec.base.seed = format!("{}/q{step}", base_spec.base.seed);
        phase.resume();
        let t = Instant::now();
        let report = ctx
            .tracer
            .span("sweep.run_sweep", || run_sweep(&spec))
            .map_err(|e| e.to_string())?;
        let json = ctx
            .tracer
            .span("sweep.report.json", || report.to_json())
            .map_err(|e| e.to_string())?;
        timings.steps_ms.push(t.elapsed().as_secs_f64() * 1e3);
        phase.pause();

        // --- Checks: the one-thread replay, request conservation. ---
        let open = ctx.tracer.enter("sweep.replay");
        let replay = replay(ctx, &spec);
        ctx.tracer.exit(open);
        let replay = replay?;
        let replay_json = replay.report.to_json().map_err(|e| e.to_string())?;
        ctx.check(replay_json == json, || {
            format!("query {step}: one-thread replay differs from run_sweep")
        });
        let mut done = 0u64;
        for r in &replay.reports {
            done += r.completed;
            ctx.check(r.shed == 0 && r.completed == r.arrived, || {
                format!(
                    "query {step} replica {}: {} arrived, {} completed, {} shed",
                    r.seed, r.arrived, r.completed, r.shed
                )
            });
        }
        attempted += per_query;
        failed += per_query - done.min(per_query);
        timings.completed += done;
        replay_s += replay.wall_s;
        if ctx.tracer.enabled() {
            replica_ms.extend_from_slice(&replay.replica_ms);
            aggregate_ms.push(replay.aggregate_ms);
        }
        if frontier.is_none() {
            println!(
                "sweep_grid: {} replicas x {REQUESTS} requests per query, digest {:016x}",
                spec.replica_count(),
                fnv1a(json.as_bytes())
            );
            let point = report
                .frontier
                .iter()
                .find(|p| p.fleet_size == full)
                .ok_or("no frontier point for the full fleet")?;
            frontier = Some((point.max_rate_scale, point.max_rate_per_s));
        }
        step += 1;
    }
    let totals = phase.end();

    let mut v = Values::default();
    record_common(ctx, &mut v, &timings, &totals);
    let (Some(scale), Some(rate)) = frontier.expect("at least one query ran") else {
        return Err("even the smallest rate scale misses the budget".into());
    };
    println!("sweep_grid: full fleet sustains x{scale} = {rate:.4} req/s");
    v.set("model_capacity_req_per_s", rate);
    // Every replica is too short for a steady tail, so the modeled
    // latency here is the floor each query starts from: the zero-load
    // route latency (Eq. 1) of each Table X task on the full fleet. The
    // mix holds the tasks in equal shares, so its median is the mean of
    // the two middle tasks and its 99th percentile the slowest task.
    let (instance, plan) = initial_plan(&base_spec.base)?;
    let mut zero_load = plan
        .routed
        .iter()
        .map(|(q, route)| total_latency(&instance, route, q).map_err(|e| e.to_string()))
        .collect::<Result<Vec<f64>, _>>()?;
    zero_load.sort_by(f64::total_cmp);
    let n = zero_load.len();
    v.set(
        "model_p50_s",
        (zero_load[(n - 1) / 2] + zero_load[n / 2]) / 2.0,
    );
    v.set("model_p99_s", zero_load[n - 1]);
    v.set(
        "model_mem_gib",
        placement_mem_gib(&instance, &plan.placement),
    );

    if ctx.tracer.enabled() {
        let tr = &ctx.tracer;
        v.set("sweep.spec.parse_ms", mean_self_ms(tr, "sweep.spec.parse"));
        v.set("core.prepare_ms", mean_self_ms(tr, "core.prepare"));
        v.set(
            "serve.session.new_ms",
            mean_self_ms(tr, "serve.session.new"),
        );
        v.set("sweep.replica_p50_ms", stats::median(&replica_ms));
        let (_, tail) = stats::tail(&replica_ms).ok_or("fewer than forty replicas")?;
        v.set("sweep.replica_tail_ms", tail);
        v.set("sweep.aggregate_ms", stats::median(&aggregate_ms));
        v.set(
            "sweep.report.json_ms",
            mean_self_ms(tr, "sweep.report.json"),
        );
        v.set(
            "sweep.pool_efficiency",
            replay_s / (THREADS as f64 * totals.work_s),
        );
    }
    Ok(Outcome {
        attempted,
        failed,
        values: v,
    })
}

/// Rebuilds `run_sweep`'s report on this thread from public pieces:
/// per fleet size one `prepare`, per replica `with_shared` →
/// `run_to_idle` → `finish`, then the same aggregation in the same
/// order.
fn replay(ctx: &mut Ctx, spec: &SweepSpec) -> Result<Replay, String> {
    let start = Instant::now();
    let mut reports = Vec::with_capacity(spec.replica_count());
    let mut replica_ms = Vec::with_capacity(spec.replica_count());
    let mut aggregate_s = 0.0;
    let mut cells = Vec::with_capacity(spec.cell_count());
    let err = |e: &dyn std::fmt::Display| e.to_string();
    for &fleet_size in &spec.fleet_sizes {
        let representative = spec
            .cell_scenario(spec.rate_scales[0], fleet_size, 0)
            .map_err(|e| err(&e))?;
        let shared = Arc::new(
            ctx.tracer
                .span("core.prepare", || prepare(&representative))
                .map_err(|e| err(&e))?,
        );
        for &rate_scale in &spec.rate_scales {
            let mut summaries = Vec::with_capacity(spec.seeds);
            for seed_idx in 0..spec.seeds {
                let scenario = spec
                    .cell_scenario(rate_scale, fleet_size, seed_idx)
                    .map_err(|e| err(&e))?;
                let t = Instant::now();
                let mut session = ctx
                    .tracer
                    .span("serve.session.new", || {
                        ServeSession::with_shared(&scenario, &shared)
                    })
                    .map_err(|e| err(&e))?;
                ctx.tracer
                    .span("serve.run_to_idle", || session.run_to_idle())
                    .map_err(|e| err(&e))?;
                let report = ctx.tracer.span("serve.finish", || session.finish());
                replica_ms.push(t.elapsed().as_secs_f64() * 1e3);
                let t = Instant::now();
                summaries.push(ctx.tracer.span("sweep.aggregate", || {
                    ReplicaSummary::from_report(&report, spec.bin_s)
                }));
                aggregate_s += t.elapsed().as_secs_f64();
                reports.push(report);
            }
            let t = Instant::now();
            cells.push(ctx.tracer.span("sweep.aggregate", || {
                aggregate_cell(
                    fleet_size,
                    rate_scale,
                    spec.offered_rate_per_s(rate_scale),
                    &summaries,
                    spec.bin_s,
                )
            }));
            aggregate_s += t.elapsed().as_secs_f64();
        }
    }
    let t = Instant::now();
    let (frontier, points) = ctx.tracer.span("sweep.aggregate", || {
        (
            capacity_frontier(&cells, spec.miss_budget),
            cost_slo_frontier(&cells),
        )
    });
    aggregate_s += t.elapsed().as_secs_f64();
    let report = SweepReport {
        seed: spec.base.seed.clone(),
        seeds_per_cell: spec.seeds,
        replicas: spec.replica_count(),
        miss_budget: spec.miss_budget,
        bin_s: spec.bin_s,
        cells,
        frontier,
        cost_slo: (!points.is_empty()).then_some(points),
    };
    Ok(Replay {
        report,
        reports,
        wall_s: start.elapsed().as_secs_f64(),
        replica_ms,
        aggregate_ms: aggregate_s * 1e3,
    })
}
