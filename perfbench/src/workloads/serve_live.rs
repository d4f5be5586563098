//! `serve_live`: one open-loop streaming serve session in virtual time,
//! driven in fixed virtual-time ticks through `ServeSession::run_until`.
//!
//! The session is repeated whole until the time budget is spent: each
//! round parses the scenario JSON, prepares, builds the session (the
//! set-up), runs every tick (the steps), finishes and serializes the
//! report. Every round serves the same scenario, so every round's
//! report must be byte-identical.

use std::time::Instant;

use s2m3::serve::{prepare, ServeReport, ServeScenario, ServeSession, StreamingConfig};

use crate::metrics::Values;
use crate::scenario;
use crate::stats::{self, fnv1a};
use crate::workloads::{initial_plan, mean_self_ms, placement_mem_gib, rel_diff, self_ns};
use crate::{record_common, Ctx, Outcome, Phase, Timings};

/// Requests per session.
const REQUESTS: usize = 2_000_000;
/// Virtual-time ticks per session horizon.
const TICKS: usize = 40;

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let scenario = scenario::serve_live(ctx.seed, REQUESTS);
    let scenario_json = scenario.to_json()?;
    let tick_s = scenario::horizon_s(&scenario) / TICKS as f64;
    let event_times: Vec<f64> = scenario.events.iter().map(|e| e.at_s).collect();
    let mut traced_json = None;
    if ctx.tracer.enabled() {
        // The traced run streams completions into the columnar sink so
        // the report's sketch quantiles can be checked against exact
        // ones recomputed from the rows.
        let path = sink_path(ctx.seed);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let mut s = scenario.clone();
        s.streaming = Some(StreamingConfig {
            sink: Some(path.to_string_lossy().into_owned()),
        });
        traced_json = Some(s.to_json()?);
    }

    let mut timings = Timings {
        setup_s: Vec::new(),
        steps_ms: Vec::new(),
        completed: 0,
    };
    let mut event_ticks_ms: Vec<f64> = Vec::new();
    let mut events_total: u64 = 0;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    // Round 0's figures; later rounds must match its digest. Nothing
    // else of a round outlives it, so the live heap each round starts
    // from is the same.
    let mut first: Option<Round0> = None;

    let mut phase = Phase::begin();
    let mut round = 0u64;
    while round == 0 || phase.elapsed() < ctx.budget {
        let text = match (&traced_json, round) {
            (Some(t), 0) => t,
            _ => &scenario_json,
        };
        // --- Set-up, then steps: one virtual-time tick each, until
        // idle. A throw-away set-up is timed between ticks too, so the
        // set-up samples span the run as the ticks do. ---
        let mut session = set_up(ctx, text, &mut timings.setup_s)?;
        let mut k = 0usize;
        while !session.is_idle() {
            ctx.tracer.set_step(k as u64);
            let lo = k as f64 * tick_s;
            let hi = (k + 1) as f64 * tick_s;
            phase.resume();
            let t = Instant::now();
            let n = ctx
                .tracer
                .span("serve.run_until", || session.run_until(hi))
                .map_err(|e| e.to_string())?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            phase.pause();
            timings.steps_ms.push(ms);
            events_total += n;
            if event_times.iter().any(|&at| lo < at && at <= hi) {
                event_ticks_ms.push(ms);
            }
            k += 1;
            if k > 20 * TICKS {
                return Err("session still busy after 20 horizons".into());
            }
            set_up(ctx, &scenario_json, &mut timings.setup_s)?;
        }
        phase.resume();
        let report = ctx.tracer.span("serve.finish", || session.finish());
        let json = ctx
            .tracer
            .span("serve.report.json", || report.to_json())
            .map_err(|e| e.to_string())?;
        phase.pause();
        timings.completed += report.completed;

        // --- Checks. ---
        attempted += REQUESTS as u64;
        failed += REQUESTS as u64 - report.completed.min(REQUESTS as u64);
        check_report(ctx, &report);
        let digest = fnv1a(json.as_bytes());
        match &first {
            None => {
                if traced_json.is_some() {
                    check_sink(ctx, &report);
                }
                let r0 = Round0::new(&report, digest, json.len())?;
                println!(
                    "serve_live: {} req/session, {} ticks, digest {digest:016x}, {} replans ({} accepted), {} deferred",
                    REQUESTS, k, r0.replans, r0.replans_accepted, r0.deferred,
                );
                print!("{}", report.render_summary());
                first = Some(r0);
            }
            Some(r0) => {
                let same = r0.digest == digest;
                ctx.check(same, || {
                    format!("round {round} report differs from round 0")
                });
            }
        }
        round += 1;
    }
    let totals = phase.end();

    let r0 = first.expect("at least one round ran");
    let mut v = Values::default();
    record_common(ctx, &mut v, &timings, &totals);
    v.set("model_p50_s", r0.p50_s);
    v.set("model_p99_s", r0.p99_s);
    v.set("model_capacity_req_per_s", r0.capacity_req_per_s);
    let (instance, plan) = initial_plan(&scenario)?;
    v.set(
        "model_mem_gib",
        placement_mem_gib(&instance, &plan.placement),
    );

    if ctx.tracer.enabled() {
        let tr = &ctx.tracer;
        v.set(
            "serve.config.parse_ms",
            mean_self_ms(tr, "serve.config.parse"),
        );
        v.set("core.prepare_ms", mean_self_ms(tr, "core.prepare"));
        v.set(
            "serve.session.new_ms",
            mean_self_ms(tr, "serve.session.new"),
        );
        v.set(
            "serve.ns_per_event",
            self_ns(tr, "serve.run_until") / events_total.max(1) as f64,
        );
        v.set(
            "serve.events_per_req",
            events_total as f64 / attempted.max(1) as f64,
        );
        v.set("serve.event_tick_ms", stats::median(&event_ticks_ms));
        v.set("serve.finish_ms", mean_self_ms(tr, "serve.finish"));
        v.set(
            "serve.report.json_ms",
            mean_self_ms(tr, "serve.report.json"),
        );
        v.set("serve.report.bytes", r0.json_bytes as f64);
        v.set("serve.replans", r0.replans as f64);
        v.set("serve.replans_accepted", r0.replans_accepted as f64);
        v.set("serve.budget.deferred", r0.deferred as f64);
        v.set(
            "sim.workload.ns_per_req",
            workload_ns_per_req(ctx, &scenario)?,
        );
    }
    Ok(Outcome {
        attempted,
        failed,
        values: v,
    })
}

/// Parses the scenario, prepares and builds the session, timing the
/// whole into `setup_s`.
fn set_up(ctx: &mut Ctx, text: &str, setup_s: &mut Vec<f64>) -> Result<ServeSession, String> {
    let t = Instant::now();
    let setup = ctx.tracer.enter("serve.setup");
    let parsed = ctx
        .tracer
        .span("serve.config.parse", || ServeScenario::from_json(text))?;
    let shared = ctx
        .tracer
        .span("core.prepare", || prepare(&parsed))
        .map_err(|e| e.to_string())?;
    let session = ctx
        .tracer
        .span("serve.session.new", || {
            ServeSession::with_shared(&parsed, &shared)
        })
        .map_err(|e| e.to_string())?;
    ctx.tracer.exit(setup);
    setup_s.push(t.elapsed().as_secs_f64());
    Ok(session)
}

/// What the run keeps of round 0's report.
struct Round0 {
    digest: u64,
    json_bytes: usize,
    p50_s: f64,
    p99_s: f64,
    capacity_req_per_s: f64,
    replans: usize,
    replans_accepted: usize,
    deferred: u64,
}

impl Round0 {
    fn new(report: &ServeReport, digest: u64, json_bytes: usize) -> Result<Self, String> {
        let budget = report.budget.as_ref().ok_or("report lacks its budget")?;
        // The budget bounds what the fleet may serve: at the session's
        // mean spend per request, the cap sustains this many requests
        // per virtual second.
        let spend_per_req = budget.spend_total / report.completed.max(1) as f64;
        Ok(Round0 {
            digest,
            json_bytes,
            p50_s: report.latency.p50_s,
            p99_s: report.latency.p99_s,
            capacity_req_per_s: budget.cap_per_window / budget.window_s / spend_per_req,
            replans: report.replans.len(),
            replans_accepted: report.accepted_replans(),
            deferred: budget.deferred,
        })
    }
}

/// Conservation, no shedding, and the budget cap in every window.
fn check_report(ctx: &mut Ctx, r: &ServeReport) {
    let n = REQUESTS as u64;
    ctx.check(r.arrived == n, || format!("arrived {} != {n}", r.arrived));
    ctx.check(r.completed + r.shed == r.arrived, || {
        format!(
            "completed {} + shed {} != arrived {}",
            r.completed, r.shed, r.arrived
        )
    });
    ctx.check(r.shed == 0, || format!("{} requests shed", r.shed));
    let Some(b) = &r.budget else {
        ctx.check(false, || "budgeted run reports no budget".into());
        return;
    };
    ctx.check(b.windows_over_cap == 0, || {
        format!("{} budget windows over the cap", b.windows_over_cap)
    });
    for w in &b.windows {
        ctx.check(w.spend <= b.cap_per_window * (1.0 + 1e-9), || {
            format!(
                "window {} spent {} over cap {}",
                w.index, w.spend, b.cap_per_window
            )
        });
    }
    ctx.check(b.deferred > 0, || "the budget cap never bound".into());
}

fn sink_path(seed: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("serve_live-sink-{seed}.bin"))
}

/// Recomputes exact quantiles from the sink rows: the report's sketch
/// quantiles must sit within the sketch's documented 1% of them, and its
/// mean must match.
fn check_sink(ctx: &mut Ctx, r: &ServeReport) {
    let path = sink_path(ctx.seed);
    let rows = std::fs::File::open(&path)
        .map(std::io::BufReader::new)
        .and_then(s2m3::data::sink::read_rows);
    let _ = std::fs::remove_file(&path);
    let rows = match rows {
        Ok(rows) => rows,
        Err(e) => {
            ctx.check(false, || format!("reading the sink: {e}"));
            return;
        }
    };
    ctx.check(rows.len() as u64 == r.completed, || {
        format!(
            "sink holds {} rows, report {} completions",
            rows.len(),
            r.completed
        )
    });
    let lat: Vec<f64> = rows.iter().map(|row| row.latency_s).collect();
    if lat.is_empty() {
        return;
    }
    let sorted = stats::sorted(&lat);
    for (p, sketch) in [
        (0.50, r.latency.p50_s),
        (0.95, r.latency.p95_s),
        (0.99, r.latency.p99_s),
    ] {
        let exact = stats::percentile_sorted(&sorted, p);
        ctx.check(rel_diff(sketch, exact) <= 0.01, || {
            format!("sketch p{} {sketch} vs exact {exact}", p * 100.0)
        });
    }
    let mean = lat.iter().sum::<f64>() / lat.len() as f64;
    ctx.check(rel_diff(r.latency.mean_s, mean) <= 1e-9, || {
        format!("report mean {} vs sink mean {mean}", r.latency.mean_s)
    });
}

/// The session's request stream replayed alone through
/// `WorkloadSpec::stream`, nanoseconds per request.
fn workload_ns_per_req(ctx: &mut Ctx, s: &ServeScenario) -> Result<f64, String> {
    let models: Vec<String> = s.models.iter().map(|m| m.name.clone()).collect();
    let spec = s.workload();
    let t = Instant::now();
    let n = ctx.tracer.span("sim.workload.stream", || {
        spec.stream(s.requests, &models)
            .map(|stream| stream.map(std::hint::black_box).count())
    });
    let n = n.map_err(|e| e.to_string())?;
    Ok(t.elapsed().as_nanos() as f64 / n.max(1) as f64)
}
