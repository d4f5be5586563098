//! `sim_burst`: repeated bounded simulations of a four-task burst
//! offered far above fleet capacity. Each step runs
//! `WorkloadSpec::materialize` → `Plan::greedy` → `simulate` (module
//! batching on) → `latency_stats` with its own seed.

use std::time::Instant;

use s2m3::core::objective::total_latency;
use s2m3::core::plan::Plan;
use s2m3::core::problem::Instance;
use s2m3::core::resolved::ResolvedInstance;
use s2m3::net::fleet::Fleet;
use s2m3::sim::kernel::{Device, Driver, Kernel, Policy, RequestSlot, Scheduler};
use s2m3::sim::workload::{
    latency_stats, ArrivalProcess, ModelMix, ModelWeight, SourceSpec, WorkloadSpec,
};
use s2m3::sim::{simulate, SimConfig, SimReport};

use crate::metrics::Values;
use crate::scenario;
use crate::stats::{self, fnv1a};
use crate::workloads::{mean_self_ms, placement_mem_gib, self_ns};
use crate::{record_common, Ctx, Outcome, Phase, Timings};

/// Requests per burst.
const REQUESTS: usize = 5_000;
/// Offered rate, requests per virtual second: about six times what the
/// five-device fleet completes even with module batching (about 6.6
/// req/s for this mix), so queues grow deep and the kernel's event
/// queue spills into the timing wheel.
const RATE: f64 = 40.0;
/// Module batch cap (the paper's Sec. VI-C lever).
const MAX_BATCH: usize = 8;
/// Bursts the modeled figures are medians over.
const MODEL_BURSTS: u64 = 9;
/// Slack for the zero-load bound: the simulator rounds every event
/// time to whole nanoseconds.
const NS_SLACK_S: f64 = 1e-6;

fn spec(seed: u64, step: u64, models: &[(&str, usize)]) -> WorkloadSpec {
    let label = format!("perfbench/sim_burst/{seed}/b{step}");
    WorkloadSpec {
        sources: vec![SourceSpec {
            device: None,
            arrivals: ArrivalProcess::Poisson { rate_per_s: RATE },
            label: label.clone(),
            weight: None,
            mix: None,
        }],
        mix: ModelMix::Weighted {
            weights: models
                .iter()
                .zip(scenario::MIX_WEIGHTS)
                .map(|((name, _), weight)| ModelWeight {
                    model: (*name).to_string(),
                    weight,
                })
                .collect(),
        },
        classes: Vec::new(),
        seed: label,
    }
}

/// Builds the instance, timing it into `setup_s`.
fn set_up(
    ctx: &mut Ctx,
    models: &[(&str, usize)],
    setup_s: &mut Vec<f64>,
) -> Result<Instance, String> {
    let t = Instant::now();
    let built = ctx.tracer.span("core.instance", || {
        Instance::on_fleet(Fleet::standard_testbed(), models)
    });
    setup_s.push(t.elapsed().as_secs_f64());
    built.map_err(|e| e.to_string())
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let models = scenario::table_x(ctx.seed);

    // --- Set-up: build the instance. A throw-away instance is built
    // and timed before every step too, so the set-up samples span the
    // run as the steps do. ---
    let mut setup_s = Vec::new();
    let instance = set_up(ctx, &models, &mut setup_s)?;
    check_alone(ctx, &instance)?;

    let config = |arrivals: Vec<f64>| SimConfig {
        include_loading: false,
        arrivals: Some(arrivals),
        max_batch: Some(MAX_BATCH),
    };
    let mut timings = Timings {
        setup_s,
        steps_ms: Vec::new(),
        completed: 0,
    };
    let mut attempted = 0u64;
    let mut failed = 0u64;
    // Step 0's digest. Nothing else of a step outlives it, so the live
    // heap each step starts from is the same whatever the run's length.
    let mut digest0: Option<u64> = None;
    let mut spans_total = 0usize;

    let mut phase = Phase::begin();
    let mut step = 0u64;
    while step == 0 || phase.elapsed() < ctx.budget {
        ctx.tracer.set_step(step);
        set_up(ctx, &models, &mut timings.setup_s)?;
        let s = spec(ctx.seed, step, &models);
        phase.resume();
        let t = Instant::now();
        let (requests, arrivals) = ctx
            .tracer
            .span("sim.workload.materialize", || {
                s.materialize(&instance, REQUESTS)
            })
            .map_err(|e| e.to_string())?;
        let plan = ctx
            .tracer
            .span("core.plan.greedy", || Plan::greedy(&instance, requests))
            .map_err(|e| e.to_string())?;
        let report = ctx
            .tracer
            .span("sim.engine.simulate", || {
                simulate(&instance, &plan, &config(arrivals.clone()))
            })
            .map_err(|e| e.to_string())?;
        let lat = ctx.tracer.span("sim.stats", || latency_stats(&report));
        timings.steps_ms.push(t.elapsed().as_secs_f64() * 1e3);
        phase.pause();
        timings.completed += lat.n as u64;
        spans_total += report.spans.len();

        attempted += REQUESTS as u64;
        let wrong = check_bound(ctx, &instance, &plan, &report);
        failed += (REQUESTS - lat.n.min(REQUESTS)) as u64 + wrong;
        if digest0.is_none() {
            let digest = fnv1a(report.to_json().map_err(|e| e.to_string())?.as_bytes());
            println!(
                "sim_burst: {REQUESTS} req/burst at {RATE} req/s, step 0: p50 {:.2}s p99 {:.2}s, \
                 {:.3} req/s completed, digest {digest:016x}",
                lat.p50, lat.p99, lat.throughput
            );
            digest0 = Some(digest);
        }
        step += 1;
    }
    let totals = phase.end();

    let digest0 = digest0.expect("at least one step ran");

    // The modeled figures: one burst's swing with its draws of the mix,
    // so each is the median over the first bursts, rebuilt from their
    // seeds outside the measured phase. Rebuilding step 0 also checks
    // that the same input gives the same output.
    let mut figures: [Vec<f64>; 3] = Default::default();
    let mut step0 = None;
    for step in 0..MODEL_BURSTS {
        let (requests, arrivals) = spec(ctx.seed, step, &models)
            .materialize(&instance, REQUESTS)
            .map_err(|e| e.to_string())?;
        let plan = Plan::greedy(&instance, requests).map_err(|e| e.to_string())?;
        let report =
            simulate(&instance, &plan, &config(arrivals.clone())).map_err(|e| e.to_string())?;
        let lat = latency_stats(&report);
        for (f, x) in figures.iter_mut().zip([lat.p50, lat.p99, lat.throughput]) {
            f.push(x);
        }
        if step == 0 {
            let again = fnv1a(report.to_json().map_err(|e| e.to_string())?.as_bytes());
            ctx.check(again == digest0, || {
                "step 0 re-run gives another report".into()
            });
            step0 = Some((plan, arrivals));
        }
    }
    let (plan, arrivals) = step0.expect("step 0 was rebuilt");

    let mut v = Values::default();
    record_common(ctx, &mut v, &timings, &totals);
    v.set("model_p50_s", stats::median(&figures[0]));
    v.set("model_p99_s", stats::median(&figures[1]));
    // Offered far above capacity, the fleet completes requests as fast
    // as it can: the completion rate is its saturated capacity.
    v.set("model_capacity_req_per_s", stats::median(&figures[2]));
    v.set(
        "model_mem_gib",
        placement_mem_gib(&instance, &plan.placement),
    );

    if ctx.tracer.enabled() {
        let n = timings.completed.max(1) as f64;
        let tr = &ctx.tracer;
        v.set(
            "sim.workload.ns_per_req",
            self_ns(tr, "sim.workload.materialize") / n,
        );
        v.set("core.plan.ns_per_req", self_ns(tr, "core.plan.greedy") / n);
        v.set(
            "sim.engine.ns_per_req",
            self_ns(tr, "sim.engine.simulate") / n,
        );
        v.set("sim.engine.spans_per_req", spans_total as f64 / n);
        v.set("sim.stats_ms", mean_self_ms(tr, "sim.stats"));
        let (ns_per_event, pending_peak) = kernel_replay(ctx, &instance, &plan, &arrivals)?;
        v.set("sim.kernel.ns_per_event", ns_per_event);
        v.set("sim.kernel.pending_peak", pending_peak as f64);
    }
    Ok(Outcome {
        attempted,
        failed,
        values: v,
    })
}

/// Eq. 1–4: a request simulated alone takes exactly its zero-load route
/// latency.
fn check_alone(ctx: &mut Ctx, instance: &Instance) -> Result<(), String> {
    for d in instance.deployments() {
        let q = instance
            .request(0, &d.model.name)
            .map_err(|e| e.to_string())?;
        let plan = Plan::greedy(instance, vec![q.clone()]).map_err(|e| e.to_string())?;
        let zero_load =
            total_latency(instance, &plan.routed[0].1, &q).map_err(|e| e.to_string())?;
        let report = simulate(instance, &plan, &SimConfig::default()).map_err(|e| e.to_string())?;
        let simulated = report.request_latency(0).unwrap_or(f64::NAN);
        ctx.check((simulated - zero_load).abs() <= NS_SLACK_S, || {
            format!(
                "{} alone: simulated {simulated} s, Eq. 1 gives {zero_load} s",
                d.model.name
            )
        });
    }
    Ok(())
}

/// Eq. 1–4: queueing only adds, so no simulated latency is below its
/// route's zero-load latency. Returns the number of violations.
fn check_bound(ctx: &mut Ctx, instance: &Instance, plan: &Plan, report: &SimReport) -> u64 {
    let mut wrong = 0;
    for (q, route) in &plan.routed {
        let floor = match total_latency(instance, route, q) {
            Ok(t) => t,
            Err(e) => {
                ctx.check(false, || format!("request {}: {e}", q.id));
                wrong += 1;
                continue;
            }
        };
        let Some(simulated) = report.request_latency(q.id) else {
            continue;
        };
        if simulated < floor - NS_SLACK_S {
            wrong += 1;
            ctx.check(false, || {
                format!(
                    "request {} simulated {simulated} s below its zero-load {floor} s",
                    q.id
                )
            });
        }
    }
    wrong
}

/// The kernel driven alone with fixed task durations: no spans, no
/// transfers, no timing arithmetic beyond a sum.
struct Replay {
    heads_done: usize,
    pending_peak: usize,
}

impl Driver for Replay {
    type Custom = ();
    type Payload = u64;
    type Error = ();

    fn dispatched(
        &mut self,
        k: &mut Kernel<(), u64>,
        _device: usize,
        group: &[usize],
        now: u64,
    ) -> Result<u64, ()> {
        self.pending_peak = self.pending_peak.max(k.pending_events());
        Ok(now + group.iter().map(|&g| *k.tasks.payload(g)).sum::<u64>())
    }

    fn encoder_ready_ns(
        &mut self,
        _k: &mut Kernel<(), u64>,
        _tid: usize,
        now: u64,
    ) -> Result<u64, ()> {
        Ok(now)
    }

    fn head_done(&mut self, _k: &mut Kernel<(), u64>, _req: usize, _now: u64) -> Result<(), ()> {
        self.heads_done += 1;
        Ok(())
    }
}

/// Replays step 0's burst on `sim::kernel::Kernel` directly, each task
/// taking its module's compute time on its routed device, every arrival
/// pushed up front. Returns the median ns per event over several
/// replays and the peak count of pending events.
fn kernel_replay(
    ctx: &mut Ctx,
    instance: &Instance,
    plan: &Plan,
    arrivals: &[f64],
) -> Result<(f64, usize), String> {
    let resolved = ResolvedInstance::new(instance).map_err(|e| e.to_string())?;
    let device_of = |route: &s2m3::core::problem::Route, m: u32| -> Result<usize, String> {
        let dev = route
            .device_for(resolved.module_name(m))
            .ok_or("unrouted module")?;
        Ok(resolved.device_index(dev).ok_or("unknown device")? as usize)
    };
    let mut per_event = Vec::new();
    let mut peak = 0;
    for _ in 0..5 {
        let devices = (0..resolved.device_count())
            .map(|d| Device::new(resolved.parallelism(d as u32), 0))
            .collect();
        let mut k: Kernel<(), u64> = Kernel::new(
            devices,
            Policy {
                immediate_head_fire: true,
                max_batch: Some(MAX_BATCH),
                recycle_tasks: false,
                scheduler: Scheduler::Auto,
            },
        );
        for (i, ((q, route), &at)) in plan.routed.iter().zip(arrivals).enumerate() {
            let m = &resolved.models()[resolved.model_index(&q.model).ok_or("unknown model")?];
            let dur = |module: u32, dev: usize| {
                let units = q.profile.units(resolved.module_kind(module));
                (resolved.compute_time_units(module, dev as u32, units) * 1e9).round() as u64
            };
            let at_ns = (at * 1e9).round() as u64;
            let hd = device_of(route, m.head)?;
            let head = k.spawn_task(i, m.head, hd, true, dur(m.head, hd));
            k.set_request(
                i,
                RequestSlot {
                    pending_encoders: m.encoders.len(),
                    head_ready_ns: at_ns,
                    head_task: head,
                },
            );
            for &e in &m.encoders {
                let ed = device_of(route, e)?;
                let tid = k.spawn_task(i, e, ed, false, dur(e, ed));
                k.push_ready(at_ns, tid);
            }
        }
        let mut driver = Replay {
            heads_done: 0,
            pending_peak: k.pending_events(),
        };
        let t = Instant::now();
        let events = ctx
            .tracer
            .span("sim.kernel.run_until_idle", || {
                k.run_until_idle(&mut driver)
            })
            .map_err(|()| "kernel replay failed".to_string())?;
        per_event.push(t.elapsed().as_nanos() as f64 / events.max(1) as f64);
        ctx.check(driver.heads_done == plan.routed.len(), || {
            format!(
                "kernel replay finished {} of {} requests",
                driver.heads_done,
                plan.routed.len()
            )
        });
        peak = driver.pending_peak;
    }
    Ok((stats::median(&per_event), peak))
}
