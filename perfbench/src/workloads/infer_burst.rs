//! `infer_burst`: closed-loop Table X bursts on the in-process split
//! runtime over the `edge` fleet. Each burst submits one request per
//! task together; a step is one request, from the burst's submit to its
//! own result via `collect(1)`. Every output must be bit-identical to
//! the centralized `reference::run_model`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use s2m3::core::plan::Plan;
use s2m3::core::problem::{Instance, Request, Route};
use s2m3::models::exec::Executable;
use s2m3::models::module::{ModuleId, ModuleKind};
use s2m3::models::zoo::ModelSpec;
use s2m3::net::envelope::Envelope;
use s2m3::net::fleet::Fleet;
use s2m3::runtime::messages::{HeadContext, RuntimeMsg, COORDINATOR, TAG};
use s2m3::runtime::{reference, RequestInput, Runtime};
use s2m3::sim::workload::latency_stats;
use s2m3::sim::{simulate, SimConfig};
use s2m3::tensor::Matrix;

use crate::metrics::Values;
use crate::scenario;
use crate::stats::{self, fnv1a};
use crate::workloads::{mean_self_ms, placement_mem_gib, self_ns};
use crate::{record_common, Ctx, Outcome, Phase, Timings};

/// How long `collect` waits for a result before the burst fails.
const TIMEOUT: Duration = Duration::from_secs(20);

/// The deployment the runtime serves: the Table X tasks on the edge
/// fleet, one request per task routed by the greedy plan. The set-up is
/// timed into `setup_s`.
fn deploy(
    ctx: &mut Ctx,
    models: &[(&str, usize)],
    setup_s: &mut Vec<f64>,
) -> Result<(Instance, Plan, Runtime), String> {
    let t = Instant::now();
    let instance = ctx
        .tracer
        .span("core.instance", || {
            Instance::on_fleet(Fleet::edge_testbed(), models)
        })
        .map_err(|e| e.to_string())?;
    let requests = models
        .iter()
        .enumerate()
        .map(|(i, (name, _))| instance.request(i as u64, name))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let plan = ctx
        .tracer
        .span("core.plan.greedy", || Plan::greedy(&instance, requests))
        .map_err(|e| e.to_string())?;
    let mut runtime = ctx
        .tracer
        .span("runtime.start", || Runtime::start(&instance, &plan))
        .map_err(|e| e.to_string())?;
    runtime.set_timeout(TIMEOUT);
    setup_s.push(t.elapsed().as_secs_f64());
    Ok((instance, plan, runtime))
}

/// One burst's requests: fresh ids, the plan's routes, seeded inputs.
fn burst(
    seed: u64,
    b: u64,
    plan: &Plan,
    specs: &[ModelSpec],
) -> Vec<(Request, Route, RequestInput)> {
    plan.routed
        .iter()
        .zip(specs)
        .enumerate()
        .map(|(k, ((q, route), spec))| {
            let mut q = q.clone();
            q.id = b * plan.routed.len() as u64 + k as u64;
            let label = format!("perfbench/infer_burst/{seed}/b{b}/{k}");
            let candidates = (q.profile.text_units as usize).max(1);
            let input = RequestInput::synthetic(spec, &label, candidates);
            (q, route.clone(), input)
        })
        .collect()
}

fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let models = scenario::table_x(ctx.seed);

    // --- Set-up: instance, plan, runtime start. A throw-away
    // deployment is started, timed and shut down before every burst
    // too, so the set-up samples span the run as the bursts do. ---
    let mut setup_s = Vec::new();
    let (instance, plan, runtime) = deploy(ctx, &models, &mut setup_s)?;
    let specs: Vec<ModelSpec> = plan
        .routed
        .iter()
        .map(|(q, _)| {
            instance
                .deployment(&q.model)
                .map(|d| d.model.clone())
                .ok_or_else(|| format!("{} is not deployed", q.model))
        })
        .collect::<Result<_, _>>()?;
    let per_burst = plan.routed.len() as u64;
    let mut replay = ctx.tracer.enabled().then(|| ExecReplay::new(&instance));

    let mut timings = Timings {
        setup_s,
        steps_ms: Vec::new(),
        completed: 0,
    };
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut wait_ms: Vec<f64> = Vec::new();
    let mut digest = None;

    let mut phase = Phase::begin();
    let mut b = 0u64;
    while b == 0 || phase.elapsed() < ctx.budget {
        ctx.tracer.set_step(b);
        let (_, _, spare) = deploy(ctx, &models, &mut timings.setup_s)?;
        spare.shutdown();
        let reqs = burst(ctx.seed, b, &plan, &specs);
        attempted += per_burst;
        phase.resume();
        let t0 = Instant::now();
        let mut outputs: BTreeMap<u64, Matrix> = BTreeMap::new();
        let mut collect_s = 0.0;
        let result = (|| -> Result<(), String> {
            for (q, route, input) in &reqs {
                ctx.tracer
                    .span("runtime.submit", || runtime.submit(q, route, input))
                    .map_err(|e| e.to_string())?;
            }
            for _ in 0..reqs.len() {
                let t = Instant::now();
                let got = ctx
                    .tracer
                    .span("runtime.collect", || runtime.collect(1))
                    .map_err(|e| e.to_string())?;
                collect_s += t.elapsed().as_secs_f64();
                timings.steps_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                outputs.extend(got);
            }
            Ok(())
        })();
        phase.pause();
        if let Err(e) = result {
            // A lost or failed request may leave stale results behind:
            // stop bursting, count what did not come back.
            eprintln!("infer_burst: burst {b} failed: {e}");
            failed += per_burst - outputs.len() as u64;
            break;
        }

        // --- Checks: bit-identity with the centralized reference. ---
        for ((q, _, input), spec) in reqs.iter().zip(&specs) {
            let Some(out) = outputs.get(&q.id) else {
                failed += 1;
                ctx.check(false, || format!("request {} has no result", q.id));
                continue;
            };
            timings.completed += 1;
            let want = ctx
                .tracer
                .span("runtime.reference", || reference::run_model(spec, input))
                .map_err(|e| e.to_string())?;
            if !same_bits(out, &want) {
                failed += 1;
                ctx.check(false, || {
                    format!("request {} ({}) differs from the reference", q.id, q.model)
                });
            }
        }
        if b == 0 {
            let mut bytes = Vec::new();
            for m in outputs.values() {
                bytes.extend(m.as_slice().iter().flat_map(|x| x.to_bits().to_le_bytes()));
            }
            digest = Some(fnv1a(&bytes));
        }
        if let Some(r) = replay.as_mut() {
            let critical_ms = r.burst(ctx, &reqs, &specs, &outputs)?;
            wait_ms.push((collect_s * 1e3 - critical_ms).max(0.0));
        }
        b += 1;
    }
    let totals = phase.end();
    runtime.shutdown();
    println!(
        "infer_burst: {b} bursts of {per_burst}, candidates {:?}, burst 0 digest {:016x}",
        models.iter().map(|m| m.1).collect::<Vec<_>>(),
        digest.unwrap_or(0)
    );

    let mut v = Values::default();
    record_common(ctx, &mut v, &timings, &totals);
    // The same burst in the simulator: the paper's Table X numbers.
    let sim = simulate(&instance, &plan, &SimConfig::default()).map_err(|e| e.to_string())?;
    let lat = latency_stats(&sim);
    v.set("model_p50_s", lat.p50);
    v.set("model_p99_s", lat.p99);
    // A burst all at t = 0 keeps the fleet busy until its last request
    // completes: completions per virtual second of that makespan.
    v.set("model_capacity_req_per_s", lat.throughput);
    v.set(
        "model_mem_gib",
        placement_mem_gib(&instance, &plan.placement),
    );

    if ctx.tracer.enabled() {
        let n = timings.completed.max(1) as f64;
        let tr = &ctx.tracer;
        v.set(
            "core.plan.ns_per_req",
            mean_self_ms(tr, "core.plan.greedy") * 1e6 / per_burst as f64,
        );
        v.set("runtime.start_ms", mean_self_ms(tr, "runtime.start"));
        v.set("runtime.submit_ms", mean_self_ms(tr, "runtime.submit"));
        v.set("runtime.wait_ms", stats::median(&wait_ms));
        v.set(
            "models.exec.encode_ms",
            self_ns(tr, "models.exec.encode") / 1e6 / n,
        );
        v.set(
            "models.exec.head_ms",
            self_ns(tr, "models.exec.head") / 1e6 / n,
        );
        v.set(
            "runtime.reference_ms",
            self_ns(tr, "runtime.reference") / 1e6 / n,
        );
        v.set(
            "net.envelope.encode_ms",
            self_ns(tr, "net.envelope.encode") / 1e6 / n,
        );
        v.set(
            "net.envelope.decode_ms",
            self_ns(tr, "net.envelope.decode") / 1e6 / n,
        );
        let bytes = replay.map_or(0, |r| r.envelope_bytes);
        v.set("net.envelope.bytes_per_req", bytes as f64 / n);
    }
    Ok(Outcome {
        attempted,
        failed,
        values: v,
    })
}

/// Single-thread replay of a burst's module executions and wire
/// messages, for attribution.
struct ExecReplay {
    execs: BTreeMap<ModuleId, Executable>,
    envelope_bytes: u64,
}

impl ExecReplay {
    fn new(instance: &Instance) -> Self {
        let execs = instance
            .distinct_modules()
            .into_iter()
            .filter_map(|m| Some((m.id.clone(), Executable::for_spec(m).ok()?)))
            .collect();
        ExecReplay {
            execs,
            envelope_bytes: 0,
        }
    }

    /// Replays every module of the burst on this thread and every
    /// message the runtime sends through `Envelope`. Returns the
    /// burst's critical-path compute: the slowest request's slowest
    /// encoder plus its head, milliseconds.
    fn burst(
        &mut self,
        ctx: &mut Ctx,
        reqs: &[(Request, Route, RequestInput)],
        specs: &[ModelSpec],
        outputs: &BTreeMap<u64, Matrix>,
    ) -> Result<f64, String> {
        let mut critical_ms: f64 = 0.0;
        for ((q, route, input), spec) in reqs.iter().zip(specs) {
            let exec = |id: &ModuleId| self.execs.get(id).ok_or(format!("no executable for {id}"));
            let head_device = route
                .device_for(&spec.head().id)
                .ok_or("unrouted head")?
                .clone();
            let head_ctx = HeadContext {
                head_module: spec.head().id.clone(),
                head_device: head_device.clone(),
                expected_encoders: spec.encoders().len(),
                query: input.query.clone(),
            };
            let mut msgs = Vec::new();
            let mut encodings: Vec<(ModuleKind, Matrix)> = Vec::new();
            let mut slowest_ms: f64 = 0.0;
            for enc in spec.encoders() {
                let payload = input.for_kind(enc.kind).ok_or("missing modality input")?;
                let dev = route.device_for(&enc.id).ok_or("unrouted encoder")?;
                let e = exec(&enc.id)?;
                let t = Instant::now();
                let out = ctx
                    .tracer
                    .span("models.exec.encode", || e.encode(payload))
                    .map_err(|e| e.to_string())?;
                slowest_ms = slowest_ms.max(t.elapsed().as_secs_f64() * 1e3);
                msgs.push((
                    q.source.clone(),
                    dev.clone(),
                    RuntimeMsg::Encode {
                        request: q.id,
                        module: enc.id.clone(),
                        input: payload.clone(),
                        head: head_ctx.clone(),
                    },
                ));
                msgs.push((
                    dev.clone(),
                    head_device.clone(),
                    RuntimeMsg::Embedding {
                        request: q.id,
                        from_module: enc.id.clone(),
                        kind: enc.kind,
                        data: out.clone(),
                        head: head_ctx.clone(),
                    },
                ));
                encodings.push((enc.kind, out));
            }
            let h = exec(&spec.head().id)?;
            let t = Instant::now();
            let output = ctx
                .tracer
                .span("models.exec.head", || {
                    h.run_head(&encodings, input.query.as_ref())
                })
                .map_err(|e| e.to_string())?;
            critical_ms = critical_ms.max(slowest_ms + t.elapsed().as_secs_f64() * 1e3);
            let matches = outputs.get(&q.id).is_some_and(|o| same_bits(o, &output));
            ctx.check(matches, || {
                format!("request {}: module replay differs from the runtime", q.id)
            });
            msgs.push((
                head_device,
                COORDINATOR.into(),
                RuntimeMsg::Result {
                    request: q.id,
                    output,
                },
            ));
            for (src, dst, msg) in msgs {
                let env = ctx
                    .tracer
                    .span("net.envelope.encode", || {
                        Envelope::encode(src, dst, TAG, &msg)
                    })
                    .map_err(|e| e.to_string())?;
                self.envelope_bytes += env.payload.len() as u64;
                let back: RuntimeMsg = ctx
                    .tracer
                    .span("net.envelope.decode", || env.decode())
                    .map_err(|e| e.to_string())?;
                ctx.check(back == msg, || {
                    "an envelope round trip changed a message".into()
                });
            }
        }
        Ok(critical_ms)
    }
}
