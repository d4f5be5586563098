//! End-to-end benchmark of the S2M3 reproduction with per-layer
//! attribution.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_live --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Runs one workload through the public entry points the `s2m3` CLI
//! uses, checks every output, and prints one JSON result line last:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics (from
//! spans recorded around each layer call) with `--trace 1`. See
//! `README.md` beside this file for the workloads and metrics.

mod alloc;
mod metrics;
mod scenario;
mod stats;
mod trace;
mod workloads;

use std::time::{Duration, Instant};

use metrics::{Tally, Values};
use trace::Tracer;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !metrics::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            metrics::WORKLOADS.join(", ")
        ));
    }
    let seconds: u64 = seconds.unwrap_or(30);
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// What a workload run needs: its seed, its time budget, the tracer and
/// the list of failed checks.
pub struct Ctx {
    /// The workload seed: inputs are a pure function of it.
    pub seed: u64,
    /// How long the measured phase runs.
    pub budget: Duration,
    /// Span recorder (a no-op in untraced runs).
    pub tracer: Tracer,
    /// Failed correctness checks, in order.
    failures: Vec<String>,
}

impl Ctx {
    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Time, CPU, allocations and peak heap over the measured phase. The
/// phase runs for the time budget; only its work segments, between
/// [`Phase::resume`] and [`Phase::pause`], are measured, so set-up and
/// correctness checks stay out of the figures.
pub struct Phase {
    start: Instant,
    segment: Option<(Instant, f64, alloc::Snapshot)>,
    totals: PhaseTotals,
}

/// What a [`Phase`] measured over its work segments.
#[derive(Default)]
pub struct PhaseTotals {
    /// Wall time, seconds.
    pub work_s: f64,
    /// Process CPU, seconds.
    pub cpu_s: f64,
    /// Allocation calls.
    pub allocs: u64,
    /// Bytes requested.
    pub alloc_bytes: u64,
    /// Peak live heap, bytes.
    pub peak_bytes: u64,
}

impl Phase {
    /// Starts the phase clock, paused.
    pub fn begin() -> Self {
        Phase {
            start: Instant::now(),
            segment: None,
            totals: PhaseTotals::default(),
        }
    }

    /// Wall time since [`Phase::begin`], work and checks alike: the
    /// clock the time budget runs on.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Starts a work segment: restarts heap-peak tracking from the live
    /// heap.
    pub fn resume(&mut self) {
        assert!(self.segment.is_none(), "work segment already open");
        alloc::reset_peak();
        self.segment = Some((Instant::now(), stats::process_cpu_s(), alloc::snapshot()));
    }

    /// Ends the work segment and adds it to the totals.
    pub fn pause(&mut self) {
        let (start, cpu_s, a0) = self.segment.take().expect("no open work segment");
        let a = alloc::snapshot();
        let t = &mut self.totals;
        t.work_s += start.elapsed().as_secs_f64();
        t.cpu_s += stats::process_cpu_s() - cpu_s;
        t.allocs += a.allocs - a0.allocs;
        t.alloc_bytes += a.bytes - a0.bytes;
        t.peak_bytes = t.peak_bytes.max(alloc::peak_bytes());
    }

    /// Stops measuring.
    pub fn end(mut self) -> PhaseTotals {
        if self.segment.is_some() {
            self.pause();
        }
        self.totals
    }
}

/// The samples every workload reports end to end.
pub struct Timings {
    /// One sample per repeated set-up, seconds.
    pub setup_s: Vec<f64>,
    /// One sample per step, milliseconds.
    pub steps_ms: Vec<f64>,
    /// Requests completed in the measured phase.
    pub completed: u64,
}

/// Records the end-to-end metrics common to every workload and the
/// allocation counts. A traced run records its throughput as
/// `trace.req_per_s`: set against `req_per_s` of untraced runs, it
/// gives the measured tracing overhead.
pub fn record_common(ctx: &Ctx, v: &mut Values, t: &Timings, phase: &PhaseTotals) {
    let req_per_s = t.completed as f64 / phase.work_s;
    let reqs = t.completed.max(1) as f64;
    v.set("setup_s", stats::median(&t.setup_s));
    v.set("req_per_s", req_per_s);
    v.set("step_p50_ms", stats::median(&t.steps_ms));
    if let Some((p, tail)) = stats::tail(&t.steps_ms) {
        println!(
            "steps: {} samples, tail is p{:.2}",
            t.steps_ms.len(),
            p * 100.0
        );
        v.set("step_tail_ms", tail);
    }
    v.set(
        "peak_heap_mib",
        phase.peak_bytes as f64 / (1u64 << 20) as f64,
    );
    v.set("cpu_us_per_req", phase.cpu_s * 1e6 / reqs);
    v.set("alloc.per_req", phase.allocs as f64 / reqs);
    v.set("alloc.bytes_per_req", phase.alloc_bytes as f64 / reqs);
    if ctx.tracer.enabled() {
        v.set("trace.req_per_s", req_per_s);
    }
}

/// What a workload hands back.
pub struct Outcome {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// Metric values.
    pub values: Values,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut ctx = Ctx {
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        tracer: Tracer::new(args.trace),
        failures: Vec::new(),
    };
    let outcome = match args.workload.as_str() {
        "serve_live" => workloads::serve_live::run(&mut ctx),
        "sim_burst" => workloads::sim_burst::run(&mut ctx),
        "sweep_grid" => workloads::sweep_grid::run(&mut ctx),
        "infer_burst" => workloads::infer_burst::run(&mut ctx),
        _ => unreachable!("workload names are validated"),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if ctx.tracer.enabled() {
        print_layer_table(&ctx.tracer);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match ctx.tracer.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    for f in ctx.failures.iter().take(20) {
        eprintln!("check failed: {f}");
    }
    let tally = Tally {
        correct: ctx.failures.is_empty(),
        attempted: outcome.attempted,
        failed: outcome.failed,
    };
    println!(
        "{}",
        metrics::result_line(&args.workload, args.trace, tally, &outcome.values)
    );
}

/// Prints busy time, self time and count per span name.
fn print_layer_table(tracer: &Tracer) {
    println!(
        "{:<28} {:>10} {:>12} {:>12}",
        "span", "count", "busy_ms", "self_ms"
    );
    for (name, t) in tracer.totals() {
        println!(
            "{:<28} {:>10} {:>12.3} {:>12.3}",
            name,
            t.count,
            t.busy_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}
