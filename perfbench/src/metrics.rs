//! The metrics the benchmark prints, declared once, and the final
//! result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names and
//! units; the tests below keep the two in step.

use std::collections::BTreeMap;

/// The four workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["serve_live", "sim_burst", "sweep_grid", "infer_burst"];

/// The end-to-end metrics as `(name, unit)`, in `BENCHMARK.json` order.
/// Every workload prints every one of these in an untraced run, except
/// a tail a run too short to have one omits.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("step_p50_ms", "ms"),
    ("step_tail_ms", "ms"),
    ("peak_heap_mib", "MiB"),
    ("cpu_us_per_req", "us"),
    ("model_p50_s", "s"),
    ("model_p99_s", "s"),
    ("model_capacity_req_per_s", "1/s"),
    ("model_mem_gib", "GiB"),
];

/// The one end-to-end metric a run may omit: under forty steps there is
/// no tail (see [`crate::stats::tail`]).
const TAIL: &str = "step_tail_ms";

/// A per-layer metric and the workloads whose traced run exercises its
/// layer. On any other workload the layer does no work and the metric
/// reads 0.
pub struct PerLayer {
    /// Metric name, prefixed by the crate module it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Workloads that exercise the layer.
    pub workloads: &'static [&'static str],
}

const SERVE: &[&str] = &["serve_live"];
const SIM: &[&str] = &["sim_burst"];
const SWEEP: &[&str] = &["sweep_grid"];
const INFER: &[&str] = &["infer_burst"];
const ALL: &[&str] = &WORKLOADS;

macro_rules! per_layer {
    ($($name:literal $unit:literal $w:expr;)*) => {
        /// Per-layer metrics, in `BENCHMARK.json` order.
        pub const PER_LAYER: &[PerLayer] = &[
            $(PerLayer { name: $name, unit: $unit, workloads: $w },)*
        ];
    };
}

per_layer! {
    "serve.config.parse_ms" "ms" SERVE;
    "sweep.spec.parse_ms" "ms" SWEEP;
    "core.prepare_ms" "ms" &["serve_live", "sweep_grid"];
    "serve.session.new_ms" "ms" &["serve_live", "sweep_grid"];
    "serve.ns_per_event" "ns" SERVE;
    "serve.events_per_req" "count" SERVE;
    "serve.event_tick_ms" "ms" SERVE;
    "serve.finish_ms" "ms" SERVE;
    "serve.report.json_ms" "ms" SERVE;
    "serve.report.bytes" "B" SERVE;
    "serve.replans" "count" SERVE;
    "serve.replans_accepted" "count" SERVE;
    "serve.budget.deferred" "count" SERVE;
    "sim.workload.ns_per_req" "ns" &["serve_live", "sim_burst"];
    "core.plan.ns_per_req" "ns" &["sim_burst", "infer_burst"];
    "sim.engine.ns_per_req" "ns" SIM;
    "sim.engine.spans_per_req" "count" SIM;
    "sim.stats_ms" "ms" SIM;
    "sim.kernel.ns_per_event" "ns" SIM;
    "sim.kernel.pending_peak" "count" SIM;
    "sweep.replica_p50_ms" "ms" SWEEP;
    "sweep.replica_tail_ms" "ms" SWEEP;
    "sweep.aggregate_ms" "ms" SWEEP;
    "sweep.report.json_ms" "ms" SWEEP;
    "sweep.pool_efficiency" "ratio" SWEEP;
    "runtime.start_ms" "ms" INFER;
    "runtime.submit_ms" "ms" INFER;
    "runtime.wait_ms" "ms" INFER;
    "models.exec.encode_ms" "ms" INFER;
    "models.exec.head_ms" "ms" INFER;
    "runtime.reference_ms" "ms" INFER;
    "net.envelope.encode_ms" "ms" INFER;
    "net.envelope.decode_ms" "ms" INFER;
    "net.envelope.bytes_per_req" "B" INFER;
    "alloc.per_req" "count" ALL;
    "alloc.bytes_per_req" "B" ALL;
    "trace.req_per_s" "1/s" ALL;
}

/// Metric values a run produced, by name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` for `name`.
    ///
    /// # Panics
    ///
    /// On a name declared nowhere or recorded twice (a benchmark bug).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.0 == name) || PER_LAYER.iter().any(|m| m.name == name),
            "metric `{name}` is not declared"
        );
        assert!(
            self.0.insert(name, value).is_none(),
            "metric `{name}` recorded twice"
        );
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The counters every run reports beside its metrics.
#[derive(Debug, Clone, Copy)]
pub struct Tally {
    /// Whether every check passed.
    pub correct: bool,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed (shed, lost, errored, timed out, or wrong).
    pub failed: u64,
}

/// Renders the result line for `workload`: every end-to-end metric
/// (untraced) or every per-layer metric (traced), with units. A layer
/// the workload does not exercise reads 0; a run under forty steps
/// omits its tail.
///
/// # Panics
///
/// When the run left out a metric it owes (a benchmark bug).
pub fn result_line(workload: &str, traced: bool, tally: Tally, values: &Values) -> String {
    let mut entries: Vec<(&str, &str, f64)> = Vec::new();
    if traced {
        for m in PER_LAYER {
            let owed = m.workloads.contains(&workload);
            let v = match values.get(m.name) {
                Some(v) => v,
                None if !owed => 0.0,
                None => panic!("{workload} owes per-layer metric `{}`", m.name),
            };
            entries.push((m.name, m.unit, v));
        }
    } else {
        for (name, unit) in END_TO_END {
            match values.get(name) {
                Some(v) => entries.push((name, unit, v)),
                None if name == TAIL => {}
                None => panic!("{workload} owes end-to-end metric `{name}`"),
            }
        }
    }
    let metrics: Vec<String> = entries
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct,
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    )
}

/// A JSON number with every digit Rust's shortest round-trip form
/// keeps; non-finite values (never expected) become `null`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn benchmark_json() -> Vec<(String, Value)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::parse(&text)
            .expect("BENCHMARK.json parses")
            .as_object()
            .expect("top-level object")
            .to_vec()
    }

    fn field<'a>(obj: &'a [(String, Value)], key: &str) -> &'a Value {
        &obj.iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("missing key `{key}`"))
            .1
    }

    fn entries(obj: &[(String, Value)], key: &str) -> Vec<(String, String)> {
        let Value::Array(items) = field(obj, key) else {
            panic!("`{key}` is not a list")
        };
        items
            .iter()
            .map(|m| {
                let m = m.as_object().expect("metric object");
                let s = |k: &str| field(m, k).as_str().expect("string").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn printed_metrics_match_the_declaration_both_ways() {
        let obj = benchmark_json();
        let declared_e2e = entries(&obj, "end_to_end");
        let printed_e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(name, unit)| (name.to_string(), unit.to_string()))
            .collect();
        assert_eq!(printed_e2e, declared_e2e);
        let declared_layers = entries(&obj, "per_layer");
        let printed_layers: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(printed_layers, declared_layers);

        let Value::Array(workloads) = field(&obj, "workloads") else {
            panic!("`workloads` is not a list")
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| field(w.as_object().unwrap(), "name").as_str().unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn names_use_only_the_allowed_characters_and_are_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        all.extend(PER_LAYER.iter().map(|m| m.name));
        all.extend(WORKLOADS);
        for name in &all {
            assert!(valid_name(name), "bad name `{name}`");
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "names are used once");
        assert!(!valid_name("bad name"));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("per/slash"));
    }

    #[test]
    fn every_layer_is_exercised_by_some_workload() {
        for m in PER_LAYER {
            assert!(!m.workloads.is_empty(), "{}", m.name);
            assert!(
                m.workloads.iter().all(|w| WORKLOADS.contains(w)),
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn result_line_prints_every_metric_of_its_mode() {
        let mut v = Values::default();
        for (name, _) in END_TO_END {
            v.set(name, 1.5);
        }
        let tally = Tally {
            correct: true,
            attempted: 4,
            failed: 0,
        };
        let line = result_line("sim_burst", false, tally, &v);
        let parsed = serde_json::parse(&line).expect("result line is JSON");
        let metrics = field(parsed.as_object().unwrap(), "metrics");
        assert_eq!(metrics.as_object().unwrap().len(), END_TO_END.len());

        let mut v = Values::default();
        for m in PER_LAYER
            .iter()
            .filter(|m| m.workloads.contains(&"sim_burst"))
        {
            v.set(m.name, 2.0);
        }
        let line = result_line("sim_burst", true, tally, &v);
        let parsed = serde_json::parse(&line).unwrap();
        let metrics = field(parsed.as_object().unwrap(), "metrics");
        assert_eq!(metrics.as_object().unwrap().len(), PER_LAYER.len());
    }
}
