//! The four workloads and what they share.

pub mod infer_burst;
pub mod serve_live;
pub mod sim_burst;
pub mod sweep_grid;

use s2m3::core::plan::Plan;
use s2m3::core::problem::{Instance, Placement};
use s2m3::net::fleet::Fleet;
use s2m3::serve::ServeScenario;

use crate::trace::Tracer;

/// Module memory resident across the fleet under `placement`, GiB:
/// every placed (module, device) pair holds its own copy.
pub fn placement_mem_gib(instance: &Instance, placement: &Placement) -> f64 {
    let modules = instance.distinct_modules();
    let bytes: u64 = placement
        .iter()
        .map(|(m, _)| {
            modules
                .iter()
                .find(|s| &s.id == m)
                .map_or(0, |s| s.memory_bytes())
        })
        .sum();
    bytes as f64 / (1u64 << 30) as f64
}

/// The greedy plan on the fleet a serving scenario starts with, routing
/// one request per deployed model.
pub fn initial_plan(s: &ServeScenario) -> Result<(Instance, Plan), String> {
    let names: Vec<&str> = s.initial_devices.iter().map(String::as_str).collect();
    let fleet = Fleet::standard_testbed().restricted_to(&names)?;
    let models: Vec<(&str, usize)> = s
        .models
        .iter()
        .map(|m| (m.name.as_str(), m.candidates))
        .collect();
    let instance = Instance::on_fleet(fleet, &models).map_err(|e| e.to_string())?;
    let requests = models
        .iter()
        .enumerate()
        .map(|(i, (name, _))| instance.request(i as u64, name))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let plan = Plan::greedy(&instance, requests).map_err(|e| e.to_string())?;
    Ok((instance, plan))
}

/// Total self time of the spans named `name`, nanoseconds.
pub fn self_ns(tracer: &Tracer, name: &str) -> f64 {
    tracer.totals().get(name).map_or(0.0, |t| t.self_ns as f64)
}

/// Mean self time of the spans named `name`, milliseconds (0 when none
/// were recorded).
pub fn mean_self_ms(tracer: &Tracer, name: &str) -> f64 {
    tracer
        .totals()
        .get(name)
        .map_or(0.0, |t| t.self_ns as f64 / 1e6 / t.count.max(1) as f64)
}

/// Relative difference `|a - b| / |b|` (absolute when `b` is 0).
pub fn rel_diff(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        a.abs()
    } else {
        (a - b).abs() / b.abs()
    }
}
