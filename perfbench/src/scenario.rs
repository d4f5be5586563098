//! The benchmark's inputs, made from `--seed`.
//!
//! Every workload serves the paper's Table X multi-task mix: four tasks
//! whose models share the ViT-B/16 image encoder.

use s2m3::core::problem::DeadlineClass;
use s2m3::serve::budget::{BudgetEnforcement, BudgetMetric, BudgetPolicy};
use s2m3::serve::{
    AdmissionPolicy, ClassShare, FleetEvent, FleetEventKind, ModelDeployment, ModelMix,
    ModelWeight, ReplanPolicy, ServeScenario, SloReplanTrigger, StreamingConfig,
};
use s2m3::sim::workload::ArrivalProcess;

use crate::stats::Rng;

/// The Table X tasks and their benchmark candidate counts.
pub const TABLE_X: [(&str, usize); 4] = [
    ("CLIP ViT-B/16", 101),
    ("Encoder-only VQA (Small)", 1),
    ("AlignBind-B", 16),
    ("CLIP-Classifier Food-101", 0),
];

/// Calm and storm arrival rates of the MMPP, requests per virtual
/// second. Both stay inside the fleet's capacity in every churn phase,
/// so the session's tail latency is a steady property of the scenario
/// rather than of one seed's longest storm.
const CALM_RATE: f64 = 0.15;
const STORM_RATE: f64 = 0.4;
/// Share of each Table X task in the mix: Table X serves one request
/// per task, so every task gets an equal share.
pub const MIX_WEIGHTS: [f64; 4] = [0.25; 4];
/// Share of each deadline class. The paper defines no classes; the
/// benchmark splits requests evenly between its two.
const CLASS_WEIGHT: f64 = 0.5;
/// Mean dwell in each MMPP state, virtual seconds.
const DWELL_S: f64 = 60.0;
/// Device-seconds the fleet may spend per budget window. The mix costs
/// about 0.83 device-seconds per request, so a storm window spends about
/// 20 on average: the cap binds only in the densest storm windows,
/// deferring about 0.17% of requests.
const BUDGET_CAP: f64 = 32.0;
const BUDGET_WINDOW_S: f64 = 60.0;

fn fleet_events(horizon_s: f64) -> Vec<FleetEvent> {
    let at = |f: f64, kind| FleetEvent {
        at_s: f * horizon_s,
        kind,
    };
    vec![
        at(
            0.2,
            FleetEventKind::DeviceJoin {
                device: "server".into(),
            },
        ),
        at(
            0.4,
            FleetEventKind::DeviceLeave {
                device: "desktop".into(),
            },
        ),
        at(
            0.6,
            FleetEventKind::DeviceSlowdown {
                device: "laptop".into(),
                factor: 0.6,
            },
        ),
        at(
            0.8,
            FleetEventKind::DeviceSlowdown {
                device: "laptop".into(),
                factor: 1.0,
            },
        ),
    ]
}

/// The `serve_live` scenario: `requests` Table X requests arriving as a
/// bursty MMPP over the `standard` universe, two deadline classes under
/// EDF, fleet churn with SLO-triggered replans, a device-seconds budget
/// cap in `Defer` mode, memory-flat streaming mode, sequential.
///
/// The seed picks the stream labels and the candidate counts (see
/// [`table_x`]), so every seed serves the same shape of traffic with
/// different draws.
pub fn serve_live(seed: u64, requests: usize) -> ServeScenario {
    let models = table_x(seed);
    let weights = models
        .iter()
        .zip(MIX_WEIGHTS)
        .map(|((name, _), weight)| ModelWeight {
            model: (*name).to_string(),
            weight,
        })
        .collect();
    let mut scenario = ServeScenario {
        fleet: "standard".into(),
        initial_devices: ["jetson-a", "desktop", "laptop", "jetson-b"]
            .map(String::from)
            .to_vec(),
        models: models
            .iter()
            .map(|(name, candidates)| ModelDeployment {
                name: (*name).to_string(),
                candidates: *candidates,
            })
            .collect(),
        arrivals: ArrivalProcess::Mmpp {
            rates_per_s: vec![CALM_RATE, STORM_RATE],
            mean_dwell_s: DWELL_S,
        },
        sources: Vec::new(),
        mix: Some(ModelMix::Weighted { weights }),
        classes: vec![
            ClassShare {
                class: DeadlineClass {
                    name: "interactive".into(),
                    deadline_s: 10.0,
                    priority: 1,
                },
                weight: CLASS_WEIGHT,
            },
            ClassShare {
                class: DeadlineClass {
                    name: "batch".into(),
                    deadline_s: 120.0,
                    priority: 0,
                },
                weight: CLASS_WEIGHT,
            },
        ],
        batch: None,
        requests,
        seed: format!("perfbench/serve_live/{seed}"),
        // Every request carries a class deadline; the scenario deadline
        // is the SLO trigger's threshold on the rolling p95.
        deadline_s: 4.0,
        admission: AdmissionPolicy::EarliestDeadlineFirst,
        max_inflight_per_device: 4,
        replan: ReplanPolicy {
            horizon_s: 600.0,
            charge_switching_downtime: true,
            slo_trigger: Some(SloReplanTrigger {
                min_window: 256,
                cooldown_s: 1800.0,
            }),
        },
        events: Vec::new(),
        slo_window: 512,
        snapshot_every: 2000,
        streaming: Some(StreamingConfig { sink: None }),
        max_windows: Some(64),
        threads: 0,
        budget: Some(BudgetPolicy {
            cap_per_window: BUDGET_CAP,
            metric: BudgetMetric::DeviceSeconds,
            window_s: BUDGET_WINDOW_S,
            enforcement: BudgetEnforcement::Defer,
        }),
    };
    scenario.events = fleet_events(horizon_s(&scenario));
    scenario
}

/// Virtual-time length of `scenario`'s stream at its mean offered rate,
/// seconds.
pub fn horizon_s(scenario: &ServeScenario) -> f64 {
    let rate = scenario
        .arrivals
        .mean_rate_per_s()
        .expect("the MMPP has a mean rate");
    scenario.requests as f64 / rate
}

/// The Table X models with one seed's candidate counts: the seed draws
/// the retrieval candidate set of CLIP ViT-B/16 as 100 or 102 prompts
/// (around the 101 of [`TABLE_X`]) and AlignBind-B's as 16 or 17, so
/// every seed asks for slightly different text-encoder
/// work and the modeled latencies differ between seeds.
pub fn table_x(seed: u64) -> Vec<(&'static str, usize)> {
    let bits = Rng::new(seed, "table_x/candidates").next_u64();
    let coin = |i: u32| (bits >> i) as usize & 1;
    let mut models = TABLE_X.to_vec();
    models[0].1 = 100 + 2 * coin(0);
    models[2].1 = 16 + coin(1);
    models
}
