//! End-to-end and per-layer benchmark of the Slim NoC reproduction.
//!
//! One binary drives the workspace crates' public API through three
//! workloads ([`Workload`]), checks every output, and prints one JSON
//! result line. The untraced run (`--trace 0`) reports the end-to-end
//! metrics ([`END_TO_END`]); the traced run (`--trace 1`) wraps spans
//! around the calls into each layer and reports the per-layer metrics
//! ([`PER_LAYER`]) derived from them. See `perfbench/README.md`.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod ledger;
pub mod pinned;
pub mod serving;
pub mod sharded;
pub mod trace;
pub mod util;

use ledger::Ledger;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use trace::Tracer;

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
/// Mirrors `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics `(name, unit)`, reported by every traced run; a
/// layer the workload does not exercise reports 0. Mirrors `per_layer`
/// in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("topology.build_ms", "ms"),
    ("topology.partition_ms", "ms"),
    ("setup.paper_ms", "ms"),
    ("routing.table_s", "s"),
    ("routing.entries_per_us", "1/us"),
    ("sim.build_s", "s"),
    ("sim.unsat.ns_per_router_cycle", "ns"),
    ("sim.sat.ns_per_flit_hop", "ns"),
    ("sim.router_cycles_per_s", "1/s"),
    ("sim.router_cycles", "count"),
    ("sim.flit_hops", "count"),
    ("sim.alloc_grants", "count"),
    ("sim.point_ms_p50", "ms"),
    ("sim.point_ms_max", "ms"),
    ("shard.run_s", "s"),
    ("shard.speedup_2v1", "x"),
    ("shard.rss_mb", "MB"),
    ("power.eval_us", "us"),
    ("sweep.parallel_efficiency", "ratio"),
    ("spec.from_json_us", "us"),
    ("spec.campaign_from_spec_ms", "ms"),
    ("cache.open_ms", "ms"),
    ("cache.key_us", "us"),
    ("cache.get_us", "us"),
    ("cache.put_us", "us"),
    ("json.result_to_json_ms", "ms"),
    ("serve.ttfb_ms", "ms"),
    ("serve.other_ms", "ms"),
    ("serve.hit_rtt_p50_ms", "ms"),
    ("serve.hit_rtt_p95_ms", "ms"),
    ("serve.miss_rtt_p50_ms", "ms"),
    ("serve.hit_samples", "count"),
    ("trace.overhead_ms", "ms"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Figure 12 campaign, cold, on every core.
    Fig12Cold,
    /// The energy campaign, power on, every load kept.
    EnergySat,
    /// One 106,032-endpoint `slim_noc(47, 24)` point on the sharded
    /// engine.
    Sn47Point,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Fig12Cold,
        Workload::EnergySat,
        Workload::Sn47Point,
    ];

    /// The `--workload` name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig12Cold => "fig12_cold",
            Workload::EnergySat => "energy_sat",
            Workload::Sn47Point => "sn47_point",
        }
    }

    /// Parses a `--workload` name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one invocation was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Length of the measured phase in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced run.
    pub trace: bool,
}

/// Per-layer metric values, keyed by the names in [`PER_LAYER`].
#[derive(Debug, Clone, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets one metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// One metric's value (0 when unset).
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct RunReport {
    /// Median set-up time in seconds.
    pub setup_s: f64,
    /// Median wall time of one measured operation in seconds.
    pub wall_s: f64,
    /// Per-layer metrics (traced run only).
    pub layers: Layers,
    /// Attempted and failed operations.
    pub ledger: Ledger,
    /// The spans of the traced run.
    pub tracer: Tracer,
    /// Human-readable result lines printed above the JSON line.
    pub notes: Vec<String>,
}

impl RunReport {
    /// An empty report whose tracer records when `cfg.trace` is set.
    #[must_use]
    pub fn new(cfg: &RunConfig) -> Self {
        RunReport {
            setup_s: 0.0,
            wall_s: 0.0,
            layers: Layers::default(),
            ledger: Ledger::default(),
            tracer: Tracer::new(cfg.trace),
            notes: Vec::new(),
        }
    }

    /// Adds a human-readable result line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// Runs one workload. The traced `fig12_cold` run also serves the same
/// campaign through the campaign server ([`serving::probe`]).
#[must_use]
pub fn run(workload: Workload, cfg: &RunConfig) -> RunReport {
    match workload {
        Workload::Fig12Cold => {
            let spec = campaign::fig12_spec(cfg.seed);
            let mut report = campaign::run(&spec, cfg);
            if cfg.trace {
                serving::probe(
                    &mut report,
                    cfg.seed,
                    &spec,
                    serving::Pins::for_seed(cfg.seed),
                );
            }
            report
        }
        Workload::EnergySat => campaign::run(&campaign::energy_spec(cfg.seed), cfg),
        Workload::Sn47Point => sharded::run(cfg),
    }
}

/// A number as JSON: non-finite values (which JSON cannot carry) and
/// negative zero (an empty float sum) become 0.
#[must_use]
pub fn json_number(v: f64) -> String {
    if v.is_finite() && v != 0.0 {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics of
/// this run kind (end-to-end untraced, per-layer traced).
#[must_use]
pub fn result_line(report: &RunReport, trace: bool) -> String {
    let metrics: Vec<(&str, &str, f64)> = if trace {
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n, u, report.layers.get(n)))
            .collect()
    } else {
        let values = [report.setup_s, report.wall_s, util::peak_rss_mb()];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect()
    };
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.ledger.failed() == 0 && report.ledger.attempted() > 0,
        report.ledger.attempted().max(1),
        report.ledger.failed(),
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" },
            json_number(*value)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoc_core::json::{self, JsonValue};

    /// The metric tables here and in `BENCHMARK.json` must agree name
    /// for name and unit for unit.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let v = json::parse(text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(JsonValue::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |f: &str| m.get(f).and_then(JsonValue::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = v
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_reports_failures_and_every_metric() {
        let cfg = RunConfig {
            seed: 0,
            seconds: 1.0,
            trace: true,
        };
        let mut report = RunReport::new(&cfg);
        let _: Option<()> = report.ledger.op("replay", || Err("mismatch".into()));
        let line = result_line(&report, true);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(v.get("failed").and_then(JsonValue::as_u64), Some(1));
        let metrics = v.get("metrics").unwrap();
        for (name, unit) in PER_LAYER {
            let m = metrics.get(name).unwrap();
            assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some(*unit));
        }
        let untraced = json::parse(&result_line(&report, false)).unwrap();
        assert!(untraced
            .get("metrics")
            .unwrap()
            .get("peak_rss_mb")
            .is_some());
    }

    #[test]
    fn non_finite_values_stay_valid_json() {
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(-0.0), "0");
    }
}
