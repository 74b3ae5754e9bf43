//! The two campaign workloads, `fig12_cold` and `energy_sat`, plus the
//! sequential point replay that checks any campaign result.
//!
//! Untraced run: resolve the spec, then run the whole campaign through
//! `Campaign::run` on every core, uncached, repeatedly for `--seconds`; every run must reproduce the first
//! run's digest (and the pinned one at the default seed). A
//! seed-chosen sample of points is then replayed sequentially and
//! checked. Traced run: the same, then every point is replayed twice,
//! untraced and traced, to measure the tracing overhead.

use crate::ledger::expect_eq;
use crate::trace::Tracer;
use crate::util::{derive_seed, digest, median, quantile, threads};
use crate::{pinned, RunConfig, RunReport};
use snoc_core::{Campaign, CampaignResult, CampaignSpec, PowerPoint, Setup, SetupSpec, SweepPoint};
use snoc_power::TechNode;
use snoc_sim::{Conformance, RoutingTable};
use snoc_traffic::TrafficPattern;
use std::time::Instant;

/// Set-ups timed before the first campaign run and again after each
/// one; `setup_s` is the median of all of them. Spreading them over the
/// run averages over the host's slow and fast phases (a set-up takes
/// under a millisecond, so a block of them would sample one phase).
pub const SETUP_REPS: usize = 5;
/// Untimed set-ups before the first timed one, so `setup_s` times the
/// set-up code rather than a cold process.
pub const SETUP_WARMUP: usize = 5;
/// Points replayed and checked after an untraced run.
pub const REPLAY_SAMPLE: usize = 6;
/// Warmup and measured cycles per point (the repro binaries' `--quick`
/// windows).
pub const WINDOWS: (u64, u64) = (300, 1_200);

/// The Figure 12 campaign: the six SMART small-class setups × the four
/// paper patterns × the standard eight-load grid, stopping each curve
/// at saturation.
#[must_use]
pub fn fig12_spec(seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::new("fig12_cold");
    spec.setups = ["cm3", "t2d3", "pfbf3", "pfbf4", "sn_s", "fbf3"]
        .iter()
        .map(|c| SetupSpec {
            smart: true,
            ..SetupSpec::new(*c)
        })
        .collect();
    spec.patterns = TrafficPattern::paper_set();
    spec.loads = vec![0.008, 0.016, 0.03, 0.06, 0.1, 0.16, 0.24, 0.4];
    (spec.warmup, spec.measure) = WINDOWS;
    spec.base_seed = derive_seed(seed, 12);
    spec
}

/// The energy campaign: mesh, torus, Dragonfly and Slim NoC under
/// uniform random traffic at three loads, power evaluated at 45 nm,
/// saturated points kept.
#[must_use]
pub fn energy_spec(seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::new("energy_sat");
    spec.setups = ["cm4", "t2d4", "df3", "sn_s"]
        .iter()
        .map(|c| SetupSpec::new(*c))
        .collect();
    spec.patterns = vec![TrafficPattern::Random];
    spec.loads = vec![0.05, 0.15, 0.30];
    (spec.warmup, spec.measure) = WINDOWS;
    spec.base_seed = derive_seed(seed, 20);
    spec.stop_at_saturation = false;
    spec.power_tech = Some(TechNode::N45);
    spec
}

/// Simulation counters and host time of replayed points.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayTotals {
    /// Points replayed.
    pub points: u64,
    /// Router-cycles simulated (routers × total cycles), unsaturated points.
    pub unsat_router_cycles: u64,
    /// Host seconds in `run_synthetic`, unsaturated points.
    pub unsat_run_s: f64,
    /// Link flit hops (measured window), saturated points.
    pub sat_flit_hops: u64,
    /// Host seconds in `run_synthetic`, saturated points.
    pub sat_run_s: f64,
    /// Router-cycles simulated, all points.
    pub router_cycles: u64,
    /// Link flit hops, all points.
    pub flit_hops: u64,
    /// Allocator grants, all points.
    pub alloc_grants: u64,
    /// Host seconds in `run_synthetic`, all points.
    pub run_s: f64,
}

impl ReplayTotals {
    /// Element-wise accumulation.
    pub fn add(&mut self, other: &ReplayTotals) {
        self.points += other.points;
        self.unsat_router_cycles += other.unsat_router_cycles;
        self.unsat_run_s += other.unsat_run_s;
        self.sat_flit_hops += other.sat_flit_hops;
        self.sat_run_s += other.sat_run_s;
        self.router_cycles += other.router_cycles;
        self.flit_hops += other.flit_hops;
        self.alloc_grants += other.alloc_grants;
        self.run_s += other.run_s;
    }
}

/// Replays one campaign point sequentially —
/// `Setup::with_seed` → `Setup::simulator` → `run_synthetic` →
/// `power_report` — and checks it: no deadlock diagnostic, every
/// conservation law holds, and the rebuilt point equals the campaign's
/// bit for bit. `zero_load` is the latency of the curve's first point
/// (the campaign's saturation reference).
///
/// # Errors
///
/// Returns the first failed check.
pub fn replay_point(
    campaign: &Campaign,
    point: &SweepPoint,
    zero_load: f64,
    tr: &mut Tracer,
    totals: &mut ReplayTotals,
) -> Result<(), String> {
    let setup: &Setup = campaign
        .setups
        .iter()
        .find(|s| s.name == point.setup)
        .ok_or_else(|| format!("no setup {}", point.setup))?;
    let pattern = TrafficPattern::from_short_name(&point.pattern)
        .ok_or_else(|| format!("unknown pattern {}", point.pattern))?;
    let (point_span, run_span) = if point.saturated {
        ("sim.point.sat", "sim.run.sat")
    } else {
        ("sim.point.unsat", "sim.run.unsat")
    };
    tr.span(point_span, |tr| {
        let seeded = setup.clone().with_seed(point.seed);
        let mut sim = tr
            .span("sim.build", |_| seeded.simulator())
            .map_err(|e| e.to_string())?;
        let t = Instant::now();
        let report = tr.span(run_span, |_| {
            sim.run_synthetic(pattern, point.load, campaign.warmup, campaign.measure)
        });
        let run_s = t.elapsed().as_secs_f64();
        if let Some(diag) = &report.deadlock {
            return Err(format!("deadlock: {diag}"));
        }
        report.snapshot().check_conservation()?;
        let power = campaign.power_tech.map(|tech| {
            tr.span("power.eval", |_| {
                PowerPoint::from_report(&seeded.power_report(tech, &report))
            })
        });
        let replayed = SweepPoint {
            setup: point.setup.clone(),
            pattern: point.pattern.clone(),
            load: point.load,
            seed: point.seed,
            latency: report.avg_packet_latency(),
            p99_latency: report.latency_percentile(0.99),
            throughput: report.throughput(),
            avg_hops: report.avg_hops(),
            acceptance: report.acceptance(),
            delivered_packets: report.delivered_packets,
            dropped_packets: report.dropped_packets,
            saturated: report.is_saturated(zero_load),
            drained: report.drained,
            refined: point.refined,
            power,
        };
        expect_eq(
            &format!("replay of {}/{}@{}", point.setup, point.pattern, point.load),
            &replayed,
            point,
        )?;
        let router_cycles = setup.topology.router_count() as u64 * report.total_cycles;
        let hops = report.activity.link_flit_hops;
        totals.points += 1;
        totals.router_cycles += router_cycles;
        totals.flit_hops += hops;
        totals.alloc_grants += report.activity.alloc_grants;
        totals.run_s += run_s;
        if point.saturated {
            totals.sat_flit_hops += hops;
            totals.sat_run_s += run_s;
        } else {
            totals.unsat_router_cycles += router_cycles;
            totals.unsat_run_s += run_s;
        }
        Ok(())
    })
}

/// The saturation reference of each point: the latency of the first
/// (lowest-load) point of its curve.
fn zero_loads(result: &CampaignResult) -> Vec<f64> {
    result
        .points
        .iter()
        .map(|p| {
            result
                .points
                .iter()
                .find(|q| q.setup == p.setup && q.pattern == p.pattern)
                .map_or(0.0, |q| q.latency)
        })
        .collect()
}

/// Replays the points at `indices` of `result`, one ledger operation
/// each.
pub fn replay(
    report: &mut RunReport,
    campaign: &Campaign,
    result: &CampaignResult,
    indices: &[usize],
) -> ReplayTotals {
    replay_with(report, campaign, result, &zero_loads(result), indices)
}

/// [`replay`] with the curves' saturation references precomputed.
fn replay_with(
    report: &mut RunReport,
    campaign: &Campaign,
    result: &CampaignResult,
    zero: &[f64],
    indices: &[usize],
) -> ReplayTotals {
    let mut totals = ReplayTotals::default();
    for &i in indices {
        let point = &result.points[i];
        let tr = &mut report.tracer;
        report.ledger.op("replay point", || {
            replay_point(campaign, point, zero[i], tr, &mut totals)
        });
    }
    totals
}

/// `count` distinct point indices out of `n`, chosen from the seed.
#[must_use]
pub fn sample_indices(seed: u64, n: usize, count: usize) -> Vec<usize> {
    let mut out: Vec<usize> = Vec::new();
    let mut k = 0;
    while out.len() < count.min(n) {
        let i = (derive_seed(seed, 1_000 + k) % n as u64) as usize;
        if !out.contains(&i) {
            out.push(i);
        }
        k += 1;
    }
    out
}

/// Runs `campaign` once, timed, checking its digest against `first`
/// (the run's first digest) and the pinned one.
fn run_once(
    campaign: &Campaign,
    first: Option<&str>,
    pinned: Option<&str>,
) -> Result<(CampaignResult, f64, String), String> {
    let t = Instant::now();
    let result = campaign.run();
    let wall = t.elapsed().as_secs_f64();
    let d = digest(result.to_json().as_bytes());
    if let Some(first) = first {
        expect_eq("campaign digest vs first run", d.as_str(), first)?;
    }
    pinned::check(&campaign.name, &d, pinned)?;
    Ok((result, wall, d))
}

/// Runs a campaign workload.
#[must_use]
pub fn run(spec: &CampaignSpec, cfg: &RunConfig) -> RunReport {
    run_with_pin(spec, cfg, pinned::digest(&spec.name, cfg.seed))
}

/// [`run`] with an explicit pinned digest (tests perturb it).
#[must_use]
pub fn run_with_pin(spec: &CampaignSpec, cfg: &RunConfig, pinned: Option<&str>) -> RunReport {
    let mut report = RunReport::new(cfg);
    for _ in 0..SETUP_WARMUP {
        let _ = Campaign::from_spec(spec);
    }
    let mut setup_times = Vec::new();
    let campaign = time_setups(&mut report, spec, &mut setup_times);
    let Some(campaign) = campaign else {
        report.setup_s = median(&setup_times);
        return report;
    };
    if cfg.trace {
        trace_setup(spec, &mut report);
    }

    // Measured phase: whole cold campaigns, back to back.
    let mut walls = Vec::new();
    let mut first: Option<(CampaignResult, String)> = None;
    let start = Instant::now();
    loop {
        let first_digest = first.as_ref().map(|(_, d)| d.as_str());
        let out = report
            .ledger
            .op("campaign run", || run_once(&campaign, first_digest, pinned));
        let _ = time_setups(&mut report, spec, &mut setup_times);
        if let Some((result, wall, d)) = out {
            walls.push(wall);
            if first.is_none() {
                first = Some((result, d));
            }
        }
        if start.elapsed().as_secs_f64() >= cfg.seconds
            || (walls.is_empty() && report.ledger.failed() > 3)
        {
            break;
        }
    }
    report.setup_s = median(&setup_times);
    report.wall_s = median(&walls);
    let Some((result, d)) = first else {
        return report;
    };
    report.note(format!(
        "{}: {} points, {} campaign runs, wall_s p50 {:.4} (min {:.4}, max {:.4}), digest {d}",
        spec.name,
        result.points.len(),
        walls.len(),
        report.wall_s,
        quantile(&walls, 0.0),
        quantile(&walls, 1.0),
    ));

    if cfg.trace {
        trace_replay(&mut report, &campaign, &result);
    } else {
        let sample = sample_indices(cfg.seed, result.points.len(), REPLAY_SAMPLE);
        let _ = replay(&mut report, &campaign, &result, &sample);
    }
    report
}

/// Times [`SETUP_REPS`] set-ups (resolving the spec into runnable
/// setups: topology, layout, simulator configuration) into `times`;
/// returns the last campaign built.
fn time_setups(
    report: &mut RunReport,
    spec: &CampaignSpec,
    times: &mut Vec<f64>,
) -> Option<Campaign> {
    let mut campaign = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let built = report.ledger.op("set-up", || {
            Campaign::from_spec(spec).map_err(|e| e.to_string())
        });
        times.push(t.elapsed().as_secs_f64());
        campaign = built.or(campaign);
    }
    campaign
}

/// Traced set-up: each setup's topology, routing table and paper
/// configuration, built separately so each layer gets its own span.
fn trace_setup(spec: &CampaignSpec, report: &mut RunReport) {
    let tr = &mut report.tracer;
    let mut entries = 0u64;
    report.ledger.op("traced set-up", || {
        tr.span("setup.campaign", |tr| {
            for s in &spec.setups {
                let desc = tr
                    .span("topology.build", |_| snoc_topology::paper_config(&s.config))
                    .map_err(|e| e.to_string())?;
                let routers = desc.topology.router_count() as u64;
                tr.span("routing.table", |_| RoutingTable::minimal(&desc.topology));
                entries += routers * routers;
                tr.span("setup.paper", |_| s.build())
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        })
    });
    let table_us = report.tracer.total_us("routing.table");
    let l = &mut report.layers;
    l.set(
        "topology.build_ms",
        report.tracer.total_us("topology.build") / 1e3,
    );
    l.set(
        "setup.paper_ms",
        report.tracer.total_us("setup.paper") / 1e3,
    );
    l.set("routing.table_s", table_us / 1e6);
    l.set(
        "routing.entries_per_us",
        entries as f64 / table_us.max(1e-9),
    );
}

/// Traced run of a campaign result: every point replayed twice in a
/// row, untraced then traced (pairing cancels slow drifts of the host
/// between the two passes); per-layer metrics from the traced replays'
/// spans.
fn trace_replay(report: &mut RunReport, campaign: &Campaign, result: &CampaignResult) {
    let zero = zero_loads(result);
    let (mut off_s, mut on_s) = (0.0, 0.0);
    let mut totals = ReplayTotals::default();
    for i in 0..result.points.len() {
        report.tracer.set_on(false);
        let t = Instant::now();
        let _ = replay_with(report, campaign, result, &zero, &[i]);
        off_s += t.elapsed().as_secs_f64();
        report.tracer.set_on(true);
        let t = Instant::now();
        let one = replay_with(report, campaign, result, &zero, &[i]);
        on_s += t.elapsed().as_secs_f64();
        totals.add(&one);
    }
    let tr = &report.tracer;
    let mut point_ms: Vec<f64> = tr.durations_us("sim.point.unsat");
    point_ms.extend(tr.durations_us("sim.point.sat"));
    point_ms.iter_mut().for_each(|v| *v /= 1e3);
    let point_s: f64 = point_ms.iter().sum::<f64>() / 1e3;
    let l = &mut report.layers;
    l.set("sim.build_s", tr.total_us("sim.build") / 1e6);
    l.set(
        "sim.unsat.ns_per_router_cycle",
        totals.unsat_run_s * 1e9 / (totals.unsat_router_cycles.max(1)) as f64,
    );
    l.set(
        "sim.sat.ns_per_flit_hop",
        if totals.sat_flit_hops == 0 {
            0.0
        } else {
            totals.sat_run_s * 1e9 / totals.sat_flit_hops as f64
        },
    );
    l.set(
        "sim.router_cycles_per_s",
        totals.router_cycles as f64 / totals.run_s.max(1e-9),
    );
    l.set("sim.router_cycles", totals.router_cycles as f64);
    l.set("sim.flit_hops", totals.flit_hops as f64);
    l.set("sim.alloc_grants", totals.alloc_grants as f64);
    l.set("sim.point_ms_p50", median(&point_ms));
    l.set("sim.point_ms_max", quantile(&point_ms, 1.0));
    l.set("power.eval_us", tr.total_us("power.eval"));
    l.set(
        "sweep.parallel_efficiency",
        point_s / (report.wall_s * threads() as f64).max(1e-9),
    );
    l.set("trace.overhead_ms", (on_s - off_s) * 1e3);
    report.note(format!(
        "replay: {} points, untraced {:.4} s, traced {:.4} s, overhead {:.3} ms, {} threads",
        totals.points,
        off_s,
        on_s,
        (on_s - off_s) * 1e3,
        threads()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(seed: u64) -> CampaignSpec {
        let mut spec = fig12_spec(seed);
        spec.setups.truncate(1);
        spec.patterns.truncate(1);
        spec.loads = vec![0.02, 0.05];
        (spec.warmup, spec.measure) = (20, 60);
        spec
    }

    #[test]
    fn fig12_spec_has_the_paper_shape() {
        let spec = fig12_spec(0);
        assert_eq!(
            (spec.setups.len(), spec.patterns.len(), spec.loads.len()),
            (6, 4, 8)
        );
        assert!(spec.setups.iter().all(|s| s.smart));
        assert_ne!(fig12_spec(1).base_seed, spec.base_seed);
        assert_eq!(fig12_spec(0), spec, "same seed, same inputs");
        let energy = energy_spec(0);
        assert!(energy.power_tech.is_some() && !energy.stop_at_saturation);
    }

    /// The two specs are the `repro_fig12` and `repro_fig_energy`
    /// campaigns at `--quick` windows, up to name and base seed.
    #[test]
    fn specs_are_the_repro_binaries_campaigns() {
        let args = snoc_bench::Args {
            quick: true,
            ..snoc_bench::Args::default()
        };
        let smart = snoc_bench::small_class_setups()
            .into_iter()
            .map(|s| s.with_smart(true))
            .collect();
        let cases = [
            (
                fig12_spec(0),
                snoc_bench::figure_campaign("fig12", smart, TrafficPattern::paper_set(), &args),
            ),
            (
                energy_spec(0),
                snoc_bench::energy_campaign("fig_energy", snoc_bench::energy_class_setups(), &args),
            ),
        ];
        for (mut ours, theirs) in cases {
            let theirs = theirs.to_spec().unwrap();
            ours.name.clone_from(&theirs.name);
            ours.base_seed = theirs.base_seed;
            assert_eq!(ours, theirs);
        }
    }

    #[test]
    fn held_out_seed_passes_without_a_pinned_digest() {
        let cfg = RunConfig {
            seed: 12_345,
            seconds: 0.0,
            trace: false,
        };
        let report = run_with_pin(&tiny_spec(cfg.seed), &cfg, None);
        assert_eq!(report.ledger.failed(), 0, "{:?}", report.ledger.failures());
        assert!(report.ledger.attempted() > SETUP_REPS as u64);
        assert!(report.wall_s > 0.0 && report.setup_s > 0.0);
    }

    #[test]
    fn a_perturbed_pinned_digest_is_a_failed_op() {
        let cfg = RunConfig {
            seed: 1,
            seconds: 0.0,
            trace: false,
        };
        let report = run_with_pin(&tiny_spec(cfg.seed), &cfg, Some("0000000000000000"));
        assert_eq!(report.ledger.failed(), 1);
        assert!(report.ledger.failures()[0].contains("pinned"));
    }

    /// `Campaign::run` panics on duplicate setup names; the panic must
    /// be counted, not abort the run.
    #[test]
    fn a_panicking_campaign_is_a_failed_op() {
        let mut spec = tiny_spec(2);
        spec.setups.push(spec.setups[0].clone());
        let cfg = RunConfig {
            seed: 2,
            seconds: 0.0,
            trace: false,
        };
        let report = run_with_pin(&spec, &cfg, None);
        assert!(report.ledger.failed() >= 1);
        assert!(report.ledger.failures()[0].contains("panicked"));
        assert_eq!(report.wall_s, 0.0);
    }

    #[test]
    fn a_mismatched_replay_is_a_failed_op() {
        let campaign = Campaign::from_spec(&tiny_spec(3)).unwrap();
        let mut result = campaign.run();
        result.points[1].latency += 1.0;
        let cfg = RunConfig {
            seed: 3,
            seconds: 0.0,
            trace: false,
        };
        let mut report = RunReport::new(&cfg);
        let _ = replay(&mut report, &campaign, &result, &[0, 1]);
        assert_eq!((report.ledger.attempted(), report.ledger.failed()), (2, 1));
        assert!(report.ledger.failures()[0].contains("replay"));
    }

    #[test]
    fn traced_run_fills_the_simulation_layers() {
        let cfg = RunConfig {
            seed: 4,
            seconds: 0.0,
            trace: true,
        };
        let report = run_with_pin(
            &{
                let mut s = energy_spec(4);
                s.setups.truncate(1);
                (s.warmup, s.measure) = (20, 60);
                s
            },
            &cfg,
            None,
        );
        assert_eq!(report.ledger.failed(), 0, "{:?}", report.ledger.failures());
        for name in [
            "sim.router_cycles",
            "sim.alloc_grants",
            "power.eval_us",
            "routing.table_s",
        ] {
            assert!(report.layers.get(name) > 0.0, "{name}");
        }
    }

    #[test]
    fn sample_indices_are_distinct_and_seeded() {
        let s = sample_indices(9, 10, 6);
        assert_eq!(s.len(), 6);
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 6);
        assert_eq!(sample_indices(9, 10, 6), s);
        assert_eq!(sample_indices(9, 3, 6).len(), 3);
    }
}
