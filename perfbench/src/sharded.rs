//! `sn47_point`: one 106,032-endpoint `slim_noc(47, 24)` point (4418
//! routers) on the sharded engine, uniform random traffic at 0.02
//! flits/node/cycle, minimal routing.
//!
//! The measured run uses one shard. On a shared two-core host the
//! two-shard engine's lockstep rounds stall whenever either core is
//! taken away, which spread its run-to-run wall time by about a
//! quarter; one shard spreads by under a tenth. The traced run measures
//! the two-shard engine against it.
//!
//! Each run builds the engine [`SETUP_REPS`] times (the set-up,
//! dominated by the 19.5M-entry routing table), then measures back-to-back windows on
//! it for `--seconds`: the engines keep one simulated clock across
//! calls, so window `k` starts where window `k - 1` drained and passes
//! its warmup end as an absolute cycle. `wall_s` is the median window
//! time. The traced run builds each layer separately, then reruns the
//! first window on two shards: the two reports must be byte-identical
//! (minimal routing is the engine's exact tier), and their run times
//! give `shard.speedup_2v1`.

use crate::ledger::expect_eq;
use crate::trace::Tracer;
use crate::util::{current_rss_mb, digest, median, quantile};
use crate::{pinned, RunConfig, RunReport};
use snoc_sim::{Conformance, RoutingTable, ShardedSimulator, SimConfig, SimReport};
use snoc_topology::Topology;
use snoc_traffic::TrafficPattern;
use std::time::Instant;

/// Slim NoC parameters `(q, p)`: 4418 routers × 24 endpoints.
pub const SN47: (usize, usize) = (47, 24);
/// Worker shards of the measured run.
pub const SHARDS: usize = 1;
/// Worker shards of the traced comparison run.
pub const TRACE_SHARDS: usize = 2;
/// Set-ups timed per untraced run (each ≈8–9 s); `setup_s` is their
/// median.
pub const SETUP_REPS: usize = 2;
/// Offered load in flits/node/cycle.
pub const LOAD: f64 = 0.02;
/// Warmup and measured cycles of one window.
pub const WINDOWS: (u64, u64) = (30, 120);

/// Runs one window starting at simulated cycle `start` and checks it:
/// no deadlock, conservation, a drained network, and the pinned digest
/// (`pinned`, when recorded for this seed and window).
fn run_window(
    sim: &mut ShardedSimulator,
    start: u64,
    pinned: Option<&str>,
    tr: &mut Tracer,
) -> Result<(SimReport, f64), String> {
    let (report, wall) = tr.span("shard.run", |_| {
        let t = Instant::now();
        let report = sim.run_synthetic(TrafficPattern::Random, LOAD, start + WINDOWS.0, WINDOWS.1);
        (report, t.elapsed().as_secs_f64())
    });
    if !report.drained || report.total_cycles < start + WINDOWS.0 + WINDOWS.1 {
        return Err(format!(
            "window from cycle {start} ended at {} (drained: {})",
            report.total_cycles, report.drained
        ));
    }
    if let Some(diag) = &report.deadlock {
        return Err(format!("deadlock: {diag}"));
    }
    report.snapshot().check_conservation()?;
    if report.delivered_packets == 0 {
        return Err("no packet delivered".into());
    }
    pinned::check("sn47_point", &digest(report.to_json().as_bytes()), pinned)?;
    Ok((report, wall))
}

fn config(seed: u64) -> SimConfig {
    SimConfig::default().with_seed(crate::util::derive_seed(seed, 47))
}

/// Runs `sn47_point`.
#[must_use]
pub fn run(cfg: &RunConfig) -> RunReport {
    let mut report = RunReport::new(cfg);
    let pinned = pinned::digest("sn47_point", cfg.seed);
    let sim_cfg = config(cfg.seed);
    let built = if cfg.trace {
        traced_build(&mut report, &sim_cfg)
    } else {
        let mut times = Vec::new();
        let mut built = None;
        for _ in 0..SETUP_REPS {
            drop(built.take());
            let t = Instant::now();
            built = report.ledger.op("set-up", || {
                let topo = Topology::slim_noc(SN47.0, SN47.1).map_err(|e| e.to_string())?;
                let sim =
                    ShardedSimulator::build(&topo, &sim_cfg, SHARDS).map_err(|e| e.to_string())?;
                Ok((topo, sim))
            });
            times.push(t.elapsed().as_secs_f64());
        }
        report.setup_s = median(&times);
        built
    };
    let Some((topo, mut sim)) = built else {
        return report;
    };

    // Measured phase: back-to-back windows; only the first is pinned.
    let mut walls = Vec::new();
    let mut first: Option<SimReport> = None;
    let mut clock = 0;
    let start = Instant::now();
    loop {
        let tr = &mut report.tracer;
        let pin = if first.is_none() { pinned } else { None };
        let out = report
            .ledger
            .op("sharded window", || run_window(&mut sim, clock, pin, tr));
        let Some((window, wall)) = out else {
            break;
        };
        clock = window.total_cycles;
        walls.push(wall);
        first.get_or_insert(window);
        if start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    drop(sim);
    report.wall_s = median(&walls);
    let Some(first) = first else {
        return report;
    };
    report.note(format!(
        "sn47_point: {} endpoints, {} shards, {} windows, wall_s p50 {:.4} (min {:.4}, max {:.4}); \
         first window: delivered {}, latency {:.2}, digest {}",
        topo.node_count(),
        SHARDS,
        walls.len(),
        report.wall_s,
        quantile(&walls, 0.0),
        quantile(&walls, 1.0),
        first.delivered_packets,
        first.avg_packet_latency(),
        digest(first.to_json().as_bytes())
    ));
    if cfg.trace {
        trace_layers(&mut report, &topo, &sim_cfg, &first, walls[0]);
    }
    report
}

/// Builds the engine layer by layer under spans: topology, partition,
/// routing table, then the sharded engine (which builds its own
/// partition and table again; `sim.build_s` subtracts the table, so it
/// is the difference of two multi-second timings and can be noisy).
fn traced_build(
    report: &mut RunReport,
    sim_cfg: &SimConfig,
) -> Option<(Topology, ShardedSimulator)> {
    let tr = &mut report.tracer;
    report.ledger.op("traced set-up", || {
        let topo = tr
            .span("topology.build", |_| Topology::slim_noc(SN47.0, SN47.1))
            .map_err(|e| e.to_string())?;
        tr.span("topology.partition", |_| topo.partition(TRACE_SHARDS));
        tr.span("routing.table", |_| RoutingTable::minimal(&topo));
        let sim = tr
            .span("shard.build", |_| {
                ShardedSimulator::build(&topo, sim_cfg, SHARDS)
            })
            .map_err(|e| e.to_string())?;
        Ok((topo, sim))
    })
}

/// Per-layer metrics of the traced run, including the two-shard rerun
/// of the first window (`one`, timed `one_wall`).
fn trace_layers(
    report: &mut RunReport,
    topo: &Topology,
    sim_cfg: &SimConfig,
    one: &SimReport,
    one_wall: f64,
) {
    let tr = &mut report.tracer;
    let two = report.ledger.op("two-shard rerun", || {
        let mut sim = tr
            .span("shard.build.2", |_| {
                ShardedSimulator::build(topo, sim_cfg, TRACE_SHARDS)
            })
            .map_err(|e| e.to_string())?;
        let rss_mb = current_rss_mb();
        let mut quiet = Tracer::new(false);
        let (two, wall) = run_window(&mut sim, 0, None, &mut quiet)?;
        expect_eq("2-shard vs 1-shard report", two.to_json(), one.to_json())?;
        Ok((wall, rss_mb))
    });
    let tr = &report.tracer;
    let table_s = tr.total_us("routing.table") / 1e6;
    let run_us = tr.durations_us("shard.run").first().copied().unwrap_or(0.0);
    let routers = topo.router_count() as u64;
    let router_cycles = routers * one.total_cycles;
    let l = &mut report.layers;
    l.set("topology.build_ms", tr.total_us("topology.build") / 1e3);
    l.set(
        "topology.partition_ms",
        tr.total_us("topology.partition") / 1e3,
    );
    l.set("routing.table_s", table_s);
    l.set(
        "routing.entries_per_us",
        (routers * routers) as f64 / (table_s * 1e6).max(1e-9),
    );
    l.set("sim.build_s", tr.total_us("shard.build") / 1e6 - table_s);
    l.set(
        "sim.unsat.ns_per_router_cycle",
        one_wall * 1e9 / router_cycles.max(1) as f64,
    );
    l.set(
        "sim.router_cycles_per_s",
        router_cycles as f64 / one_wall.max(1e-9),
    );
    l.set("sim.router_cycles", router_cycles as f64);
    l.set("sim.flit_hops", one.activity.link_flit_hops as f64);
    l.set("sim.alloc_grants", one.activity.alloc_grants as f64);
    let window_ms: Vec<f64> = tr
        .durations_us("shard.run")
        .iter()
        .map(|d| d / 1e3)
        .collect();
    l.set("sim.point_ms_p50", median(&window_ms));
    l.set("sim.point_ms_max", quantile(&window_ms, 1.0));
    if let Some((two_wall, rss_mb)) = two {
        l.set("shard.run_s", two_wall);
        l.set("shard.speedup_2v1", one_wall / two_wall.max(1e-9));
        l.set("shard.rss_mb", rss_mb);
    }
    // The spans here are a few coarse ones around whole layer calls;
    // the overhead is the first window's span beyond the call's own
    // timing.
    l.set("trace.overhead_ms", (run_us / 1e6 - one_wall) * 1e3);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn back_to_back_windows_pass_and_match_across_shard_counts() {
        let topo = Topology::slim_noc(5, 4).unwrap();
        let cfg = config(9);
        let mut tr = Tracer::new(false);
        let mut one = ShardedSimulator::build(&topo, &cfg, 1).unwrap();
        let mut two = ShardedSimulator::build(&topo, &cfg, 2).unwrap();
        let (mut c1, mut c2) = (0, 0);
        for _ in 0..3 {
            let (a, _) = run_window(&mut one, c1, None, &mut tr).unwrap();
            let (b, _) = run_window(&mut two, c2, None, &mut tr).unwrap();
            assert_eq!(a.to_json(), b.to_json());
            assert!(a.total_cycles > c1);
            (c1, c2) = (a.total_cycles, b.total_cycles);
        }
    }

    #[test]
    fn a_perturbed_pin_fails_the_window() {
        let topo = Topology::slim_noc(5, 4).unwrap();
        let mut sim = ShardedSimulator::build(&topo, &config(9), 1).unwrap();
        let mut tr = Tracer::new(false);
        let err = run_window(&mut sim, 0, Some("0000000000000000"), &mut tr).unwrap_err();
        assert!(err.contains("pinned"), "{err}");
    }
}
