//! Criterion benchmarks for the simulator engine: routing-table
//! construction and end-to-end simulation throughput (cycles/second)
//! for representative configurations.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use snoc_core::{BufferPreset, Setup};
use snoc_sim::{RoutingTable, ShardedSimulator, SimConfig, Simulator};
use snoc_topology::{NodeId, Topology};
use snoc_traffic::{MessageKind, TraceMessage, TrafficPattern};
use std::hint::black_box;

fn bench_routing_tables(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing_table");
    for (name, topo) in [
        ("sn_s", Topology::slim_noc(5, 4).unwrap()),
        ("sn_l", Topology::slim_noc(9, 8).unwrap()),
        ("fbf9", Topology::flattened_butterfly(12, 12, 9)),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| RoutingTable::minimal(black_box(&topo)));
        });
    }
    // The 106k-endpoint instance: 4418 routers, 19.5M table entries.
    let sn47 = Topology::slim_noc(47, 24).unwrap();
    group.sample_size(10);
    group.bench_function("sn_q47", |b| {
        b.iter(|| RoutingTable::minimal(black_box(&sn47)));
    });
    group.finish();
}

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);
    let cycles = 2_000u64;
    group.throughput(Throughput::Elements(cycles));
    for (name, topo) in [
        ("sn54_rnd", Topology::slim_noc(3, 3).unwrap()),
        ("sn_s_rnd", Topology::slim_noc(5, 4).unwrap()),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut sim = Simulator::build(&topo, &SimConfig::default()).unwrap();
                sim.run_synthetic(TrafficPattern::Random, 0.05, 200, cycles)
            });
        });
    }
    group.bench_function("sn_s_cbr_rnd", |b| {
        let topo = Topology::slim_noc(5, 4).unwrap();
        b.iter(|| {
            let mut sim = Simulator::build(&topo, &SimConfig::cbr(20)).unwrap();
            sim.run_synthetic(TrafficPattern::Random, 0.05, 200, cycles)
        });
    });
    group.finish();
}

/// Event-loop benchmarks: the low-load half of every sweep grid (where
/// most campaign points live), the drain tail, and a saturated point.
/// `lowload_*` names are gated with `bench_compare --min-speedup`;
/// `satload_*` guards against the event machinery slowing the busy case.
fn bench_simulation_events(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);
    for (name, topo, cfg, rate) in [
        (
            "lowload_sn_s_rnd",
            Topology::slim_noc(5, 4).unwrap(),
            SimConfig::default(),
            0.001,
        ),
        (
            "lowload_sn54_cbr",
            Topology::slim_noc(3, 3).unwrap(),
            SimConfig::cbr(20),
            0.001,
        ),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut sim = Simulator::build(&topo, &cfg).unwrap();
                sim.run_synthetic(TrafficPattern::Random, rate, 500, 20_000)
            });
        });
    }
    group.bench_function("lowload_trace_gaps", |b| {
        // A sparse trace: one read every 500 cycles — mostly dead time
        // the cycle loop should fast-forward across.
        let topo = Topology::slim_noc(3, 3).unwrap();
        let nodes = topo.node_count();
        let trace: Vec<TraceMessage> = (0..100u64)
            .map(|i| TraceMessage {
                cycle: i * 500,
                src: NodeId((i as usize * 7) % nodes),
                dst: NodeId((i as usize * 13 + 1) % nodes),
                kind: MessageKind::ReadRequest,
            })
            .filter(|m| m.src != m.dst)
            .collect();
        b.iter(|| {
            let mut sim = Simulator::build(&topo, &SimConfig::default()).unwrap();
            sim.run_trace(&trace, 0)
        });
    });
    group.bench_function("drain_sn_s_rnd", |b| {
        let topo = Topology::slim_noc(5, 4).unwrap();
        b.iter(|| {
            let mut sim = Simulator::build(&topo, &SimConfig::default()).unwrap();
            sim.run_synthetic(TrafficPattern::Random, 0.25, 0, 2_000)
        });
    });
    group.bench_function("satload_sn_s_rnd", |b| {
        let topo = Topology::slim_noc(5, 4).unwrap();
        b.iter(|| {
            let mut sim = Simulator::build(&topo, &SimConfig::default()).unwrap();
            sim.run_synthetic(TrafficPattern::Random, 0.40, 200, 2_000)
        });
    });
    // Saturation across router families: the CBR datapath under a
    // saturated slim NoC, and a balanced Dragonfly (the deepest
    // minimal-routing family) under random overload. Together with
    // `satload_sn_s_rnd` these back the `satload_*` speedup gate.
    group.bench_function("satload_sn54_cbr", |b| {
        let topo = Topology::slim_noc(3, 3).unwrap();
        b.iter(|| {
            let mut sim = Simulator::build(&topo, &SimConfig::cbr(20)).unwrap();
            sim.run_synthetic(TrafficPattern::Random, 0.40, 200, 2_000)
        });
    });
    group.bench_function("satload_df3_rnd", |b| {
        let topo = Topology::dragonfly(3);
        let cfg = SimConfig::default().with_vcs(4);
        b.iter(|| {
            let mut sim = Simulator::build(&topo, &cfg).unwrap();
            sim.run_synthetic(TrafficPattern::Random, 0.30, 200, 2_000)
        });
    });
    group.finish();
}

/// Sharded-engine benchmarks on the 1296-endpoint class. `shard1_*`
/// pins the monolithic path through the sharded front door; the
/// multi-shard entries track the thread/barrier machinery. All three
/// are regression-gated (`bench_compare --max-ratio`) rather than
/// speedup-gated: parallel speedup depends on idle cores, which CI
/// runners do not promise.
fn bench_shard_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);
    let topo = Topology::slim_noc(9, 8).unwrap();
    let cfg = SimConfig::default();
    for shards in [1usize, 2, 4] {
        group.bench_function(format!("shard{shards}_sn_l_rnd"), |b| {
            b.iter(|| {
                let mut sim = ShardedSimulator::build(&topo, &cfg, shards).unwrap();
                sim.run_synthetic(TrafficPattern::Random, 0.05, 200, 2_000)
            });
        });
    }
    group.finish();
}

fn bench_figure_smoke(c: &mut Criterion) {
    // Smoke versions of the figure sweeps: one low-load point per class.
    let mut group = c.benchmark_group("figure_smoke");
    group.sample_size(10);
    for name in ["sn_s", "fbf4", "pfbf4", "t2d4", "cm4"] {
        group.bench_function(format!("fig12_point_{name}"), |b| {
            let setup = Setup::paper(name).unwrap().with_smart(true);
            b.iter(|| setup.run_load(TrafficPattern::Random, 0.03, 200, 1_000));
        });
    }
    group.bench_function("fig11_point_cbr", |b| {
        let setup = Setup::paper("sn_s")
            .unwrap()
            .with_buffers(BufferPreset::Cbr(20));
        b.iter(|| setup.run_load(TrafficPattern::Random, 0.03, 200, 1_000));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_routing_tables,
    bench_simulation,
    bench_simulation_events,
    bench_shard_scale,
    bench_figure_smoke
);
criterion_main!(benches);
