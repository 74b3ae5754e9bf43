//! Sharded parallel simulation: the network is partitioned across
//! worker threads that exchange boundary flits and credits through
//! typed message queues.
//!
//! # Design
//!
//! The router graph is split with [`Topology::partition`] into balanced,
//! BFS-contiguous shards. Every shard holds a *full replica* of the
//! network structure (routers, channels, one shared
//! [`crate::routing::RoutingTable`] behind an `Arc`), but simulates only
//! its own routers: remote routers never receive flits and stay off the
//! active worklists, so they cost nothing per cycle. A channel whose
//! endpoints land in different shards is *cut*:
//!
//! - On the **sender's** shard the channel keeps running as an
//!   *occupancy mirror*: phase 4 pushes into it normally (so adaptive
//!   occupancy probes read exactly the monolithic value) and emits a
//!   [`BoundaryMsg::Flit`] carrying the flit payload and its absolute
//!   arrival cycle; when the mirror's head comes due, the flit is
//!   popped and its arena slot released — it has left the shard.
//! - On the **receiver's** shard the message materializes the flit
//!   (arena insert + [`crate::link::Channel::push_at`]) and delivery
//!   proceeds exactly as in the monolithic simulator. Credits freed by
//!   the receiver on a cut input port travel back as
//!   [`BoundaryMsg::Credit`] and are deposited into the sender's mirror,
//!   where the normal credit-return loop feeds the sender's counters.
//!
//! Link latency on cut channels is the conservative lookahead: a
//! boundary message created at cycle `t` can take effect no earlier
//! than `t + latency ≥ t + 1`, so a lockstep round per simulated cycle
//! (two [`Barrier`] waits) is sufficient for full determinism. The
//! cycle-skipping fast-forward still works globally: each shard
//! publishes its earliest next event (calendar horizon, channel
//! arrivals, and the arrival cycles of the messages it just sent) and
//! every shard computes the identical jump target from the shared
//! atomics.
//!
//! # Determinism contract
//!
//! With minimal or XY-adaptive routing on credited links, every shard
//! replicates the full global injection calendar and RNG stream
//! (sampling draws are burned for remote sources), so an `N`-shard run
//! produces a [`SimReport`] — and its JSON — byte-identical to the
//! single-shard run. UGAL-L draws RNG conditionally on local queue
//! state, which remote shards cannot replicate; sharded UGAL-L runs use
//! per-shard derived seeds and are statistically equivalent instead
//! (verified by `snoc_refsim`'s distribution checks). UGAL-G reads
//! remote router occupancy and elastic links exert same-cycle
//! backpressure (zero lookahead); both are rejected with more than one
//! shard.

use super::Simulator;
use crate::config::{LinkMode, RoutingKind, SimConfig, SimError};
use crate::flit::Flit;
use crate::routing::RoutingTable;
use crate::stats::SimReport;
use snoc_layout::Layout;
use snoc_topology::{NodeId, Topology};
use snoc_traffic::{BurstModel, InjectionProcess, PatternSampler, TrafficPattern};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Barrier, Mutex};

/// A flit or credit crossing a shard boundary. `when` is the absolute
/// arrival cycle, already stamped with the cut link's latency.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BoundaryMsg {
    /// A flit entering the receiver's copy of cut channel `chan`.
    Flit {
        /// Channel id (global — identical on every replica).
        chan: u32,
        /// Absolute arrival cycle.
        when: u64,
        /// Virtual channel.
        vc: u8,
        /// Payload snapshot (flits are immutable while on a wire).
        flit: Flit,
    },
    /// A credit returning to the sender's mirror of cut channel `chan`.
    Credit {
        /// Channel id.
        chan: u32,
        /// Absolute arrival cycle.
        when: u64,
        /// Virtual channel.
        vc: u8,
    },
}

impl BoundaryMsg {
    fn when(&self) -> u64 {
        match *self {
            BoundaryMsg::Flit { when, .. } | BoundaryMsg::Credit { when, .. } => when,
        }
    }
}

/// How one shard relates to a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChanRole {
    /// Both endpoints local: simulated exactly as in the monolith.
    Local,
    /// Sender local, receiver remote: occupancy mirror + flit messages.
    CutOut,
    /// Sender remote, receiver local: materializes incoming flits.
    CutIn,
    /// Neither endpoint local: never active on this shard.
    Remote,
}

/// Per-shard view of the partition.
#[derive(Debug)]
pub(crate) struct ShardMeta {
    /// This shard's role for every channel.
    role: Vec<ChanRole>,
    /// For cut channels, the shard on the other end of the message.
    remote_shard: Vec<u32>,
    /// Whether each endpoint node is owned by this shard.
    local_node: Vec<bool>,
}

impl ShardMeta {
    fn new(sim: &Simulator, assign: &[usize], k: usize) -> Self {
        let role: Vec<ChanRole> = (0..sim.channels.len())
            .map(|c| {
                let src_local = assign[sim.chan_src[c].0] == k;
                let dst_local = assign[sim.chan_dst[c].0] == k;
                match (src_local, dst_local) {
                    (true, true) => ChanRole::Local,
                    (true, false) => ChanRole::CutOut,
                    (false, true) => ChanRole::CutIn,
                    (false, false) => ChanRole::Remote,
                }
            })
            .collect();
        let remote_shard = (0..sim.channels.len())
            .map(|c| match role[c] {
                ChanRole::CutOut => assign[sim.chan_dst[c].0] as u32,
                ChanRole::CutIn => assign[sim.chan_src[c].0] as u32,
                _ => u32::MAX,
            })
            .collect();
        let local_node = (0..sim.node_count)
            .map(|n| assign[n / sim.concentration] == k)
            .collect();
        ShardMeta {
            role,
            remote_shard,
            local_node,
        }
    }
}

/// Cross-shard coordination state for one run.
struct Shared {
    /// Pre-read barrier: publishes are visible before any shard reads.
    round_a: Barrier,
    /// Post-read barrier: no shard starts the next round's publishes
    /// until every shard has finished reading this round's.
    round_b: Barrier,
    /// Whether each shard must single-step the next cycle.
    busy: Vec<AtomicBool>,
    /// Each shard's earliest next event (`u64::MAX` = none).
    next: Vec<AtomicU64>,
    /// Cumulative measured packets injected per shard this run.
    injected: Vec<AtomicU64>,
    /// Cumulative measured packets delivered per shard this run.
    delivered: Vec<AtomicU64>,
    /// Boundary messages in flight, indexed `[from][to]`.
    mailboxes: Vec<Vec<Mutex<Vec<BoundaryMsg>>>>,
}

impl Shared {
    fn new(n: usize) -> Self {
        Shared {
            round_a: Barrier::new(n),
            round_b: Barrier::new(n),
            busy: (0..n).map(|_| AtomicBool::new(false)).collect(),
            next: (0..n).map(|_| AtomicU64::new(u64::MAX)).collect(),
            injected: (0..n).map(|_| AtomicU64::new(0)).collect(),
            delivered: (0..n).map(|_| AtomicU64::new(0)).collect(),
            mailboxes: (0..n)
                .map(|_| (0..n).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
        }
    }
}

/// Splitmix-style per-shard seed derivation for the statistical tier.
fn derive_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A parallel simulator running one network split across `N` worker
/// shards (see the module docs for the partitioning and determinism
/// contract). With one shard it is exactly the monolithic
/// [`Simulator`]; with minimal or XY-adaptive routing on credited links
/// every shard count produces byte-identical reports.
#[derive(Debug)]
pub struct ShardedSimulator {
    shards: Vec<Simulator>,
    meta: Vec<ShardMeta>,
    topo: Topology,
    node_count: usize,
    /// Whether this configuration is on the bit-exact tier (shards
    /// replicate the global RNG) vs. the statistical tier (UGAL-L).
    exact: bool,
}

impl ShardedSimulator {
    /// Builds a sharded simulator with unit-latency links.
    ///
    /// `shards` is clamped to `1..=router_count()`. With one shard any
    /// configuration the monolithic [`Simulator`] accepts is valid.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for invalid configurations,
    /// and for UGAL-G routing or elastic links with more than one shard
    /// (the former reads remote occupancy, the latter has zero
    /// lookahead).
    pub fn build(topo: &Topology, cfg: &SimConfig, shards: usize) -> Result<Self, SimError> {
        Self::build_inner(topo, None, cfg, shards)
    }

    /// Builds a sharded simulator whose link latencies come from the
    /// layout, like [`Simulator::build_with_layout`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] as [`ShardedSimulator::build`] does.
    pub fn build_with_layout(
        topo: &Topology,
        layout: &Layout,
        cfg: &SimConfig,
        shards: usize,
    ) -> Result<Self, SimError> {
        Self::build_inner(topo, Some(layout), cfg, shards)
    }

    fn build_inner(
        topo: &Topology,
        layout: Option<&Layout>,
        cfg: &SimConfig,
        shards: usize,
    ) -> Result<Self, SimError> {
        let shards = shards.clamp(1, topo.router_count().max(1));
        if shards > 1 {
            if cfg.routing == RoutingKind::UgalG {
                return Err(SimError::InvalidConfig {
                    reason: "UGAL-G reads occupancy on remote routers; it cannot run sharded"
                        .to_string(),
                });
            }
            if cfg.link_mode == LinkMode::Elastic {
                return Err(SimError::InvalidConfig {
                    reason: "elastic links backpressure within the cycle (zero lookahead); \
                             run them single-shard"
                        .to_string(),
                });
            }
        }
        let exact = cfg.routing != RoutingKind::UgalL;
        let assign = topo.partition(shards);
        let table = Arc::new(RoutingTable::minimal(topo));
        let mut sims = Vec::with_capacity(shards);
        for k in 0..shards {
            // The statistical tier decorrelates shard RNGs; the exact
            // tier keeps every replica on the one global stream.
            let cfg_k = if exact || shards == 1 {
                cfg.clone()
            } else {
                cfg.clone().with_seed(derive_seed(cfg.seed, k as u64))
            };
            let mut sim = Simulator::build_with_table(topo, layout, &cfg_k, Arc::clone(&table))?;
            // Disjoint packet-id spaces per shard: routers compare ids
            // for equality only, so any collision-free scheme preserves
            // monolithic behavior bit for bit.
            sim.next_pid = (k as u64) << 48;
            sims.push(sim);
        }
        let meta = (0..shards)
            .map(|k| ShardMeta::new(&sims[0], &assign, k))
            .collect();
        Ok(ShardedSimulator {
            shards: sims,
            meta,
            topo: topo.clone(),
            node_count: topo.node_count(),
            exact,
        })
    }

    /// The number of worker shards (after clamping).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The number of endpoint nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Runs open-loop synthetic traffic across all shards; the sharded
    /// counterpart of [`Simulator::run_synthetic`].
    pub fn run_synthetic(
        &mut self,
        pattern: TrafficPattern,
        rate: f64,
        warmup: u64,
        measure: u64,
    ) -> SimReport {
        self.run_synthetic_bursty(pattern, rate, BurstModel::uniform(), warmup, measure)
    }

    /// Runs bursty synthetic traffic across all shards; the sharded
    /// counterpart of [`Simulator::run_synthetic_bursty`].
    pub fn run_synthetic_bursty(
        &mut self,
        pattern: TrafficPattern,
        rate: f64,
        burst: BurstModel,
        warmup: u64,
        measure: u64,
    ) -> SimReport {
        if self.shards.len() == 1 {
            return self.shards[0].run_synthetic_bursty(pattern, rate, burst, warmup, measure);
        }
        let n = self.shards.len();
        let params = RunParams {
            pattern,
            rate,
            burst,
            warmup,
            measure,
            end_measure: warmup + measure,
            drain_cap: warmup + measure + measure.max(2_000),
            initial_outstanding: self.shards.iter().map(|s| s.outstanding as i64).sum(),
            exact: self.exact,
            node_count: self.node_count,
            nshards: n,
        };
        let shared = Shared::new(n);
        let topo = &self.topo;
        let meta = &self.meta;
        let results: Vec<(SimReport, i64, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .enumerate()
                .map(|(k, shard)| {
                    let shared = &shared;
                    let meta = &meta[k];
                    scope.spawn(move || run_shard(shard, meta, shared, k, topo, params))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard thread panicked"))
                .collect()
        });
        let (_, final_outstanding, final_now) = results[0];
        // A packet may be injected on one shard and delivered on
        // another, so the per-shard counters are meaningless after the
        // run; re-home the global remainder onto shard 0 to keep
        // back-to-back windows consistent.
        for s in &mut self.shards {
            s.outstanding = 0;
        }
        self.shards[0].outstanding = final_outstanding.max(0) as u64;
        let mut merged = SimReport::new(self.node_count);
        merged.measured_cycles = measure;
        merged.total_cycles = final_now;
        merged.drained = final_outstanding == 0;
        for (r, _, _) in &results {
            merged.injected_packets += r.injected_packets;
            merged.delivered_packets += r.delivered_packets;
            merged.delivered_flits += r.delivered_flits;
            merged.latency_sum += r.latency_sum;
            merged.latency_max = merged.latency_max.max(r.latency_max);
            merged.hops_sum += r.hops_sum;
            merged.stalled_generations += r.stalled_generations;
            if r.latency_histogram.len() > merged.latency_histogram.len() {
                merged
                    .latency_histogram
                    .resize(r.latency_histogram.len(), 0);
            }
            for (i, &v) in r.latency_histogram.iter().enumerate() {
                merged.latency_histogram[i] += v;
            }
            merged.activity.add(&r.activity);
        }
        merged
    }
}

/// Immutable per-run parameters handed to every shard thread.
#[derive(Clone, Copy)]
struct RunParams {
    pattern: TrafficPattern,
    rate: f64,
    burst: BurstModel,
    warmup: u64,
    measure: u64,
    end_measure: u64,
    drain_cap: u64,
    initial_outstanding: i64,
    exact: bool,
    node_count: usize,
    nshards: usize,
}

/// One shard's run loop: step, drain the injection calendar, publish,
/// sync, apply inbound boundary messages, and commit the globally
/// agreed clock jump. Every shard evaluates the loop condition and the
/// advance decision on identical shared inputs, so all of them execute
/// the same number of rounds — the barriers never mismatch.
fn run_shard(
    sim: &mut Simulator,
    meta: &ShardMeta,
    shared: &Shared,
    k: usize,
    topo: &Topology,
    p: RunParams,
) -> (SimReport, i64, u64) {
    let sampler = PatternSampler::new(p.pattern, topo);
    let mut report = SimReport::new(p.node_count);
    report.measured_cycles = p.measure;
    let pkt_len = sim.cfg.packet_flits;
    let t0 = sim.now;
    let mut now = t0;
    let mut process = InjectionProcess::new(p.node_count, p.rate, pkt_len, p.burst);
    let mut calendar: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::with_capacity(p.node_count);
    for node in 0..p.node_count {
        // Exact tier: every shard carries the full global calendar so
        // the RNG streams stay in lockstep (draws for remote sources
        // are burned below). Statistical tier: local nodes only.
        if !p.exact && !meta.local_node[node] {
            continue;
        }
        if let Some(c) = process.next_arrival(node, &mut sim.rng) {
            let cycle = t0.saturating_add(c);
            if cycle < p.end_measure {
                calendar.push(Reverse((cycle, node)));
            }
        }
    }
    let mut outbox: Vec<Vec<BoundaryMsg>> = vec![Vec::new(); p.nshards];
    let mut outstanding = p.initial_outstanding;
    while now < p.end_measure || (outstanding > 0 && now < p.drain_cap) {
        let measuring = now >= p.warmup && now < p.end_measure;
        sim.step_shard(measuring, &mut report, meta, &mut outbox);
        if now < p.end_measure {
            while let Some(&Reverse((cycle, src))) = calendar.peek() {
                if cycle > now {
                    break;
                }
                calendar.pop();
                if let Some(dst) = sampler.sample(NodeId(src), &mut sim.rng) {
                    if meta.local_node[src] {
                        sim.generate(
                            NodeId(src),
                            dst,
                            pkt_len as u32,
                            false,
                            measuring,
                            &mut report,
                        );
                    }
                }
                if let Some(c) = process.next_arrival(src, &mut sim.rng) {
                    let next = t0.saturating_add(c);
                    if next < p.end_measure {
                        calendar.push(Reverse((next, src)));
                    }
                }
            }
        }
        // Publish phase: this shard's earliest next event is the min of
        // its calendar horizon, its active channels' arrivals, and the
        // arrival cycles of the messages it is sending this round — a
        // just-sent credit is held by no channel on either side yet, so
        // skipping it here could jump the global clock past it.
        let mut next = calendar.peek().map(|&Reverse((cycle, _))| cycle);
        for &id in &sim.active_channels {
            if let Some(e) = sim.channels[id].next_event(now) {
                next = Some(next.map_or(e, |v| v.min(e)));
            }
        }
        for msgs in &outbox {
            for m in msgs {
                let w = m.when();
                next = Some(next.map_or(w, |v| v.min(w)));
            }
        }
        let busy = !sim.cycle_skip || !sim.active_routers.is_empty() || !sim.active_inj.is_empty();
        shared.busy[k].store(busy, Relaxed);
        shared.next[k].store(next.unwrap_or(u64::MAX), Relaxed);
        shared.injected[k].store(report.injected_packets, Relaxed);
        shared.delivered[k].store(report.delivered_packets, Relaxed);
        for (to, msgs) in outbox.iter_mut().enumerate() {
            if !msgs.is_empty() {
                shared.mailboxes[k][to]
                    .lock()
                    .expect("mailbox")
                    .append(msgs);
            }
        }
        shared.round_a.wait();
        // Read phase: apply inbound messages, then compute the global
        // advance decision — identically on every shard.
        for from in 0..p.nshards {
            if from == k {
                continue;
            }
            let msgs = std::mem::take(&mut *shared.mailboxes[from][k].lock().expect("mailbox"));
            sim.apply_inbound(meta, &msgs);
        }
        let mut any_busy = false;
        let mut next_global = u64::MAX;
        let mut inj = 0u64;
        let mut del = 0u64;
        for j in 0..p.nshards {
            any_busy |= shared.busy[j].load(Relaxed);
            next_global = next_global.min(shared.next[j].load(Relaxed));
            inj += shared.injected[j].load(Relaxed);
            del += shared.delivered[j].load(Relaxed);
        }
        let new_now = if any_busy {
            now + 1
        } else {
            let (cap, idle_target) = if now < p.end_measure {
                (p.end_measure, p.end_measure)
            } else {
                (p.drain_cap, now + 1)
            };
            let target = if next_global == u64::MAX {
                idle_target
            } else {
                next_global
            };
            target.clamp(now + 1, cap.max(now + 1))
        };
        shared.round_b.wait();
        now = new_now;
        sim.now = now;
        outstanding = p.initial_outstanding + inj as i64 - del as i64;
    }
    (report, outstanding, now)
}

impl Simulator {
    /// One network cycle on this shard: [`Simulator::step`] with the
    /// cut-channel hooks. Local channels and routers behave exactly as
    /// in the monolith; cut-out channels mirror occupancy and emit flit
    /// messages, cut-in channels deliver materialized flits and divert
    /// freed credits into credit messages.
    fn step_shard(
        &mut self,
        measuring: bool,
        report: &mut SimReport,
        meta: &ShardMeta,
        outbox: &mut [Vec<BoundaryMsg>],
    ) {
        let now = self.now;
        // Phases 1–3 per active channel, by role.
        for i in 0..self.active_channels.len() {
            let id = self.active_channels[i];
            self.channels[id].tick();
            match meta.role[id] {
                ChanRole::Local => {
                    let (dst, port) = self.chan_dst[id];
                    let router = &self.routers[dst];
                    let delivered =
                        self.channels[id].pop_deliverable(now, |vc| router.can_deliver(port, vc));
                    if let Some((vc, flit)) = delivered {
                        self.routers[dst].deliver(port, vc, flit, &mut self.arena);
                        self.activate_router(dst);
                        if measuring {
                            report.activity.buffer_writes += 1;
                        }
                    }
                    let (src, src_port) = self.chan_src[id];
                    while let Some(vc) = self.channels[id].pop_credit(now) {
                        self.routers[src].add_credit(src_port, vc);
                    }
                }
                ChanRole::CutOut => {
                    // The flit left the shard: the receiver materialized
                    // its own copy from the boundary message, so the
                    // mirror just releases the local arena slot at the
                    // exact cycle the monolith would deliver it.
                    if let Some((_vc, fr)) = self.channels[id].pop_deliverable(now, |_| true) {
                        self.arena.remove(fr);
                    }
                    let (src, src_port) = self.chan_src[id];
                    while let Some(vc) = self.channels[id].pop_credit(now) {
                        self.routers[src].add_credit(src_port, vc);
                    }
                }
                ChanRole::CutIn => {
                    let (dst, port) = self.chan_dst[id];
                    let router = &self.routers[dst];
                    let delivered =
                        self.channels[id].pop_deliverable(now, |vc| router.can_deliver(port, vc));
                    if let Some((vc, flit)) = delivered {
                        self.routers[dst].deliver(port, vc, flit, &mut self.arena);
                        self.activate_router(dst);
                        if measuring {
                            report.activity.buffer_writes += 1;
                        }
                    }
                    // Credits for this channel travel as messages to the
                    // sender's mirror; this copy never holds any.
                }
                ChanRole::Remote => {
                    debug_assert!(false, "remote channel {id} on the active worklist");
                }
            }
        }
        // 4. Switch traversal; cut-out pushes also emit flit messages.
        for i in 0..self.active_routers.len() {
            let r = self.active_routers[i];
            let mut st = std::mem::take(&mut self.scratch_st);
            self.routers[r].drain_st(&mut st);
            let net_ports = self.chan_out[r].len();
            for &(port, stf) in &st {
                if measuring {
                    report.activity.crossbar_traversals += 1;
                }
                if port < net_ports {
                    let ch = self.chan_out[r][port];
                    if measuring {
                        report.activity.link_flit_hops += 1;
                        report.activity.wire_flit_tiles += self.chan_tiles[ch];
                    }
                    if meta.role[ch] == ChanRole::CutOut {
                        outbox[meta.remote_shard[ch] as usize].push(BoundaryMsg::Flit {
                            chan: ch as u32,
                            when: now + self.channels[ch].latency(),
                            vc: stf.out_vc as u8,
                            flit: *self.arena.get(stf.flit),
                        });
                    }
                    self.channels[ch].push(now, stf.out_vc, stf.flit);
                    self.activate_channel(ch);
                } else {
                    self.eject(stf.flit, measuring, report);
                }
            }
            self.scratch_st = st;
        }
        // 5. Allocation; freed credits on cut-in ports become messages.
        for i in 0..self.active_routers.len() {
            let r = self.active_routers[i];
            if self.routers[r].is_idle() {
                continue;
            }
            {
                let routers = &mut self.routers;
                let arena = &mut self.arena;
                let channels = &self.channels;
                let ports = &self.chan_out[r];
                let ready = |out: usize, vc: usize| channels[ports[out]].can_accept(vc);
                routers[r].alloc_into(
                    now,
                    &self.table,
                    self.concentration,
                    arena,
                    &ready,
                    &mut self.scratch_alloc,
                );
            }
            if measuring {
                report.activity.record_alloc(&self.scratch_alloc);
            }
            for idx in 0..self.scratch_alloc.freed_inputs.len() {
                let (port, vc) = self.scratch_alloc.freed_inputs[idx];
                let ch = self.chan_in[r][port];
                if meta.role[ch] == ChanRole::CutIn {
                    outbox[meta.remote_shard[ch] as usize].push(BoundaryMsg::Credit {
                        chan: ch as u32,
                        when: now + self.channels[ch].latency(),
                        vc: vc as u8,
                    });
                } else {
                    self.channels[ch].push_credit(now, vc);
                    self.activate_channel(ch);
                }
            }
        }
        // 6. Injection (only local nodes ever enter the worklist).
        for i in 0..self.active_inj.len() {
            let node = self.active_inj[i];
            let r = node / self.concentration;
            let offset = node % self.concentration;
            let port = self.chan_out[r].len() + offset;
            if self.routers[r].can_deliver(port, 0) {
                let fr = self.inj_queues[node].pop_front().expect("non-empty");
                self.arena.get_mut(fr).injected = now;
                self.routers[r].deliver(port, 0, fr, &mut self.arena);
                self.activate_router(r);
                if measuring {
                    report.activity.buffer_writes += 1;
                }
            }
        }
        // Worklist compaction, exactly as in the monolith.
        let routers = &self.routers;
        let router_queued = &mut self.router_queued;
        self.active_routers.retain(|&r| {
            if routers[r].is_idle() {
                router_queued[r] = false;
                false
            } else {
                true
            }
        });
        let channels = &self.channels;
        let chan_queued = &mut self.chan_queued;
        self.active_channels.retain(|&id| {
            if channels[id].is_idle() {
                chan_queued[id] = false;
                false
            } else {
                true
            }
        });
        let inj_queues = &self.inj_queues;
        let inj_queued = &mut self.inj_queued;
        self.active_inj.retain(|&node| {
            if inj_queues[node].is_empty() {
                inj_queued[node] = false;
                false
            } else {
                true
            }
        });
    }

    /// Deposits one round of inbound boundary messages. Per channel,
    /// message order follows emission order and arrival cycles are
    /// nondecreasing (at most one flit per channel per cycle, fixed
    /// latency), so appending keeps the channel deques sorted.
    fn apply_inbound(&mut self, meta: &ShardMeta, msgs: &[BoundaryMsg]) {
        for msg in msgs {
            match *msg {
                BoundaryMsg::Flit {
                    chan,
                    when,
                    vc,
                    flit,
                } => {
                    let chan = chan as usize;
                    debug_assert_eq!(meta.role[chan], ChanRole::CutIn);
                    let fr = self.arena.insert(flit);
                    self.channels[chan].push_at(when, vc as usize, fr);
                    self.activate_channel(chan);
                }
                BoundaryMsg::Credit { chan, when, vc } => {
                    let chan = chan as usize;
                    debug_assert_eq!(meta.role[chan], ChanRole::CutOut);
                    self.channels[chan].push_credit_at(when, vc as usize);
                    self.activate_channel(chan);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mono_report(
        topo: &Topology,
        cfg: &SimConfig,
        pattern: TrafficPattern,
        rate: f64,
        warmup: u64,
        measure: u64,
    ) -> SimReport {
        let mut sim = Simulator::build(topo, cfg).unwrap();
        sim.run_synthetic(pattern, rate, warmup, measure)
    }

    fn sharded_report(
        topo: &Topology,
        cfg: &SimConfig,
        shards: usize,
        pattern: TrafficPattern,
        rate: f64,
        warmup: u64,
        measure: u64,
    ) -> SimReport {
        let mut sim = ShardedSimulator::build(topo, cfg, shards).unwrap();
        sim.run_synthetic(pattern, rate, warmup, measure)
    }

    #[test]
    fn sharded_minimal_matches_monolithic_bit_for_bit() {
        let topo = Topology::slim_noc(3, 3).unwrap();
        let cfg = SimConfig::default();
        let mono = mono_report(&topo, &cfg, TrafficPattern::Random, 0.05, 500, 2_000);
        for shards in [2, 3, 4] {
            let sharded = sharded_report(
                &topo,
                &cfg,
                shards,
                TrafficPattern::Random,
                0.05,
                500,
                2_000,
            );
            assert_eq!(mono, sharded, "{shards} shards");
            assert_eq!(mono.to_json(), sharded.to_json(), "{shards} shards");
        }
    }

    #[test]
    fn sharded_mesh_under_load_matches_monolithic() {
        let topo = Topology::mesh(4, 4, 2);
        let cfg = SimConfig::default();
        let mono = mono_report(&topo, &cfg, TrafficPattern::Random, 0.15, 500, 2_000);
        let sharded = sharded_report(&topo, &cfg, 4, TrafficPattern::Random, 0.15, 500, 2_000);
        assert_eq!(mono, sharded);
    }

    #[test]
    fn sharded_xy_adaptive_matches_monolithic() {
        // XY-adaptive probes only source-side occupancy, which the
        // cut-out mirrors reproduce exactly — still on the exact tier.
        let topo = Topology::flattened_butterfly(4, 4, 2);
        let cfg = SimConfig::default().with_routing(RoutingKind::XyAdaptive);
        let mono = mono_report(&topo, &cfg, TrafficPattern::Random, 0.10, 500, 2_000);
        for shards in [2, 4] {
            let sharded = sharded_report(
                &topo,
                &cfg,
                shards,
                TrafficPattern::Random,
                0.10,
                500,
                2_000,
            );
            assert_eq!(mono, sharded, "{shards} shards");
        }
    }

    #[test]
    fn sharded_adversarial_traffic_matches_monolithic() {
        let topo = Topology::slim_noc(3, 3).unwrap();
        let cfg = SimConfig::default();
        let mono = mono_report(&topo, &cfg, TrafficPattern::Adversarial1, 0.20, 500, 2_000);
        let sharded = sharded_report(
            &topo,
            &cfg,
            3,
            TrafficPattern::Adversarial1,
            0.20,
            500,
            2_000,
        );
        assert_eq!(mono, sharded);
    }

    #[test]
    fn back_to_back_windows_stay_bit_identical() {
        let topo = Topology::mesh(4, 3, 2);
        let cfg = SimConfig::default();
        let mut mono = Simulator::build(&topo, &cfg).unwrap();
        let mut sharded = ShardedSimulator::build(&topo, &cfg, 3).unwrap();
        for _ in 0..2 {
            let a = mono.run_synthetic(TrafficPattern::Random, 0.05, 300, 1_000);
            let b = sharded.run_synthetic(TrafficPattern::Random, 0.05, 300, 1_000);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn sharded_zero_rate_fast_forwards_to_the_window_end() {
        let topo = Topology::slim_noc(3, 3).unwrap();
        let mut sim = ShardedSimulator::build(&topo, &SimConfig::default(), 3).unwrap();
        let report = sim.run_synthetic(TrafficPattern::Random, 0.0, 1_000, 50_000);
        assert_eq!(report.total_cycles, 51_000, "clock lands on the boundary");
        assert_eq!(report.delivered_packets, 0);
        assert!(report.drained);
    }

    #[test]
    fn sharded_ugal_l_is_statistically_sane() {
        let topo = Topology::slim_noc(3, 3).unwrap();
        let cfg = SimConfig::default()
            .with_vcs(4)
            .with_routing(RoutingKind::UgalL);
        let mono = mono_report(&topo, &cfg, TrafficPattern::Random, 0.08, 500, 3_000);
        let sharded = sharded_report(&topo, &cfg, 3, TrafficPattern::Random, 0.08, 500, 3_000);
        assert!(sharded.drained, "{sharded}");
        assert!(sharded.delivered_packets > 100);
        let (a, b) = (mono.throughput(), sharded.throughput());
        assert!(
            (a - b).abs() < a * 0.2,
            "sharded UGAL-L throughput {b} strays from monolithic {a}"
        );
    }

    #[test]
    fn global_state_configs_are_rejected_with_multiple_shards() {
        let topo = Topology::slim_noc(3, 3).unwrap();
        let ugal_g = SimConfig::default()
            .with_vcs(4)
            .with_routing(RoutingKind::UgalG);
        assert!(ShardedSimulator::build(&topo, &ugal_g, 2).is_err());
        assert!(ShardedSimulator::build(&topo, &ugal_g, 1).is_ok());
        let elastic = SimConfig::elastic_links();
        assert!(ShardedSimulator::build(&topo, &elastic, 2).is_err());
        assert!(ShardedSimulator::build(&topo, &elastic, 1).is_ok());
    }

    #[test]
    fn shard_count_clamps_to_router_count() {
        let topo = Topology::mesh(2, 2, 1);
        let sim = ShardedSimulator::build(&topo, &SimConfig::default(), 1_000).unwrap();
        assert_eq!(sim.shard_count(), 4);
    }
}
