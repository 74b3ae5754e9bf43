//! Test-only harness over `RouterCore`: a stable, `pub` surface for
//! the struct-of-arrays shadow-model property suite
//! (`tests/soa_props.rs`), which cannot name the `pub(crate)` router
//! internals directly.
//!
//! Hidden from docs on purpose — nothing here is a supported API; it
//! exists so an integration test can drive single-router
//! deliver/alloc/drain/credit sequences and audit the derived SoA
//! structures (occupancy bitmask words, the per-port credit counter,
//! the ST mask) against ground truth after every step.

use crate::config::{LinkMode, RouterArch};
use crate::flit::{Flit, FlitArena, PacketId};
use crate::router::{AllocResult, RouterCore, StFlit};
use crate::routing::RoutingTable;
use snoc_topology::{NodeId, RouterId, Topology};

/// A single router plus the minimum context needed to drive it: a flit
/// arena and a routing table over a small topology.
#[derive(Debug)]
pub struct RouterHarness {
    core: RouterCore,
    arena: FlitArena,
    table: RoutingTable,
    topo: Topology,
    concentration: usize,
    next_pid: u64,
    scratch_st: Vec<(usize, StFlit)>,
    scratch_alloc: AllocResult,
}

/// What one allocation cycle granted (mirror of the internal
/// `AllocResult`, with owned vectors).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AllocSummary {
    /// Network input lanes that freed one buffer slot: `(port, vc)`.
    pub freed_inputs: Vec<(usize, usize)>,
    /// Injection lanes that freed a slot: `(local_index, vc)`.
    pub freed_injection: Vec<(usize, usize)>,
    /// Total allocator grants this cycle.
    pub grants: u64,
    /// Central-buffer writes this cycle.
    pub cb_writes: u64,
    /// Central-buffer reads this cycle.
    pub cb_reads: u64,
    /// Bypass grants this cycle.
    pub bypasses: u64,
}

impl RouterHarness {
    /// Builds the center router of a 3x3 mesh (4 network ports, 1 local
    /// port) with the given VC count and per-VC buffer capacity.
    ///
    /// `arch` selects the router microarchitecture; `credited` the link
    /// flow control (credited links get `capacity` credits per VC).
    #[must_use]
    pub fn center_of_mesh(vcs: usize, capacity: usize, arch: HarnessArch, credited: bool) -> Self {
        let h = Self::build(
            Topology::mesh(3, 3, 1),
            RouterId(4),
            vcs,
            capacity,
            arch,
            credited,
        );
        assert_eq!(h.net_ports(), 4, "mesh center has 4 neighbors");
        h
    }

    /// Builds a spine router of `Topology::folded_clos(70, 4, 1)`: 70
    /// network ports and no local ports, so the busy-port summary spans
    /// two words and the nomination cache is off. Arguments as for
    /// [`RouterHarness::center_of_mesh`].
    #[must_use]
    pub fn spine_of_clos(vcs: usize, capacity: usize, arch: HarnessArch, credited: bool) -> Self {
        let h = Self::build(
            Topology::folded_clos(70, 4, 1),
            RouterId(70),
            vcs,
            capacity,
            arch,
            credited,
        );
        assert_eq!(
            h.in_ports(),
            70,
            "clos spine links every leaf, hosts no node"
        );
        h
    }

    fn build(
        topo: Topology,
        router: RouterId,
        vcs: usize,
        capacity: usize,
        arch: HarnessArch,
        credited: bool,
    ) -> Self {
        let table = RoutingTable::minimal(&topo);
        let net_ports = table.port_count(router);
        let local_ports = topo.nodes_of(router).len();
        let caps = vec![capacity; net_ports];
        let arch = match arch {
            HarnessArch::Edge => RouterArch::EdgeBuffer,
            HarnessArch::Cb { cb_flits } => RouterArch::CentralBuffer { cb_flits },
        };
        let link_mode = if credited {
            LinkMode::Credited
        } else {
            LinkMode::Elastic
        };
        let mut core = RouterCore::new(
            router,
            net_ports,
            local_ports,
            vcs,
            arch,
            link_mode,
            &caps,
            capacity,
            false,
        );
        if credited {
            for p in 0..net_ports {
                core.set_credits(p, capacity);
            }
        }
        RouterHarness {
            core,
            arena: FlitArena::default(),
            table,
            concentration: topo.concentration(),
            topo,
            next_pid: 0,
            scratch_st: Vec::new(),
            scratch_alloc: AllocResult::default(),
        }
    }

    /// Input ports of the router (network + injection).
    #[must_use]
    pub fn in_ports(&self) -> usize {
        self.core.net_ports + self.core.local_ports
    }

    /// Network (non-local) ports.
    #[must_use]
    pub fn net_ports(&self) -> usize {
        self.core.net_ports
    }

    /// Nodes in the backing topology (valid flit destinations).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.topo.node_count()
    }

    /// Whether input `port` can accept a flit on `vc`.
    #[must_use]
    pub fn can_deliver(&self, port: usize, vc: usize) -> bool {
        self.core.can_deliver(port, vc)
    }

    /// Delivers a fresh single-flit packet for node `dst` into
    /// `(port, vc)` if there is space; returns whether it was accepted.
    pub fn try_deliver(&mut self, port: usize, vc: usize, dst: usize) -> bool {
        if !self.core.can_deliver(port, vc) {
            return false;
        }
        let dst = NodeId(dst % self.topo.node_count());
        let dst_router = self.topo.router_of(dst);
        self.next_pid += 1;
        let flit = Flit::packet(
            PacketId(self.next_pid),
            NodeId(0),
            dst,
            dst_router,
            1,
            0,
            true,
            false,
        )[0];
        let fr = self.arena.insert(flit);
        self.core.deliver(port, vc, fr, &mut self.arena);
        true
    }

    /// Runs one allocation cycle with an always-ready link predicate.
    pub fn alloc(&mut self, now: u64) -> AllocSummary {
        self.core.alloc_into(
            now,
            &self.table,
            self.concentration,
            &mut self.arena,
            &|_, _| true,
            &mut self.scratch_alloc,
        );
        let res = &self.scratch_alloc;
        AllocSummary {
            freed_inputs: res.freed_inputs.clone(),
            freed_injection: res.freed_injection.clone(),
            grants: res.alloc_grants,
            cb_writes: res.cb_writes,
            cb_reads: res.cb_reads,
            bypasses: res.bypasses,
        }
    }

    /// Drains the ST registers, removing the departing flits from the
    /// arena (the harness has no downstream). Returns `(out_port, vc)`
    /// pairs in drain order.
    pub fn drain(&mut self) -> Vec<(usize, usize)> {
        let mut st = std::mem::take(&mut self.scratch_st);
        self.core.drain_st(&mut st);
        let out = st
            .iter()
            .map(|&(port, stf)| {
                self.arena.remove(stf.flit);
                (port, stf.out_vc)
            })
            .collect();
        self.scratch_st = st;
        out
    }

    /// Returns one credit to `(out_port, vc)`.
    pub fn add_credit(&mut self, out_port: usize, vc: usize) {
        self.core.add_credit(out_port, vc);
    }

    /// Flits waiting in one input lane (edge: buffer depth; CBR: staging
    /// slot occupancy as 0/1).
    #[must_use]
    pub fn lane_len(&self, port: usize, vc: usize) -> usize {
        self.core.lane_len(port, vc)
    }

    /// The raw occupancy bitmask word of one input port.
    #[must_use]
    pub fn occupancy_word(&self, port: usize) -> u64 {
        self.core.occupancy_word(port)
    }

    /// Available credits on `(out_port, vc)`.
    #[must_use]
    pub fn credit(&self, out_port: usize, vc: usize) -> usize {
        self.core.credit(out_port, vc)
    }

    /// The per-port available-credit counter (satellite of the SoA
    /// refactor: must always equal the per-VC credit scan).
    #[must_use]
    pub fn port_credits(&self, out_port: usize) -> usize {
        self.core.port_credits(out_port)
    }

    /// Occupied ST registers.
    #[must_use]
    pub fn st_count(&self) -> usize {
        self.core.st_count()
    }

    /// Flits inside the router (buffers + staging + CB queues + ST).
    #[must_use]
    pub fn buffered_flits(&self) -> usize {
        self.core.buffered_flits()
    }

    /// The adaptive-routing congestion probe for one output port.
    #[must_use]
    pub fn output_occupancy(&self, out_port: usize, init_credits: usize) -> usize {
        self.core.output_occupancy(out_port, init_credits)
    }

    /// Audits every derived SoA structure (occupancy words, credit
    /// counters, ST mask, live-flit counter) against a fresh recount.
    ///
    /// # Panics
    ///
    /// Panics if any maintained structure drifted from ground truth.
    pub fn verify_invariants(&self) {
        self.core.verify_soa_invariants();
    }
}

/// Router microarchitecture selector for [`RouterHarness`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HarnessArch {
    /// Edge-buffer router (per-VC input ring buffers).
    Edge,
    /// Central-buffer router with the given CB capacity in flits.
    Cb {
        /// Central-buffer capacity in flits.
        cb_flits: usize,
    },
}
