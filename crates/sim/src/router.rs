//! Router microarchitectures: the 2-stage edge-buffer router and the
//! Central Buffer Router (§4).
//!
//! Port conventions for a router with network radix `k'` and
//! concentration `p`:
//!
//! - **input ports** `0..k'` receive from neighbor routers, ports
//!   `k'..k'+p` are injection ports from local nodes;
//! - **output ports** `0..k'` send to neighbor routers, ports
//!   `k'..k'+p` are ejection ports to local nodes.
//!
//! Both architectures share the output side: a one-entry switch-traversal
//! (ST) register per output port, per-VC wormhole output allocation, and
//! credit counters toward downstream buffers (credited links).
//!
//! # State layout (struct-of-arrays)
//!
//! All hot per-router state is flattened into contiguous arrays indexed
//! by `lane = port * vcs + vc`, with one **occupancy bitmask word per
//! port** (bit `vc` set ⇔ that lane holds at least one flit):
//!
//! - edge input buffers are fixed-capacity ring buffers carved out of a
//!   single flat [`FlitRef`] slab ([`EdgeLanes`]);
//! - CBR staging slots, queue masks and open-packet registers are flat
//!   lane arrays ([`CbState`]);
//! - ST registers, wormhole ownership and credit counters are flat
//!   arrays on the shared [`OutputSide`], plus a per-port available-
//!   credit counter so congestion lookups never rescan the VC row.
//!
//! The edge allocator's work is proportional to occupancy, not radix:
//!
//! - a **busy-port summary** (one bit per input port, set ⇔ the port's
//!   occupancy word is non-zero) drives the input pass, so idle ports
//!   are never visited, and the per-VC scan skips empty lanes without
//!   touching the buffer slab;
//! - the output pass records the outputs it nominates in a
//!   **nominated-output mask** and visits only those, resetting only
//!   the winner slots it touched;
//! - the allocation scratch (nominations, per-output winners and
//!   priorities, the mask, the CBR claim flags) lives once in the
//!   simulator-owned [`AllocResult`], so every router visit reuses one
//!   hot copy instead of its own heap buffers.
//!
//! The allocation *algorithm* (round-robin rotations, nomination order,
//! output-arbitration order) is unchanged from the array-of-structs
//! layout — results are bit-for-bit identical.
//!
//! All queues and registers hold 4-byte [`FlitRef`] arena indices; the
//! flit payloads live in the simulator's [`FlitArena`], so the hot
//! push/pop paths move indices, not ~64-byte structs.

use crate::config::{LinkMode, RouterArch};
use crate::flit::{Flit, FlitArena, FlitRef};
use crate::routing::{RouteDecision, RoutingTable};
use snoc_topology::RouterId;
use std::collections::VecDeque;

/// "No held route" sentinel for the per-lane route-port arrays.
const NO_ROUTE: u16 = u16::MAX;
/// "No packet" sentinel for the flat wormhole/open-packet arrays
/// (raw [`crate::flit::PacketId`] values; real ids are monotonic from 0
/// and never reach `u64::MAX`).
const NO_PKT: u64 = u64::MAX;

/// A flit sitting in the ST register, ready to traverse the switch onto
/// its output channel in the current cycle.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StFlit {
    pub flit: FlitRef,
    pub out_vc: usize,
}

/// CBR packet-path markers for the per-lane `stage_mode` bytes (§4.1).
const MODE_NONE: u8 = 0;
const MODE_BYPASS: u8 = 1;
const MODE_CENTRAL: u8 = 2;

/// A flit parked in the central buffer with its eligibility cycle and
/// its packet id (copied at write time so the CB-read scan checks
/// wormhole ownership without touching the arena).
#[derive(Debug, Clone, Copy)]
struct CbFlit {
    flit: FlitRef,
    pkt: u64,
    eligible_at: u64,
}

/// Edge-buffer input state: every `(port, vc)` lane is a fixed-capacity
/// ring buffer carved out of one flat slab, with a per-port occupancy
/// bitmask word (bit `vc` ⇔ lane non-empty).
#[derive(Debug, Clone)]
struct EdgeLanes {
    /// Flat ring-buffer slab; lane `l` owns `base[l]..base[l]+cap[l]`.
    slots: Vec<FlitRef>,
    /// Slab offset per lane.
    base: Vec<u32>,
    /// Ring capacity per lane (the per-VC buffer depth of its port).
    cap: Vec<u32>,
    /// Ring head index per lane (relative to `base`).
    head: Vec<u16>,
    /// Flits currently in each lane.
    len: Vec<u16>,
    /// Route held from head to tail of the current packet
    /// ([`NO_ROUTE`] = none).
    route_port: Vec<u16>,
    route_vc: Vec<u8>,
    /// Packet holding the lane's route ([`NO_PKT`] = none). The lane can
    /// be momentarily empty while a route is held (bodies still
    /// upstream), so the fault sweep needs the owner recorded here to
    /// release wormhole state of dropped packets.
    route_pkt: Vec<u64>,
    /// Occupancy word per input port — the VC scan skips clear bits
    /// without touching the slab.
    occ: Vec<u64>,
    /// Busy-port summary: bit `p` set ⇔ `occ[p] != 0`. The allocator
    /// visits only these ports.
    busy: Vec<u64>,
    /// Front-of-lane cache: the packet id of the current front flit
    /// ([`NO_PKT`] = cache empty), filled lazily by the allocator and
    /// invalidated whenever the front changes (pop, or push into an
    /// empty lane). A head flit blocked at saturation is re-examined
    /// every cycle; the cache turns those retries into pure lane-array
    /// reads — no arena load, no route recompute. Routes are a pure
    /// function of the flit and the (fixed) table, so caching cannot
    /// change results.
    front_pkt: Vec<u64>,
    /// Cached computed route of the front flit (valid only while
    /// `front_pkt` is set and no packet route is held).
    front_route_port: Vec<u16>,
    front_route_vc: Vec<u8>,
    /// VCs per port (lane stride).
    vcs: usize,
}

/// `x % m` for `x < 2 * m` as a compare-and-subtract. The moduli on the
/// allocation paths (`vcs`, port counts, ring capacities) are runtime
/// values, so the compiler cannot strength-reduce `%` — and a hardware
/// divide per round-robin step is measurable at saturation load.
#[inline(always)]
pub(crate) fn fast_wrap(x: usize, m: usize) -> usize {
    debug_assert!(x < 2 * m);
    if x >= m {
        x - m
    } else {
        x
    }
}

/// Indices of the set bits of a bitmask stored as `u64` words (bit `b`
/// of word `w` is index `64 * w + b`), in ascending order.
#[inline(always)]
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let bit = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            Some((w << 6) | bit)
        })
    })
}

impl EdgeLanes {
    fn new(in_ports: usize, vcs: usize, capacity: &[usize]) -> Self {
        assert!(vcs <= 64, "occupancy words hold at most 64 VCs");
        let lanes = in_ports * vcs;
        let mut base = Vec::with_capacity(lanes);
        let mut cap = Vec::with_capacity(lanes);
        let mut off: u32 = 0;
        for &c in capacity.iter().take(in_ports) {
            let c = u32::try_from(c).expect("buffer capacity fits u32");
            assert!(c <= u32::from(u16::MAX), "ring indices fit u16");
            for _ in 0..vcs {
                base.push(off);
                cap.push(c);
                off += c;
            }
        }
        EdgeLanes {
            slots: vec![FlitRef::INVALID; off as usize],
            base,
            cap,
            head: vec![0; lanes],
            len: vec![0; lanes],
            route_port: vec![NO_ROUTE; lanes],
            route_vc: vec![0; lanes],
            route_pkt: vec![NO_PKT; lanes],
            occ: vec![0; in_ports],
            busy: vec![0; in_ports.div_ceil(64)],
            front_pkt: vec![NO_PKT; lanes],
            front_route_port: vec![NO_ROUTE; lanes],
            front_route_vc: vec![0; lanes],
            vcs,
        }
    }

    #[inline(always)]
    fn is_full(&self, lane: usize) -> bool {
        u32::from(self.len[lane]) >= self.cap[lane]
    }

    /// Front of a non-empty lane.
    #[inline(always)]
    fn front(&self, lane: usize) -> FlitRef {
        debug_assert!(self.len[lane] > 0, "front of empty lane");
        self.slots[(self.base[lane] + u32::from(self.head[lane])) as usize]
    }

    /// Appends to the non-full lane `(port, vc)` and sets its occupancy
    /// and busy-port bits. A push into an empty lane changes the front,
    /// so the front cache drops.
    #[inline(always)]
    fn push(&mut self, port: usize, vc: usize, flit: FlitRef) {
        let lane = port * self.vcs + vc;
        debug_assert!(!self.is_full(lane), "push into full lane");
        if self.len[lane] == 0 {
            self.front_pkt[lane] = NO_PKT;
            self.front_route_port[lane] = NO_ROUTE;
        }
        let mut pos = u32::from(self.head[lane]) + u32::from(self.len[lane]);
        if pos >= self.cap[lane] {
            pos -= self.cap[lane];
        }
        self.slots[(self.base[lane] + pos) as usize] = flit;
        self.len[lane] += 1;
        self.occ[port] |= 1 << vc;
        self.busy[port >> 6] |= 1 << (port & 63);
    }

    /// Pops the front of the non-empty lane `(port, vc)`, clearing its
    /// occupancy bit when it empties (and the port's busy bit when the
    /// port does).
    #[inline(always)]
    fn pop(&mut self, port: usize, vc: usize) -> FlitRef {
        let lane = port * self.vcs + vc;
        debug_assert!(self.len[lane] > 0, "pop from empty lane");
        let fr = self.slots[(self.base[lane] + u32::from(self.head[lane])) as usize];
        let next = u32::from(self.head[lane]) + 1;
        self.head[lane] = if next >= self.cap[lane] {
            0
        } else {
            next as u16
        };
        self.len[lane] -= 1;
        self.front_pkt[lane] = NO_PKT;
        self.front_route_port[lane] = NO_ROUTE;
        if self.len[lane] == 0 {
            self.occ[port] &= !(1 << vc);
            if self.occ[port] == 0 {
                self.busy[port >> 6] &= !(1 << (port & 63));
            }
        }
        fr
    }

    /// The route held by a lane's in-flight packet, if any.
    #[inline(always)]
    fn route(&self, lane: usize) -> Option<RouteDecision> {
        let p = self.route_port[lane];
        if p == NO_ROUTE {
            None
        } else {
            Some(RouteDecision {
                port: p as usize,
                vc: self.route_vc[lane] as usize,
            })
        }
    }
}

/// Central-buffer-router input state: single-flit staging slots plus the
/// CB virtual output queues, both lane-indexed with per-port masks.
#[derive(Debug, Clone)]
struct CbState {
    /// Staging slot per input lane ([`FlitRef::INVALID`] = empty).
    stage_slot: Vec<FlitRef>,
    /// Route held from head to tail ([`NO_ROUTE`] = none).
    stage_route_port: Vec<u16>,
    stage_route_vc: Vec<u8>,
    /// Packet path through the CBR per lane ([`MODE_NONE`] /
    /// [`MODE_BYPASS`] / [`MODE_CENTRAL`]).
    stage_mode: Vec<u8>,
    /// Occupied-staging word per input port — the bypass and CB-write
    /// scans skip ports at 0 and clear bits within a port.
    stage_occ: Vec<u64>,
    /// Staged-flit cache ([`NO_PKT`] = empty), filled lazily by the
    /// allocator and invalidated whenever the slot changes hands. A
    /// staged flit blocked under contention is re-examined by both the
    /// bypass and the CB-write scans every cycle; the cache makes those
    /// retries arena-free. Routes are a pure function of the flit and
    /// the table, so caching cannot change results.
    stage_pkt: Vec<u64>,
    /// Cached computed route (valid only while `stage_pkt` is set and no
    /// packet route is held).
    stage_cport: Vec<u16>,
    stage_cvc: Vec<u8>,
    /// Bit 0: head flit, bit 1: tail flit.
    stage_flags: Vec<u8>,
    /// Packet length in flits (CB admission check).
    stage_plen: Vec<u32>,
    /// CB virtual output queues, lane-indexed `[out_port * vcs + vc]`.
    queues: Vec<VecDeque<CbFlit>>,
    /// Non-empty-queue word per output port — the CB-read scan skips
    /// outputs at 0, and the bypass ordering check is one bit test.
    queue_mask: Vec<u64>,
    /// Packet currently streaming through each CB queue (head admitted,
    /// tail not yet), [`NO_PKT`] = none. A new head may enter a queue
    /// only when clear — flits of two packets must never interleave
    /// within one queue, or each would deadlock waiting for the other
    /// (§4.3's atomicity requirement).
    open_pkt: Vec<u64>,
    /// Remaining unreserved CB space in flits.
    free: usize,
    /// Round-robin over outputs for the single CB read port.
    rr_read: usize,
    /// Round-robin over inputs for the single CB write port.
    rr_write: usize,
}

impl CbState {
    fn new(in_ports: usize, out_ports: usize, vcs: usize, cb_flits: usize) -> Self {
        assert!(vcs <= 64, "occupancy words hold at most 64 VCs");
        let in_lanes = in_ports * vcs;
        let out_lanes = out_ports * vcs;
        CbState {
            stage_slot: vec![FlitRef::INVALID; in_lanes],
            stage_route_port: vec![NO_ROUTE; in_lanes],
            stage_route_vc: vec![0; in_lanes],
            stage_mode: vec![MODE_NONE; in_lanes],
            stage_occ: vec![0; in_ports],
            stage_pkt: vec![NO_PKT; in_lanes],
            stage_cport: vec![NO_ROUTE; in_lanes],
            stage_cvc: vec![0; in_lanes],
            stage_flags: vec![0; in_lanes],
            stage_plen: vec![0; in_lanes],
            queues: (0..out_lanes).map(|_| VecDeque::new()).collect(),
            queue_mask: vec![0; out_ports],
            open_pkt: vec![NO_PKT; out_lanes],
            free: cb_flits,
            rr_read: 0,
            rr_write: 0,
        }
    }

    /// The route held by a staged packet, if any.
    #[inline(always)]
    fn stage_route(&self, lane: usize) -> Option<RouteDecision> {
        let p = self.stage_route_port[lane];
        if p == NO_ROUTE {
            None
        } else {
            Some(RouteDecision {
                port: p as usize,
                vc: self.stage_route_vc[lane] as usize,
            })
        }
    }

    /// Empties staging lane `lane` (`port`, `vc`), clearing its
    /// occupancy bit and dropping the staged-flit cache.
    #[inline(always)]
    fn take_stage(&mut self, lane: usize, port: usize, vc: usize) -> FlitRef {
        let fr = self.stage_slot[lane];
        debug_assert!(fr.is_valid(), "take from empty staging lane");
        self.stage_slot[lane] = FlitRef::INVALID;
        self.stage_occ[port] &= !(1 << vc);
        self.stage_pkt[lane] = NO_PKT;
        self.stage_cport[lane] = NO_ROUTE;
        fr
    }
}

#[derive(Debug, Clone)]
enum ArchState {
    Edge(EdgeLanes),
    Cb(CbState),
}

/// The output side shared by both router architectures: ST registers,
/// wormhole VC ownership, and credit counters — flat arrays with an
/// ST-occupancy bitmask and a per-port available-credit counter.
#[derive(Debug, Clone)]
struct OutputSide {
    net_ports: usize,
    vcs: usize,
    credited: bool,
    /// ST register per output port (valid iff the `st_mask` bit is set).
    st_flit: Vec<FlitRef>,
    st_vc: Vec<u8>,
    /// Occupied-ST bitmask words over output ports.
    st_mask: Vec<u64>,
    /// Occupied ST registers — `drain_st` returns without scanning
    /// when 0.
    st_live: usize,
    /// Wormhole output-VC allocation per network output lane
    /// (`[out_port * vcs + vc]`, raw packet id, [`NO_PKT`] = free).
    out_pkt: Vec<u64>,
    /// Credits toward downstream per network output lane.
    credits: Vec<u32>,
    /// Sum of available credits per network output port — kept in sync
    /// with `credits` so the adaptive-routing congestion probe
    /// ([`RouterCore::output_occupancy`]) is O(1) instead of a VC scan.
    port_credits: Vec<u32>,
    /// Round-robin pointer per output port (input selection).
    rr_out: Vec<usize>,
}

impl OutputSide {
    fn new(net_ports: usize, local_ports: usize, vcs: usize, credited: bool) -> Self {
        let out_ports = net_ports + local_ports;
        OutputSide {
            net_ports,
            vcs,
            credited,
            st_flit: vec![FlitRef::INVALID; out_ports],
            st_vc: vec![0; out_ports],
            st_mask: vec![0; out_ports.div_ceil(64)],
            st_live: 0,
            out_pkt: vec![NO_PKT; net_ports * vcs],
            credits: vec![0; net_ports * vcs],
            port_credits: vec![0; net_ports],
            rr_out: vec![0; out_ports],
        }
    }

    #[inline(always)]
    fn st_occupied(&self, port: usize) -> bool {
        self.st_mask[port >> 6] >> (port & 63) & 1 == 1
    }

    /// Whether output resources are available for `(out_port, out_vc)`
    /// for a flit of packet `pkt` (raw id — callers pass the cached
    /// lane value so this check never touches the arena). The CBR
    /// allocator additionally checks its per-cycle output claims; the
    /// edge allocator grants each output at most once by construction.
    #[inline(always)]
    fn ready<F: Fn(usize, usize) -> bool>(
        &self,
        out: RouteDecision,
        pkt: u64,
        link_ready: &F,
    ) -> bool {
        if self.st_occupied(out.port) {
            return false;
        }
        if out.port >= self.net_ports {
            return true; // ejection: node always consumes
        }
        // Wormhole VC allocation.
        let lane = out.port * self.vcs + out.vc;
        let holder = self.out_pkt[lane];
        if holder != NO_PKT && holder != pkt {
            return false;
        }
        if self.credited {
            self.credits[lane] > 0
        } else {
            link_ready(out.port, out.vc)
        }
    }

    /// Books the departure of `flit` through `out`: updates wormhole
    /// state, credits, the hop counter, and the ST register.
    fn commit(&mut self, out: RouteDecision, flit: FlitRef, arena: &mut FlitArena) {
        if out.port < self.net_ports {
            let f = arena.get_mut(flit);
            let lane = out.port * self.vcs + out.vc;
            if f.kind.is_head() {
                debug_assert_ne!(f.packet.0, NO_PKT, "packet id collides with sentinel");
                self.out_pkt[lane] = f.packet.0;
            }
            if f.kind.is_tail() {
                self.out_pkt[lane] = NO_PKT;
            }
            f.hops += 1;
            if self.credited {
                self.credits[lane] -= 1;
                self.port_credits[out.port] -= 1;
            }
        }
        self.st_live += 1;
        self.st_flit[out.port] = flit;
        self.st_vc[out.port] = out.vc as u8;
        self.st_mask[out.port >> 6] |= 1 << (out.port & 63);
    }

    /// Ground-truth credit sum for one port (debug assertions).
    fn credit_scan(&self, out_port: usize) -> usize {
        self.credits[out_port * self.vcs..(out_port + 1) * self.vcs]
            .iter()
            .map(|&c| c as usize)
            .sum()
    }
}

/// Computes the route for a flit at router `id`. With `VALIANT = false`
/// (the [`crate::RoutingKind::Minimal`] specialization) the Valiant
/// intermediate checks compile out and the table lookup skips the
/// intermediate decode entirely.
#[inline]
fn compute_route<const VALIANT: bool>(
    id: RouterId,
    net_ports: usize,
    vcs: usize,
    table: &RoutingTable,
    concentration: usize,
    flit: &Flit,
    in_vc: usize,
) -> RouteDecision {
    let _ = in_vc;
    let at_dst = if VALIANT {
        flit.dst_router == id && (flit.intermediate().is_none() || flit.intermediate_done())
    } else {
        debug_assert!(
            flit.intermediate().is_none(),
            "minimal routing never assigns Valiant intermediates"
        );
        flit.dst_router == id
    };
    if at_dst {
        // Eject to the local node's port.
        let local = flit.dst.index() % concentration;
        RouteDecision {
            port: net_ports + local,
            vc: 0,
        }
    } else if VALIANT {
        table.route(id, flit, in_vc, vcs)
    } else {
        table.route_direct(id, flit, vcs)
    }
}

/// Lazily fills the staged-flit cache for `lane` (packet id, head/tail
/// flags, packet length, and — when no packet route is held — the
/// computed route). No-op when already filled; invalidated by
/// [`CbState::take_stage`] and by delivery into the slot.
#[inline]
#[allow(clippy::too_many_arguments)] // mirrors compute_route's context
fn fill_stage_cache<const VALIANT: bool>(
    cb: &mut CbState,
    lane: usize,
    in_vc: usize,
    id: RouterId,
    net_ports: usize,
    vcs: usize,
    table: &RoutingTable,
    concentration: usize,
    arena: &FlitArena,
) {
    if cb.stage_pkt[lane] != NO_PKT {
        return;
    }
    let f = arena.get(cb.stage_slot[lane]);
    debug_assert_ne!(f.packet.0, NO_PKT, "packet id collides with sentinel");
    cb.stage_pkt[lane] = f.packet.0;
    cb.stage_flags[lane] = u8::from(f.kind.is_head()) | (u8::from(f.kind.is_tail()) << 1);
    cb.stage_plen[lane] = f.packet_len;
    if cb.stage_route_port[lane] == NO_ROUTE {
        let r = compute_route::<VALIANT>(id, net_ports, vcs, table, concentration, f, in_vc);
        cb.stage_cport[lane] = r.port as u16;
        cb.stage_cvc[lane] = r.vc as u8;
    }
}

/// One router instance.
#[derive(Debug, Clone)]
pub(crate) struct RouterCore {
    pub id: RouterId,
    pub net_ports: usize,
    pub local_ports: usize,
    pub vcs: usize,
    /// Whether the configured routing mode can assign Valiant
    /// intermediates — `false` selects the monomorphized minimal-routing
    /// allocation loops.
    valiant: bool,
    arch: ArchState,
    out: OutputSide,
    /// Round-robin pointer per input port (VC selection).
    rr_in: Vec<usize>,
    /// Flits currently inside the router (buffers, staging, CB queues,
    /// ST registers). `0` means the router is idle and the cycle loop
    /// can skip it entirely.
    live_flits: usize,
    /// Whether the cross-cycle nomination cache is enabled: credited
    /// edge-buffer datapath with all net output lanes fitting one
    /// observation word. Pass 1 is a pure function of the port's lanes
    /// and the output resources it examines, so a port's nomination is
    /// reused until one of those inputs changes — at saturation most
    /// ports are blocked on downstream credits and would otherwise
    /// rescan to the identical conclusion every cycle. When disabled,
    /// the `nom_*` arrays below are empty.
    nom_cached: bool,
    /// Nomination cache validity per busy input port (an empty port is
    /// never visited; it refills only through `deliver`, which
    /// invalidates its entry).
    nom_valid: Vec<bool>,
    /// Cached nominated VC per input port (`u16::MAX` = the scan found
    /// nothing to nominate).
    nom_vc: Vec<u16>,
    /// Cached nominated route per input port.
    nom_route_port: Vec<u16>,
    nom_route_vc: Vec<u8>,
    /// Net output lanes (`out_port * vcs + vc` bits) whose credits /
    /// wormhole ownership the cached scan observed — a change to any of
    /// them invalidates the port's cached nomination.
    nom_observed: Vec<u64>,
    /// Reverse index of `nom_observed`: per net output lane, the input
    /// ports (bits) whose cached scan examined it. Keeps invalidation
    /// proportional to the ports a credit/commit actually affects —
    /// quiet lanes cost one load — instead of a loop over every input
    /// port. Bits can be stale toward already-invalid ports (harmless);
    /// a port's bits are rewritten from its forward word when its scan
    /// outcome is re-stored.
    nom_observers: Vec<u64>,
}

/// Resource release information produced by the allocation phase.
/// Owned by the simulator and reused across routers and cycles; `alloc`
/// clears it before filling.
#[derive(Debug, Clone, Default)]
pub(crate) struct AllocResult {
    /// Network input ports whose buffer freed one slot: `(port, vc)` —
    /// the network returns one credit upstream for each.
    pub freed_inputs: Vec<(usize, usize)>,
    /// Injection input ports that freed a slot: `(local_index, vc)`.
    pub freed_injection: Vec<(usize, usize)>,
    /// Number of buffer read+write pairs performed (activity counter).
    pub buffer_accesses: u64,
    /// Number of central-buffer writes (activity counter).
    pub cb_writes: u64,
    /// Number of central-buffer reads (activity counter).
    pub cb_reads: u64,
    /// Flits that took the bypass path this cycle (activity counter).
    pub bypasses: u64,
    /// Successful allocator grants this cycle: edge grants, bypasses,
    /// central-buffer reads and writes (activity counter).
    pub alloc_grants: u64,
    /// Allocation scratch shared by every router the owner drives.
    scratch: AllocScratch,
}

/// Allocation working state reused across routers and cycles, so one
/// hot copy serves every router visit. Between calls `winner` and
/// `best` are all `u32::MAX` and `nominated` is all zero: the edge
/// allocator resets exactly the slots it touched.
#[derive(Debug, Clone, Default)]
struct AllocScratch {
    /// Input nominations `(in_port, in_vc, route)`, in input-port order.
    noms: Vec<(usize, usize, RouteDecision)>,
    /// Winning nomination index per output port (`u32::MAX` = none).
    winner: Vec<u32>,
    /// Winning round-robin priority per output port.
    best: Vec<u32>,
    /// Nominated-output mask words: bit `o` ⇔ output `o` has a winner.
    nominated: Vec<u64>,
    /// CBR per-output claim flags for the current cycle.
    claimed: Vec<bool>,
}

impl AllocResult {
    /// Resets the result for reuse (keeps the Vec capacities).
    pub(crate) fn clear(&mut self) {
        self.freed_inputs.clear();
        self.freed_injection.clear();
        self.buffer_accesses = 0;
        self.cb_writes = 0;
        self.cb_reads = 0;
        self.bypasses = 0;
        self.alloc_grants = 0;
    }
}

impl RouterCore {
    /// Builds a router. `input_capacity[port]` gives the per-VC buffer
    /// capacity of each network input port (RTT-sized buffers differ per
    /// port); injection ports use `inj_capacity`. `valiant` declares
    /// whether the routing mode may assign Valiant intermediates —
    /// `false` (minimal routing) selects the monomorphized allocation
    /// loops with the intermediate checks compiled out.
    #[allow(clippy::too_many_arguments)] // one call site, in network assembly
    pub(crate) fn new(
        id: RouterId,
        net_ports: usize,
        local_ports: usize,
        vcs: usize,
        arch: RouterArch,
        link_mode: LinkMode,
        input_capacity: &[usize],
        inj_capacity: usize,
        valiant: bool,
    ) -> Self {
        assert_eq!(input_capacity.len(), net_ports, "one capacity per port");
        let in_ports = net_ports + local_ports;
        let out_ports = net_ports + local_ports;
        let arch = match arch {
            RouterArch::EdgeBuffer => {
                let mut capacity: Vec<usize> = input_capacity.to_vec();
                capacity.extend(std::iter::repeat_n(inj_capacity, local_ports));
                ArchState::Edge(EdgeLanes::new(in_ports, vcs, &capacity))
            }
            RouterArch::CentralBuffer { cb_flits } => {
                ArchState::Cb(CbState::new(in_ports, out_ports, vcs, cb_flits))
            }
        };
        let nom_cached = matches!(arch, ArchState::Edge(_))
            && link_mode == LinkMode::Credited
            && net_ports * vcs <= 64
            && in_ports <= 64;
        let (nom_ports, nom_lanes) = if nom_cached {
            (in_ports, net_ports * vcs)
        } else {
            (0, 0)
        };
        RouterCore {
            id,
            net_ports,
            local_ports,
            vcs,
            valiant,
            arch,
            out: OutputSide::new(net_ports, local_ports, vcs, link_mode == LinkMode::Credited),
            rr_in: vec![0; in_ports],
            live_flits: 0,
            nom_cached,
            nom_valid: vec![false; nom_ports],
            nom_vc: vec![u16::MAX; nom_ports],
            nom_route_port: vec![NO_ROUTE; nom_ports],
            nom_route_vc: vec![0; nom_ports],
            nom_observed: vec![0; nom_ports],
            nom_observers: vec![0; nom_lanes],
        }
    }

    /// Initializes credit counters for a network output port.
    pub(crate) fn set_credits(&mut self, out_port: usize, per_vc: usize) {
        let per = u32::try_from(per_vc).expect("credit count fits u32");
        let base = out_port * self.vcs;
        for vc in 0..self.vcs {
            self.out.credits[base + vc] = per;
        }
        self.out.port_credits[out_port] = per * self.vcs as u32;
    }

    /// Adds one returned credit.
    pub(crate) fn add_credit(&mut self, out_port: usize, vc: usize) {
        self.out.credits[out_port * self.vcs + vc] += 1;
        self.out.port_credits[out_port] += 1;
        if self.nom_cached {
            let mut m = self.nom_observers[out_port * self.vcs + vc];
            while m != 0 {
                self.nom_valid[m.trailing_zeros() as usize] = false;
                m &= m - 1;
            }
        }
    }

    /// Whether input `port` can accept a flit on `vc` right now.
    pub(crate) fn can_deliver(&self, port: usize, vc: usize) -> bool {
        match &self.arch {
            ArchState::Edge(lanes) => !lanes.is_full(port * self.vcs + vc),
            ArchState::Cb(cb) => cb.stage_occ[port] >> vc & 1 == 0,
        }
    }

    /// Deposits an arriving flit into input `port`, VC `vc`.
    ///
    /// # Panics
    ///
    /// Panics if the input has no space ([`RouterCore::can_deliver`]).
    pub(crate) fn deliver(&mut self, port: usize, vc: usize, flit: FlitRef, arena: &mut FlitArena) {
        // Valiant bookkeeping: reaching the intermediate re-targets the
        // flit at its true destination. Minimal routing never assigns
        // intermediates, so the specialized routers skip the load.
        if self.valiant {
            let f = arena.get_mut(flit);
            if f.intermediate() == Some(self.id) {
                f.mark_intermediate_done();
            }
        }
        self.live_flits += 1;
        if self.nom_cached {
            // A new arrival can change what this port nominates.
            self.nom_valid[port] = false;
        }
        let lane = port * self.vcs + vc;
        match &mut self.arch {
            ArchState::Edge(lanes) => {
                assert!(
                    !lanes.is_full(lane),
                    "input buffer overflow at {} port {port} vc {vc}",
                    self.id
                );
                lanes.push(port, vc, flit);
            }
            ArchState::Cb(cb) => {
                assert!(
                    cb.stage_occ[port] >> vc & 1 == 0,
                    "staging overflow at {} port {port} vc {vc}",
                    self.id
                );
                cb.stage_slot[lane] = flit;
                cb.stage_occ[port] |= 1 << vc;
                cb.stage_pkt[lane] = NO_PKT; // new front: drop the cache
                cb.stage_cport[lane] = NO_ROUTE;
            }
        }
    }

    /// Drains the ST registers into `out` (cleared first): the flits
    /// traversing the switch this cycle, by output port. Takes a caller
    /// scratch buffer so the cycle loop allocates nothing.
    pub(crate) fn drain_st(&mut self, out: &mut Vec<(usize, StFlit)>) {
        out.clear();
        if self.out.st_live == 0 {
            return;
        }
        for port in set_bits(&self.out.st_mask) {
            out.push((
                port,
                StFlit {
                    flit: self.out.st_flit[port],
                    out_vc: self.out.st_vc[port] as usize,
                },
            ));
        }
        self.out.st_mask.fill(0);
        self.live_flits -= out.len();
        self.out.st_live -= out.len();
    }

    /// Whether the router holds no flits at all (nothing to allocate,
    /// no ST traffic) — idle routers are skipped by the cycle loop.
    pub(crate) fn is_idle(&self) -> bool {
        self.live_flits == 0
    }

    /// Occupancy of an output direction (ST register + consumed credits),
    /// used by adaptive routing as the local congestion signal. O(1):
    /// the per-port credit counter replaces the former per-VC rescan.
    pub(crate) fn output_occupancy(&self, out_port: usize, init_credits: usize) -> usize {
        let st = usize::from(self.out.st_occupied(out_port));
        if self.out.credited && out_port < self.net_ports {
            let avail = self.out.port_credits[out_port] as usize;
            debug_assert_eq!(
                avail,
                self.out.credit_scan(out_port),
                "per-port credit counter drifted at {} port {out_port}",
                self.id
            );
            let total = init_credits * self.vcs;
            st + total.saturating_sub(avail)
        } else {
            st
        }
    }

    /// Total flits buffered inside the router (drain detection). O(1):
    /// maintained as a counter by `deliver` / `drain_st`.
    pub(crate) fn buffered_flits(&self) -> usize {
        debug_assert_eq!(
            self.live_flits,
            self.recount_flits(),
            "live-flit counter drifted at {}",
            self.id
        );
        self.live_flits
    }

    /// Slow recount of every flit inside the router — the ground truth
    /// for the `live_flits` counter (debug assertions only).
    fn recount_flits(&self) -> usize {
        let inside: usize = match &self.arch {
            ArchState::Edge(lanes) => lanes.len.iter().map(|&n| n as usize).sum(),
            ArchState::Cb(cb) => {
                let s = cb.stage_slot.iter().filter(|s| s.is_valid()).count();
                let q: usize = cb.queues.iter().map(VecDeque::len).sum();
                s + q
            }
        };
        inside + self.out.st_live
    }

    /// The allocation phase. `link_ready(out_port, vc)` reports whether
    /// the outgoing channel can accept a flit next cycle (elastic mode;
    /// credited mode uses the internal credit counters). `result` is a
    /// caller-owned scratch cleared and refilled here, so the cycle loop
    /// performs no per-router allocation. `arena` resolves the buffered
    /// [`FlitRef`]s (and records the hop on departing flits).
    ///
    /// Generic over the link-readiness predicate (so the network's
    /// closure inlines instead of dispatching through a vtable) and
    /// dispatched onto `VALIANT`-specialized loops per routing mode.
    pub(crate) fn alloc_into<F: Fn(usize, usize) -> bool>(
        &mut self,
        now: u64,
        table: &RoutingTable,
        concentration: usize,
        arena: &mut FlitArena,
        link_ready: &F,
        result: &mut AllocResult,
    ) {
        result.clear();
        match (&self.arch, self.valiant) {
            (ArchState::Edge(_), true) => {
                self.alloc_edge::<true, F>(table, concentration, arena, link_ready, result);
            }
            (ArchState::Edge(_), false) => {
                self.alloc_edge::<false, F>(table, concentration, arena, link_ready, result);
            }
            (ArchState::Cb(_), true) => {
                self.alloc_cb::<true, F>(now, table, concentration, arena, link_ready, result);
            }
            (ArchState::Cb(_), false) => {
                self.alloc_cb::<false, F>(now, table, concentration, arena, link_ready, result);
            }
        }
    }

    /// Allocation returning a fresh result (test convenience).
    #[cfg(test)]
    pub(crate) fn alloc<F: Fn(usize, usize) -> bool>(
        &mut self,
        now: u64,
        table: &RoutingTable,
        concentration: usize,
        arena: &mut FlitArena,
        link_ready: &F,
    ) -> AllocResult {
        let mut result = AllocResult::default();
        self.alloc_into(now, table, concentration, arena, link_ready, &mut result);
        result
    }

    fn alloc_edge<const VALIANT: bool, F: Fn(usize, usize) -> bool>(
        &mut self,
        table: &RoutingTable,
        concentration: usize,
        arena: &mut FlitArena,
        link_ready: &F,
        result: &mut AllocResult,
    ) {
        let id = self.id;
        let net_ports = self.net_ports;
        let vcs = self.vcs;
        let in_ports = net_ports + self.local_ports;
        let out_ports = in_ports;
        let nom_cached = self.nom_cached;
        let AllocScratch {
            noms: nominations,
            winner,
            best,
            nominated,
            ..
        } = &mut result.scratch;
        nominations.clear();
        if winner.len() < out_ports {
            winner.resize(out_ports, u32::MAX);
            best.resize(out_ports, u32::MAX);
        }
        let out_words = out_ports.div_ceil(64);
        if nominated.len() < out_words {
            nominated.resize(out_words, 0);
        }
        let ArchState::Edge(lanes) = &mut self.arch else {
            unreachable!()
        };
        let out = &mut self.out;
        let rr_in = &mut self.rr_in;
        let nom_valid = &mut self.nom_valid;
        let nom_vc = &mut self.nom_vc;
        let nom_route_port = &mut self.nom_route_port;
        let nom_route_vc = &mut self.nom_route_vc;
        let nom_observed = &mut self.nom_observed;
        let nom_observers = &mut self.nom_observers;
        // The nomination cache is sound only when the scan it shortcuts
        // would run against empty ST registers, which is every cycle of
        // the full simulator (drain precedes alloc) but not necessarily
        // a bare unit-test call sequence — so both storing and consuming
        // are gated on the ST being drained right now.
        let cache_on = nom_cached && out.st_live == 0;
        // Records a port's freshly scanned observation word and rewrites
        // its bits in the reverse (per-output-lane) observer index.
        #[inline(always)]
        fn store_observed(
            port: usize,
            observed: u64,
            nom_observed: &mut [u64],
            nom_observers: &mut [u64],
        ) {
            let mut stale = nom_observed[port] & !observed;
            while stale != 0 {
                nom_observers[stale.trailing_zeros() as usize] &= !(1 << port);
                stale &= stale - 1;
            }
            let mut fresh = observed & !nom_observed[port];
            while fresh != 0 {
                nom_observers[fresh.trailing_zeros() as usize] |= 1 << port;
                fresh &= fresh - 1;
            }
            nom_observed[port] = observed;
        }
        // Pass 1 (input arbitration): each busy input port, in ascending
        // order, nominates one VC. The busy-port summary means idle
        // ports are never visited; within a port the occupancy word
        // skips clear bits without touching the ring slab. The front
        // cache makes the steady-state retry of a blocked head a pure
        // lane-array read — the arena load and route computation happen
        // once per front flit, not once per cycle. A valid nomination
        // cache entry replays last cycle's conclusion without any scan:
        // the port's lanes and every output resource the scan examined
        // are unchanged, so the outcome is too.
        for port in set_bits(&lanes.busy) {
            if cache_on && nom_valid[port] {
                let vc = nom_vc[port];
                if vc != u16::MAX {
                    nominations.push((
                        port,
                        vc as usize,
                        RouteDecision {
                            port: nom_route_port[port] as usize,
                            vc: nom_route_vc[port] as usize,
                        },
                    ));
                }
                continue;
            }
            let occ = lanes.occ[port];
            debug_assert_ne!(occ, 0, "busy bit set on idle port {port} at {id}");
            // Net output lanes whose credits / wormhole ownership this
            // scan reads; a later change to any of them voids the cached
            // outcome.
            let mut observed = 0u64;
            let mut nominated_vc = u16::MAX;
            let start = rr_in[port];
            for i in 0..vcs {
                let vc = fast_wrap(start + i, vcs);
                if occ >> vc & 1 == 0 {
                    continue;
                }
                let lane = port * vcs + vc;
                if lanes.front_pkt[lane] == NO_PKT {
                    let head = arena.get(lanes.front(lane));
                    lanes.front_pkt[lane] = head.packet.0;
                    if lanes.route_port[lane] == NO_ROUTE {
                        let r = compute_route::<VALIANT>(
                            id,
                            net_ports,
                            vcs,
                            table,
                            concentration,
                            head,
                            vc,
                        );
                        lanes.front_route_port[lane] = r.port as u16;
                        lanes.front_route_vc[lane] = r.vc as u8;
                    }
                }
                let route = if lanes.route_port[lane] == NO_ROUTE {
                    RouteDecision {
                        port: lanes.front_route_port[lane] as usize,
                        vc: lanes.front_route_vc[lane] as usize,
                    }
                } else {
                    RouteDecision {
                        port: lanes.route_port[lane] as usize,
                        vc: lanes.route_vc[lane] as usize,
                    }
                };
                debug_assert_eq!(
                    lanes
                        .route(lane)
                        .unwrap_or_else(|| compute_route::<VALIANT>(
                            id,
                            net_ports,
                            vcs,
                            table,
                            concentration,
                            arena.get(lanes.front(lane)),
                            vc,
                        )),
                    route,
                    "front route cache drifted at {id} port {port} vc {vc}",
                );
                // Only cached routers fit every net output lane in one
                // observation word.
                if cache_on && route.port < net_ports {
                    observed |= 1 << (route.port * vcs + route.vc);
                }
                if out.ready(route, lanes.front_pkt[lane], link_ready) {
                    nominations.push((port, vc, route));
                    if cache_on {
                        nom_route_port[port] = route.port as u16;
                        nom_route_vc[port] = route.vc as u8;
                    }
                    nominated_vc = vc as u16;
                    break;
                }
            }
            if cache_on {
                nom_valid[port] = true;
                nom_vc[port] = nominated_vc;
                store_observed(port, observed, nom_observed, nom_observers);
            }
        }
        // Pass 2 (output arbitration): pick, per output port, the
        // nomination with the lowest round-robin priority. Priorities
        // are injective per output (distinct input ports map to distinct
        // values mod `out_ports`), so this selects exactly the entry the
        // former stable sort by `(output, priority)` put first — and
        // granting outputs in ascending order reproduces the sorted
        // grant sequence bit-for-bit, without the O(n log n) sort that
        // dominated the saturated-load profile. Only the nominated
        // outputs are visited, through the nominated-output mask.
        for (i, &(port, _, route)) in nominations.iter().enumerate() {
            // `rr_out` entries stay `< out_ports` by construction, so
            // the dividend is `< 2 * out_ports` and the round-robin
            // distance needs no hardware divide.
            let prio = fast_wrap(port + out_ports - out.rr_out[route.port], out_ports) as u32;
            if prio < best[route.port] {
                best[route.port] = prio;
                winner[route.port] = i as u32;
            }
            nominated[route.port >> 6] |= 1 << (route.port & 63);
        }
        for o in set_bits(&nominated[..out_words]) {
            let (port, vc, route) = nominations[winner[o] as usize];
            winner[o] = u32::MAX;
            best[o] = u32::MAX;
            debug_assert!(!out.st_occupied(route.port), "nominated an occupied ST");
            let lane = port * vcs + vc;
            if nom_cached {
                nom_valid[port] = false; // granting pops this port's lane
                if route.port < net_ports {
                    // The commit below consumes a credit (and may transfer
                    // wormhole ownership) on this output lane: every port
                    // whose cached scan examined it must rescan.
                    let mut m = nom_observers[route.port * vcs + route.vc];
                    while m != 0 {
                        nom_valid[m.trailing_zeros() as usize] = false;
                        m &= m - 1;
                    }
                }
            }
            let fr = lanes.pop(port, vc);
            let f = arena.get(fr);
            let kind = f.kind;
            if kind.is_head() {
                lanes.route_port[lane] = route.port as u16;
                lanes.route_vc[lane] = route.vc as u8;
                lanes.route_pkt[lane] = f.packet.0;
            }
            if kind.is_tail() {
                lanes.route_port[lane] = NO_ROUTE;
                lanes.route_pkt[lane] = NO_PKT;
            }
            rr_in[port] = fast_wrap(vc + 1, vcs);
            out.rr_out[route.port] = fast_wrap(port + 1, in_ports);
            result.buffer_accesses += 1;
            result.alloc_grants += 1;
            if port < net_ports {
                result.freed_inputs.push((port, vc));
            } else {
                result.freed_injection.push((port - net_ports, vc));
            }
            out.commit(route, fr, arena);
        }
        nominated[..out_words].fill(0);
    }

    fn alloc_cb<const VALIANT: bool, F: Fn(usize, usize) -> bool>(
        &mut self,
        now: u64,
        table: &RoutingTable,
        concentration: usize,
        arena: &mut FlitArena,
        link_ready: &F,
        result: &mut AllocResult,
    ) {
        let id = self.id;
        let net_ports = self.net_ports;
        let vcs = self.vcs;
        let in_ports = net_ports + self.local_ports;
        let out_ports = in_ports;
        let AllocScratch {
            noms: nominations,
            claimed,
            ..
        } = &mut result.scratch;
        claimed.clear();
        claimed.resize(out_ports, false);
        nominations.clear();
        let ArchState::Cb(cb) = &mut self.arch else {
            unreachable!()
        };
        let out = &mut self.out;
        let rr_in = &mut self.rr_in;

        // Phase A1: the single CB read port serves one eligible flit.
        let start = cb.rr_read;
        'read: for i in 0..out_ports {
            let out_port = fast_wrap(start + i, out_ports);
            let mask = cb.queue_mask[out_port];
            if mask == 0 {
                continue; // no CB flit bound for this output
            }
            for vc in 0..vcs {
                if mask >> vc & 1 == 0 {
                    continue;
                }
                let lane = out_port * vcs + vc;
                let candidate = cb.queues[lane]
                    .front()
                    .filter(|c| c.eligible_at <= now)
                    .map(|c| (c.flit, c.pkt));
                let Some((fr, pkt)) = candidate else { continue };
                let route = RouteDecision { port: out_port, vc };
                if !claimed[out_port] && out.ready(route, pkt, link_ready) {
                    claimed[out_port] = true;
                    cb.queues[lane].pop_front();
                    if cb.queues[lane].is_empty() {
                        cb.queue_mask[out_port] &= !(1 << vc);
                    }
                    cb.free += 1;
                    cb.rr_read = fast_wrap(out_port + 1, out_ports);
                    result.cb_reads += 1;
                    result.alloc_grants += 1;
                    out.commit(route, fr, arena);
                    break 'read;
                }
            }
        }

        // Phase A2: bypass — staging heads go straight for the outputs.
        for (port, &start) in rr_in.iter().enumerate() {
            let occ = cb.stage_occ[port];
            if occ == 0 {
                continue; // empty staging: nothing to bypass
            }
            for i in 0..vcs {
                let vc = fast_wrap(start + i, vcs);
                if occ >> vc & 1 == 0 {
                    continue;
                }
                let lane = port * vcs + vc;
                // A packet committed to the CB keeps using it (atomic CB
                // allocation, §4.3); others try the bypass.
                if cb.stage_mode[lane] == MODE_CENTRAL {
                    continue;
                }
                fill_stage_cache::<VALIANT>(
                    cb,
                    lane,
                    vc,
                    id,
                    net_ports,
                    vcs,
                    table,
                    concentration,
                    arena,
                );
                let route = if cb.stage_route_port[lane] == NO_ROUTE {
                    RouteDecision {
                        port: cb.stage_cport[lane] as usize,
                        vc: cb.stage_cvc[lane] as usize,
                    }
                } else {
                    RouteDecision {
                        port: cb.stage_route_port[lane] as usize,
                        vc: cb.stage_route_vc[lane] as usize,
                    }
                };
                // Ordering: a *head* never bypasses a non-empty CB queue
                // for the same (output, VC) — packets on a VC stay in
                // order. Body flits of an in-flight bypass packet are
                // exempt: they already hold the output VC, and a queued
                // CB packet cannot use it until their tail passes, so
                // blocking them would deadlock the router.
                let queue_blocked = cb.stage_flags[lane] & 1 != 0
                    && route.port < out_ports
                    && cb.queue_mask[route.port] >> route.vc & 1 == 1;
                if !queue_blocked
                    && !claimed[route.port]
                    && out.ready(route, cb.stage_pkt[lane], link_ready)
                {
                    nominations.push((port, vc, route));
                    break;
                }
            }
        }
        for &(port, vc, route) in nominations.iter() {
            if claimed[route.port] || out.st_occupied(route.port) {
                continue;
            }
            claimed[route.port] = true;
            let lane = port * vcs + vc;
            let flags = cb.stage_flags[lane]; // cache filled by phase A2
            let fr = cb.take_stage(lane, port, vc);
            if flags & 1 != 0 {
                cb.stage_route_port[lane] = route.port as u16;
                cb.stage_route_vc[lane] = route.vc as u8;
                cb.stage_mode[lane] = MODE_BYPASS;
            }
            if flags & 2 != 0 {
                cb.stage_route_port[lane] = NO_ROUTE;
                cb.stage_mode[lane] = MODE_NONE;
            }
            rr_in[port] = fast_wrap(vc + 1, vcs);
            result.bypasses += 1;
            result.alloc_grants += 1;
            if port < net_ports {
                result.freed_inputs.push((port, vc));
            } else {
                result.freed_injection.push((port - net_ports, vc));
            }
            out.commit(route, fr, arena);
        }

        // Phase B: the single CB write port admits one flit from staging.
        let start_w = cb.rr_write;
        'write: for i in 0..in_ports {
            let port = fast_wrap(start_w + i, in_ports);
            let occ = cb.stage_occ[port];
            if occ == 0 {
                continue; // empty staging: nothing to admit
            }
            for vc in 0..vcs {
                if occ >> vc & 1 == 0 {
                    continue;
                }
                let lane = port * vcs + vc;
                fill_stage_cache::<VALIANT>(
                    cb,
                    lane,
                    vc,
                    id,
                    net_ports,
                    vcs,
                    table,
                    concentration,
                    arena,
                );
                let route = if cb.stage_route_port[lane] == NO_ROUTE {
                    RouteDecision {
                        port: cb.stage_cport[lane] as usize,
                        vc: cb.stage_cvc[lane] as usize,
                    }
                } else {
                    RouteDecision {
                        port: cb.stage_route_port[lane] as usize,
                        vc: cb.stage_route_vc[lane] as usize,
                    }
                };
                let flags = cb.stage_flags[lane];
                let pkt = cb.stage_pkt[lane];
                let plen = cb.stage_plen[lane] as usize;
                // Heads divert to the CB only if the whole packet fits
                // (atomic allocation) and no other packet is still
                // streaming through the target queue; bodies follow
                // their head.
                let admit = match cb.stage_mode[lane] {
                    MODE_CENTRAL => true,
                    MODE_BYPASS => false,
                    _ => {
                        flags & 1 != 0
                            && cb.free >= plen
                            && route.port < out_ports
                            && cb.open_pkt[route.port * vcs + route.vc] == NO_PKT
                    }
                };
                if !admit || route.port >= out_ports {
                    continue;
                }
                let out_lane = route.port * vcs + route.vc;
                let fr = cb.take_stage(lane, port, vc);
                if flags & 1 != 0 {
                    cb.stage_route_port[lane] = route.port as u16;
                    cb.stage_route_vc[lane] = route.vc as u8;
                    cb.stage_mode[lane] = MODE_CENTRAL;
                    cb.free -= plen;
                    cb.open_pkt[out_lane] = pkt;
                }
                if flags & 2 != 0 {
                    cb.stage_route_port[lane] = NO_ROUTE;
                    cb.stage_mode[lane] = MODE_NONE;
                    cb.open_pkt[out_lane] = NO_PKT;
                }
                // The buffered path adds two cycles over the bypass.
                cb.queues[out_lane].push_back(CbFlit {
                    flit: fr,
                    pkt,
                    eligible_at: now + 2,
                });
                cb.queue_mask[route.port] |= 1 << route.vc;
                cb.rr_write = fast_wrap(port + 1, in_ports);
                result.cb_writes += 1;
                result.alloc_grants += 1;
                if port < net_ports {
                    result.freed_inputs.push((port, vc));
                } else {
                    result.freed_injection.push((port - net_ports, vc));
                }
                break 'write;
            }
        }
    }
}

impl RouterCore {
    /// Verifies every derived SoA structure against its ground truth:
    /// occupancy words vs lane contents, the per-port credit counter vs
    /// a fresh scan, and the ST mask vs the ST-live counter. Used by the
    /// shadow-model property suite; panics on any drift.
    pub(crate) fn verify_soa_invariants(&self) {
        let in_ports = self.net_ports + self.local_ports;
        match &self.arch {
            ArchState::Edge(lanes) => {
                for port in 0..in_ports {
                    let mut word = 0u64;
                    for vc in 0..self.vcs {
                        if lanes.len[port * self.vcs + vc] > 0 {
                            word |= 1 << vc;
                        }
                    }
                    assert_eq!(
                        word, lanes.occ[port],
                        "edge occupancy word drifted at {} port {port}",
                        self.id
                    );
                    assert_eq!(
                        lanes.busy[port >> 6] >> (port & 63) & 1 == 1,
                        lanes.occ[port] != 0,
                        "busy-port summary drifted at {} port {port}",
                        self.id
                    );
                }
                let busy_bits: usize = lanes.busy.iter().map(|w| w.count_ones() as usize).sum();
                let busy_ports = lanes.occ.iter().filter(|&&w| w != 0).count();
                assert_eq!(
                    busy_bits, busy_ports,
                    "busy-port summary has bits past the last port at {}",
                    self.id
                );
                for lane in 0..in_ports * self.vcs {
                    assert!(
                        lanes.front_pkt[lane] == NO_PKT || lanes.len[lane] > 0,
                        "front cache set on empty lane {lane} at {}",
                        self.id
                    );
                    assert_eq!(
                        lanes.route_port[lane] == NO_ROUTE,
                        lanes.route_pkt[lane] == NO_PKT,
                        "route holder drifted at lane {lane} of {}",
                        self.id
                    );
                }
            }
            ArchState::Cb(cb) => {
                for port in 0..in_ports {
                    let mut word = 0u64;
                    for vc in 0..self.vcs {
                        if cb.stage_slot[port * self.vcs + vc].is_valid() {
                            word |= 1 << vc;
                        }
                    }
                    assert_eq!(
                        word, cb.stage_occ[port],
                        "staging occupancy word drifted at {} port {port}",
                        self.id
                    );
                }
                for lane in 0..in_ports * self.vcs {
                    assert!(
                        cb.stage_pkt[lane] == NO_PKT || cb.stage_slot[lane].is_valid(),
                        "stage cache set on empty slot {lane} at {}",
                        self.id
                    );
                }
                for out_port in 0..in_ports {
                    let mut word = 0u64;
                    for vc in 0..self.vcs {
                        if !cb.queues[out_port * self.vcs + vc].is_empty() {
                            word |= 1 << vc;
                        }
                    }
                    assert_eq!(
                        word, cb.queue_mask[out_port],
                        "CB queue mask drifted at {} out port {out_port}",
                        self.id
                    );
                }
            }
        }
        if self.out.credited {
            for port in 0..self.net_ports {
                assert_eq!(
                    self.out.port_credits[port] as usize,
                    self.out.credit_scan(port),
                    "per-port credit counter drifted at {} port {port}",
                    self.id
                );
            }
        }
        let st_count: usize = self
            .out
            .st_mask
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        assert_eq!(
            st_count, self.out.st_live,
            "ST mask/live counter drifted at {}",
            self.id
        );
        assert_eq!(
            self.live_flits,
            self.recount_flits(),
            "live-flit counter drifted at {}",
            self.id
        );
    }

    /// Drops every route-derived cache: the lazily computed front-flit
    /// routes and the cross-cycle nomination cache. Must run on every
    /// router when the routing table is swapped (fault repair) — both
    /// caches embed decisions of the outgoing table.
    pub(crate) fn invalidate_route_caches(&mut self) {
        match &mut self.arch {
            ArchState::Edge(lanes) => {
                lanes.front_pkt.fill(NO_PKT);
                lanes.front_route_port.fill(NO_ROUTE);
            }
            ArchState::Cb(cb) => {
                cb.stage_pkt.fill(NO_PKT);
                cb.stage_cport.fill(NO_ROUTE);
            }
        }
        self.nom_valid.fill(false);
    }

    /// Fault scan: reports the packet id of every wormhole commitment
    /// toward a network output port whose channel `dead_out` declares
    /// dead — held lane routes, occupied ST registers, and output-VC
    /// ownership. Those packets are pinned to the dead channel and must
    /// be dropped whole (wormhole routes never re-route mid-packet).
    pub(crate) fn stuck_packets<F: FnMut(usize) -> bool>(
        &self,
        arena: &FlitArena,
        mut dead_out: F,
        out: &mut Vec<u64>,
    ) {
        let ArchState::Edge(lanes) = &self.arch else {
            unreachable!("fault sweeps run on the edge-buffer datapath only")
        };
        for lane in 0..lanes.route_port.len() {
            let p = lanes.route_port[lane];
            if p != NO_ROUTE && (p as usize) < self.net_ports && dead_out(p as usize) {
                out.push(lanes.route_pkt[lane]);
            }
        }
        for port in 0..self.net_ports {
            if self.out.st_occupied(port) && dead_out(port) {
                out.push(arena.get(self.out.st_flit[port]).packet.0);
            }
        }
        for lane in 0..self.net_ports * self.vcs {
            let holder = self.out.out_pkt[lane];
            if holder != NO_PKT && dead_out(lane / self.vcs) {
                out.push(holder);
            }
        }
    }

    /// Fault scan: visits every flit buffered in this router. ST flits
    /// report the network output port they are about to cross
    /// (`Some(port)`); everything else reports `None`.
    pub(crate) fn scan_flits<V: FnMut(FlitRef, Option<usize>)>(&self, mut visit: V) {
        let ArchState::Edge(lanes) = &self.arch else {
            unreachable!("fault sweeps run on the edge-buffer datapath only")
        };
        for lane in 0..lanes.len.len() {
            for i in 0..u32::from(lanes.len[lane]) {
                let mut pos = u32::from(lanes.head[lane]) + i;
                if pos >= lanes.cap[lane] {
                    pos -= lanes.cap[lane];
                }
                visit(lanes.slots[(lanes.base[lane] + pos) as usize], None);
            }
        }
        for port in 0..self.net_ports + self.local_ports {
            if self.out.st_occupied(port) {
                visit(
                    self.out.st_flit[port],
                    (port < self.net_ports).then_some(port),
                );
            }
        }
    }

    /// Fault sweep: removes every flit whose packet satisfies `drop_pkt`
    /// from the input lanes and ST registers (appending the released
    /// flits to `removed`), and clears the wormhole state — held lane
    /// routes and output-VC ownership — those packets owned. Survivors
    /// keep their order. Credits are *not* touched here: the network
    /// recomputes every alive channel's credit counters from ground
    /// truth after sweeping.
    pub(crate) fn sweep_faults<D: FnMut(u64) -> bool>(
        &mut self,
        arena: &mut FlitArena,
        mut drop_pkt: D,
        removed: &mut Vec<Flit>,
    ) {
        let vcs = self.vcs;
        let net_ports = self.net_ports;
        let ArchState::Edge(lanes) = &mut self.arch else {
            unreachable!("fault sweeps run on the edge-buffer datapath only")
        };
        let mut dropped_here = 0usize;
        let mut kept: Vec<FlitRef> = Vec::new();
        for lane in 0..lanes.len.len() {
            let (port, vc) = (lane / vcs, lane % vcs);
            let n = lanes.len[lane];
            if n > 0 {
                kept.clear();
                for _ in 0..n {
                    let fr = lanes.pop(port, vc);
                    if drop_pkt(arena.get(fr).packet.0) {
                        removed.push(arena.remove(fr));
                        dropped_here += 1;
                    } else {
                        kept.push(fr);
                    }
                }
                for &fr in &kept {
                    lanes.push(port, vc, fr);
                }
            }
            if lanes.route_port[lane] != NO_ROUTE && drop_pkt(lanes.route_pkt[lane]) {
                lanes.route_port[lane] = NO_ROUTE;
                lanes.route_pkt[lane] = NO_PKT;
            }
        }
        for port in 0..net_ports + self.local_ports {
            if self.out.st_occupied(port) {
                let fr = self.out.st_flit[port];
                if drop_pkt(arena.get(fr).packet.0) {
                    removed.push(arena.remove(fr));
                    self.out.st_flit[port] = FlitRef::INVALID;
                    self.out.st_mask[port >> 6] &= !(1 << (port & 63));
                    self.out.st_live -= 1;
                    dropped_here += 1;
                }
            }
        }
        for lane in 0..net_ports * vcs {
            if self.out.out_pkt[lane] != NO_PKT && drop_pkt(self.out.out_pkt[lane]) {
                self.out.out_pkt[lane] = NO_PKT;
            }
        }
        self.live_flits -= dropped_here;
    }

    /// Fault support: overwrites one output lane's credit counter with a
    /// ground-truth recount, keeping the per-port sum in sync. Callers
    /// must invalidate the nomination cache afterwards
    /// ([`RouterCore::invalidate_route_caches`]).
    pub(crate) fn set_lane_credits(&mut self, out_port: usize, vc: usize, value: usize) {
        let lane = out_port * self.vcs + vc;
        let old = self.out.credits[lane];
        let new = u32::try_from(value).expect("credit count fits u32");
        self.out.credits[lane] = new;
        self.out.port_credits[out_port] = self.out.port_credits[out_port] - old + new;
    }

    /// Whether the ST register of `out_port` holds a flit bound for
    /// output VC `vc` — that flit has already consumed a credit, so the
    /// fault-time credit recount must account for it.
    pub(crate) fn st_holds(&self, out_port: usize, vc: usize) -> bool {
        self.out.st_occupied(out_port) && self.out.st_vc[out_port] as usize == vc
    }

    /// Flits buffered in one edge input lane (harness introspection).
    pub(crate) fn lane_len(&self, port: usize, vc: usize) -> usize {
        match &self.arch {
            ArchState::Edge(lanes) => lanes.len[port * self.vcs + vc] as usize,
            ArchState::Cb(cb) => usize::from(cb.stage_slot[port * self.vcs + vc].is_valid()),
        }
    }

    /// The raw occupancy word of one input port (harness introspection).
    pub(crate) fn occupancy_word(&self, port: usize) -> u64 {
        match &self.arch {
            ArchState::Edge(lanes) => lanes.occ[port],
            ArchState::Cb(cb) => cb.stage_occ[port],
        }
    }

    /// Available credits on one output lane (harness introspection).
    pub(crate) fn credit(&self, out_port: usize, vc: usize) -> usize {
        self.out.credits[out_port * self.vcs + vc] as usize
    }

    /// The per-port available-credit counter (harness introspection).
    pub(crate) fn port_credits(&self, out_port: usize) -> usize {
        self.out.port_credits[out_port] as usize
    }

    /// Occupied ST registers (harness introspection).
    pub(crate) fn st_count(&self) -> usize {
        self.out.st_live
    }

    /// Debug helper: per-structure flit locations.
    #[doc(hidden)]
    pub(crate) fn debug_detail(&self, arena: &FlitArena) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let in_ports = self.net_ports + self.local_ports;
        match &self.arch {
            ArchState::Edge(lanes) => {
                for p in 0..in_ports {
                    for v in 0..self.vcs {
                        let lane = p * self.vcs + v;
                        if lanes.len[lane] > 0 {
                            let f = arena.get(lanes.front(lane));
                            let _ = write!(
                                out,
                                "in[{p}][{v}]={} (head {:?} route {:?}) ",
                                lanes.len[lane],
                                (f.packet, f.kind),
                                lanes.route(lane)
                            );
                        }
                    }
                }
            }
            ArchState::Cb(cb) => {
                let _ = write!(out, "cb_free={} ", cb.free);
                for p in 0..in_ports {
                    for v in 0..self.vcs {
                        let lane = p * self.vcs + v;
                        if cb.stage_slot[lane].is_valid() {
                            let f = arena.get(cb.stage_slot[lane]);
                            let _ = write!(
                                out,
                                "stage[{p}][{v}]={:?}/{:?} mode {} route {:?} ",
                                f.packet,
                                f.kind,
                                cb.stage_mode[lane],
                                cb.stage_route(lane)
                            );
                        }
                    }
                }
                for o in 0..in_ports {
                    for v in 0..self.vcs {
                        let lane = o * self.vcs + v;
                        if !cb.queues[lane].is_empty() {
                            let _ = write!(
                                out,
                                "cbq[{o}][{v}]={} head={:?} ",
                                cb.queues[lane].len(),
                                cb.queues[lane].front().map(|c| {
                                    let f = arena.get(c.flit);
                                    (f.packet, f.kind)
                                })
                            );
                        }
                    }
                }
            }
        }
        for o in 0..in_ports {
            if self.out.st_occupied(o) {
                let _ = write!(out, "st[{o}]={:?} ", arena.get(self.out.st_flit[o]).packet);
            }
        }
        for o in 0..self.net_ports {
            for v in 0..self.vcs {
                let p = self.out.out_pkt[o * self.vcs + v];
                if p != NO_PKT {
                    let _ = write!(out, "outpkt[{o}][{v}]=p{p} ");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitKind, PacketId};
    use snoc_topology::{NodeId, Topology};

    fn table() -> (Topology, RoutingTable) {
        let t = Topology::mesh(3, 1, 1);
        let table = RoutingTable::minimal(&t);
        (t, table)
    }

    fn head_to(dst_router: usize, len: u32) -> Flit {
        Flit::packet(
            PacketId(1),
            NodeId(0),
            NodeId(dst_router),
            RouterId(dst_router),
            len,
            0,
            true,
            false,
        )[0]
    }

    fn edge_router(net_ports: usize) -> RouterCore {
        let caps = vec![5; net_ports];
        let mut r = RouterCore::new(
            RouterId(0),
            net_ports,
            1,
            2,
            RouterArch::EdgeBuffer,
            LinkMode::Credited,
            &caps,
            20,
            true,
        );
        for p in 0..net_ports {
            r.set_credits(p, 5);
        }
        r
    }

    /// Drains the ST registers through the scratch-buffer path (the same
    /// path the cycle loop uses).
    fn take_st(r: &mut RouterCore) -> Vec<(usize, StFlit)> {
        let mut out = Vec::new();
        r.drain_st(&mut out);
        out
    }

    #[test]
    fn edge_router_two_cycle_path() {
        // Router 0 of a 3x1 mesh: one network port (to router 1).
        let (_t, table) = table();
        let mut arena = FlitArena::default();
        let mut r = edge_router(1);
        let f = arena.insert(head_to(2, 1));
        // Inject via the local port.
        r.deliver(1, 0, f, &mut arena);
        let res = r.alloc(0, &table, 1, &mut arena, &|_, _| true);
        assert_eq!(res.freed_injection.len(), 1);
        let st = take_st(&mut r);
        assert_eq!(st.len(), 1);
        assert_eq!(st[0].0, 0, "departs through the network port");
        assert_eq!(arena.get(st[0].1.flit).hops, 1, "hop counted at departure");
    }

    #[test]
    fn edge_router_respects_credits() {
        let (_t, table) = table();
        let mut arena = FlitArena::default();
        let mut r = edge_router(1);
        r.set_credits(0, 0); // no downstream space
        let f = arena.insert(head_to(2, 1));
        r.deliver(1, 0, f, &mut arena);
        let res = r.alloc(0, &table, 1, &mut arena, &|_, _| true);
        assert!(res.freed_injection.is_empty(), "blocked without credits");
        assert!(take_st(&mut r).is_empty());
        r.add_credit(0, 0);
        let res = r.alloc(1, &table, 1, &mut arena, &|_, _| true);
        assert_eq!(res.freed_injection.len(), 1);
    }

    #[test]
    fn edge_router_ejects_local_traffic() {
        let (_t, table) = table();
        let mut arena = FlitArena::default();
        let mut r = edge_router(1);
        // Destination is router 0 itself -> ejection port (index 1).
        let f = arena.insert(head_to(0, 1));
        r.deliver(0, 0, f, &mut arena);
        let res = r.alloc(0, &table, 1, &mut arena, &|_, _| true);
        assert_eq!(res.freed_inputs, vec![(0, 0)]);
        let st = take_st(&mut r);
        assert_eq!(st[0].0, 1, "ejection port");
        assert_eq!(
            arena.get(st[0].1.flit).hops,
            0,
            "ejection is not a network hop"
        );
    }

    #[test]
    fn wormhole_blocks_interleaving_on_same_vc() {
        let (_t, table) = table();
        let mut arena = FlitArena::default();
        let mut r = edge_router(1);
        // Two packets on different input ports, both to router 2, VC0.
        let a = Flit::packet(
            PacketId(7),
            NodeId(0),
            NodeId(2),
            RouterId(2),
            2,
            0,
            true,
            false,
        );
        let b = Flit::packet(
            PacketId(8),
            NodeId(0),
            NodeId(2),
            RouterId(2),
            2,
            0,
            true,
            false,
        );
        let a0 = arena.insert(a[0]);
        let a1 = arena.insert(a[1]);
        let b0 = arena.insert(b[0]);
        r.deliver(1, 0, a0, &mut arena);
        r.deliver(1, 1, b0, &mut arena); // other VC of the injection port
                                         // Head A wins the output VC0; head B (routed to VC0 as well,
                                         // hops = 0) must wait until A's tail passes.
        let _ = r.alloc(0, &table, 1, &mut arena, &|_, _| true);
        let st = take_st(&mut r);
        assert_eq!(st.len(), 1);
        assert_eq!(arena.get(st[0].1.flit).packet, PacketId(7));
        // B still blocked: output VC0 held by packet 7.
        r.deliver(1, 0, a1, &mut arena); // A's tail
        let _ = r.alloc(1, &table, 1, &mut arena, &|_, _| true);
        let st = take_st(&mut r);
        assert_eq!(st.len(), 1);
        assert_eq!(arena.get(st[0].1.flit).packet, PacketId(7), "tail first");
        // Tail released the VC: B may now go.
        let _ = r.alloc(2, &table, 1, &mut arena, &|_, _| true);
        let st = take_st(&mut r);
        assert_eq!(arena.get(st[0].1.flit).packet, PacketId(8));
    }

    fn cb_router(net_ports: usize, cb: usize) -> RouterCore {
        let caps = vec![1; net_ports];
        RouterCore::new(
            RouterId(0),
            net_ports,
            1,
            2,
            RouterArch::CentralBuffer { cb_flits: cb },
            LinkMode::Elastic,
            &caps,
            20,
            true,
        )
    }

    #[test]
    fn cbr_bypass_is_fast_path() {
        let (_t, table) = table();
        let mut arena = FlitArena::default();
        let mut r = cb_router(1, 20);
        let f = arena.insert(head_to(2, 1));
        r.deliver(1, 0, f, &mut arena);
        let res = r.alloc(0, &table, 1, &mut arena, &|_, _| true);
        assert_eq!(res.bypasses, 1);
        assert_eq!(res.cb_writes, 0);
        assert_eq!(take_st(&mut r).len(), 1);
    }

    #[test]
    fn cbr_conflict_diverts_to_central_buffer() {
        let (_t, table) = table();
        let mut arena = FlitArena::default();
        let mut r = cb_router(1, 20);
        // Two single-flit packets racing for the same output.
        let f = arena.insert(head_to(2, 1));
        r.deliver(1, 0, f, &mut arena);
        let mut other = head_to(2, 1);
        other.packet = PacketId(9);
        let other = arena.insert(other);
        r.deliver(0, 0, other, &mut arena);
        let res = r.alloc(0, &table, 1, &mut arena, &|_, _| true);
        // One bypasses; the other is written into the CB.
        assert_eq!(res.bypasses, 1);
        assert_eq!(res.cb_writes, 1);
        assert_eq!(take_st(&mut r).len(), 1);
        // The CB flit becomes eligible two cycles later (4-cycle path).
        let res = r.alloc(1, &table, 1, &mut arena, &|_, _| true);
        assert_eq!(res.cb_reads, 0, "not yet eligible");
        let res = r.alloc(2, &table, 1, &mut arena, &|_, _| true);
        assert_eq!(res.cb_reads, 1);
        assert_eq!(take_st(&mut r).len(), 1);
    }

    #[test]
    fn cbr_atomic_allocation_requires_full_packet_space() {
        let (_t, table) = table();
        let mut arena = FlitArena::default();
        let mut r = cb_router(1, 6);
        // Fill the output so the bypass fails, with a 6-flit packet
        // already reserving the whole CB.
        let p1 = Flit::packet(
            PacketId(1),
            NodeId(0),
            NodeId(2),
            RouterId(2),
            6,
            0,
            true,
            false,
        );
        let p1_head = arena.insert(p1[0]);
        r.deliver(1, 0, p1_head, &mut arena);
        let mut blocker = head_to(2, 1);
        blocker.packet = PacketId(2);
        let blocker = arena.insert(blocker);
        r.deliver(0, 0, blocker, &mut arena);
        let res = r.alloc(0, &table, 1, &mut arena, &|_, _| true);
        // Blocker (or p1) bypasses; the other head wants the CB. The
        // 6-flit head reserves all 6 slots; a later head must stall.
        assert_eq!(res.bypasses + res.cb_writes, 2);
        let mut third = head_to(2, 2);
        third.packet = PacketId(3);
        third.kind = FlitKind::Head;
        third.packet_len = 2;
        let third = arena.insert(third);
        r.deliver(0, 0, third, &mut arena);
        let res = r.alloc(1, &table, 1, &mut arena, &|_, _| false);
        // Output refuses (link not ready) and the CB is fully reserved:
        // the third head can neither bypass nor enter the CB.
        assert_eq!(res.bypasses, 0);
        assert_eq!(res.cb_writes, 0);
    }

    #[test]
    fn buffered_flit_accounting() {
        let (_t, table) = table();
        let mut arena = FlitArena::default();
        let mut r = edge_router(1);
        assert_eq!(r.buffered_flits(), 0);
        let f = arena.insert(head_to(2, 1));
        r.deliver(1, 0, f, &mut arena);
        assert_eq!(r.buffered_flits(), 1);
        let _ = r.alloc(0, &table, 1, &mut arena, &|_, _| true);
        assert_eq!(r.buffered_flits(), 1, "now in the ST register");
        let _ = take_st(&mut r);
        assert_eq!(r.buffered_flits(), 0);
    }

    #[test]
    fn ring_lane_wraps_and_tracks_occupancy() {
        // Push/pop more flits through one lane than its capacity so the
        // ring head wraps; FIFO order and the occupancy word must hold.
        let (_t, table) = table();
        let mut arena = FlitArena::default();
        let mut r = edge_router(1);
        for round in 0..4u64 {
            // Fill the injection lane (capacity 20 is plenty; use 3).
            let refs: Vec<FlitRef> = (0..3)
                .map(|i| {
                    let mut f = head_to(2, 1);
                    f.packet = PacketId(round * 3 + i + 1);
                    arena.insert(f)
                })
                .collect();
            for &fr in &refs {
                r.deliver(1, 0, fr, &mut arena);
            }
            r.verify_soa_invariants();
            assert_eq!(r.occupancy_word(1) & 1, 1);
            for &fr in &refs {
                let _ = r.alloc(round, &table, 1, &mut arena, &|_, _| true);
                let st = take_st(&mut r);
                assert_eq!(st.len(), 1, "one grant per cycle");
                assert_eq!(st[0].1.flit, fr, "FIFO order across ring wraps");
                // Return the consumed credit so later rounds never stall.
                r.add_credit(st[0].0, st[0].1.out_vc);
            }
            assert_eq!(r.occupancy_word(1), 0, "lane emptied, bit cleared");
            r.verify_soa_invariants();
        }
    }

    #[test]
    fn port_credit_counter_tracks_scan() {
        let (_t, table) = table();
        let mut arena = FlitArena::default();
        let mut r = edge_router(1);
        assert_eq!(r.port_credits(0), 10, "5 credits x 2 VCs");
        let f = arena.insert(head_to(2, 1));
        r.deliver(1, 0, f, &mut arena);
        let _ = r.alloc(0, &table, 1, &mut arena, &|_, _| true);
        assert_eq!(r.port_credits(0), 9, "departure consumed one credit");
        assert_eq!(r.output_occupancy(0, 5), 2, "ST flit + consumed credit");
        r.add_credit(0, 0);
        assert_eq!(r.port_credits(0), 10);
        r.verify_soa_invariants();
    }

    #[test]
    fn minimal_specialization_matches_generic_path() {
        // The same delivery/alloc sequence through the VALIANT=true and
        // VALIANT=false instantiations must be bit-identical when no
        // intermediates are assigned (minimal routing).
        let (_t, table) = table();
        let run = |valiant: bool| -> Vec<(usize, usize, u16)> {
            let mut arena = FlitArena::default();
            let caps = vec![5; 1];
            let mut r = RouterCore::new(
                RouterId(0),
                1,
                1,
                2,
                RouterArch::EdgeBuffer,
                LinkMode::Credited,
                &caps,
                20,
                valiant,
            );
            r.set_credits(0, 5);
            let mut log = Vec::new();
            for i in 0..6u64 {
                let mut f = head_to(if i % 2 == 0 { 2 } else { 0 }, 1);
                f.packet = PacketId(i + 1);
                let fr = arena.insert(f);
                r.deliver(
                    if i % 2 == 0 { 1 } else { 0 },
                    (i % 2) as usize,
                    fr,
                    &mut arena,
                );
                let _ = r.alloc(i, &table, 1, &mut arena, &|_, _| true);
                let mut st = Vec::new();
                r.drain_st(&mut st);
                for (port, stf) in st {
                    log.push((port, stf.out_vc, arena.get(stf.flit).hops));
                }
            }
            log
        };
        assert_eq!(run(true), run(false));
    }
}
