//! Shadow-model property suite for the struct-of-arrays router
//! datapath.
//!
//! Each case drives a single [`RouterHarness`] router (the center of a
//! 3x3 mesh, or a 70-port folded-Clos spine whose busy-port summary
//! spans two words and whose nomination cache is off) through a random
//! deliver/alloc/drain/credit sequence and
//! checks the SoA hot state — per-lane ring lengths, occupancy bitmask
//! words, per-VC and per-port credit counters, ST registers, the
//! live-flit counter — against a naive shadow model that tracks the
//! same quantities with plain nested vectors. After every operation the
//! router additionally audits its own derived structures against a
//! fresh recount (`verify_invariants`).
//!
//! Honors `PROPTEST_CASES` for deep-soak runs (see the vendored
//! proptest's `ProptestConfig::effective_cases`).

use proptest::prelude::*;
use snoc_sim::soa_harness::{HarnessArch, RouterHarness};

/// Deterministic per-case operation stream (SplitMix64), seeded from a
/// proptest-drawn value so each case replays identically.
struct OpRng(u64);

impl OpRng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The router under test: the 3x3-mesh center or, when `wide`, the
/// 70-port folded-Clos spine.
fn harness(
    wide: bool,
    vcs: usize,
    capacity: usize,
    arch: HarnessArch,
    credited: bool,
) -> RouterHarness {
    if wide {
        RouterHarness::spine_of_clos(vcs, capacity, arch, credited)
    } else {
        RouterHarness::center_of_mesh(vcs, capacity, arch, credited)
    }
}

/// Naive mirror of the edge router's hot state.
struct EdgeShadow {
    /// Flits queued per input lane `[port][vc]`.
    lane: Vec<Vec<usize>>,
    /// Available credits per output lane `[port][vc]` (credited mode).
    credit: Vec<Vec<usize>>,
    /// Credits consumed downstream but not yet returned `[port][vc]`.
    owed: Vec<Vec<usize>>,
    /// Flits sitting in ST registers (granted, not yet drained).
    st: usize,
    /// Flits accepted minus flits drained.
    inside: usize,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The edge datapath agrees with the shadow model after every
    /// operation of a random deliver/alloc/drain/credit schedule.
    #[test]
    fn edge_router_matches_shadow_model(
        seed in 0u64..=u64::MAX,
        vcs in prop::sample::select(vec![1usize, 2, 4]),
        capacity in 1usize..5,
        credited in prop::sample::select(vec![true, false]),
        steps in 40usize..140,
        wide in prop::sample::select(vec![false, true]),
    ) {
        let mut h = harness(wide, vcs, capacity, HarnessArch::Edge, credited);
        let in_ports = h.in_ports();
        let net_ports = h.net_ports();
        let nodes = h.node_count();
        let mut rng = OpRng(seed);
        let mut s = EdgeShadow {
            lane: vec![vec![0; vcs]; in_ports],
            credit: vec![vec![capacity; vcs]; net_ports],
            owed: vec![vec![0; vcs]; net_ports],
            st: 0,
            inside: 0,
        };
        let mut now = 0u64;
        for _ in 0..steps {
            match rng.below(8) {
                // Deliver a fresh single-flit packet into a random lane.
                0..=3 => {
                    let port = rng.below(in_ports);
                    let vc = rng.below(vcs);
                    let dst = rng.below(nodes);
                    let accepted = h.try_deliver(port, vc, dst);
                    prop_assert_eq!(
                        accepted,
                        s.lane[port][vc] < capacity,
                        "acceptance at port {} vc {} disagrees with shadow depth {}",
                        port, vc, s.lane[port][vc],
                    );
                    if accepted {
                        s.lane[port][vc] += 1;
                        s.inside += 1;
                    }
                }
                // One allocation cycle; grants move lane flits into ST.
                4 | 5 => {
                    let summary = h.alloc(now);
                    now += 1;
                    prop_assert_eq!(
                        summary.grants as usize,
                        summary.freed_inputs.len() + summary.freed_injection.len(),
                        "every edge grant frees exactly one lane slot",
                    );
                    for &(p, v) in &summary.freed_inputs {
                        prop_assert!(s.lane[p][v] > 0, "freed an empty lane {p}/{v}");
                        s.lane[p][v] -= 1;
                    }
                    for &(l, v) in &summary.freed_injection {
                        let p = net_ports + l;
                        prop_assert!(s.lane[p][v] > 0, "freed an empty injection lane {l}/{v}");
                        s.lane[p][v] -= 1;
                    }
                    s.st += summary.grants as usize;
                }
                // Drain the crossbar: flits leave the router; net-port
                // departures consumed one downstream credit at commit.
                6 => {
                    for (p, v) in h.drain() {
                        s.st -= 1;
                        s.inside -= 1;
                        if credited && p < net_ports {
                            prop_assert!(s.credit[p][v] > 0, "over-consumed credit {p}/{v}");
                            s.credit[p][v] -= 1;
                            s.owed[p][v] += 1;
                        }
                    }
                }
                // Return one owed credit (what the downstream channel
                // does when the flit vacates its buffer slot).
                _ => {
                    if credited {
                        let start = rng.below(net_ports * vcs);
                        for i in 0..net_ports * vcs {
                            let lane = (start + i) % (net_ports * vcs);
                            let (p, v) = (lane / vcs, lane % vcs);
                            if s.owed[p][v] > 0 {
                                h.add_credit(p, v);
                                s.owed[p][v] -= 1;
                                s.credit[p][v] += 1;
                                break;
                            }
                        }
                    }
                }
            }
            // Audit the router's own derived structures, then every
            // externally visible SoA quantity against the shadow.
            h.verify_invariants();
            for port in 0..in_ports {
                let mut word = 0u64;
                for vc in 0..vcs {
                    prop_assert_eq!(h.lane_len(port, vc), s.lane[port][vc]);
                    if s.lane[port][vc] > 0 {
                        word |= 1 << vc;
                    }
                }
                prop_assert_eq!(h.occupancy_word(port), word);
            }
            prop_assert_eq!(h.st_count(), s.st);
            prop_assert_eq!(h.buffered_flits(), s.inside);
            // Credits are consumed at commit time but the shadow models
            // them at drain time, so they only agree while no committed
            // flit is waiting in an ST register.
            if credited && s.st == 0 {
                for p in 0..net_ports {
                    let mut sum = 0;
                    for v in 0..vcs {
                        prop_assert_eq!(h.credit(p, v), s.credit[p][v]);
                        sum += s.credit[p][v];
                    }
                    prop_assert_eq!(h.port_credits(p), sum);
                    prop_assert_eq!(
                        h.output_occupancy(p, capacity),
                        capacity * vcs - sum,
                        "O(1) occupancy probe disagrees at port {}",
                        p,
                    );
                }
            }
        }
    }

    /// The central-buffer datapath conserves flits and keeps its derived
    /// structures (staging occupancy words, credit counters, ST mask)
    /// consistent under the same random schedules. The CB's internal
    /// queue moves are not shadowed flit-by-flit — `verify_invariants`
    /// audits those — but acceptance, conservation, and drain
    /// bookkeeping are.
    #[test]
    fn cb_router_conserves_flits(
        seed in 0u64..=u64::MAX,
        vcs in prop::sample::select(vec![1usize, 2]),
        capacity in 1usize..4,
        cb_flits in prop::sample::select(vec![4usize, 8, 16]),
        steps in 40usize..140,
        wide in prop::sample::select(vec![false, true]),
    ) {
        let mut h = harness(wide, vcs, capacity, HarnessArch::Cb { cb_flits }, true);
        let in_ports = h.in_ports();
        let nodes = h.node_count();
        let mut rng = OpRng(seed);
        // Staging slots are 0/1-deep; the CB behind them is opaque here.
        let mut staged = vec![vec![false; vcs]; in_ports];
        let mut inside = 0usize;
        let mut st = 0usize;
        let mut now = 0u64;
        for _ in 0..steps {
            match rng.below(8) {
                0..=3 => {
                    let port = rng.below(in_ports);
                    let vc = rng.below(vcs);
                    let accepted = h.try_deliver(port, vc, rng.below(nodes));
                    prop_assert_eq!(
                        accepted,
                        !staged[port][vc],
                        "staging acceptance at {}/{} disagrees",
                        port, vc,
                    );
                    if accepted {
                        staged[port][vc] = true;
                        inside += 1;
                    }
                }
                4 | 5 => {
                    let summary = h.alloc(now);
                    now += 1;
                    // Bypasses and CB reads enter the ST registers; CB
                    // writes only move staging flits into the queue, so
                    // the grant total is the sum of all three paths.
                    prop_assert_eq!(
                        summary.grants,
                        summary.bypasses + summary.cb_reads + summary.cb_writes,
                        "CB grant accounting drifted",
                    );
                    st += (summary.bypasses + summary.cb_reads) as usize;
                    // Resync staging occupancy from the router: bypass
                    // and CB-write vacate slots, which the shadow cannot
                    // predict without reimplementing the allocator.
                    for (port, row) in staged.iter_mut().enumerate() {
                        for (vc, slot) in row.iter_mut().enumerate() {
                            *slot = h.lane_len(port, vc) > 0;
                        }
                    }
                }
                6 => {
                    let drained = h.drain();
                    st -= drained.len();
                    inside -= drained.len();
                }
                _ => {
                    // CBR output credits: return one to a random lane
                    // only if the router is below its initial level —
                    // tracked via the introspected credit itself.
                    let p = rng.below(h.net_ports());
                    let v = rng.below(vcs);
                    if h.credit(p, v) < capacity {
                        h.add_credit(p, v);
                    }
                }
            }
            h.verify_invariants();
            for (port, row) in staged.iter().enumerate() {
                let mut word = 0u64;
                for (vc, &slot) in row.iter().enumerate() {
                    prop_assert_eq!(h.lane_len(port, vc), usize::from(slot));
                    if slot {
                        word |= 1 << vc;
                    }
                }
                prop_assert_eq!(h.occupancy_word(port), word);
            }
            prop_assert_eq!(h.st_count(), st);
            prop_assert_eq!(h.buffered_flits(), inside);
        }
    }
}
