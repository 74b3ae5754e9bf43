//! Routing: deterministic minimal tables with hop-indexed VCs,
//! dimension-order routing with dateline VCs for meshes and tori, and
//! deadlock-free up*/down* repair tables for degraded (post-fault)
//! networks.
//!
//! The paper uses static minimum routing computed with Dijkstra (§5.1);
//! on unit-weight router graphs BFS yields identical paths.
//!
//! # Building minimal tables
//!
//! [`RoutingTable::minimal`] fills two `N_r × N_r` matrices (distance
//! and next port) along one of three paths:
//!
//! - **Mesh and torus**: one BFS per router for distances, then the
//!   dimension-order next hop of every pair.
//! - **Two-hop mask pass** (every other topology, tried first): per
//!   router, each port is scattered into a bitset per destination for
//!   every neighbor of that port's neighbor — O(deg²) per row — and
//!   each entry is then one count lookup and one bit select. It covers
//!   every diameter-2 graph: Slim NoC, Flattened Butterfly, two-level
//!   folded Clos. `slim_noc(47, 24)` (4418 routers, 71 ports, 19.5M
//!   entries) builds in ≈0.15 s on 2 cores.
//! - **BFS plus scan** (the general-graph fallback): taken when the
//!   mask pass meets a destination beyond two hops (Dragonfly,
//!   partitioned FBF). One BFS per router fills its distance row, then
//!   every pair scans `cur`'s ports twice — O(N_r²·deg) in all, 6–8 s
//!   on one core for `slim_noc(47, 24)`.
//!
//! Both table paths pick among the minimal next hops in ascending port
//! order with the `(cur·31 + dst·17) mod candidates` tie-break, so on a
//! diameter-2 graph they produce the same bytes. Rows are split across
//! threads only for tables of at least 512 routers; the result does not
//! depend on the split.
//!
//! # Deadlock freedom, per table kind
//!
//! The guarantee differs by strategy — the honest contract, checkable
//! with [`crate::verify_deadlock_free`]:
//!
//! - **Mesh (dimension-order)**: deadlock-free at any VC count. DOR
//!   permits no turn from Y back into X, which leaves the channel
//!   dependency graph acyclic on every VC separately.
//! - **Torus (dimension-order + dateline VCs)**: deadlock-free at
//!   `|VC| ≥ 2`. Hop-indexed VCs cannot cut a ring cycle, so the VC is
//!   taken from the precomputed dateline table instead (VC0 before the
//!   wrap edge, VC1 after), independent of the hop count.
//! - **Irregular minimal tables** (Slim NoC, Dragonfly, FBF, …): the
//!   paper's §4.3 scheme — a packet on hop `h` uses VC `min(h,
//!   |VC|−1)`, so VC dependencies only increase and cannot cycle — is
//!   valid **only while `|VC|` is at least the maximal hop count**.
//!   The clamp at `|VC|−1` merges all later hops onto the top VC, so
//!   the guarantee is conditional on the configuration, not absolute;
//!   the shipped configs keep `|VC|` at the fault-free diameter or
//!   above. It also only covers freshly injected traffic (hop counters
//!   start at 0): [`crate::verify_deadlock_free`] additionally models
//!   packets mid-flight with accumulated hops — which saturate the
//!   clamp — and irregular minimal tables fail that stricter model at
//!   any VC count. Only hop-offset-robust schemes (mesh DOR, torus
//!   datelines, up*/down*) pass it, which is why fault repair never
//!   reuses the hop-indexed scheme.
//! - **Degraded tables** ([`RoutingTable::degraded`]): deterministic
//!   **up*/down*** routing over the surviving graph — deadlock-free on
//!   arbitrary connected subgraphs with *any* VC count and no
//!   dependence on path length, which is exactly what fault repair
//!   needs (post-fault paths can far exceed the fault-free diameter).
//!   Debug builds re-verify every swapped-in degraded table with the
//!   CDG checker.
//!
//! All strategies are fully precomputed at construction time: `route`
//! is two flat-array loads (`next_port[cur * nr + dst]` plus the VC
//! table or the hop counter), so the per-flit per-hop cost in the
//! simulator's cycle loop is a couple of cache hits, never a
//! recomputation.

use crate::flit::Flit;
use snoc_topology::{RouterId, Topology, TopologyKind};

/// The output chosen for a flit at a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDecision {
    /// Output port (index into the router's neighbor list).
    pub port: usize,
    /// Output virtual channel.
    pub vc: usize,
}

/// Precomputed routing state for one topology.
///
/// `dist` and `next_port` are row-major `nr × nr` matrices flattened
/// into contiguous arrays (`[cur * nr + dst]`); `route_vc` is the
/// per-pair dateline VC for tori (`None` means hop-indexed VCs).
#[derive(Debug, Clone)]
pub struct RoutingTable {
    nr: usize,
    /// `dist[a * nr + b]` = hop distance between routers.
    dist: Vec<u16>,
    /// `next_port[cur * nr + dst]` = output port of the chosen path.
    next_port: Vec<u16>,
    /// Dateline VC per `(cur, dst)` pair (tori only).
    route_vc: Option<Vec<u8>>,
    /// `neighbors[cur]` is the sorted neighbor list (ports are positions
    /// in it).
    neighbors: Vec<Vec<RouterId>>,
    /// Largest finite entry of `dist`, recorded while it is filled.
    max_dist: usize,
}

impl RoutingTable {
    /// Builds the minimal routing table for a topology.
    ///
    /// Meshes and tori get dimension-order routes. Every other topology
    /// first tries the two-hop mask pass — O(deg²) scatters plus one
    /// count lookup and bit select per entry — which gives up at the
    /// first destination beyond two hops; the table is then rebuilt by
    /// one BFS per router plus a scan of `cur`'s ports per pair,
    /// O(N_r²·deg). On `slim_noc(47, 24)` the mask pass takes ≈0.15 s
    /// on 2 cores where BFS plus scan took 6–8 s on one; on diameter-2
    /// graphs both produce the same bytes (see the module docs).
    ///
    /// Rows are built in contiguous chunks on up to
    /// `available_parallelism` threads with at least
    /// `MIN_ROWS_PER_THREAD` rows each, so every table under 512
    /// routers is built on the calling thread. The table does not
    /// depend on the thread count.
    ///
    /// # Panics
    ///
    /// Panics if the topology is disconnected.
    #[must_use]
    pub fn minimal(topo: &Topology) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        Self::minimal_on(topo, threads.min(topo.router_count() / MIN_ROWS_PER_THREAD))
    }

    /// [`RoutingTable::minimal`] on `threads` row chunks (at least one).
    fn minimal_on(topo: &Topology, threads: usize) -> Self {
        let nr = topo.router_count();
        let neighbors: Vec<Vec<RouterId>> =
            topo.routers().map(|r| topo.neighbors(r).to_vec()).collect();
        let split = RowSplit::new(nr, threads);
        let mut dist = vec![0u16; nr * nr];
        let mut next_port = vec![0u16; nr * nr];
        let mut route_vc = None;
        let max_dist = match topo.kind() {
            TopologyKind::Mesh { x, .. } => {
                let x_dim = *x;
                let max_dist = bfs_rows(&neighbors, &mut dist, split);
                for cur in 0..nr {
                    for dst in 0..nr {
                        if cur == dst {
                            continue;
                        }
                        let next = dor_next_mesh(RouterId(cur), RouterId(dst), x_dim);
                        next_port[cur * nr + dst] = port_of(&neighbors, cur, next) as u16;
                    }
                }
                max_dist
            }
            TopologyKind::Torus { x, y } => {
                let (x_dim, y_dim) = (*x, *y);
                let max_dist = bfs_rows(&neighbors, &mut dist, split);
                let mut vcs = vec![0u8; nr * nr];
                for cur in 0..nr {
                    for dst in 0..nr {
                        if cur == dst {
                            continue;
                        }
                        let (next, vc) = dor_next_torus(RouterId(cur), RouterId(dst), x_dim, y_dim);
                        next_port[cur * nr + dst] = port_of(&neighbors, cur, next) as u16;
                        vcs[cur * nr + dst] = vc as u8;
                    }
                }
                route_vc = Some(vcs);
                max_dist
            }
            _ => two_hop_rows(&neighbors, &mut dist, &mut next_port, split).unwrap_or_else(|| {
                let max_dist = bfs_rows(&neighbors, &mut dist, split);
                scan_rows(&neighbors, &dist, &mut next_port, split);
                max_dist
            }),
        };
        RoutingTable {
            nr,
            dist,
            next_port,
            route_vc,
            neighbors,
            max_dist,
        }
    }

    /// Rebuilds a **deadlock-free up\*/down\*** table over the subgraph
    /// surviving a set of faults: a link is usable iff `link_alive`
    /// holds and both of its endpoint routers are marked alive.
    ///
    /// Ports keep their original numbering (positions in the full
    /// sorted neighbor list), so the simulator's channel indices stay
    /// valid — only next-hop choices change. Unreachable pairs get
    /// `u16::MAX` sentinels in `dist` and `next_port`; callers must
    /// consult [`RoutingTable::reachable`] before routing toward a
    /// pair. `reachable` coincides with plain connectivity of the
    /// surviving graph, so the doomed-packet rules are unchanged from
    /// the BFS repair this replaced.
    ///
    /// # The up\*/down\* scheme
    ///
    /// A canonical BFS spanning forest is grown over the surviving
    /// graph ([`snoc_topology::bfs_forest`]: each tree is rooted at the
    /// lowest-index live router of its component and grown in the
    /// pinned lexicographic BFS order). Routers are totally ordered by
    /// `key(v) = (tree level, router index)`; every surviving edge is
    /// *up* toward its smaller-key endpoint and *down* toward its
    /// larger-key endpoint. A legal path climbs up zero or more hops,
    /// then descends zero or more hops — never down-then-up. All-up
    /// chains strictly decrease `key` and all-down chains strictly
    /// increase it, so no channel-dependency cycle can close at any VC
    /// count, hop-clamped VCs included.
    ///
    /// The table is memoryless (`next_port[cur][dst]` only), so the
    /// turn restriction is enforced by *committing to the descent*: per
    /// destination, `D[v]` is the shortest all-down distance to `dst`
    /// and `T[v]` the table path length (`D[v]` where finite, else one
    /// up hop plus the best up-neighbor's `T`). A router with finite
    /// `D` always routes down; a down hop lands on a router whose `D`
    /// is again finite, so no path ever turns back up. Ties among legal
    /// next hops keep the documented `(cur·31 + dst·17) mod candidates`
    /// hash over ascending port order.
    ///
    /// [`RoutingTable::distance`] reports `T` — the exact length of the
    /// path the table walks, which may exceed the BFS distance of the
    /// surviving graph (the price of deadlock freedom). `T` is bounded
    /// by the router count: table paths are simple, since revisiting a
    /// router in the descent would contradict its infinite `D` during
    /// the climb.
    #[must_use]
    pub fn degraded<F>(topo: &Topology, router_alive: &[bool], mut link_alive: F) -> Self
    where
        F: FnMut(RouterId, RouterId) -> bool,
    {
        let nr = topo.router_count();
        let neighbors: Vec<Vec<RouterId>> =
            topo.routers().map(|r| topo.neighbors(r).to_vec()).collect();
        // usable[cur][port]: may a flit leave `cur` through `port`?
        let usable: Vec<Vec<bool>> = (0..nr)
            .map(|cur| {
                neighbors[cur]
                    .iter()
                    .map(|&n| {
                        router_alive[cur] && router_alive[n.index()] && link_alive(RouterId(cur), n)
                    })
                    .collect()
            })
            .collect();
        let alive_adj: Vec<Vec<RouterId>> = (0..nr)
            .map(|cur| {
                neighbors[cur]
                    .iter()
                    .zip(&usable[cur])
                    .filter(|&(_, &ok)| ok)
                    .map(|(&n, _)| n)
                    .collect()
            })
            .collect();
        let forest = snoc_topology::bfs_forest(nr, |r| &alive_adj[r.index()][..]);
        // The up*/down* total order: up endpoint = smaller key.
        let key = |v: usize| (forest.level[v], v);
        // Routers in ascending key order, so that when `T[v]` is
        // computed every up-neighbor's `T` is already final.
        let mut order: Vec<usize> = (0..nr).collect();
        order.sort_unstable_by_key(|&v| key(v));
        let mut dist = vec![u16::MAX; nr * nr];
        let mut next_port = vec![u16::MAX; nr * nr];
        // Per-destination scratch: D (all-down distance) and T (table
        // path length).
        let mut down = vec![u32::MAX; nr];
        let mut total = vec![u32::MAX; nr];
        let mut queue = std::collections::VecDeque::new();
        let mut max_dist = 0;
        for dst in 0..nr {
            dist[dst * nr + dst] = 0;
            // D by BFS from dst: a down hop v → w has key(v) < key(w),
            // so D propagates from w to its smaller-key neighbors.
            down.fill(u32::MAX);
            total.fill(u32::MAX);
            down[dst] = 0;
            queue.push_back(dst);
            while let Some(w) = queue.pop_front() {
                for (&n, &ok) in neighbors[w].iter().zip(&usable[w]) {
                    let v = n.index();
                    if ok && key(v) < key(w) && down[v] == u32::MAX {
                        down[v] = down[w] + 1;
                        queue.push_back(v);
                    }
                }
            }
            // T in ascending key order: commit to the descent where D
            // is finite, otherwise climb through the best up-neighbor.
            // Every non-root has its BFS parent as an up-neighbor and
            // the root's tree path to dst is all-down, so T is finite
            // exactly on dst's component.
            for &v in &order {
                if down[v] != u32::MAX {
                    total[v] = down[v];
                    continue;
                }
                let mut best = u32::MAX;
                for (&n, &ok) in neighbors[v].iter().zip(&usable[v]) {
                    let u = n.index();
                    if ok && key(u) < key(v) {
                        best = best.min(total[u]);
                    }
                }
                if best != u32::MAX {
                    total[v] = best + 1;
                }
            }
            for cur in 0..nr {
                if cur == dst || total[cur] == u32::MAX {
                    continue;
                }
                dist[cur * nr + dst] = total[cur] as u16;
                max_dist = max_dist.max(total[cur] as usize);
                let descending = down[cur] != u32::MAX;
                let candidate = |port: usize| {
                    let n = neighbors[cur][port].index();
                    usable[cur][port]
                        && if descending {
                            key(n) > key(cur) && down[n] != u32::MAX && down[n] + 1 == down[cur]
                        } else {
                            key(n) < key(cur) && total[n] != u32::MAX && total[n] + 1 == total[cur]
                        }
                };
                let count = (0..neighbors[cur].len()).filter(|&p| candidate(p)).count();
                assert!(count > 0, "reachable pair must have a next hop");
                let pick = (cur.wrapping_mul(31).wrapping_add(dst.wrapping_mul(17))) % count;
                let port = (0..neighbors[cur].len())
                    .filter(|&p| candidate(p))
                    .nth(pick)
                    .expect("pick < count");
                next_port[cur * nr + dst] = port as u16;
            }
        }
        RoutingTable {
            nr,
            dist,
            next_port,
            route_vc: None,
            neighbors,
            max_dist,
        }
    }

    /// `true` if the table has a path from `a` to `b` (always true for
    /// [`RoutingTable::minimal`] tables; [`RoutingTable::degraded`]
    /// tables mark severed pairs with a `u16::MAX` distance sentinel).
    #[must_use]
    pub fn reachable(&self, a: RouterId, b: RouterId) -> bool {
        self.dist[a.index() * self.nr + b.index()] != u16::MAX
    }

    /// Hop distance between two routers.
    #[must_use]
    pub fn distance(&self, a: RouterId, b: RouterId) -> usize {
        self.dist[a.index() * self.nr + b.index()] as usize
    }

    /// Number of router-to-router ports at `r`.
    #[must_use]
    pub fn port_count(&self, r: RouterId) -> usize {
        self.neighbors[r.index()].len()
    }

    /// The neighbor reached through `port` of router `r`.
    ///
    /// # Panics
    ///
    /// Panics if the port is out of range.
    #[must_use]
    pub fn peer(&self, r: RouterId, port: usize) -> RouterId {
        self.neighbors[r.index()][port]
    }

    /// The port of `cur` that leads to the adjacent router `next`.
    ///
    /// # Panics
    ///
    /// Panics if the routers are not adjacent.
    #[must_use]
    pub fn port_to(&self, cur: RouterId, next: RouterId) -> usize {
        port_of(&self.neighbors, cur.index(), next)
    }

    /// The routing target of a flit, honoring a not-yet-reached Valiant
    /// intermediate.
    #[must_use]
    pub fn target(flit: &Flit) -> RouterId {
        match flit.intermediate() {
            Some(mid) if !flit.intermediate_done() => mid,
            _ => flit.dst_router,
        }
    }

    /// Routes a flit at router `cur`: returns the output port and VC.
    ///
    /// # Panics
    ///
    /// Panics if the flit is already at its destination router.
    #[must_use]
    pub fn route(&self, cur: RouterId, flit: &Flit, in_vc: usize, vcs: usize) -> RouteDecision {
        let _ = in_vc;
        let dst = Self::target(flit);
        self.route_toward(cur, dst, flit.hops, vcs)
    }

    /// Largest finite distance in the table: the diameter for
    /// [`RoutingTable::minimal`] tables, the longest walked table path
    /// for [`RoutingTable::degraded`] ones. Scales the default
    /// no-progress watchdog bound. Recorded while the table is built,
    /// so every shard replica reads it without a scan.
    #[must_use]
    pub fn max_finite_distance(&self) -> usize {
        self.max_dist
    }

    /// Table lookup behind [`RoutingTable::route`] (and the deadlock
    /// checker, which probes it pair by pair).
    #[inline]
    pub(crate) fn route_toward(
        &self,
        cur: RouterId,
        dst: RouterId,
        hops: u16,
        vcs: usize,
    ) -> RouteDecision {
        assert_ne!(cur, dst, "flit already at target");
        let idx = cur.index() * self.nr + dst.index();
        let port = self.next_port[idx] as usize;
        debug_assert_ne!(
            port,
            u16::MAX as usize,
            "routing toward an unreachable destination"
        );
        let vc = match &self.route_vc {
            Some(table) => (table[idx] as usize).min(vcs - 1),
            None => (hops as usize).min(vcs - 1),
        };
        RouteDecision { port, vc }
    }
}

/// The port of `cur` leading to adjacent router `next` (sorted neighbor
/// lists, so a binary search).
fn port_of(neighbors: &[Vec<RouterId>], cur: usize, next: RouterId) -> usize {
    neighbors[cur]
        .binary_search(&next)
        .expect("routers must be adjacent")
}

/// Fewest table rows worth a thread of their own: below this a spawn
/// costs more than the rows it takes over, so every table smaller than
/// two of these (all paper-scale configurations) is built on the
/// calling thread.
const MIN_ROWS_PER_THREAD: usize = 256;

/// A split of the rows of an `nr × nr` matrix into contiguous chunks,
/// one per worker thread.
#[derive(Debug, Clone, Copy)]
struct RowSplit {
    nr: usize,
    rows_per_chunk: usize,
}

impl RowSplit {
    fn new(nr: usize, threads: usize) -> Self {
        RowSplit {
            nr,
            rows_per_chunk: nr.div_ceil(threads.max(1)).max(1),
        }
    }

    /// Matrix entries per chunk (the `chunks_mut` size).
    fn chunk_len(self) -> usize {
        (self.rows_per_chunk * self.nr).max(1)
    }

    /// Runs `fill(first_row, chunk)` on every chunk and returns the
    /// results in chunk order. Chunk 0 runs on the calling thread and
    /// each further chunk on a scoped thread of its own, so a
    /// one-chunk split never spawns.
    fn run<T, R, F>(self, chunks: impl Iterator<Item = T>, fill: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let fill = &fill;
        let mut chunks = chunks
            .enumerate()
            .map(|(i, c)| (i * self.rows_per_chunk, c));
        let Some((first, head)) = chunks.next() else {
            return Vec::new();
        };
        std::thread::scope(|s| {
            let rest: Vec<_> = chunks
                .map(|(row, c)| s.spawn(move || fill(row, c)))
                .collect();
            let mut out = vec![fill(first, head)];
            out.extend(
                rest.into_iter()
                    .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))),
            );
            out
        })
    }
}

/// The two-hop mask pass behind [`RoutingTable::minimal`]: fills every
/// row of `dist` and `next_port` (which must arrive zeroed) and returns
/// the largest distance, or `None` as soon as a row has a destination
/// more than two hops away — the caller then rebuilds both matrices on
/// the BFS path.
fn two_hop_rows(
    neighbors: &[Vec<RouterId>],
    dist: &mut [u16],
    next_port: &mut [u16],
    split: RowSplit,
) -> Option<usize> {
    let nr = neighbors.len();
    let words = neighbors
        .iter()
        .map(Vec::len)
        .max()
        .unwrap_or(0)
        .div_ceil(64)
        .max(1);
    let len = split.chunk_len();
    let chunks = dist.chunks_mut(len).zip(next_port.chunks_mut(len));
    split
        .run(chunks, |first, (dist, next_port)| {
            let mut scratch = TwoHopScratch {
                masks: vec![0; nr * words],
                counts: vec![0; nr],
                words,
            };
            let rows = dist.chunks_mut(nr).zip(next_port.chunks_mut(nr));
            rows.enumerate().try_fold(0, |max, (i, (dist, ports))| {
                let row = scratch.row(neighbors, first + i, dist, ports)?;
                Some(max.max(row))
            })
        })
        .into_iter()
        .try_fold(0, |max, chunk| Some(max.max(chunk?)))
}

/// Per-thread buffers of the two-hop mask pass, reused across rows.
struct TwoHopScratch {
    /// `masks[dst * words..][..words]`: the ports of the current row
    /// that start a two-hop path to `dst`, as a bitset.
    masks: Vec<u64>,
    /// `counts[dst]`: the number of set bits in `dst`'s mask.
    counts: Vec<u32>,
    words: usize,
}

impl TwoHopScratch {
    /// Fills the `dist` and `next_port` row of `cur` (zeroed on entry)
    /// and returns its largest distance, or `None` if some destination
    /// is beyond two hops.
    fn row(
        &mut self,
        neighbors: &[Vec<RouterId>],
        cur: usize,
        dist: &mut [u16],
        ports: &mut [u16],
    ) -> Option<usize> {
        let words = self.words;
        self.masks.fill(0);
        self.counts.fill(0);
        for (port, n) in neighbors[cur].iter().enumerate() {
            let (word, bit) = (port / 64, 1u64 << (port % 64));
            for m in &neighbors[n.index()] {
                self.masks[m.index() * words + word] |= bit;
                self.counts[m.index()] += 1;
            }
            dist[n.index()] = 1;
            ports[n.index()] = port as u16;
        }
        let mut max = usize::from(!neighbors[cur].is_empty());
        let masks = self.masks.chunks_exact(words).zip(&self.counts);
        let entries = dist.iter_mut().zip(ports.iter_mut());
        for (dst, ((mask, &count), (dist, port))) in masks.zip(entries).enumerate() {
            if dst == cur || *dist == 1 {
                continue;
            }
            if count == 0 {
                return None;
            }
            let pick = cur.wrapping_mul(31).wrapping_add(dst.wrapping_mul(17)) % count as usize;
            *dist = 2;
            *port = nth_set_bit(mask, pick as u32) as u16;
            max = 2;
        }
        Some(max)
    }
}

/// The index of the `n`-th (0-based) set bit of a multi-word bitset,
/// found by walking set bits (no popcount: the baseline x86-64 target
/// has no instruction for it, and `n` is almost always 0).
fn nth_set_bit(mask: &[u64], mut n: u32) -> usize {
    for (w, &word) in mask.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            if n == 0 {
                return w * 64 + bits.trailing_zeros() as usize;
            }
            n -= 1;
            bits &= bits - 1;
        }
    }
    unreachable!("n must be below the popcount")
}

/// Fills every `dist` row with one BFS from its router and returns the
/// largest distance: the distance pass of the general-graph path.
fn bfs_rows(neighbors: &[Vec<RouterId>], dist: &mut [u16], split: RowSplit) -> usize {
    let nr = neighbors.len();
    split
        .run(dist.chunks_mut(split.chunk_len()), |first, rows| {
            let mut queue = Vec::with_capacity(nr);
            rows.chunks_mut(nr)
                .enumerate()
                .map(|(i, row)| bfs_row(neighbors, first + i, row, &mut queue))
                .max()
                .unwrap_or(0)
        })
        .into_iter()
        .max()
        .unwrap_or(0)
}

/// BFS from `src` written straight into its `dist` row; returns the
/// row's largest distance. `queue` is scratch reused across rows.
fn bfs_row(
    neighbors: &[Vec<RouterId>],
    src: usize,
    row: &mut [u16],
    queue: &mut Vec<usize>,
) -> usize {
    row.fill(u16::MAX);
    row[src] = 0;
    queue.clear();
    queue.push(src);
    let mut head = 0;
    while let Some(&v) = queue.get(head) {
        head += 1;
        let next = row[v] + 1;
        for n in &neighbors[v] {
            if row[n.index()] == u16::MAX {
                row[n.index()] = next;
                queue.push(n.index());
            }
        }
    }
    assert_eq!(queue.len(), row.len(), "disconnected topology");
    usize::from(row[queue[queue.len() - 1]])
}

/// The next-hop pass of the general-graph path: for every pair, the
/// minimal next hops of `cur` in ascending port order, tie broken by a
/// `(cur, dst)` hash so different pairs spread over the candidates
/// (two passes, no allocation).
fn scan_rows(neighbors: &[Vec<RouterId>], dist: &[u16], next_port: &mut [u16], split: RowSplit) {
    let nr = neighbors.len();
    split.run(next_port.chunks_mut(split.chunk_len()), |first, rows| {
        for (i, row) in rows.chunks_mut(nr).enumerate() {
            let cur = first + i;
            for (dst, port) in row.iter_mut().enumerate() {
                if cur == dst {
                    continue;
                }
                let want = dist[cur * nr + dst] - 1;
                let minimal = |n: &&RouterId| dist[n.index() * nr + dst] == want;
                let count = neighbors[cur].iter().filter(minimal).count();
                assert!(count > 0, "minimal path must exist");
                let pick = (cur.wrapping_mul(31).wrapping_add(dst.wrapping_mul(17))) % count;
                *port = neighbors[cur]
                    .iter()
                    .enumerate()
                    .filter(|(_, n)| minimal(n))
                    .nth(pick)
                    .map(|(port, _)| port)
                    .expect("pick < count") as u16;
            }
        }
    });
}

/// Dimension-order next hop on a mesh (X first, then Y).
fn dor_next_mesh(cur: RouterId, dst: RouterId, x_dim: usize) -> RouterId {
    let (cx, cy) = (cur.index() % x_dim, cur.index() / x_dim);
    let (dx, dy) = (dst.index() % x_dim, dst.index() / x_dim);
    if cx != dx {
        let nx = if dx > cx { cx + 1 } else { cx - 1 };
        RouterId(cy * x_dim + nx)
    } else {
        let ny = if dy > cy { cy + 1 } else { cy - 1 };
        RouterId(ny * x_dim + cx)
    }
}

/// Dimension-order next hop on a torus, with the dateline VC.
///
/// Within a ring, the route direction is fixed (the shorter way; ties go
/// forward) and the VC is computed statelessly: going forward (+), a hop
/// made from a position past the destination (`cur > dst`) precedes the
/// wrap edge and uses VC0, anything else uses VC1 (mirrored for the −
/// direction). This breaks both ring dependency cycles: the VC0 chain
/// never contains the edge 0 → 1 (a hop from 0 going + always has
/// `cur < dst`), and VC1 traffic never crosses the wrap edge.
fn dor_next_torus(cur: RouterId, dst: RouterId, x_dim: usize, y_dim: usize) -> (RouterId, usize) {
    let (cx, cy) = (cur.index() % x_dim, cur.index() / x_dim);
    let (dx, dy) = (dst.index() % x_dim, dst.index() / x_dim);
    if cx != dx {
        let (nx, vc) = ring_step(cx, dx, x_dim);
        (RouterId(cy * x_dim + nx), vc)
    } else {
        let (ny, vc) = ring_step(cy, dy, y_dim);
        (RouterId(ny * x_dim + cx), vc)
    }
}

/// One step along a ring from `c` toward `d`: returns (next index, VC).
fn ring_step(c: usize, d: usize, dim: usize) -> (usize, usize) {
    let fwd = (d + dim - c) % dim;
    let go_fwd = fwd <= dim - fwd; // shorter way; tie -> forward
    if go_fwd {
        let n = (c + 1) % dim;
        let vc = usize::from(c < d); // pre-wrap segment (c > d) on VC0
        (n, vc)
    } else {
        let n = (c + dim - 1) % dim;
        let vc = usize::from(c > d);
        (n, vc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{Flit, PacketId};
    use snoc_topology::{NodeId, Topology};

    fn flit_to(dst_router: RouterId) -> Flit {
        Flit::packet(
            PacketId(0),
            NodeId(0),
            NodeId(dst_router.index()),
            dst_router,
            1,
            0,
            true,
            false,
        )[0]
    }

    /// Walks a flit from `src` to `dst`, returning the hop count.
    fn walk(topo: &Topology, table: &RoutingTable, src: RouterId, dst: RouterId) -> usize {
        let mut cur = src;
        let mut f = flit_to(dst);
        let mut vc = 0usize;
        let mut hops = 0;
        while cur != dst {
            let d = table.route(cur, &f, vc, 2);
            cur = table.peer(cur, d.port);
            vc = d.vc;
            f.hops += 1;
            hops += 1;
            assert!(hops <= topo.router_count(), "routing loop");
        }
        hops
    }

    /// The general-graph path on its own: (dist, next_port, max).
    fn bfs_scan(topo: &Topology, threads: usize) -> (Vec<u16>, Vec<u16>, usize) {
        let nr = topo.router_count();
        let neighbors: Vec<Vec<RouterId>> =
            topo.routers().map(|r| topo.neighbors(r).to_vec()).collect();
        let split = RowSplit::new(nr, threads);
        let (mut dist, mut next_port) = (vec![0u16; nr * nr], vec![0u16; nr * nr]);
        let max = bfs_rows(&neighbors, &mut dist, split);
        scan_rows(&neighbors, &dist, &mut next_port, split);
        (dist, next_port, max)
    }

    /// The two-hop mask pass on its own; `None` if it declines.
    fn two_hop(topo: &Topology, threads: usize) -> Option<(Vec<u16>, Vec<u16>, usize)> {
        let nr = topo.router_count();
        let neighbors: Vec<Vec<RouterId>> =
            topo.routers().map(|r| topo.neighbors(r).to_vec()).collect();
        let (mut dist, mut next_port) = (vec![0u16; nr * nr], vec![0u16; nr * nr]);
        let max = two_hop_rows(
            &neighbors,
            &mut dist,
            &mut next_port,
            RowSplit::new(nr, threads),
        )?;
        Some((dist, next_port, max))
    }

    fn diameter_two_family() -> Vec<Topology> {
        vec![
            Topology::slim_noc(3, 1).unwrap(),
            Topology::slim_noc(5, 4).unwrap(),
            Topology::slim_noc(9, 1).unwrap(),
            Topology::slim_noc(13, 1).unwrap(),
            Topology::flattened_butterfly(4, 4, 1),
            Topology::flattened_butterfly(12, 12, 1),
            // 70-port spines: the masks span two u64 words.
            Topology::folded_clos(70, 4, 1),
        ]
    }

    #[test]
    fn two_hop_masks_match_bfs_scan_on_diameter_two_families() {
        for topo in diameter_two_family() {
            let name = topo.name().to_string();
            let (dist, next_port, max) = two_hop(&topo, 1).expect("diameter-2 topology");
            let (bfs_dist, bfs_next_port, bfs_max) = bfs_scan(&topo, 1);
            assert!(dist == bfs_dist, "{name}: dist bytes differ");
            assert!(next_port == bfs_next_port, "{name}: next_port bytes differ");
            assert_eq!(max, bfs_max, "{name}");
            assert_eq!(max, topo.diameter(), "{name}");
            let table = RoutingTable::minimal(&topo);
            assert!(table.dist == dist && table.next_port == next_port, "{name}");
        }
    }

    #[test]
    fn beyond_two_hops_falls_back_to_bfs_scan() {
        for topo in [
            Topology::dragonfly(2),
            Topology::dragonfly(3),
            Topology::partitioned_fbf(2, 2, 4, 4, 3),
        ] {
            assert!(
                two_hop(&topo, 1).is_none(),
                "{}: mask pass must decline",
                topo.name()
            );
            let (dist, next_port, max) = bfs_scan(&topo, 1);
            let table = RoutingTable::minimal(&topo);
            assert!(
                table.dist == dist && table.next_port == next_port,
                "{}",
                topo.name()
            );
            assert_eq!(table.max_finite_distance(), max);
            assert_eq!(max, topo.diameter(), "{}", topo.name());
        }
    }

    #[test]
    fn thread_count_does_not_change_the_table() {
        let mut topos = diameter_two_family();
        topos.extend([
            Topology::dragonfly(2),
            Topology::partitioned_fbf(2, 2, 4, 4, 3),
            Topology::mesh(5, 3, 1),
            Topology::torus(4, 4, 1),
        ]);
        for topo in topos {
            let one = RoutingTable::minimal_on(&topo, 1);
            for threads in [2, 3, 8] {
                let many = RoutingTable::minimal_on(&topo, threads);
                assert!(
                    one.dist == many.dist
                        && one.next_port == many.next_port
                        && one.route_vc == many.route_vc
                        && one.max_dist == many.max_dist,
                    "{}: {threads} threads",
                    topo.name()
                );
            }
        }
    }

    #[test]
    fn recorded_max_distance_matches_a_full_scan() {
        let scan = |t: &RoutingTable| {
            t.dist
                .iter()
                .filter(|&&d| d != u16::MAX)
                .map(|&d| d as usize)
                .max()
                .unwrap_or(0)
        };
        for topo in [
            Topology::slim_noc(5, 1).unwrap(),
            Topology::dragonfly(2),
            Topology::mesh(4, 3, 1),
            Topology::torus(4, 4, 1),
        ] {
            let table = RoutingTable::minimal(&topo);
            assert_eq!(table.max_finite_distance(), scan(&table), "{}", topo.name());
            let mut alive = vec![true; topo.router_count()];
            alive[1] = false;
            let degraded = RoutingTable::degraded(&topo, &alive, |a, b| a.index() + b.index() != 5);
            assert_eq!(
                degraded.max_finite_distance(),
                scan(&degraded),
                "{}",
                topo.name()
            );
        }
    }

    #[test]
    fn minimal_paths_on_slim_noc() {
        let t = Topology::slim_noc(5, 1).unwrap();
        let table = RoutingTable::minimal(&t);
        for src in t.routers().step_by(7) {
            for dst in t.routers() {
                if src == dst {
                    continue;
                }
                let hops = walk(&t, &table, src, dst);
                assert_eq!(hops, table.distance(src, dst), "{src} -> {dst}");
                assert!(hops <= 2, "diameter-2 network");
            }
        }
    }

    #[test]
    fn minimal_paths_on_pfbf() {
        let t = Topology::partitioned_fbf(2, 2, 4, 4, 3);
        let table = RoutingTable::minimal(&t);
        for src in t.routers().step_by(5) {
            for dst in t.routers().step_by(3) {
                if src == dst {
                    continue;
                }
                assert_eq!(walk(&t, &table, src, dst), table.distance(src, dst));
            }
        }
    }

    #[test]
    fn dor_mesh_routes_x_first() {
        let t = Topology::mesh(4, 4, 1);
        let table = RoutingTable::minimal(&t);
        // From (0,0) to (2,2): the first hop must go +x to router 1.
        let f = flit_to(RouterId(10));
        let d = table.route(RouterId(0), &f, 0, 2);
        assert_eq!(table.peer(RouterId(0), d.port), RouterId(1));
        assert_eq!(walk(&t, &table, RouterId(0), RouterId(10)), 4);
    }

    #[test]
    fn dor_torus_uses_wraparound() {
        let t = Topology::torus(6, 1, 1);
        let table = RoutingTable::minimal(&t);
        // 0 -> 5 is one hop across the wrap link.
        assert_eq!(walk(&t, &table, RouterId(0), RouterId(5)), 1);
        // 0 -> 3 is three hops either way.
        assert_eq!(walk(&t, &table, RouterId(0), RouterId(3)), 3);
    }

    #[test]
    fn torus_dateline_switches_vc() {
        let t = Topology::torus(6, 1, 1);
        let table = RoutingTable::minimal(&t);
        // Route 5 -> 1 goes forward through the wrap edge. The pre-wrap
        // hop (5 -> 0, cur > dst) uses VC0; once past the wrap (0 -> 1,
        // cur < dst) the packet moves to VC1.
        let f = flit_to(RouterId(1));
        let d = table.route(RouterId(5), &f, 0, 2);
        assert_eq!(table.peer(RouterId(5), d.port), RouterId(0));
        assert_eq!(d.vc, 0, "pre-wrap segment on VC0");
        let d2 = table.route(RouterId(0), &f, 0, 2);
        assert_eq!(table.peer(RouterId(0), d2.port), RouterId(1));
        assert_eq!(d2.vc, 1, "post-wrap segment on VC1");
        // The VC0 chain is broken at edge 0 -> 1: a forward hop from 0
        // always has cur < dst and therefore uses VC1.
        for dst in 1..=3 {
            let dd = table.route(RouterId(0), &flit_to(RouterId(dst)), 0, 2);
            assert_eq!(dd.vc, 1, "0 -> {dst}");
        }
    }

    #[test]
    fn hop_indexed_vcs_on_table_strategy() {
        let t = Topology::slim_noc(3, 1).unwrap();
        let table = RoutingTable::minimal(&t);
        // Find a distance-2 pair and check VC increments with hops.
        let (src, dst) = t
            .routers()
            .flat_map(|a| t.routers().map(move |b| (a, b)))
            .find(|&(a, b)| table.distance(a, b) == 2)
            .expect("diameter 2");
        let mut f = flit_to(dst);
        let d1 = table.route(src, &f, 0, 2);
        assert_eq!(d1.vc, 0, "first hop on VC0");
        f.hops = 1;
        let mid = table.peer(src, d1.port);
        let d2 = table.route(mid, &f, 0, 2);
        assert_eq!(d2.vc, 1, "second hop on VC1");
    }

    #[test]
    fn degraded_walks_match_reported_distances() {
        // Kill a router and a link on a torus; every surviving pair
        // must still walk to its target in exactly `distance` hops
        // (the up*/down* T metric), within the simple-path bound.
        let t = Topology::torus(4, 4, 1);
        let mut alive = vec![true; t.router_count()];
        alive[5] = false;
        let table = RoutingTable::degraded(&t, &alive, |a, b| {
            (a.index().min(b.index()), a.index().max(b.index())) != (0, 1)
        });
        for src in t.routers() {
            for dst in t.routers() {
                if src == dst || !alive[src.index()] || !alive[dst.index()] {
                    continue;
                }
                assert!(table.reachable(src, dst), "{src} -> {dst}");
                assert_eq!(walk(&t, &table, src, dst), table.distance(src, dst));
            }
        }
    }

    #[test]
    fn degraded_dead_router_is_unreachable_but_self_distance_zero() {
        let t = Topology::mesh(3, 3, 1);
        let mut alive = vec![true; t.router_count()];
        alive[4] = false;
        let table = RoutingTable::degraded(&t, &alive, |_, _| true);
        let dead = RouterId(4);
        assert_eq!(table.distance(dead, dead), 0, "self distance stays 0");
        for r in t.routers() {
            if r != dead {
                assert!(!table.reachable(dead, r));
                assert!(!table.reachable(r, dead));
                // The 3x3 mesh minus its center stays connected.
                for s in t.routers() {
                    if s != dead && s != r {
                        assert!(table.reachable(s, r));
                    }
                }
            }
        }
    }

    #[test]
    fn degraded_severed_component_gets_sentinels() {
        // Cut the line 0-1-2-3 between 1 and 2.
        let t = Topology::mesh(4, 1, 1);
        let alive = vec![true; 4];
        let table = RoutingTable::degraded(&t, &alive, |a, b| {
            (a.index().min(b.index()), a.index().max(b.index())) != (1, 2)
        });
        assert!(table.reachable(RouterId(0), RouterId(1)));
        assert!(table.reachable(RouterId(2), RouterId(3)));
        assert!(!table.reachable(RouterId(0), RouterId(2)));
        assert!(!table.reachable(RouterId(3), RouterId(1)));
        assert_eq!(walk(&t, &table, RouterId(0), RouterId(1)), 1);
        assert_eq!(walk(&t, &table, RouterId(3), RouterId(2)), 1);
    }

    #[test]
    fn valiant_intermediate_target() {
        let mut f = flit_to(RouterId(9));
        assert_eq!(RoutingTable::target(&f), RouterId(9));
        f.set_intermediate(RouterId(4));
        assert_eq!(RoutingTable::target(&f), RouterId(4));
        f.mark_intermediate_done();
        assert_eq!(RoutingTable::target(&f), RouterId(9));
    }

    #[test]
    fn port_mappings_are_consistent() {
        let t = Topology::slim_noc(5, 1).unwrap();
        let table = RoutingTable::minimal(&t);
        for r in t.routers() {
            for port in 0..table.port_count(r) {
                let peer = table.peer(r, port);
                assert_eq!(table.port_to(r, peer), port);
                assert!(table.port_to(peer, r) < table.port_count(peer));
            }
        }
    }

    #[test]
    fn dor_tables_match_recomputation() {
        // The precomputed DOR port tables must agree with the stateless
        // next-hop functions for every pair.
        let mesh = Topology::mesh(5, 3, 1);
        let mt = RoutingTable::minimal(&mesh);
        for cur in mesh.routers() {
            for dst in mesh.routers() {
                if cur == dst {
                    continue;
                }
                let d = mt.route(cur, &flit_to(dst), 0, 2);
                assert_eq!(mt.peer(cur, d.port), dor_next_mesh(cur, dst, 5));
            }
        }
        let torus = Topology::torus(4, 4, 1);
        let tt = RoutingTable::minimal(&torus);
        for cur in torus.routers() {
            for dst in torus.routers() {
                if cur == dst {
                    continue;
                }
                let d = tt.route(cur, &flit_to(dst), 0, 4);
                let (next, vc) = dor_next_torus(cur, dst, 4, 4);
                assert_eq!(tt.peer(cur, d.port), next);
                assert_eq!(d.vc, vc);
            }
        }
    }
}
