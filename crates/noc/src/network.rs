//! Transport models over the mesh.

use crate::mesh::{Coord, Link, Mesh};
use sharing_json::json_struct;
use std::collections::HashMap;

/// The latency formula of a pipelined, switched network.
///
/// The paper (§3.4) models a two-cycle communication cost between
/// nearest-neighbour Slices and one additional cycle per extra network hop —
/// "the same latency as on a Tilera processor".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyModel {
    /// Cost of a nearest-neighbour (1-hop) message.
    pub base: u32,
    /// Additional cost per hop beyond the first.
    pub per_hop: u32,
    /// Cost of a message that stays on its own tile (e.g. a load sorted to
    /// its issuing Slice's own LSQ bank): just the network-interface
    /// insertion cycle.
    pub local: u32,
}

impl LatencyModel {
    /// The paper's Tilera-derived model: 2 cycles nearest neighbour,
    /// +1/hop, 1 cycle for tile-local delivery.
    #[must_use]
    pub fn tilera() -> Self {
        LatencyModel {
            base: 2,
            per_hop: 1,
            local: 1,
        }
    }

    /// A zero-latency model (useful for idealization ablations).
    #[must_use]
    pub fn zero() -> Self {
        LatencyModel {
            base: 0,
            per_hop: 0,
            local: 0,
        }
    }

    /// Delivery latency for a message crossing `hops` links.
    #[must_use]
    pub fn latency(self, hops: u32) -> u32 {
        if hops == 0 {
            self.local
        } else {
            self.base + self.per_hop * (hops - 1)
        }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::tilera()
    }
}

/// Counters accumulated by a transport.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages sent.
    pub messages: u64,
    /// Total hops traversed.
    pub hops: u64,
    /// Cycles lost to link contention (queued model only).
    pub contention_cycles: u64,
}

impl std::ops::AddAssign for NetStats {
    fn add_assign(&mut self, other: NetStats) {
        self.messages += other.messages;
        self.hops += other.hops;
        self.contention_cycles += other.contention_cycles;
    }
}

json_struct!(LatencyModel {
    base,
    per_hop,
    local
});
json_struct!(NetStats {
    messages,
    hops,
    contention_cycles
});

/// A message transport over the mesh: given a send cycle, produces the
/// arrival cycle.
pub trait Transport {
    /// Sends a message at cycle `now`; returns its arrival cycle at `dst`.
    fn send(&mut self, src: Coord, dst: Coord, now: u64) -> u64;

    /// Multicasts a message to several destinations (the Sharing
    /// Architecture's master-Slice rename broadcast, §3.2.1, and
    /// mispredict-flush fan-out, §3.1). The default implementation sends
    /// one unicast per destination; implementations with tree forwarding
    /// can share path prefixes. Returns the per-destination arrival
    /// cycles, in `dsts` order.
    fn multicast(&mut self, src: Coord, dsts: &[Coord], now: u64) -> Vec<u64> {
        dsts.iter().map(|&d| self.send(src, d, now)).collect()
    }

    /// Accumulated statistics.
    fn stats(&self) -> NetStats;

    /// Resets statistics (and any queue state).
    fn reset(&mut self);
}

/// Infinite-bandwidth transport: pure latency formula.
///
/// # Example
///
/// ```
/// use sharing_noc::{Coord, IdealNetwork, Mesh, Transport};
///
/// let mut net = IdealNetwork::new(Mesh::new(4, 4), Default::default());
/// let arrive = net.send(Coord::new(0, 0), Coord::new(1, 0), 100);
/// assert_eq!(arrive, 102); // 2-cycle nearest neighbour
/// ```
#[derive(Clone, Debug)]
pub struct IdealNetwork {
    mesh: Mesh,
    latency: LatencyModel,
    stats: NetStats,
}

impl IdealNetwork {
    /// Creates an ideal transport.
    #[must_use]
    pub fn new(mesh: Mesh, latency: LatencyModel) -> Self {
        IdealNetwork {
            mesh,
            latency,
            stats: NetStats::default(),
        }
    }

    /// The latency model in use.
    #[must_use]
    pub fn latency_model(&self) -> LatencyModel {
        self.latency
    }

    /// The mesh geometry.
    #[must_use]
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }
}

impl Transport for IdealNetwork {
    fn send(&mut self, src: Coord, dst: Coord, now: u64) -> u64 {
        let hops = self.mesh.hops(src, dst);
        self.stats.messages += 1;
        self.stats.hops += u64::from(hops);
        now + u64::from(self.latency.latency(hops))
    }

    fn stats(&self) -> NetStats {
        self.stats
    }

    fn reset(&mut self) {
        self.stats = NetStats::default();
    }
}

/// A link's calendar of occupied cycles, held as a windowed bitmap (one
/// bit per cycle, 64 cycles per word) so a claim is a word-scan for the
/// first zero bit instead of a per-cycle poll, and so the hot path
/// allocates nothing.
///
/// `claim(t)` returns the first clear cycle ≥ `t`, and once the set
/// exceeds 4096 claimed cycles it forgets everything below
/// `claim − 2048`, which makes those old cycles claimable again.
/// Out-of-order claims below the window's base grow the window backward
/// rather than approximating. The test module keeps the original
/// `BTreeSet` calendar as the reference this must match bit for bit.
#[derive(Clone, Debug, Default)]
struct BitmapCalendar {
    /// Cycle number of bit 0 of `words[0]`.
    base: u64,
    /// Busy bits; bit `i` of `words[w]` covers cycle `base + 64w + i`.
    words: Vec<u64>,
    /// Number of set bits.
    count: usize,
}

impl BitmapCalendar {
    /// Claims the first free cycle at or after `t`.
    #[inline]
    fn claim(&mut self, t: u64) -> u64 {
        if self.words.is_empty() {
            self.base = t & !63;
            self.count = 0;
        } else if t < self.base {
            let k = ((self.base - t).div_ceil(64)) as usize;
            self.words.splice(0..0, std::iter::repeat_n(0, k));
            self.base -= 64 * k as u64;
        }
        let mut idx = ((t - self.base) / 64) as usize;
        let mut mask = !0u64 << ((t - self.base) % 64);
        let c = loop {
            if idx >= self.words.len() {
                self.words.resize(idx + 1, 0);
            }
            let free = !self.words[idx] & mask;
            if free != 0 {
                let bit = free.trailing_zeros() as u64;
                self.words[idx] |= 1 << bit;
                break self.base + idx as u64 * 64 + bit;
            }
            idx += 1;
            mask = !0;
        };
        self.count += 1;
        if self.count > 4096 {
            self.prune(c.saturating_sub(2048));
        }
        c
    }

    /// Forgets all claimed cycles strictly below `cutoff` (they become
    /// free again).
    fn prune(&mut self, cutoff: u64) {
        if cutoff <= self.base {
            return;
        }
        let whole = (((cutoff - self.base) / 64) as usize).min(self.words.len());
        for w in self.words.drain(..whole) {
            self.count -= w.count_ones() as usize;
        }
        self.base += 64 * whole as u64;
        if cutoff > self.base {
            if let Some(w0) = self.words.first_mut() {
                let below = (1u64 << (cutoff - self.base)) - 1;
                self.count -= (*w0 & below).count_ones() as usize;
                *w0 &= !below;
            }
        }
    }

    /// Whether cycle `t` is free on this link (for plane selection).
    fn free_at(&self, t: u64) -> bool {
        if t < self.base {
            return true;
        }
        let idx = ((t - self.base) / 64) as usize;
        idx >= self.words.len() || self.words[idx] & (1 << ((t - self.base) % 64)) == 0
    }
}

/// Flat slot of a directed link: source tile index × 4 + direction.
fn link_slot(mesh: Mesh, link: Link) -> usize {
    let dir = if link.to.x > link.from.x {
        0 // east
    } else if link.to.x < link.from.x {
        1 // west
    } else if link.to.y > link.from.y {
        2 // south
    } else {
        3 // north
    };
    mesh.index_of(link.from) * 4 + dir
}

/// Bandwidth-limited transport: one message per directed link per cycle,
/// dimension-ordered routing, with one or more parallel physical planes.
///
/// Multiple planes model the paper's operand-network bandwidth ablation
/// (§5.1 found a second network buys only ≈1% performance).
///
/// Link occupancy is one bitmap calendar per directed link and plane
/// (DESIGN.md §13).
#[derive(Clone, Debug)]
pub struct QueuedNetwork {
    mesh: Mesh,
    latency: LatencyModel,
    planes: usize,
    /// Per-plane, per-link cycle calendars, indexed by [`link_slot`]
    /// (no hashing, no allocation). Messages are timestamped, not
    /// processed in time order, so links track exact occupied cycles
    /// rather than a monotonic cursor.
    links: Vec<Vec<BitmapCalendar>>,
    stats: NetStats,
}

impl QueuedNetwork {
    /// Creates a queued transport with the given number of physical
    /// planes.
    ///
    /// # Panics
    ///
    /// Panics if `planes == 0`.
    #[must_use]
    pub fn new(mesh: Mesh, latency: LatencyModel, planes: usize) -> Self {
        assert!(planes > 0, "at least one network plane required");
        QueuedNetwork {
            mesh,
            latency,
            planes,
            links: vec![vec![BitmapCalendar::default(); mesh.tiles() * 4]; planes],
            stats: NetStats::default(),
        }
    }

    /// Claims the first free cycle ≥ `t` on `link` in `plane`.
    fn claim(&mut self, plane: usize, link: Link, t: u64) -> u64 {
        self.links[plane][link_slot(self.mesh, link)].claim(t)
    }
}

/// One dimension of an XY route as flat link slots: `links` hops, each
/// leaving its tile in direction `dir` (a [`link_slot`] direction) and
/// moving the flat tile index by `step`. [`link_slot`] numbers each
/// axis's increasing direction `forward` and its reverse `forward + 1`.
#[derive(Clone, Copy)]
struct Leg {
    links: u16,
    dir: usize,
    step: isize,
}

impl Leg {
    #[inline]
    fn new(from: u16, to: u16, forward: usize, stride: isize) -> Leg {
        if to >= from {
            Leg {
                links: to - from,
                dir: forward,
                step: stride,
            }
        } else {
            Leg {
                links: from - to,
                dir: forward + 1,
                step: -stride,
            }
        }
    }
}

impl Transport for QueuedNetwork {
    /// Walks the dimension-ordered route by flat tile index: the same
    /// links, in the same order, as [`Mesh::route_steps`] with
    /// [`link_slot`], without a coordinate round trip per link.
    #[inline]
    fn send(&mut self, src: Coord, dst: Coord, now: u64) -> u64 {
        let hops = self.mesh.hops(src, dst);
        self.stats.messages += 1;
        self.stats.hops += u64::from(hops);
        if hops == 0 {
            return now + u64::from(self.latency.local);
        }
        assert!(self.mesh.contains(dst), "route endpoints must be on mesh");
        let mut tile = self.mesh.index_of(src);
        let width = self.mesh.width() as isize;
        let x = Leg::new(src.x, dst.x, 0, 1);
        let y = Leg::new(src.y, dst.y, 2, width);
        // Pick a plane whose first link is free at the insertion cycle.
        let plane = if self.planes == 1 {
            0
        } else {
            let first = tile * 4 + if x.links > 0 { x.dir } else { y.dir };
            (0..self.planes)
                .find(|&p| self.links[p][first].free_at(now + 1))
                .unwrap_or(0)
        };
        // Insertion into the network interface costs one cycle; each link
        // then adds a cycle, stalling behind traffic that holds the link
        // in the same cycle.
        let links = &mut self.links[plane];
        let mut t = now + 1;
        let mut contention = 0;
        for leg in [x, y] {
            for _ in 0..leg.links {
                let depart = links[tile * 4 + leg.dir].claim(t);
                contention += depart - t;
                t = depart + 1;
                tile = tile.wrapping_add_signed(leg.step);
            }
        }
        self.stats.contention_cycles += contention;
        // The uncontended queued cost is 1 (insertion) + hops; align the
        // floor with the analytic model so both modes agree when idle.
        let floor = now + u64::from(self.latency.latency(hops));
        t.max(floor)
    }

    /// Tree multicast: dimension-ordered routes to all destinations share
    /// their common prefix, so a shared link is claimed (and paid for)
    /// once — a flit forks at the divergence router instead of being
    /// re-injected per destination.
    fn multicast(&mut self, src: Coord, dsts: &[Coord], now: u64) -> Vec<u64> {
        // Arrival time at each tile the tree has reached so far.
        let mut reached: HashMap<Coord, u64> = HashMap::new();
        reached.insert(src, now + 1); // network-interface insertion
        let mut out = Vec::with_capacity(dsts.len());
        for &dst in dsts {
            self.stats.messages += 1;
            self.stats.hops += u64::from(self.mesh.hops(src, dst));
            if dst == src {
                out.push(now + u64::from(self.latency.local));
                continue;
            }
            // Walk forward from the deepest already-reached tile.
            let mut t = reached[&src];
            for link in self.mesh.route_steps(src, dst) {
                if let Some(&at) = reached.get(&link.to) {
                    t = at;
                    continue;
                }
                let depart = self.claim(0, link, t);
                self.stats.contention_cycles += depart - t;
                t = depart + 1;
                reached.insert(link.to, t);
            }
            let floor = now + u64::from(self.latency.latency(self.mesh.hops(src, dst)));
            out.push(t.max(floor));
        }
        out
    }

    fn stats(&self) -> NetStats {
        self.stats
    }

    fn reset(&mut self) {
        for cal in self.links.iter_mut().flatten() {
            *cal = BitmapCalendar::default();
        }
        self.stats = NetStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::new(8, 8)
    }

    #[test]
    fn tilera_latency_formula() {
        let l = LatencyModel::tilera();
        assert_eq!(l.latency(0), 1);
        assert_eq!(l.latency(1), 2);
        assert_eq!(l.latency(2), 3);
        assert_eq!(l.latency(5), 6);
    }

    #[test]
    fn ideal_network_applies_formula() {
        let mut n = IdealNetwork::new(mesh(), LatencyModel::tilera());
        assert_eq!(n.send(Coord::new(0, 0), Coord::new(0, 0), 10), 11);
        assert_eq!(n.send(Coord::new(0, 0), Coord::new(1, 0), 10), 12);
        assert_eq!(n.send(Coord::new(0, 0), Coord::new(3, 2), 10), 16);
        assert_eq!(n.stats().messages, 3);
        assert_eq!(n.stats().hops, 1 + 5);
    }

    #[test]
    fn queued_matches_ideal_when_uncontended() {
        let mut q = QueuedNetwork::new(mesh(), LatencyModel::tilera(), 1);
        let mut i = IdealNetwork::new(mesh(), LatencyModel::tilera());
        for (src, dst) in [
            (Coord::new(0, 0), Coord::new(1, 0)),
            (Coord::new(2, 2), Coord::new(5, 6)),
            (Coord::new(7, 7), Coord::new(0, 0)),
        ] {
            // Spread sends far apart in time so queues drain.
            let t = 1_000 * u64::from(src.x + 1);
            assert_eq!(q.send(src, dst, t), i.send(src, dst, t));
        }
        assert_eq!(q.stats().contention_cycles, 0);
    }

    #[test]
    fn queued_serializes_same_link_traffic() {
        let mut q = QueuedNetwork::new(mesh(), LatencyModel::tilera(), 1);
        let src = Coord::new(0, 0);
        let dst = Coord::new(1, 0);
        let a = q.send(src, dst, 100);
        let b = q.send(src, dst, 100);
        let c = q.send(src, dst, 100);
        assert_eq!(a, 102);
        assert_eq!(b, 103, "second message stalls one cycle behind the first");
        assert_eq!(c, 104);
        assert!(q.stats().contention_cycles >= 3 - 1);
    }

    #[test]
    fn second_plane_absorbs_contention() {
        let mut one = QueuedNetwork::new(mesh(), LatencyModel::tilera(), 1);
        let mut two = QueuedNetwork::new(mesh(), LatencyModel::tilera(), 2);
        let src = Coord::new(0, 0);
        let dst = Coord::new(1, 0);
        let (a1, b1) = (one.send(src, dst, 0), one.send(src, dst, 0));
        let (a2, b2) = (two.send(src, dst, 0), two.send(src, dst, 0));
        assert_eq!(a1, a2);
        assert!(b2 < b1, "two planes should beat one under contention");
    }

    #[test]
    fn local_messages_skip_links() {
        let mut q = QueuedNetwork::new(mesh(), LatencyModel::tilera(), 1);
        assert_eq!(q.send(Coord::new(3, 3), Coord::new(3, 3), 7), 8);
        assert_eq!(q.stats().hops, 0);
    }

    #[test]
    fn reset_clears_state() {
        let mut q = QueuedNetwork::new(mesh(), LatencyModel::tilera(), 1);
        q.send(Coord::new(0, 0), Coord::new(4, 4), 0);
        q.reset();
        assert_eq!(q.stats(), NetStats::default());
        // After reset, no residual contention.
        let a = q.send(Coord::new(0, 0), Coord::new(1, 0), 0);
        assert_eq!(a, 2);
    }

    #[test]
    #[should_panic(expected = "at least one network plane")]
    fn zero_planes_rejected() {
        let _ = QueuedNetwork::new(mesh(), LatencyModel::tilera(), 0);
    }

    #[test]
    fn net_stats_accumulate_per_field() {
        let mut total = NetStats {
            messages: 1,
            hops: 2,
            contention_cycles: 3,
        };
        total += NetStats {
            messages: 10,
            hops: 20,
            contention_cycles: 30,
        };
        assert_eq!(
            total,
            NetStats {
                messages: 11,
                hops: 22,
                contention_cycles: 33,
            }
        );
    }

    #[test]
    fn zero_latency_model() {
        let mut n = IdealNetwork::new(mesh(), LatencyModel::zero());
        assert_eq!(n.send(Coord::new(0, 0), Coord::new(5, 5), 42), 42);
    }

    #[test]
    fn ideal_multicast_matches_unicasts() {
        let mut n = IdealNetwork::new(mesh(), LatencyModel::tilera());
        let dsts = [Coord::new(1, 0), Coord::new(3, 0), Coord::new(0, 2)];
        let arrivals = n.multicast(Coord::new(0, 0), &dsts, 10);
        assert_eq!(arrivals, vec![12, 14, 13]);
    }

    #[test]
    fn queued_multicast_matches_latency_floor_when_idle() {
        let mut q = QueuedNetwork::new(mesh(), LatencyModel::tilera(), 1);
        let src = Coord::new(0, 0);
        let dsts = [Coord::new(1, 0), Coord::new(2, 0), Coord::new(4, 0)];
        let arrivals = q.multicast(src, &dsts, 100);
        // Along one row the tree is a single path: each destination hears
        // the flit at its unicast latency.
        assert_eq!(arrivals, vec![102, 103, 105]);
    }

    #[test]
    fn queued_multicast_shares_the_common_prefix() {
        // Destinations share the first two row hops. A tree claims those
        // links once; three unicasts would claim them three times and
        // serialize.
        let src = Coord::new(0, 0);
        let dsts = [Coord::new(2, 1), Coord::new(2, 2), Coord::new(2, 3)];
        let mut tree = QueuedNetwork::new(mesh(), LatencyModel::tilera(), 1);
        let tree_arrivals = tree.multicast(src, &dsts, 0);
        let mut uni = QueuedNetwork::new(mesh(), LatencyModel::tilera(), 1);
        let uni_arrivals: Vec<u64> = dsts.iter().map(|&d| uni.send(src, d, 0)).collect();
        assert!(
            tree_arrivals.iter().max() < uni_arrivals.iter().max(),
            "tree {tree_arrivals:?} should beat serialized unicasts {uni_arrivals:?}"
        );
        assert!(tree.stats().contention_cycles <= uni.stats().contention_cycles);
    }

    /// The original link calendar, kept as the reference for
    /// [`BitmapCalendar`]: the exact cycle set as a `BTreeSet`, polled
    /// one cycle at a time.
    #[derive(Clone, Debug, Default)]
    struct LinkCalendar {
        busy: std::collections::BTreeSet<u64>,
    }

    impl LinkCalendar {
        fn claim(&mut self, t: u64) -> u64 {
            let mut c = t;
            while self.busy.contains(&c) {
                c += 1;
            }
            self.busy.insert(c);
            if self.busy.len() > 4096 {
                let cutoff = c.saturating_sub(2048);
                self.busy = self.busy.split_off(&cutoff);
            }
            c
        }

        fn free_at(&self, t: u64) -> bool {
            !self.busy.contains(&t)
        }
    }

    /// The original queued transport over [`LinkCalendar`]s in per-plane
    /// maps keyed by link: the reference for [`QueuedNetwork`].
    struct PolledNetwork {
        latency: LatencyModel,
        planes: Vec<HashMap<Link, LinkCalendar>>,
        stats: NetStats,
    }

    impl PolledNetwork {
        fn new(planes: usize) -> Self {
            PolledNetwork {
                latency: LatencyModel::tilera(),
                planes: vec![HashMap::new(); planes],
                stats: NetStats::default(),
            }
        }

        /// Walks `links` from cycle `t` on `plane`, returning the arrival.
        fn walk(&mut self, plane: usize, links: impl Iterator<Item = Link>, mut t: u64) -> u64 {
            for link in links {
                let depart = self.planes[plane].entry(link).or_default().claim(t);
                self.stats.contention_cycles += depart - t;
                t = depart + 1;
            }
            t
        }

        fn send(&mut self, src: Coord, dst: Coord, now: u64) -> u64 {
            let hops = mesh().hops(src, dst);
            self.stats.messages += 1;
            self.stats.hops += u64::from(hops);
            if hops == 0 {
                return now + u64::from(self.latency.local);
            }
            let first = mesh().route_steps(src, dst).next().unwrap();
            let plane = (0..self.planes.len())
                .find(|&p| {
                    self.planes[p]
                        .get(&first)
                        .is_none_or(|c| c.free_at(now + 1))
                })
                .unwrap_or(0);
            let t = self.walk(plane, mesh().route_steps(src, dst), now + 1);
            t.max(now + u64::from(self.latency.latency(hops)))
        }

        fn multicast(&mut self, src: Coord, dsts: &[Coord], now: u64) -> Vec<u64> {
            let mut reached = HashMap::from([(src, now + 1)]);
            let mut out = Vec::new();
            for &dst in dsts {
                let hops = mesh().hops(src, dst);
                self.stats.messages += 1;
                self.stats.hops += u64::from(hops);
                if dst == src {
                    out.push(now + u64::from(self.latency.local));
                    continue;
                }
                let mut t = reached[&src];
                for link in mesh().route_steps(src, dst) {
                    t = match reached.get(&link.to) {
                        Some(&at) => at,
                        None => self.walk(0, std::iter::once(link), t),
                    };
                    reached.insert(link.to, t);
                }
                out.push(t.max(now + u64::from(self.latency.latency(hops))));
            }
            out
        }
    }

    /// Deterministic xorshift for the differential fuzzers.
    fn rng(seed: &mut u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    }

    #[test]
    fn bitmap_calendar_matches_btreeset_reference() {
        // Direct fuzz of the two calendar representations, with enough
        // claims to cross the 4096-entry prune several times and with
        // occasional out-of-order (backward-in-time) claims.
        let mut bitmap = BitmapCalendar::default();
        let mut reference = LinkCalendar::default();
        let mut seed = 0x5EED_CAFE;
        let mut now = 100u64;
        for i in 0..40_000u64 {
            let r = rng(&mut seed);
            now += r % 3; // mostly clustered, slowly advancing
            let t = if r.is_multiple_of(97) { now / 2 } else { now }; // rare old claim
            let a = bitmap.claim(t);
            let b = reference.claim(t);
            assert_eq!(a, b, "claim {i} at t={t} diverged");
            assert_eq!(bitmap.count, reference.busy.len(), "count after claim {i}");
            let probe = t + r % 5;
            assert_eq!(bitmap.free_at(probe), reference.free_at(probe));
        }
    }

    #[test]
    fn queued_network_matches_btreeset_reference() {
        // Full-transport differential: identical send/multicast sequences
        // through the bitmap-calendar network and the reference must
        // produce identical arrivals and identical stats (contention
        // cycles included).
        for planes in [1, 2] {
            let mut event = QueuedNetwork::new(mesh(), LatencyModel::tilera(), planes);
            let mut polled = PolledNetwork::new(planes);
            let mut seed = 0xD1FF ^ planes as u64;
            let mut now = 0u64;
            for i in 0..20_000u64 {
                let r = rng(&mut seed);
                now += r % 2; // heavy same-cycle contention
                let src = Coord::new((r >> 8) as u16 % 8, (r >> 16) as u16 % 8);
                let dst = Coord::new((r >> 24) as u16 % 8, (r >> 32) as u16 % 8);
                if r.is_multiple_of(29) {
                    let dsts = [dst, Coord::new((r >> 40) as u16 % 8, 0), src];
                    assert_eq!(
                        event.multicast(src, &dsts, now),
                        polled.multicast(src, &dsts, now),
                        "multicast {i} diverged"
                    );
                } else {
                    assert_eq!(
                        event.send(src, dst, now),
                        polled.send(src, dst, now),
                        "send {i} ({src} -> {dst} at {now}) diverged"
                    );
                }
            }
            assert_eq!(event.stats(), polled.stats);
        }
    }

    #[test]
    fn multicast_to_self_is_local() {
        let mut q = QueuedNetwork::new(mesh(), LatencyModel::tilera(), 1);
        let src = Coord::new(3, 3);
        let arrivals = q.multicast(src, &[src, Coord::new(4, 3)], 7);
        assert_eq!(arrivals[0], 8);
        assert_eq!(arrivals[1], 9);
    }
}
