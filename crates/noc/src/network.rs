//! Cycle-driven packet network over a 2D mesh with link contention and
//! link faults.
//!
//! The model is packet-granular (one packet occupies one link per cycle):
//! coarser than flit-level wormhole simulation but preserving the
//! properties the §I claim needs — contention, path length, and the
//! effect of dead links under different routing policies (this module's
//! tests pin them).
//!
//! # Engine
//!
//! Flights live in a [`Slab`] arena (stable slots, freelist reuse — no
//! per-packet allocation churn) and are driven by an indexed
//! next-event-time queue: a binary heap of `(next_attempt_cycle,
//! injection_order, slot)` keys. [`Network::drain`] pops the queue
//! instead of rescanning the whole in-flight list every cycle, so its
//! cost is proportional to hop *attempts* (near-linear in deliveries on
//! an uncongested mesh) rather than `cycles × flights`, and idle cycles
//! — e.g. while one long-haul packet crosses a large mesh after the rest
//! delivered — are skipped outright. Per-cycle link occupancy is a dense
//! cycle-stamped array indexed by [`Mesh2d::link_index`], replacing the
//! tree-map the old scan loop rebuilt every cycle.
//!
//! Contention priority is by injection order (oldest packet first), and
//! the heap key makes that explicit. The behaviourally identical
//! scan-loop specification lives in [`crate::reference`]; a property
//! test holds the two to the same `(cycle, packet)` delivery/drop
//! sequence.
//!
//! # Link fault scripts
//!
//! Beyond binary dead links ([`Network::kill_link`]), a [`LinkScript`]
//! degrades chosen directed links over cycle *windows*: probabilistic
//! packet drops, payload corruption (the packet still delivers — catching
//! it is the MAC layer's job — but is recorded in
//! [`NetworkStats::corrupted`]), and extra per-hop delay. Faults are
//! evaluated in the indexed next-event queue path at the moment a packet
//! crosses the scripted link, from a dedicated script RNG — an empty
//! script leaves the engine's behaviour (and the reference-model
//! equivalence) untouched.

use crate::router::{route, RouteBlock, Routing};
use crate::topology::{Direction, LinkId, Mesh2d, NodeId};
use rsoc_sim::{SimRng, Slab, Window};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

/// Unique packet identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u64);

/// Network configuration.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Routing policy.
    pub routing: Routing,
    /// Cycles a packet may wait at a single node before being dropped.
    pub stall_timeout: u32,
    /// Per-hop traversal latency in cycles (link + router pipeline).
    pub hop_cycles: u32,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig { routing: Routing::Xy, stall_timeout: 64, hop_cycles: 1 }
    }
}

#[derive(Debug, Clone)]
struct Flight {
    id: PacketId,
    dst: NodeId,
    here: NodeId,
    injected_at: u64,
    /// Injection order — the contention-priority key (never reused, unlike
    /// the slab slot).
    order: u64,
    hops: u32,
    misroutes: u32,
    stalled: u32,
    /// Whether a scripted link fault corrupted the payload in transit.
    corrupted: bool,
    /// Attempt cycle a scripted extra delay has already been served for
    /// (the re-attempt at this cycle crosses without being re-delayed).
    delay_served: u64,
}

/// One windowed fault on a directed mesh link: while `window` is active,
/// packets crossing `link` are dropped with `drop_rate`, corrupted with
/// `corrupt_rate`, and delayed by `extra_delay` cycles. The window type
/// is shared with the BFT scenario engine via [`rsoc_sim::Window`].
#[derive(Debug, Clone, Copy)]
pub struct LinkFaultWindow {
    /// The degraded directed link.
    pub link: LinkId,
    /// When the fault is active.
    pub window: Window,
    /// Probability a crossing packet is lost on the link.
    pub drop_rate: f64,
    /// Probability a crossing packet's payload is corrupted (it still
    /// delivers; [`NetworkStats::corrupted`] records it).
    pub corrupt_rate: f64,
    /// Extra cycles the hop takes while the fault is active.
    pub extra_delay: u32,
}

/// A deterministic, windowed link-degradation script (see module docs).
#[derive(Debug, Clone, Default)]
pub struct LinkScript {
    faults: Vec<LinkFaultWindow>,
}

impl LinkScript {
    /// An empty script (no degradation).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one windowed link fault.
    pub fn fault(mut self, fault: LinkFaultWindow) -> Self {
        self.faults.push(fault);
        self
    }

    /// True when the script degrades nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of scripted faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }
}

/// Record of a delivered packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Which packet.
    pub packet: PacketId,
    /// Cycle of delivery.
    pub at: u64,
    /// End-to-end latency in cycles.
    pub latency: u64,
    /// Hops actually traversed.
    pub hops: u32,
}

/// Record of a dropped packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Drop {
    /// Which packet.
    pub packet: PacketId,
    /// Cycle of the drop decision.
    pub at: u64,
    /// Whether the drop was due to dead links (vs. stall timeout).
    pub dead_end: bool,
}

/// Aggregate network statistics.
#[derive(Debug, Clone, Default)]
pub struct NetworkStats {
    /// Successfully delivered packets.
    pub delivered: Vec<Delivery>,
    /// Dropped packets.
    pub dropped: Vec<Drop>,
    /// Delivered packets whose payload a scripted link fault corrupted in
    /// transit (in delivery order; the MAC layer above must catch these).
    pub corrupted: Vec<PacketId>,
    /// Total link traversals.
    pub link_traversals: u64,
}

impl NetworkStats {
    /// Delivery ratio over all terminated packets.
    pub fn delivery_ratio(&self) -> f64 {
        let total = self.delivered.len() + self.dropped.len();
        if total == 0 {
            return 1.0;
        }
        self.delivered.len() as f64 / total as f64
    }

    /// Mean delivered latency in cycles (`None` when nothing delivered).
    pub fn mean_latency(&self) -> Option<f64> {
        if self.delivered.is_empty() {
            return None;
        }
        Some(
            self.delivered.iter().map(|d| d.latency as f64).sum::<f64>()
                / self.delivered.len() as f64,
        )
    }
}

/// The packet network.
#[derive(Debug)]
pub struct Network {
    mesh: Mesh2d,
    config: NetworkConfig,
    now: u64,
    next_packet: u64,
    next_order: u64,
    flights: Slab<Flight>,
    /// Next-event queue: `(attempt_cycle, injection_order, slot)`, earliest
    /// first. Every in-flight packet has exactly one pending entry.
    queue: BinaryHeap<Reverse<(u64, u64, u32)>>,
    dead_links: BTreeSet<LinkId>,
    /// Dense mirror of `dead_links` for the per-hop check.
    dead: Vec<bool>,
    /// Cycle stamp per directed link: a link is occupied for cycle `t`
    /// iff `link_used_at[idx] == t` (`u64::MAX` = never used).
    link_used_at: Vec<u64>,
    /// Windowed link degradation (empty = no hook in the hop path).
    script: LinkScript,
    /// Script randomness, independent of any caller RNG.
    script_rng: SimRng,
    stats: NetworkStats,
}

impl Network {
    /// Creates a network over `mesh`.
    pub fn new(mesh: Mesh2d, config: NetworkConfig) -> Self {
        Network {
            mesh,
            config,
            now: 0,
            next_packet: 0,
            next_order: 0,
            flights: Slab::new(),
            queue: BinaryHeap::new(),
            dead_links: BTreeSet::new(),
            dead: vec![false; mesh.link_index_count()],
            link_used_at: vec![u64::MAX; mesh.link_index_count()],
            script: LinkScript::new(),
            script_rng: SimRng::new(0),
            stats: NetworkStats::default(),
        }
    }

    /// Installs a windowed link-degradation script, with its own RNG
    /// stream derived from `seed`. Replaces any previous script.
    pub fn set_link_script(&mut self, script: LinkScript, seed: u64) {
        self.script = script;
        self.script_rng = SimRng::new(seed ^ 0x11FA_0171);
    }

    /// The topology.
    pub fn mesh(&self) -> &Mesh2d {
        &self.mesh
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Packets currently in flight.
    pub fn in_flight(&self) -> usize {
        self.flights.len()
    }

    /// Statistics so far.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Marks a directed link dead (router port failure / wire defect).
    pub fn kill_link(&mut self, link: LinkId) {
        self.dead_links.insert(link);
        self.dead[self.mesh.link_index(link)] = true;
    }

    /// Revives a dead link (e.g., after reconfiguration repaired the port).
    pub fn revive_link(&mut self, link: LinkId) {
        self.dead_links.remove(&link);
        self.dead[self.mesh.link_index(link)] = false;
    }

    /// Kills each directed link independently with probability `p`.
    pub fn kill_links_randomly(&mut self, p: f64, rng: &mut SimRng) {
        for link in self.mesh.links() {
            if rng.chance(p) {
                self.kill_link(link);
            }
        }
    }

    /// Number of currently dead links.
    pub fn dead_link_count(&self) -> usize {
        self.dead_links.len()
    }

    /// Injects a packet; it starts moving on the next [`tick`](Self::tick).
    ///
    /// Delivery to self is immediate.
    pub fn inject(&mut self, src: NodeId, dst: NodeId, _payload_words: u32) -> PacketId {
        let id = PacketId(self.next_packet);
        self.next_packet += 1;
        if src == dst {
            self.stats.delivered.push(Delivery { packet: id, at: self.now, latency: 0, hops: 0 });
            return id;
        }
        let order = self.next_order;
        self.next_order += 1;
        let slot = self.flights.insert(Flight {
            id,
            dst,
            here: src,
            injected_at: self.now,
            order,
            hops: 0,
            misroutes: 0,
            stalled: 0,
            corrupted: false,
            delay_served: u64::MAX,
        });
        self.queue.push(Reverse((self.now + self.config.hop_cycles as u64, order, slot)));
        id
    }

    /// Advances one cycle: every in-flight packet attempts one hop.
    /// At most one packet crosses each directed link per cycle; older
    /// packets (by injection) win contended links.
    pub fn tick(&mut self) {
        self.now += self.config.hop_cycles as u64;
        self.process_due(self.now);
    }

    /// Processes every queued hop attempt due at or before `horizon`, in
    /// `(cycle, injection order)` order.
    // The per-hop kernel runs once per link traversal; `rsoc_lint` keeps
    // it free of per-hop heap churn (flights live in the slab arena).
    // lint: hot-path
    fn process_due(&mut self, horizon: u64) {
        while let Some(&Reverse((at, _, _))) = self.queue.peek() {
            if at > horizon {
                break;
            }
            let Reverse((at, _, slot)) = self.queue.pop().expect("peeked entry");
            self.attempt_hop(at, slot);
        }
    }

    /// One hop attempt for the flight in `slot` during cycle `t`.
    fn attempt_hop(&mut self, t: u64, slot: u32) {
        let (here, dst, misroutes, order) = {
            let f = self.flights.get(slot).expect("queued flight present");
            (f.here, f.dst, f.misroutes, f.order)
        };
        let mesh = self.mesh;
        let dead = &self.dead;
        let used = &self.link_used_at;
        let link_ok = |d: Direction| {
            mesh.neighbor(here, d).is_some()
                && !dead[mesh.link_index(LinkId { from: here, dir: d.into() })]
        };
        let link_free =
            |d: Direction| used[mesh.link_index(LinkId { from: here, dir: d.into() })] != t;
        match route(&self.mesh, self.config.routing, here, dst, misroutes, &link_ok, &link_free) {
            Ok(dir) => {
                let link = LinkId { from: here, dir: dir.into() };
                // A scripted extra delay stalls the packet at the link for
                // the fault's duration *before* it crosses: the attempt is
                // re-queued (once — the re-attempt is marked served), so
                // occupancy, drop/corrupt judgement, and the delivery
                // timestamp all happen at the true crossing cycle and the
                // stats stay chronological.
                if !self.script.is_empty()
                    && self.flights.get(slot).expect("flight").delay_served != t
                {
                    let extra: u64 = self
                        .script
                        .faults
                        .iter()
                        .filter(|fw| fw.link == link && fw.window.contains(t))
                        .map(|fw| fw.extra_delay as u64)
                        .sum();
                    if extra > 0 {
                        let f = self.flights.get_mut(slot).expect("flight present");
                        f.delay_served = t + extra;
                        self.queue.push(Reverse((t + extra, f.order, slot)));
                        return;
                    }
                }
                self.link_used_at[self.mesh.link_index(link)] = t;
                // Drop/corrupt degradation, judged as the packet crosses
                // the link (the link was already occupied — a dropped
                // packet physically entered it and died there).
                let mut corrupt_hit = false;
                if !self.script.is_empty() {
                    for i in 0..self.script.faults.len() {
                        let fw = self.script.faults[i];
                        if fw.link != link || !fw.window.contains(t) {
                            continue;
                        }
                        if fw.drop_rate > 0.0 && self.script_rng.chance(fw.drop_rate) {
                            let f = self.flights.remove(slot).expect("flight present");
                            self.stats.dropped.push(Drop { packet: f.id, at: t, dead_end: false });
                            return;
                        }
                        if fw.corrupt_rate > 0.0 && self.script_rng.chance(fw.corrupt_rate) {
                            corrupt_hit = true;
                        }
                    }
                }
                let next = self.mesh.neighbor(here, dir).expect("router checked neighbor");
                // Count whether this hop reduced distance (else misroute).
                let before = self.mesh.hops(here, dst);
                let after = self.mesh.hops(next, dst);
                let f = self.flights.get_mut(slot).expect("flight present");
                if after >= before {
                    f.misroutes += 1;
                }
                f.here = next;
                f.hops += 1;
                f.stalled = 0;
                f.corrupted |= corrupt_hit;
                self.stats.link_traversals += 1;
                if next == dst {
                    let f = self.flights.remove(slot).expect("flight present");
                    if f.corrupted {
                        self.stats.corrupted.push(f.id);
                    }
                    self.stats.delivered.push(Delivery {
                        packet: f.id,
                        at: t,
                        latency: t - f.injected_at,
                        hops: f.hops,
                    });
                } else {
                    self.queue.push(Reverse((t + self.config.hop_cycles as u64, order, slot)));
                }
            }
            Err(RouteBlock::Contention) => {
                let f = self.flights.get_mut(slot).expect("flight present");
                f.stalled += 1;
                if f.stalled >= self.config.stall_timeout {
                    let f = self.flights.remove(slot).expect("flight present");
                    self.stats.dropped.push(Drop { packet: f.id, at: t, dead_end: false });
                } else {
                    self.queue.push(Reverse((t + self.config.hop_cycles as u64, order, slot)));
                }
            }
            Err(RouteBlock::Dead) => {
                let f = self.flights.remove(slot).expect("flight present");
                self.stats.dropped.push(Drop { packet: f.id, at: t, dead_end: true });
            }
        }
    }
    // lint: end

    /// Runs until the network drains or `max_cycles` elapse, jumping
    /// straight between event times instead of rescanning flights every
    /// cycle. Returns the number of cycles simulated.
    ///
    /// Budget semantics match the reference tick loop exactly: a "tick"
    /// (one batch of hop attempts) executes iff the budget was not yet
    /// exhausted when it started, so with `hop_cycles > 1` the final
    /// tick may overshoot `max_cycles`, just as the scan-loop model's
    /// `while now - start < max_cycles { tick() }` does.
    pub fn drain(&mut self, max_cycles: u64) -> u64 {
        let start = self.now;
        while self.in_flight() > 0 && self.now - start < max_cycles {
            let Some(&Reverse((at, _, _))) = self.queue.peek() else { break };
            self.now = at;
            self.process_due(at);
        }
        self.now - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Direction;

    fn net(routing: Routing) -> Network {
        Network::new(Mesh2d::new(4, 4), NetworkConfig { routing, ..Default::default() })
    }

    #[test]
    fn delivers_across_mesh_with_minimal_hops() {
        let mut n = net(Routing::Xy);
        let src = n.mesh().node_at(0, 0).unwrap();
        let dst = n.mesh().node_at(3, 3).unwrap();
        n.inject(src, dst, 1);
        n.drain(1000);
        assert_eq!(n.stats().delivered.len(), 1);
        let d = n.stats().delivered[0];
        assert_eq!(d.hops, 6);
        assert_eq!(d.latency, 6);
    }

    #[test]
    fn model_matches_uncongested_network_hops() {
        // The closed form protocol experiments price messages with (one
        // cycle per Manhattan hop, no overhead or serialization) is the
        // packet network's uncongested latency.
        let mesh = Mesh2d::new(6, 6);
        let mut net = Network::new(mesh, NetworkConfig::default());
        let src = mesh.node_at(0, 2).unwrap();
        let dst = mesh.node_at(5, 4).unwrap();
        net.inject(src, dst, 1);
        net.drain(1000);
        let measured = net.stats().delivered[0].latency;
        assert_eq!(measured, mesh.hops(src, dst) as u64);
        assert_eq!(measured, 7);
    }

    #[test]
    fn self_delivery_is_instant() {
        let mut n = net(Routing::Xy);
        let a = n.mesh().node_at(1, 1).unwrap();
        n.inject(a, a, 1);
        assert_eq!(n.stats().delivered.len(), 1);
        assert_eq!(n.stats().delivered[0].latency, 0);
    }

    #[test]
    fn contention_serializes_shared_link() {
        let mut n = net(Routing::Xy);
        let src = n.mesh().node_at(0, 0).unwrap();
        let dst = n.mesh().node_at(2, 0).unwrap();
        // Two packets on the same row path: the second waits behind the first.
        n.inject(src, dst, 1);
        n.inject(src, dst, 1);
        n.drain(1000);
        assert_eq!(n.stats().delivered.len(), 2);
        let mut lats: Vec<u64> = n.stats().delivered.iter().map(|d| d.latency).collect();
        lats.sort_unstable();
        assert_eq!(lats[0], 2);
        assert!(lats[1] > 2, "second packet must stall at least once: {lats:?}");
    }

    #[test]
    fn older_packet_wins_contended_link() {
        let mut n = net(Routing::Xy);
        let src = n.mesh().node_at(0, 0).unwrap();
        let dst = n.mesh().node_at(3, 0).unwrap();
        let first = n.inject(src, dst, 1);
        let second = n.inject(src, dst, 1);
        n.drain(1000);
        let lat = |p: PacketId| {
            n.stats().delivered.iter().find(|d| d.packet == p).expect("delivered").latency
        };
        assert!(lat(first) < lat(second), "injection order is contention priority");
    }

    #[test]
    fn xy_drops_at_dead_link_but_adaptive_survives() {
        let kill = |n: &mut Network| {
            let from = n.mesh().node_at(1, 0).unwrap();
            n.kill_link(LinkId { from, dir: Direction::East.into() });
        };
        let src_dst =
            |n: &Network| (n.mesh().node_at(0, 0).unwrap(), n.mesh().node_at(3, 0).unwrap());

        let mut xy = net(Routing::Xy);
        kill(&mut xy);
        let (s, d) = src_dst(&xy);
        xy.inject(s, d, 1);
        xy.drain(1000);
        assert_eq!(xy.stats().delivered.len(), 0);
        assert_eq!(xy.stats().dropped.len(), 1);
        assert!(xy.stats().dropped[0].dead_end);

        let mut ad = net(Routing::FaultAdaptive { max_misroutes: 8 });
        kill(&mut ad);
        ad.inject(s, d, 1);
        ad.drain(1000);
        assert_eq!(ad.stats().delivered.len(), 1, "adaptive routes around the fault");
        assert!(ad.stats().delivered[0].hops > 3, "detour costs extra hops");
    }

    #[test]
    fn fully_dead_region_drops_adaptive_too() {
        let mut n = net(Routing::FaultAdaptive { max_misroutes: 8 });
        let src = n.mesh().node_at(0, 0).unwrap();
        // Kill both outgoing links of the source.
        n.kill_link(LinkId { from: src, dir: Direction::East.into() });
        n.kill_link(LinkId { from: src, dir: Direction::South.into() });
        let dst = n.mesh().node_at(3, 3).unwrap();
        n.inject(src, dst, 1);
        n.drain(1000);
        assert_eq!(n.stats().delivered.len(), 0);
        assert_eq!(n.stats().dropped.len(), 1);
    }

    #[test]
    fn revive_link_restores_path() {
        let mut n = net(Routing::Xy);
        let from = n.mesh().node_at(0, 0).unwrap();
        let link = LinkId { from, dir: Direction::East.into() };
        n.kill_link(link);
        assert_eq!(n.dead_link_count(), 1);
        n.revive_link(link);
        assert_eq!(n.dead_link_count(), 0);
        let dst = n.mesh().node_at(3, 0).unwrap();
        n.inject(from, dst, 1);
        n.drain(100);
        assert_eq!(n.stats().delivered.len(), 1);
    }

    #[test]
    fn stats_ratio_and_latency() {
        let mut n = net(Routing::Xy);
        let s = n.mesh().node_at(0, 0).unwrap();
        let d = n.mesh().node_at(1, 0).unwrap();
        n.inject(s, d, 1);
        n.drain(100);
        assert_eq!(n.stats().delivery_ratio(), 1.0);
        assert_eq!(n.stats().mean_latency(), Some(1.0));
    }

    #[test]
    fn random_link_killing_is_deterministic() {
        let mut rng1 = SimRng::new(5);
        let mut rng2 = SimRng::new(5);
        let mut a = net(Routing::Xy);
        let mut b = net(Routing::Xy);
        a.kill_links_randomly(0.2, &mut rng1);
        b.kill_links_randomly(0.2, &mut rng2);
        assert_eq!(a.dead_link_count(), b.dead_link_count());
    }

    #[test]
    fn drain_skips_idle_cycles_but_reports_elapsed_time() {
        // hop_cycles > 1 leaves gaps between attempt times; the event
        // queue must jump them while reporting the same elapsed span the
        // tick loop would.
        let mut n = Network::new(
            Mesh2d::new(4, 1),
            NetworkConfig { routing: Routing::Xy, stall_timeout: 64, hop_cycles: 5 },
        );
        let s = n.mesh().node_at(0, 0).unwrap();
        let d = n.mesh().node_at(3, 0).unwrap();
        n.inject(s, d, 1);
        let elapsed = n.drain(10_000);
        assert_eq!(elapsed, 15, "3 hops x 5 cycles each");
        assert_eq!(n.stats().delivered[0].latency, 15);
        assert_eq!(n.now(), 15);
    }

    #[test]
    fn drain_budget_matches_reference_with_multi_cycle_hops() {
        // The budget-crossing tick still executes (reference semantics):
        // with hop_cycles = 5 and a 3-cycle budget, the scan-loop model
        // ticks once (now 0 -> 5) because the budget was unspent when the
        // tick started. The event queue must do the same hop, not skip it.
        let config = NetworkConfig { routing: Routing::Xy, stall_timeout: 64, hop_cycles: 5 };
        let mesh = Mesh2d::new(4, 1);
        let s = mesh.node_at(0, 0).unwrap();
        let d = mesh.node_at(1, 0).unwrap();
        let mut fast = Network::new(mesh, config.clone());
        let mut reference = crate::reference::ReferenceNetwork::new(mesh, config);
        fast.inject(s, d, 1);
        reference.inject(s, d, 1);
        let fast_elapsed = fast.drain(3);
        let ref_elapsed = reference.drain(3);
        assert_eq!(fast_elapsed, ref_elapsed, "budget overshoot must match");
        assert_eq!(fast_elapsed, 5, "the started tick completes");
        assert_eq!(fast.stats().delivered.len(), 1, "one-hop packet delivered");
        assert_eq!(reference.delivered.len(), 1);
    }

    #[test]
    fn link_script_drop_window_is_time_phased() {
        // The same (src, dst) pair before, during, and after the drop
        // window: only the in-window packet dies, and it dies as a drop
        // (the link is not dead — the fault is transient).
        let src_dst =
            |n: &Network| (n.mesh().node_at(0, 0).unwrap(), n.mesh().node_at(1, 0).unwrap());
        let mut n = net(Routing::Xy);
        let (s, d) = src_dst(&n);
        let from = s;
        n.set_link_script(
            LinkScript::new().fault(LinkFaultWindow {
                link: LinkId { from, dir: Direction::East.into() },
                window: Window::new(10, 20),
                drop_rate: 1.0,
                corrupt_rate: 0.0,
                extra_delay: 0,
            }),
            7,
        );
        n.inject(s, d, 1); // crosses at cycle 1: before the window
        n.drain(5);
        assert_eq!(n.stats().delivered.len(), 1);
        while n.now() < 14 {
            n.tick(); // advance into the window
        }
        n.inject(s, d, 1); // crosses at cycle 15: inside the window
        n.drain(3);
        assert_eq!(n.stats().dropped.len(), 1);
        assert!(!n.stats().dropped[0].dead_end, "scripted loss is not a dead end");
        while n.now() < 25 {
            n.tick(); // window over
        }
        n.inject(s, d, 1);
        n.drain(5);
        assert_eq!(n.stats().delivered.len(), 2, "healed link delivers again");
    }

    #[test]
    fn link_script_corruption_delivers_but_is_recorded() {
        let mut n = net(Routing::Xy);
        let s = n.mesh().node_at(0, 0).unwrap();
        let d = n.mesh().node_at(2, 0).unwrap();
        n.set_link_script(
            LinkScript::new().fault(LinkFaultWindow {
                link: LinkId { from: s, dir: Direction::East.into() },
                window: Window::ALWAYS,
                drop_rate: 0.0,
                corrupt_rate: 1.0,
                extra_delay: 0,
            }),
            7,
        );
        let p = n.inject(s, d, 1);
        n.drain(100);
        assert_eq!(n.stats().delivered.len(), 1, "corruption does not stop delivery");
        assert_eq!(n.stats().corrupted, vec![p], "the MAC layer must see this packet flagged");
    }

    #[test]
    fn link_script_extra_delay_slows_the_scripted_link_only() {
        let path = |script: Option<LinkScript>| {
            let mut n = net(Routing::Xy);
            let s = n.mesh().node_at(0, 0).unwrap();
            let d = n.mesh().node_at(3, 0).unwrap();
            if let Some(sc) = script {
                n.set_link_script(sc, 7);
            }
            n.inject(s, d, 1);
            n.drain(1000);
            n.stats().delivered[0].latency
        };
        let clean = path(None);
        let mid = Mesh2d::new(4, 4).node_at(1, 0).unwrap();
        let slowed = path(Some(LinkScript::new().fault(LinkFaultWindow {
            link: LinkId { from: mid, dir: Direction::East.into() },
            window: Window::ALWAYS,
            drop_rate: 0.0,
            corrupt_rate: 0.0,
            extra_delay: 9,
        })));
        assert_eq!(slowed, clean + 9, "one degraded hop adds exactly its extra delay");
    }

    #[test]
    fn empty_link_script_changes_nothing() {
        let run = |with_empty_script: bool| {
            let mut n = net(Routing::Xy);
            let s = n.mesh().node_at(0, 0).unwrap();
            let d = n.mesh().node_at(3, 3).unwrap();
            if with_empty_script {
                n.set_link_script(LinkScript::new(), 99);
            }
            n.inject(s, d, 1);
            n.inject(s, d, 1);
            n.drain(1000);
            n.stats().delivered.iter().map(|x| (x.packet.0, x.at, x.hops)).collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true), "disabled hooks must be invisible");
    }

    #[test]
    fn drain_respects_cycle_budget() {
        let mut n = net(Routing::Xy);
        let s = n.mesh().node_at(0, 0).unwrap();
        let d = n.mesh().node_at(3, 3).unwrap();
        n.inject(s, d, 1);
        let elapsed = n.drain(3);
        assert_eq!(elapsed, 3, "budget pins the elapsed span");
        assert_eq!(n.in_flight(), 1, "packet still traveling");
        n.drain(100);
        assert_eq!(n.stats().delivered.len(), 1);
    }
}
