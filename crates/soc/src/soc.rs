//! The tile inventory and protocol-run orchestration.

use crate::tile::{Tile, TileHealth, TileId};
use rsoc_bft::adversary::Behavior;
use rsoc_bft::api::Cluster;
use rsoc_bft::runner::{run, LatencyModel, RunConfig, RunReport};
use rsoc_bft::{ClusterJob, Protocol, ReplicaId};
use rsoc_diversity::{PoolConfig, VariantPool};
use rsoc_noc::Mesh2d;
use rsoc_sim::SimRng;

/// SoC construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SocConfig {
    /// Mesh width (tiles per row).
    pub mesh_width: u16,
    /// Mesh height.
    pub mesh_height: u16,
    /// Seed for variant generation and workload randomness.
    pub seed: u64,
}

impl Default for SocConfig {
    fn default() -> Self {
        SocConfig { mesh_width: 4, mesh_height: 4, seed: 1 }
    }
}

/// The manycore SoC: one tile per mesh node, diverse variants, and the
/// machinery to run replicated workloads across tiles.
#[derive(Debug)]
pub struct ResilientSoc {
    config: SocConfig,
    mesh: Mesh2d,
    tiles: Vec<Tile>,
    pool: VariantPool,
    rng: SimRng,
}

impl ResilientSoc {
    /// Builds the SoC with a diverse initial variant assignment
    /// (round-robin across the pool's initial variants).
    pub fn new(config: SocConfig) -> Self {
        let mesh = Mesh2d::new(config.mesh_width, config.mesh_height);
        let mut rng = SimRng::new(config.seed);
        let pool = VariantPool::generate(PoolConfig::default(), &mut rng);
        let initial = pool.config().initial_variants;
        let tiles = mesh
            .nodes()
            .enumerate()
            .map(|(i, node)| {
                let c = mesh.coord(node);
                Tile::new(
                    TileId(i as u32),
                    (c.x, c.y),
                    rsoc_diversity::VariantId(i as u32 % initial),
                )
            })
            .collect();
        ResilientSoc { config, mesh, tiles, pool, rng }
    }

    /// The construction parameters.
    pub fn config(&self) -> SocConfig {
        self.config
    }

    /// The mesh.
    pub fn mesh(&self) -> &Mesh2d {
        &self.mesh
    }

    /// All tiles.
    pub fn tiles(&self) -> &[Tile] {
        &self.tiles
    }

    /// Mutable tile access (fault injection, rejuvenation).
    ///
    /// # Panics
    /// Panics for out-of-range ids.
    pub fn tile_mut(&mut self, id: TileId) -> &mut Tile {
        &mut self.tiles[id.0 as usize]
    }

    /// The variant pool (shared with the manager for diverse rejuvenation).
    pub fn pool_mut(&mut self) -> &mut VariantPool {
        &mut self.pool
    }

    /// The SoC-level RNG (forked per use for determinism).
    pub fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Marks a tile crashed.
    pub fn crash_tile(&mut self, id: TileId) {
        self.tile_mut(id).health = TileHealth::Crashed;
    }

    /// Marks a tile adversary-controlled.
    pub fn compromise_tile(&mut self, id: TileId) {
        self.tile_mut(id).health = TileHealth::Compromised;
    }

    /// Chooses the replica tiles for a deployment of `n` replicas:
    /// healthy-first, then (to model undetected intrusions) compromised
    /// tiles — crashed tiles are always skipped because placement knows a
    /// dead tile when it sees one. Returns `None` when fewer than `n`
    /// non-crashed tiles exist.
    pub fn select_replica_tiles(&self, n: usize) -> Option<Vec<TileId>> {
        let mut chosen: Vec<TileId> = self
            .tiles
            .iter()
            .filter(|t| t.health == TileHealth::Healthy)
            .map(|t| t.id)
            .take(n)
            .collect();
        if chosen.len() < n {
            let more: Vec<TileId> = self
                .tiles
                .iter()
                .filter(|t| t.health == TileHealth::Compromised && !chosen.contains(&t.id))
                .map(|t| t.id)
                .take(n - chosen.len())
                .collect();
            chosen.extend(more);
        }
        (chosen.len() == n).then_some(chosen)
    }

    /// Builds the NoC latency model for a replica placement.
    fn latency_for(&self, placement: &[TileId]) -> LatencyModel {
        LatencyModel::MeshHops {
            replica_at: placement.iter().map(|t| self.tiles[t.0 as usize].coord).collect(),
            client_at: (0, 0),
            per_hop: 1,
            overhead: 3,
        }
    }

    /// Runs a replicated workload over the SoC: picks replica tiles, maps
    /// tile health to protocol behaviours (compromised → Byzantine,
    /// crashed → excluded by placement), and executes the chosen protocol
    /// with NoC-hop latencies.
    ///
    /// # Panics
    /// Panics when not enough non-crashed tiles exist for the deployment.
    pub fn run_workload(
        &mut self,
        protocol: Protocol,
        f: u32,
        clients: u32,
        requests_per_client: u64,
    ) -> RunReport {
        let n = protocol.replicas(f) as usize;
        let placement =
            self.select_replica_tiles(n).expect("not enough usable tiles for deployment");
        let seed = self.rng.next_u64();
        let config = RunConfig::builder()
            .f(f)
            .clients(clients)
            .requests_per_client(requests_per_client)
            .seed(seed)
            .latency(self.latency_for(&placement))
            .max_cycles(20_000_000)
            .build();
        // Compromised tiles run Byzantine replicas; the protocol must mask them.
        let byz: Vec<ReplicaId> = placement
            .iter()
            .enumerate()
            .filter(|(_, t)| self.tiles[t.0 as usize].health == TileHealth::Compromised)
            .map(|(i, _)| ReplicaId(i as u32))
            .collect();
        protocol.build(&config, Workload { config: &config, byz, behavior: byzantine(protocol) })
    }
}

/// How a compromised tile behaves under each protocol. Passive
/// replication has no Byzantine mode: a compromised tile cannot forge the
/// absent MACs profitably in this model, but it withholds service.
fn byzantine(protocol: Protocol) -> Behavior {
    match protocol {
        Protocol::Pbft => Behavior::Equivocate,
        Protocol::MinBft => Behavior::ForgeUi,
        Protocol::Passive => Behavior::Silent,
    }
}

/// A closed-loop run with `behavior` scripted on the `byz` replicas.
struct Workload<'a> {
    config: &'a RunConfig,
    byz: Vec<ReplicaId>,
    behavior: Behavior,
}

impl ClusterJob for Workload<'_> {
    type Output = RunReport;
    fn run<C: Cluster>(self, mut cluster: C) -> RunReport {
        for &r in &self.byz {
            cluster.set_script(r, self.behavior.into());
        }
        run(&mut cluster, self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soc_builds_diverse_tiles() {
        let soc = ResilientSoc::new(SocConfig::default());
        assert_eq!(soc.tiles().len(), 16);
        let distinct: std::collections::BTreeSet<_> =
            soc.tiles().iter().map(|t| t.variant).collect();
        assert!(distinct.len() >= 4, "initial assignment is diverse");
    }

    #[test]
    fn minbft_workload_runs_over_noc() {
        let mut soc = ResilientSoc::new(SocConfig { seed: 3, ..Default::default() });
        let report = soc.run_workload(Protocol::MinBft, 1, 2, 5);
        assert_eq!(report.committed, 10);
        assert!(report.safety_ok);
        assert_eq!(report.n_replicas, 3);
    }

    #[test]
    fn pbft_workload_masks_compromised_tile() {
        let mut soc = ResilientSoc::new(SocConfig { seed: 4, ..Default::default() });
        soc.compromise_tile(TileId(0));
        let report = soc.run_workload(Protocol::Pbft, 1, 1, 5);
        assert!(report.safety_ok, "one Byzantine tile must be masked at f=1");
        assert_eq!(report.committed, 5);
    }

    #[test]
    fn placement_skips_crashed_tiles() {
        let mut soc = ResilientSoc::new(SocConfig::default());
        soc.crash_tile(TileId(0));
        soc.crash_tile(TileId(1));
        let placement = soc.select_replica_tiles(4).unwrap();
        assert!(!placement.contains(&TileId(0)));
        assert!(!placement.contains(&TileId(1)));
    }

    #[test]
    fn placement_fails_when_chip_exhausted() {
        let mut soc = ResilientSoc::new(SocConfig { mesh_width: 2, mesh_height: 2, seed: 1 });
        for i in 0..3 {
            soc.crash_tile(TileId(i));
        }
        assert!(soc.select_replica_tiles(2).is_none());
    }

    #[test]
    fn passive_workload_runs() {
        let mut soc = ResilientSoc::new(SocConfig { seed: 5, ..Default::default() });
        let report = soc.run_workload(Protocol::Passive, 1, 1, 5);
        assert_eq!(report.committed, 5);
        assert_eq!(report.n_replicas, 2);
    }
}
