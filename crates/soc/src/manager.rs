//! The epoch control loop: detector → controller → workload → voted
//! rejuvenation/relocation. This is the vertical integration the paper
//! sketches in Fig. 1, held by the root package's `tests/layered_stack.rs`.

use crate::privilege::{PrivilegeGate, PrivilegedOp, Vote};
use crate::soc::{ResilientSoc, SocConfig};
use crate::tile::{TileHealth, TileId};
use rsoc_adapt::{AnomalySample, Deployment, ThreatDetector, ThreatLevel, LADDER};
use rsoc_bft::runner::RunReport;
use rsoc_crypto::MacKey;
use rsoc_diversity::VariantId;
use rsoc_fpga::{Bitstream, FpgaFabric, Icap, ReconfigEngine, Region};

/// Frames each tile's softcore occupies on the fabric.
const FRAMES_PER_TILE: u32 = 2;
/// Words per frame in the managed fabric.
const WORDS_PER_FRAME: usize = 8;
/// Kernel replicas voting at the privilege gate.
const KERNELS: u32 = 3;
/// Vote quorum at the gate.
const GATE_THRESHOLD: usize = 2;

/// Manager feature toggles (the layer ablation switches).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManagerConfig {
    /// Rejuvenate compromised tiles at epoch end.
    pub enable_rejuvenation: bool,
    /// Rejuvenate onto *diverse* variants (vs same variant).
    pub enable_diversity: bool,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig { enable_rejuvenation: true, enable_diversity: true }
    }
}

/// Faults injected into one epoch (the experiment's ground truth).
#[derive(Debug, Clone, Default)]
pub struct EpochThreat {
    /// Tiles the adversary compromises this epoch.
    pub compromise: Vec<TileId>,
    /// Tiles that crash benignly this epoch.
    pub crash: Vec<TileId>,
    /// SEU events observed in protected registers this epoch.
    pub seu_events: u32,
}

/// Outcome of one epoch.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Detected threat level after this epoch's observations.
    pub level: ThreatLevel,
    /// Deployment the epoch's workload ran: the level's rung of
    /// [`LADDER`], or the strongest rung below it the live tiles can host.
    pub deployment: Deployment,
    /// The workload run report.
    pub run: RunReport,
    /// Tiles rejuvenated at epoch end.
    pub rejuvenated: Vec<TileId>,
    /// Softcore relocations performed.
    pub relocations: u32,
    /// Gate (approved, denied) counters after the epoch.
    pub gate_stats: (u64, u64),
}

/// The SoC resilience manager.
#[derive(Debug)]
pub struct SocManager {
    soc: ResilientSoc,
    engine: ReconfigEngine,
    gate: PrivilegeGate,
    detector: ThreatDetector,
    config: ManagerConfig,
    bs_key: MacKey,
    epoch: u64,
}

impl SocManager {
    /// Builds the SoC, its fabric (every tile's softcore configured through
    /// the gate), and the control plane.
    ///
    /// # Panics
    /// Panics if gate provisioning or initial configuration fails (a bug,
    /// not an input condition).
    pub fn new(soc_config: SocConfig, config: ManagerConfig) -> Self {
        let soc = ResilientSoc::new(soc_config);
        let tiles = soc.tiles().len() as u32;
        // Fabric with 100% spare capacity for relocation.
        let total_frames = tiles * FRAMES_PER_TILE * 2;
        let fabric = FpgaFabric::new(total_frames, 1, WORDS_PER_FRAME);
        let bs_key = MacKey::derive(soc_config.seed, "bitstream-authority");
        let mut icap = Icap::new(bs_key.clone());
        icap.allow(PrivilegeGate::GATE_PRINCIPAL, Region::new(0, total_frames));
        let engine = ReconfigEngine::new(fabric, icap);
        let gate = PrivilegeGate::new(soc_config.seed, KERNELS, GATE_THRESHOLD);
        let detector = ThreatDetector::new();
        let mut mgr = SocManager { soc, engine, gate, detector, config, bs_key, epoch: 0 };
        // Initial configuration: tile i's softcore in region [i*F, F).
        for i in 0..tiles {
            let region = Region::new(i * FRAMES_PER_TILE, FRAMES_PER_TILE);
            let variant = mgr.soc.tiles()[i as usize].variant;
            let op = PrivilegedOp::Reconfigure {
                region,
                block: i as u64,
                bitstream: Bitstream::for_variant(
                    variant.0 as u64,
                    region,
                    WORDS_PER_FRAME,
                    &mgr.bs_key,
                ),
            };
            mgr.approve_and_execute(&op).expect("initial configuration must succeed");
        }
        mgr
    }

    /// The underlying SoC.
    pub fn soc(&self) -> &ResilientSoc {
        &self.soc
    }

    /// The reconfiguration engine (fabric inspection).
    pub fn engine(&self) -> &ReconfigEngine {
        &self.engine
    }

    /// The current detected threat level.
    pub fn threat_level(&self) -> ThreatLevel {
        self.detector.level()
    }

    /// Collects votes from all (correct) kernels and executes through the
    /// gate.
    fn approve_and_execute(
        &mut self,
        op: &PrivilegedOp,
    ) -> Result<(), crate::privilege::GateError> {
        let votes: Vec<Vote> = (0..KERNELS)
            .map(|k| Vote::sign(k, self.gate.kernel_key(k).expect("provisioned"), op))
            .collect();
        self.gate.execute(&mut self.engine, op, &votes)
    }

    /// Runs one epoch: inject faults, observe, (maybe) adapt, run the
    /// workload, (maybe) rejuvenate/relocate through the gate.
    pub fn run_epoch(
        &mut self,
        threat: &EpochThreat,
        clients: u32,
        requests_per_client: u64,
    ) -> EpochReport {
        self.epoch += 1;
        // 1. Ground truth faults land.
        for t in &threat.compromise {
            self.soc.compromise_tile(*t);
        }
        for t in &threat.crash {
            self.soc.crash_tile(*t);
        }

        // 2. Monitors feed the detector: compromised replicas reveal
        //    themselves through failed certificate verifications and
        //    equivocation attempts during the workload.
        let visible_compromised =
            self.soc.tiles().iter().filter(|t| t.health == TileHealth::Compromised).count() as u32;
        let crashed = threat.crash.len() as u32;
        let level = self.detector.observe(AnomalySample {
            equivocations: visible_compromised,
            mac_failures: visible_compromised * 2,
            timeouts: crashed,
            seu_events: threat.seu_events,
        });

        // 3. Deployment: the level's rung, stepped down until the live
        //    tiles can host it (passive is the floor).
        let live =
            self.soc.tiles().iter().filter(|t| t.health != TileHealth::Crashed).count() as u32;
        let deployment = LADDER[..=level as usize]
            .iter()
            .rev()
            .find(|d| d.replicas() <= live)
            .map_or(LADDER[0], |d| *d);

        // 4. Workload.
        let run =
            self.soc.run_workload(deployment.protocol, deployment.f, clients, requests_per_client);

        // 5. Rejuvenation + relocation through the gate.
        let mut rejuvenated = Vec::new();
        let mut relocations = 0u32;
        if self.config.enable_rejuvenation {
            let victims: Vec<TileId> = self
                .soc
                .tiles()
                .iter()
                .filter(|t| t.health == TileHealth::Compromised)
                .map(|t| t.id)
                .collect();
            for tile in victims {
                let op = PrivilegedOp::RejuvenateTile { tile };
                if self.approve_and_execute(&op).is_err() {
                    continue;
                }
                let new_variant = if self.config.enable_diversity {
                    let avoid: Vec<VariantId> =
                        self.soc.tiles().iter().map(|t| t.variant).collect();
                    let mut rng = self.soc.rng_mut().fork(0xE90C + tile.0 as u64);
                    self.soc.pool_mut().diverse_replacement(&avoid, &mut rng)
                } else {
                    self.soc.tiles()[tile.0 as usize].variant
                };
                // Spatial rejuvenation: decommission the old site, bring the
                // softcore up elsewhere. Pick the destination *before*
                // freeing the old site so the block genuinely moves to a
                // different grid location.
                let block = tile.0 as u64;
                let old_region = self.engine.fabric().block_region(block);
                let fresh = self.engine.fabric().find_free_region(FRAMES_PER_TILE);
                let _ = self.engine.decommission(PrivilegeGate::GATE_PRINCIPAL, block);
                let target =
                    fresh.or_else(|| self.engine.fabric().find_free_region(FRAMES_PER_TILE));
                if let Some(region) = target {
                    let op = PrivilegedOp::Reconfigure {
                        region,
                        block,
                        bitstream: Bitstream::for_variant(
                            new_variant.0 as u64,
                            region,
                            WORDS_PER_FRAME,
                            &self.bs_key,
                        ),
                    };
                    if self.approve_and_execute(&op).is_ok() {
                        if Some(region) != old_region {
                            relocations += 1;
                        }
                        self.soc.tile_mut(tile).rejuvenate(new_variant);
                        rejuvenated.push(tile);
                    }
                }
            }
        }
        EpochReport {
            level,
            deployment,
            run,
            rejuvenated,
            relocations,
            gate_stats: self.gate.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsoc_bft::Protocol;

    fn manager(seed: u64) -> SocManager {
        SocManager::new(SocConfig { mesh_width: 4, mesh_height: 4, seed }, ManagerConfig::default())
    }

    #[test]
    fn initial_configuration_places_all_tiles() {
        let mgr = manager(1);
        for i in 0..16u64 {
            assert!(mgr.engine().fabric().block_region(i).is_some(), "tile {i} configured");
        }
        assert_eq!(mgr.threat_level(), ThreatLevel::Low);
    }

    #[test]
    fn quiet_epoch_commits_and_stays_cheap() {
        let mut mgr = manager(2);
        let report = mgr.run_epoch(&EpochThreat::default(), 1, 5);
        assert_eq!(report.level, ThreatLevel::Low);
        assert_eq!(report.run.committed, 5);
        assert!(report.run.safety_ok);
        assert_eq!(report.deployment.protocol, Protocol::Passive, "low threat → cheap");
        assert!(report.rejuvenated.is_empty());
    }

    #[test]
    fn attack_epoch_escalates_masks_and_rejuvenates() {
        let mut mgr = manager(3);
        // Warm the detector with one noisy epoch, then attack.
        mgr.run_epoch(
            &EpochThreat { compromise: vec![], seu_events: 1, ..Default::default() },
            1,
            2,
        );
        let attack = EpochThreat { compromise: vec![TileId(5)], ..Default::default() };
        let report = mgr.run_epoch(&attack, 1, 4);
        assert!(report.level >= ThreatLevel::Elevated, "detector must notice");
        assert!(report.run.safety_ok, "the deployment masks the Byzantine tile");
        assert_eq!(report.rejuvenated, vec![TileId(5)], "victim rejuvenated via the gate");
        // The tile is healthy again with a fresh variant.
        let tile = &mgr.soc().tiles()[5];
        assert_eq!(tile.health, TileHealth::Healthy);
        let denied = report.gate_stats.1;
        assert_eq!(denied, 0, "all-correct kernels always reach quorum");
    }

    #[test]
    fn relocation_moves_softcore_on_rejuvenation() {
        let mut mgr = manager(4);
        let before = mgr.engine().fabric().block_region(5).unwrap();
        let attack = EpochThreat { compromise: vec![TileId(5)], ..Default::default() };
        let report = mgr.run_epoch(&attack, 1, 2);
        assert_eq!(report.rejuvenated, vec![TileId(5)]);
        assert_eq!(report.relocations, 1);
        let after = mgr.engine().fabric().block_region(5).unwrap();
        assert_ne!(before, after, "spatial rejuvenation must move the block");
    }

    #[test]
    fn diversity_toggle_controls_variant_change() {
        let mut with =
            SocManager::new(SocConfig { seed: 5, ..Default::default() }, ManagerConfig::default());
        let mut without = SocManager::new(
            SocConfig { seed: 5, ..Default::default() },
            ManagerConfig { enable_diversity: false, ..Default::default() },
        );
        let v_before = with.soc().tiles()[2].variant;
        let attack = EpochThreat { compromise: vec![TileId(2)], ..Default::default() };
        with.run_epoch(&attack, 1, 2);
        without.run_epoch(&attack, 1, 2);
        assert_ne!(with.soc().tiles()[2].variant, v_before, "diverse rejuvenation changes variant");
        assert_eq!(without.soc().tiles()[2].variant, v_before, "same-variant restart keeps it");
    }

    #[test]
    fn a_small_chip_runs_the_strongest_rung_it_can_host() {
        // High asks for MinBFT f=2: five replicas on a four-tile chip.
        let mut mgr = SocManager::new(
            SocConfig { mesh_width: 2, mesh_height: 2, seed: 6 },
            ManagerConfig::default(),
        );
        let attack = EpochThreat { compromise: vec![TileId(0), TileId(1)], ..Default::default() };
        let report = mgr.run_epoch(&attack, 1, 3);
        assert_eq!(report.level, ThreatLevel::High);
        assert_eq!(report.deployment, Deployment { protocol: Protocol::MinBft, f: 1 });
        assert!(report.run.safety_ok);
        assert_eq!(report.run.committed, 3);
    }

    #[test]
    fn crashed_tiles_cap_the_deployment() {
        // Nine live tiles: Critical asks for PBFT f=3, which needs ten.
        let mut mgr = manager(7);
        mgr.run_epoch(
            &EpochThreat { crash: (9..16).map(TileId).collect(), ..Default::default() },
            1,
            2,
        );
        let attack = |tiles: [u32; 3]| EpochThreat {
            compromise: tiles.map(TileId).to_vec(),
            ..Default::default()
        };
        mgr.run_epoch(&attack([0, 1, 2]), 1, 3);
        let report = mgr.run_epoch(&attack([3, 4, 5]), 1, 3);
        assert_eq!(report.level, ThreatLevel::Critical);
        assert_eq!(report.deployment, Deployment { protocol: Protocol::MinBft, f: 2 });
        assert!(report.run.safety_ok);
        assert_eq!(report.run.committed, 3);
    }

    #[test]
    fn epochs_are_deterministic() {
        let run = |seed| {
            let mut m = manager(seed);
            let r = m.run_epoch(
                &EpochThreat { compromise: vec![TileId(1)], ..Default::default() },
                2,
                3,
            );
            (r.run.committed, r.run.messages_total, r.rejuvenated.clone())
        };
        assert_eq!(run(7), run(7));
    }
}
