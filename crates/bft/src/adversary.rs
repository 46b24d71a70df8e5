//! Composable, time-phased fault and intrusion scripts — the adversarial
//! scenario engine behind the F5 campaign.
//!
//! The flat [`Behavior`] enum could express six
//! hard-coded misbehaviours, each interpreted ad hoc inside one protocol.
//! A resilience *campaign* (the paper's §I claim: accidental faults *and*
//! targeted intrusions) needs faults that compose and evolve over virtual
//! time: a primary that crashes and recovers, a link that degrades for a
//! window, a partition that heals, a client-side flood that subsides. This
//! module provides three layers:
//!
//! * [`ReplicaScript`] — per-replica, time-phased fault windows: crash /
//!   recover, silence, equivocation, UI forgery, duplicated / reordered
//!   sends, stale-message replay, rejuvenation and state-transfer or
//!   checkpoint lies. Replicas interpret only the *content* attacks
//!   (equivocation, forgery — those need protocol knowledge to fabricate
//!   conflicting messages); every transport-level window is interpreted
//!   uniformly by the [runner](crate::runner::run_scenario), not per
//!   protocol.
//! * [`Scenario`] — a whole-run script: replica scripts plus network-level
//!   faults (replica-set partitions over a cycle window, per-source link
//!   degradation with drop/delay, DoS-rate client floods).
//! * [`ScenarioOracle`] — the pass/fail judge run after every scenario:
//!   **safety always** (no two correct replicas commit conflicting ops at a
//!   sequence; state digests of equally-advanced correct replicas agree at
//!   quiesce) and **liveness once faults heal** (every op from a correct
//!   client commits within the run's patience bound).
//!
//! All scripts are plain data (`Clone + Debug`), deterministic to
//! interpret, and **free when disabled**: an empty scenario leaves the
//! runner's virtual-time trace bit-identical to the unscripted path (the
//! BENCH_2/3/4 records regenerate unchanged — asserted in CI).

use crate::api::{Batch, Cluster, ReplicaNode, Request};
use crate::runner::RunReport;
use rsoc_sim::PulseTrain;
use std::sync::Arc;
// The time-phasing primitive is shared with the NoC's `LinkScript` via
// `rsoc_sim`, so window-containment semantics cannot drift between the
// message-plane and packet-plane fault interpreters.
pub use rsoc_sim::Window;

/// Named one-fault presets (§I: benign *and* malicious/Byzantine faults)
/// kept for ergonomic scenario setup. Each preset lowers to a one-window
/// [`ReplicaScript`] via `From`, and the protocols interpret only
/// scripts — install one with
/// [`Cluster::set_script`]`(id, Behavior::Silent.into())`. Content
/// attacks (equivocation, UI forgery) are still realized per protocol:
/// an "equivocating" PBFT primary actually sends conflicting
/// pre-prepares, and a MinBFT attacker actually fabricates USIG
/// certificates (which then fail verification — the hybrid at work).
///
/// (Folded in from the former `behavior` module: the preset enum now
/// lives next to the script engine it lowers onto, and the deprecated
/// `set_behavior` cluster shim is gone.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Behavior {
    /// Follows the protocol.
    #[default]
    Correct,
    /// Crashed from the start: ignores everything, sends nothing.
    Crashed,
    /// Crashes at the given virtual time (benign fail-stop).
    CrashAt(u64),
    /// Receives but never sends (omission fault / kill-switch silence).
    Silent,
    /// Byzantine: when primary, sends conflicting proposals to different
    /// backups; when backup, votes for bogus digests.
    Equivocate,
    /// Byzantine (MinBFT-specific): attempts to reuse a USIG counter by
    /// forging a certificate for a second conflicting message.
    ForgeUi,
}

/// A stale-message replay schedule: while the window is active, every
/// `period` cycles the network re-injects up to `burst` of the replica's
/// oldest recorded protocol sends (stale views, consumed USIG counters,
/// already-applied state updates — the receiver must reject them all).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplaySpec {
    /// When the replay attack runs.
    pub window: Window,
    /// Cycles between injection bursts (clamped to ≥ 1).
    pub period: u64,
    /// Recorded messages re-sent per burst.
    pub burst: usize,
}

impl ReplaySpec {
    /// The burst schedule as a scripted event source.
    pub fn train(&self) -> PulseTrain {
        PulseTrain::new(self.window.from, self.window.until, self.period)
    }
}

/// One kind of replica fault, active over a [`Window`] of a
/// [`ReplicaScript`]. Adding a kind is one variant here and one builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fault {
    /// Inputs are ignored; the replica resumes with its pre-crash state.
    Crash,
    /// The replica receives but sends nothing.
    Silence,
    /// PBFT-style conflicting proposals.
    Equivocate,
    /// MinBFT-style fabricated certificates.
    ForgeUi,
    /// Every send is delivered twice.
    Duplicate,
    /// Each outbox burst departs in reversed order.
    Reorder,
    /// Stale-message replay (see [`ReplaySpec`]).
    Replay { period: u64, burst: usize },
    /// A wipe at the window's first cycle (the window is one cycle long).
    Rejuvenate,
    /// Served state-transfer snapshots are tampered with.
    CorruptSnapshot,
    /// Served log suffixes carry uncommitted batches.
    CorruptSuffix,
    /// Checkpoint vouchers are cast over a fabricated digest.
    ForgeCheckpoint,
}

impl Fault {
    /// Whether the fault attacks the replica's *content* (its logs and
    /// state), which takes the replica out of cross-replica safety checks.
    fn is_content_attack(self) -> bool {
        matches!(
            self,
            Fault::Equivocate
                | Fault::ForgeUi
                | Fault::CorruptSnapshot
                | Fault::CorruptSuffix
                | Fault::ForgeCheckpoint
        )
    }
}

/// A composable, time-phased fault script for one replica: one list of
/// windowed faults.
///
/// Windows compose freely: a replica can equivocate early, fall silent
/// for a window, then crash for good. The [`Behavior`] presets convert
/// losslessly via `From`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplicaScript {
    faults: Vec<(Window, Fault)>,
}

impl ReplicaScript {
    /// A script with no faults (the correct replica).
    pub fn correct() -> Self {
        Self::default()
    }

    fn with(mut self, w: Window, fault: Fault) -> Self {
        self.faults.push((w, fault));
        self
    }

    /// Adds a crash window: inputs are ignored while it is active; the
    /// replica resumes with its pre-crash state afterwards (fail-recover).
    pub fn crash(self, w: Window) -> Self {
        self.with(w, Fault::Crash)
    }

    /// Adds a silence window: the replica receives but sends nothing
    /// (omission fault / kill-switch).
    pub fn silence(self, w: Window) -> Self {
        self.with(w, Fault::Silence)
    }

    /// Adds an equivocation window (PBFT-style conflicting proposals).
    pub fn equivocate(self, w: Window) -> Self {
        self.with(w, Fault::Equivocate)
    }

    /// Adds a UI-forgery window (MinBFT-style fabricated certificates).
    pub fn forge_ui(self, w: Window) -> Self {
        self.with(w, Fault::ForgeUi)
    }

    /// Adds a duplication window: every send is delivered twice.
    pub fn duplicate_sends(self, w: Window) -> Self {
        self.with(w, Fault::Duplicate)
    }

    /// Adds a reorder window: each outbox burst departs in reversed order.
    pub fn reorder_sends(self, w: Window) -> Self {
        self.with(w, Fault::Reorder)
    }

    /// Adds a stale-replay schedule (see [`ReplaySpec`]).
    pub fn replay_sends(self, spec: ReplaySpec) -> Self {
        self.with(spec.window, Fault::Replay { period: spec.period, burst: spec.burst })
    }

    /// Schedules a rejuvenation at virtual time `at`: the runner wipes the
    /// replica's volatile state (see [`ReplicaNode::wipe`]) and it must
    /// re-join through certificate-verified state transfer.
    pub fn rejuvenate_at(self, at: u64) -> Self {
        self.with(Window::new(at, at.saturating_add(1)), Fault::Rejuvenate)
    }

    /// Adds a snapshot-corruption window: state-transfer snapshots this
    /// replica *serves* during it are tampered with (the requester's
    /// certificate cross-check must reject them).
    pub fn corrupt_snapshots(self, w: Window) -> Self {
        self.with(w, Fault::CorruptSnapshot)
    }

    /// Adds a suffix-corruption window: the log suffixes this replica
    /// *serves* with state transfers during it carry batches the cluster
    /// never committed (certificate and snapshot stay honest, so only the
    /// requester's f+1 slot-by-slot vote can out-vote the lie).
    pub fn corrupt_suffixes(self, w: Window) -> Self {
        self.with(w, Fault::CorruptSuffix)
    }

    /// Adds a checkpoint-forgery window: instead of honest vouchers, the
    /// replica broadcasts vouchers over a fabricated state digest (one
    /// with a garbage MAC, one properly keyed — neither may certify).
    pub fn forge_checkpoints(self, w: Window) -> Self {
        self.with(w, Fault::ForgeCheckpoint)
    }

    /// True when the script has no faults at all — the hot-path flag the
    /// protocols use to skip the staging outbox entirely.
    pub fn unconstrained(&self) -> bool {
        self.faults.is_empty()
    }

    /// Whether a window of `fault` covers `now`.
    pub(crate) fn active(&self, now: u64, fault: Fault) -> bool {
        self.faults.iter().any(|&(w, f)| f == fault && w.contains(now))
    }

    /// Every windowed fault, in the order the builders added them.
    pub(crate) fn faults(&self) -> &[(Window, Fault)] {
        &self.faults
    }

    /// The replay schedule at list position `i`, if that fault is one.
    pub(crate) fn replay(&self, i: usize) -> Option<ReplaySpec> {
        let &(window, Fault::Replay { period, burst }) = self.faults.get(i)? else { return None };
        Some(ReplaySpec { window, period, burst })
    }

    /// Whether the script mounts a *content* attack (equivocation, UI
    /// forgery, checkpoint forgery, snapshot or suffix corruption) at any
    /// time. Such replicas are excluded from cross-replica safety checks —
    /// their logs and state are attacker-controlled. Transport-level
    /// faults (crash, silence, duplication, reordering, replay) and
    /// rejuvenation leave the replica's *state* honest, so it stays in the
    /// checked set.
    pub fn is_byzantine(&self) -> bool {
        self.faults.iter().any(|(_, f)| f.is_content_attack())
    }

    /// The first cycle by which every windowed fault of this script is
    /// over (`u64::MAX` when any window never heals). A rejuvenation is
    /// over the cycle after the wipe (recovery itself is the protocol's
    /// job).
    pub fn heals_by(&self) -> u64 {
        self.faults.iter().map(|(w, _)| w.until).max().unwrap_or(0)
    }
}

impl From<Behavior> for ReplicaScript {
    /// Every preset is a one-window script; the lowering is lossless, so
    /// preset-driven runs are bit-identical to their scripted spelling.
    fn from(b: Behavior) -> Self {
        let s = ReplicaScript::correct();
        match b {
            Behavior::Correct => s,
            Behavior::Crashed => s.crash(Window::ALWAYS),
            Behavior::CrashAt(t) => s.crash(Window::from(t)),
            Behavior::Silent => s.silence(Window::ALWAYS),
            Behavior::Equivocate => s.equivocate(Window::ALWAYS),
            Behavior::ForgeUi => s.forge_ui(Window::ALWAYS),
        }
    }
}

/// What an equivocating primary proposes beside `batch` to the other half
/// of its backups: the same operations, every payload reversed.
pub(crate) fn conflicting_batch(batch: &Batch) -> Arc<Batch> {
    let evil = batch.requests().iter().map(|r| {
        let mut e = Request::clone(r);
        e.payload.reverse();
        Arc::new(e)
    });
    Arc::new(Batch::new(evil.collect()))
}

/// A replica-set partition over a cycle window: while active, every
/// protocol message crossing the boundary between `members` and the rest
/// of the cluster is lost. Clients sit at the I/O tile and stay reachable
/// (the partition models inter-tile NoC links, not the client port).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Replica ids on the severed side.
    pub members: Vec<u32>,
    /// When the partition holds.
    pub window: Window,
}

/// Windowed degradation of one replica's egress links (or all replicas'
/// when `source` is `None`): probabilistic drops plus a fixed extra delay,
/// optionally narrowed to one destination replica.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFault {
    /// Source replica (`None` = every replica's egress).
    pub source: Option<u32>,
    /// Destination replica (`None` = any destination).
    pub dest: Option<u32>,
    /// When the fault is active.
    pub window: Window,
    /// Probability a crossing message is lost (drawn from the fault RNG).
    pub drop_rate: f64,
    /// Extra cycles added to every crossing message.
    pub extra_delay: u64,
}

/// A DoS-rate client flood: a non-workload attacker client injects one
/// well-formed request every `period` cycles while the window is active.
/// Replicas must order and execute them like any request; the oracle
/// counts only the *workload* clients for liveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flood {
    /// When the flood runs.
    pub window: Window,
    /// Cycles between injected requests (clamped to ≥ 1).
    pub period: u64,
    /// Payload bytes per flood request.
    pub payload_size: usize,
}

impl Flood {
    /// The injection schedule as a scripted event source.
    pub fn train(&self) -> PulseTrain {
        PulseTrain::new(self.window.from, self.window.until, self.period)
    }
}

/// A whole-run adversarial scenario: per-replica scripts plus
/// network-level faults, interpreted uniformly by
/// [`run_scenario`](crate::runner::run_scenario).
#[derive(Debug, Clone, Default)]
pub struct Scenario {
    /// Per-replica fault scripts (replica id, script).
    pub replicas: Vec<(u32, ReplicaScript)>,
    /// Replica-set partitions.
    pub partitions: Vec<Partition>,
    /// Link degradations on the message plane.
    pub links: Vec<LinkFault>,
    /// DoS-rate client floods.
    pub floods: Vec<Flood>,
}

impl Scenario {
    /// The empty (fault-free) scenario.
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds a replica script.
    pub fn script(mut self, replica: u32, script: ReplicaScript) -> Self {
        self.replicas.push((replica, script));
        self
    }

    /// Adds a partition isolating `members` during `window`.
    pub fn partition(mut self, members: Vec<u32>, window: Window) -> Self {
        self.partitions.push(Partition { members, window });
        self
    }

    /// Adds a link fault.
    pub fn link_fault(mut self, fault: LinkFault) -> Self {
        self.links.push(fault);
        self
    }

    /// Adds a client flood.
    pub fn flood(mut self, flood: Flood) -> Self {
        self.floods.push(flood);
        self
    }

    /// True when the scenario contains no faults at all. The runner uses
    /// this to keep the unscripted hot path branch-predictable: one load
    /// and test per event, no per-message scenario scans.
    pub fn is_empty(&self) -> bool {
        self.replicas.iter().all(|(_, s)| s.unconstrained())
            && self.partitions.is_empty()
            && self.links.is_empty()
            && self.floods.is_empty()
    }

    /// The first cycle by which every fault in the scenario is over
    /// (`u64::MAX` when anything never heals). Permanent *crash* windows
    /// are tolerated faults, not healing ones — liveness expectations stay
    /// with the caller, which knows the protocol's fault threshold.
    pub fn heals_by(&self) -> u64 {
        let replica_heal = self.replicas.iter().map(|(_, s)| s.heals_by()).max().unwrap_or(0);
        let partition_heal = self.partitions.iter().map(|p| p.window.until).max().unwrap_or(0);
        let link_heal = self.links.iter().map(|l| l.window.until).max().unwrap_or(0);
        let flood_heal = self.floods.iter().map(|f| f.window.until).max().unwrap_or(0);
        replica_heal.max(partition_heal).max(link_heal).max(flood_heal)
    }

    /// The script for `replica`, if any (merging is not supported: one
    /// script per replica, last one wins).
    pub fn script_for(&self, replica: u32) -> Option<&ReplicaScript> {
        self.replicas.iter().rev().find(|(r, _)| *r == replica).map(|(_, s)| s)
    }
}

/// The verdict of one [`ScenarioOracle`] judgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleVerdict {
    /// No two correct replicas committed conflicting entries (from the
    /// runner's cross-replica log check).
    pub safety_ok: bool,
    /// All equally-advanced correct replicas hold identical state-machine
    /// digests at quiesce.
    pub digests_ok: bool,
    /// Every workload-client op reached its reply quorum.
    pub liveness_ok: bool,
}

impl OracleVerdict {
    /// Overall pass: safety, digest agreement and liveness.
    pub fn pass(&self) -> bool {
        self.safety_ok && self.digests_ok && self.liveness_ok
    }
}

/// The safety/liveness judge run after every scenario cell.
///
/// Safety is judged unconditionally: Byzantine faults may *never* split
/// the correct replicas, healed or not. Liveness is required too: every
/// scenario the campaigns and tests run keeps its faults inside the
/// protocol's tolerance, or heals them before the patience bound.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioOracle;

impl ScenarioOracle {
    /// An oracle that requires liveness.
    pub fn expecting_liveness() -> Self {
        ScenarioOracle
    }

    /// Judges one finished run: `expected_ops` is the workload total
    /// (clients × requests per client, floods excluded).
    pub fn judge<C: Cluster>(
        &self,
        cluster: &C,
        report: &RunReport,
        expected_ops: u64,
    ) -> OracleVerdict {
        let correct = cluster.correct_replicas();
        let nodes = cluster.nodes();
        // Digest agreement at quiesce: correct replicas at the same total
        // committed progress must hold the same state. Progress is
        // `committed_seq()`, not retained-log length — with checkpointing
        // enabled the log truncates below the stable watermark (and a
        // state-transferred replica holds only a suffix), so equally
        // advanced replicas can retain different entry counts. Laggards (a
        // partitioned or recovering replica still catching up) are compared
        // only against peers at their own progress — their log overlap is
        // already covered by the safety check.
        let mut digests_ok = true;
        for (i, &a) in correct.iter().enumerate() {
            for &b in &correct[i + 1..] {
                let (na, nb) = (&nodes[a.0 as usize], &nodes[b.0 as usize]);
                if na.committed_seq() == nb.committed_seq()
                    && na.state_digest() != nb.state_digest()
                {
                    digests_ok = false;
                }
            }
        }
        OracleVerdict {
            safety_ok: report.safety_ok,
            digests_ok,
            liveness_ok: report.committed >= expected_ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use Fault::*;

    /// Every fault kind (a new variant joins this list).
    const KINDS: [Fault; 11] = [
        Crash,
        Silence,
        Equivocate,
        ForgeUi,
        Duplicate,
        Reorder,
        Replay { period: 5, burst: 2 },
        Rejuvenate,
        CorruptSnapshot,
        CorruptSuffix,
        ForgeCheckpoint,
    ];

    /// Adds `kind` over `w` through its public builder. Exhaustive, so a
    /// new variant does not compile until it has a builder here.
    fn add(s: ReplicaScript, kind: Fault, w: Window) -> ReplicaScript {
        match kind {
            Crash => s.crash(w),
            Silence => s.silence(w),
            Equivocate => s.equivocate(w),
            ForgeUi => s.forge_ui(w),
            Duplicate => s.duplicate_sends(w),
            Reorder => s.reorder_sends(w),
            Replay { period, burst } => s.replay_sends(ReplaySpec { window: w, period, burst }),
            // A rejuvenation is instantaneous: `w` names only its cycle.
            Rejuvenate => s.rejuvenate_at(w.from),
            CorruptSnapshot => s.corrupt_snapshots(w),
            CorruptSuffix => s.corrupt_suffixes(w),
            ForgeCheckpoint => s.forge_checkpoints(w),
        }
    }

    /// The window `add(_, kind, [from, until))` stores.
    fn stored(kind: Fault, from: u64, until: u64) -> Window {
        Window::new(from, if kind == Rejuvenate { from + 1 } else { until })
    }

    #[test]
    fn every_fault_kind_is_active_exactly_in_its_windows() {
        let content: Vec<Fault> = KINDS.into_iter().filter(|f| f.is_content_attack()).collect();
        assert_eq!(content, [Equivocate, ForgeUi, CorruptSnapshot, CorruptSuffix, ForgeCheckpoint]);
        for kind in KINDS {
            let w = stored(kind, 100, 200);
            let s = add(ReplicaScript::correct(), kind, Window::new(100, 200));
            assert_eq!(s.faults(), [(w, kind)], "{kind:?}");
            assert!(s.active(w.from, kind) && s.active(w.until - 1, kind), "{kind:?}");
            assert!(!s.active(w.from - 1, kind) && !s.active(w.until, kind), "{kind:?}");
            for other in KINDS.into_iter().filter(|&o| o != kind) {
                assert!(!s.active(w.from, other), "{kind:?} leaks into {other:?}");
            }
            assert_eq!(s.is_byzantine(), content.contains(&kind), "{kind:?}");
            assert_eq!(s.heals_by(), w.until, "{kind:?}");
            assert!(!s.unconstrained(), "{kind:?}");

            // Overlapping windows compose: the kind is active wherever
            // either window is, and heals when the later one does.
            let (a, b) = (w, stored(kind, 150, 300));
            let both = add(s, kind, Window::new(150, 300));
            for t in [99, 100, 101, 120, 149, 150, 151, 199, 200, 250, 299, 300] {
                let want = a.contains(t) || b.contains(t);
                assert_eq!(both.active(t, kind), want, "{kind:?} at {t}");
            }
            assert_eq!(both.heals_by(), b.until, "{kind:?}");
        }
        let none = ReplicaScript::correct();
        assert!(none.unconstrained() && !none.is_byzantine() && none.heals_by() == 0);
        assert!(KINDS.iter().all(|&kind| !none.active(0, kind) && !none.active(u64::MAX, kind)));
        assert_eq!(ReplicaScript::correct().rejuvenate_at(u64::MAX).heals_by(), u64::MAX);
    }

    #[test]
    fn behavior_presets_convert_losslessly() {
        let lowered = |b: Behavior| ReplicaScript::from(b).faults().to_vec();
        assert_eq!(lowered(Behavior::Correct), []);
        assert_eq!(lowered(Behavior::Crashed), [(Window::ALWAYS, Crash)]);
        assert_eq!(lowered(Behavior::CrashAt(10)), [(Window::from(10), Crash)]);
        assert_eq!(lowered(Behavior::Silent), [(Window::ALWAYS, Silence)]);
        assert_eq!(lowered(Behavior::Equivocate), [(Window::ALWAYS, Equivocate)]);
        assert_eq!(lowered(Behavior::ForgeUi), [(Window::ALWAYS, ForgeUi)]);

        let crash_at = ReplicaScript::from(Behavior::CrashAt(10));
        assert!(!crash_at.active(9, Crash) && crash_at.active(10, Crash));
        let silent = ReplicaScript::from(Behavior::Silent);
        assert!(!silent.active(5, Crash), "silent receives");
        assert!(silent.active(5, Silence), "silent never sends");
        assert!(ReplicaScript::from(Behavior::Equivocate).is_byzantine());
        assert!(ReplicaScript::from(Behavior::ForgeUi).is_byzantine());
        assert!(!ReplicaScript::from(Behavior::Crashed).is_byzantine());
    }

    #[test]
    fn scripts_compose_phases() {
        // Equivocate early, silent in the middle, crashed at the end —
        // each phase queried independently.
        let s = ReplicaScript::correct()
            .equivocate(Window::new(0, 100))
            .silence(Window::new(200, 300))
            .crash(Window::from(400));
        assert!(s.active(50, Equivocate) && !s.active(150, Equivocate));
        assert!(!s.active(150, Silence) && !s.active(150, Crash));
        assert!(s.active(250, Silence) && !s.active(250, Crash));
        assert!(s.active(400, Crash) && !s.active(400, Silence));
        assert!(s.is_byzantine());
        assert_eq!(s.heals_by(), u64::MAX);
        assert!(!s.unconstrained());
    }

    #[test]
    fn transport_fault_queries() {
        let replay = Replay { period: 5, burst: 2 };
        let s = ReplicaScript::correct()
            .duplicate_sends(Window::new(5, 6))
            .reorder_sends(Window::new(8, 9))
            .replay_sends(ReplaySpec { window: Window::new(40, 50), period: 5, burst: 2 })
            .rejuvenate_at(30);
        assert!(s.active(5, Duplicate) && !s.active(6, Duplicate));
        assert!(s.active(8, Reorder) && !s.active(9, Reorder));
        assert_eq!(s.faults()[2], (Window::new(40, 50), replay));
        assert_eq!(s.faults()[3], (Window::new(30, 31), Rejuvenate));
        assert!(!s.is_byzantine(), "transport faults keep state honest");
        assert_eq!(s.heals_by(), 50);
    }

    #[test]
    fn scenario_emptiness_and_heal_time() {
        assert!(Scenario::none().is_empty());
        assert_eq!(Scenario::none().heals_by(), 0);
        let sc = Scenario::none()
            .script(0, ReplicaScript::correct().crash(Window::new(100, 200)))
            .partition(vec![3], Window::new(50, 400))
            .link_fault(LinkFault {
                source: Some(1),
                dest: None,
                window: Window::new(10, 600),
                drop_rate: 0.5,
                extra_delay: 0,
            })
            .flood(Flood { window: Window::new(0, 300), period: 40, payload_size: 16 });
        assert!(!sc.is_empty());
        assert_eq!(sc.heals_by(), 600);
        assert!(sc.script_for(0).is_some());
        assert!(sc.script_for(1).is_none());
        // A scenario whose only script is unconstrained is still empty.
        let noop = Scenario::none().script(2, ReplicaScript::correct());
        assert!(noop.is_empty());
    }

    #[test]
    fn verdict_pass_rules() {
        let v = |safety, digests, live| OracleVerdict {
            safety_ok: safety,
            digests_ok: digests,
            liveness_ok: live,
        };
        assert!(v(true, true, true).pass());
        assert!(!v(true, true, false).pass(), "liveness is required");
        assert!(!v(false, true, true).pass(), "safety is required");
        assert!(!v(true, false, true).pass(), "digest agreement is required");
    }
}
