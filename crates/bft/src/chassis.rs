//! The replica chassis: what every replica is, whichever protocol orders
//! its requests — written once.
//!
//! PBFT, MinBFT and passive replication are three ordering disciplines
//! inside one replica (§II-A), and rejuvenation is wipe plus re-join
//! whichever of them runs (§II-C). A [`Replica<P>`] owns what every replica
//! has — its id, the cluster's `n` and `f`, its fault script, the virtual
//! time of the input in hand, the outage flag and the [`Shell`] — and `P`
//! holds the protocol's own state (slots, windows, view ledger, USIG,
//! epoch). [`Replicas<P>`] is a cluster of them. The chassis owns, once:
//!
//! | the chassis…                                            | the protocol supplies…  |
//! |---------------------------------------------------------|-------------------------|
//! | swallows every input inside a crash window              | —                       |
//! | starts the timer chains on the first input after it, a wipe or assembly | [`Core::revive`] |
//! | drops a [`ShellMsg`] that names a sender other than its link | —                  |
//! | hands a voucher to [`Shell::on_voucher`]                | [`Core::certified`]     |
//! | serves a state request ([`Shell::serve_transfer`])      | [`Core::view`]          |
//! | admits a state response at f+1 and installs it          | [`Core::installed`]     |
//! | routes every other input                                | [`Core::dispatch`]      |
//! | then chases a stable certificate ahead of execution     | —                       |
//! | gates outputs: a muted script's messages are dropped, its timers pass | —         |
//! | wipes the shell and the protocol state, keeps the script | [`Core::wipe`]         |
//! | recovers through the shell, then runs the protocol tail | [`Core::recovered`]     |
//! | answers the [`ReplicaNode`] reads                       | [`Core::view`]          |
//! | provisions a cluster from a [`RunConfig`]               | the replica constructor |
//!
//! A protocol file keeps its message enum (its own messages plus one
//! `Shell(ShellMsg)` variant), its state and its handlers: inherent
//! `impl Replica<…>` blocks that reach the shell, the script and `now` as
//! fields of the replica they run on, and the protocol's own state as
//! `core`. Passive replication implements [`Core`] itself; PBFT and MinBFT
//! share one implementation, the agreement front-end
//! ([`Agreement`](crate::agreement::Agreement)), and supply only a
//! [`Discipline`](crate::agreement::Discipline).

use crate::adversary::ReplicaScript;
use crate::api::{
    Batch, Cluster, Endpoint, Input, LogEntry, Outbox, ReplicaId, ReplicaNode, Reply, Request,
};
use crate::checkpoint::{CheckpointStats, CkptKeys, CstInstall};
use crate::durable::{DurableEvent, RecoveredState, RecoveryReport};
use crate::protocol::Protocol;
use crate::runner::RunConfig;
use crate::shell::{Carrier, Shell, ShellMsg};
use std::fmt;
use std::sync::Arc;

/// What differs between the protocols that share the chassis. (`pub` only
/// so the public `Replica<P>` impls may name it; the module is private.)
pub trait Core: Sized {
    /// The protocol's wire messages.
    type Msg: Carrier + fmt::Debug;
    /// Which protocol this core is.
    const PROTOCOL: Protocol;
    /// Wraps a client request.
    const REQUEST: fn(Arc<Request>) -> Self::Msg;

    /// Routes one timer or protocol message (never a [`ShellMsg`]: the
    /// chassis routes those) to its handler, emitting effects into `out`.
    fn dispatch(r: &mut Replica<Self>, input: Input<Self::Msg>, out: &mut Outbox<Self::Msg>);

    /// Starts the self-re-arming timer chains — on the first input after
    /// assembly or a wipe, and again after an outage killed them. By
    /// default: one patience timer per request the replica watches.
    fn revive(r: &mut Replica<Self>, out: &mut Outbox<Self::Msg>) {
        r.shell.rearm_patience(out);
    }

    /// The current view (passive: epoch).
    fn view(&self) -> u64;

    /// Rejuvenation: forgets the protocol's volatile state.
    fn wipe(&mut self);

    /// The digest a committed log entry carries for a batch.
    const ENTRY_DIGEST: fn(&Batch) -> [u8; 32] = Batch::digest;

    /// A peer's voucher completed a stable certificate. By default
    /// nothing: the shell already truncated its log.
    fn certified(_: &mut Replica<Self>) {}

    /// The protocol's tail after the shell installed the quorum-voted
    /// transfer `plan`.
    fn installed(r: &mut Replica<Self>, plan: &CstInstall, out: &mut Outbox<Self::Msg>);

    /// The protocol's tail after the shell replayed `state` on restart.
    fn recovered(r: &mut Replica<Self>, state: &RecoveredState);

    /// MAC operations performed so far. By default none: only MinBFT's
    /// USIG authenticates in the model.
    fn mac_count(&self) -> u64 {
        0
    }
}

/// One replica of protocol `P` (see the module docs).
#[derive(Debug)]
pub struct Replica<P> {
    pub(crate) id: ReplicaId,
    /// Cluster size.
    pub(crate) n: u32,
    /// Byzantine faults the cluster masks (0 for passive replication).
    pub(crate) f: u32,
    pub(crate) script: ReplicaScript,
    /// Virtual time of the input being handled (scripts are time-phased).
    pub(crate) now: u64,
    /// Set while a crash window swallows inputs; the first input after it
    /// revives the timer chains killed in the outage.
    in_outage: bool,
    /// Whether the timer chains started since assembly or the last wipe.
    booted: bool,
    /// Request intake, execution, checkpoints, state transfer, durability.
    pub(crate) shell: Shell,
    /// The protocol's own state.
    pub(crate) core: P,
}

impl<P: Core> Replica<P> {
    /// Replica `id` of an `n`-replica cluster masking `f` faults, with
    /// `voucher_quorum` matching vouchers certifying a checkpoint.
    pub(crate) fn assemble(id: ReplicaId, n: u32, f: u32, voucher_quorum: usize, core: P) -> Self {
        let shell = Shell::new(id, n, voucher_quorum);
        Replica {
            id,
            n,
            f,
            script: ReplicaScript::correct(),
            now: 0,
            in_outage: false,
            booted: false,
            shell,
            core,
        }
    }

    /// Current view (passive: epoch): [`ReplicaNode::current_view`]
    /// without the trait in scope.
    pub fn view(&self) -> u64 {
        self.core.view()
    }

    /// Digest of the replica's state-machine state:
    /// [`ReplicaNode::state_digest`] without the trait in scope.
    pub fn state_digest(&self) -> [u8; 32] {
        self.shell.state_digest()
    }
}

// Every message a peer (or a forged client) sends enters here.
// lint: ingress
impl<P: Core> Replica<P> {
    /// Routes one input — a shell message here, anything else to the
    /// protocol — then chases any stable certificate it revealed ahead of
    /// local execution (post-wipe, or crashed past retention),
    /// rate-limited by the transfer backoff.
    fn step(&mut self, input: Input<P::Msg>, out: &mut Outbox<P::Msg>) {
        match input {
            Input::Message { from, msg } => match msg.into_shell() {
                Ok(msg) => self.route(from, msg, out),
                Err(msg) => P::dispatch(self, Input::Message { from, msg }, out),
            },
            timer => P::dispatch(self, timer, out),
        }
        self.shell.request_transfer(self.now, out);
    }

    /// Routes a shell message, the same for every protocol. Each one names
    /// its sender and counts only over that sender's own link: one link
    /// naming two ids is one replica — not two vouchers, not a transfer
    /// reflected at a third party, and not two of the f+1 responders a
    /// transfer installs on. A Byzantine responder script corrupts a served
    /// transfer only where the protocol masks Byzantine faults: passive
    /// replication has no quorum to outvote a lie, so its content-attack
    /// scripts stay inert (a compromised passive tile shows as silence or
    /// crash).
    pub(crate) fn route(&mut self, from: Endpoint, msg: ShellMsg, out: &mut Outbox<P::Msg>) {
        if from != Endpoint::Replica(msg.sender()) {
            return;
        }
        match msg {
            ShellMsg::Checkpoint(voucher) => {
                if self.shell.on_voucher(&voucher) {
                    P::certified(self);
                }
            }
            ShellMsg::StateRequest { have, from: to } => {
                let byzantine = P::PROTOCOL.tolerates_byzantine();
                self.shell.serve_transfer(
                    have,
                    to,
                    self.core.view(),
                    byzantine && self.script.corrupts_snapshot_at(self.now),
                    byzantine && self.script.corrupts_suffix_at(self.now),
                    out,
                );
            }
            ShellMsg::StateResponse(st) => {
                let Some(plan) = self.shell.admit_transfer(*st, self.f as usize + 1) else {
                    return;
                };
                self.shell.install(&plan, P::ENTRY_DIGEST);
                P::installed(self, &plan, out);
            }
            ShellMsg::Reply(_) => {}
        }
    }
}
// lint: end

// The node-facing input surface: every simulator event enters here.
// lint: ingress
impl<P: Core> ReplicaNode for Replica<P> {
    type Msg = P::Msg;

    fn id(&self) -> ReplicaId {
        self.id
    }

    fn on_input(&mut self, input: Input<P::Msg>, now: u64, out: &mut Outbox<P::Msg>) {
        self.now = now;
        if self.script.crashed_at(now) {
            self.in_outage = true;
            return;
        }
        if self.in_outage {
            // Fail-recover: timers whose firing landed inside the outage
            // were swallowed with it, and each was the only link of its
            // chain — revive the chains once.
            self.in_outage = false;
            P::revive(self, out);
        }
        if !self.booted {
            // Assembled or wiped: nothing started the chains yet. (After an
            // outage in that state this arms a second chain beside the one
            // just revived — harmless, each fire re-arms one successor.)
            self.booted = true;
            P::revive(self, out);
        }
        if self.script.unconstrained() {
            // Fast path (the overwhelmingly common case): a correct
            // replica's outputs are never gated, so handlers write the
            // caller's outbox directly — no staging buffer.
            self.step(input, out);
            return;
        }
        let mut staged = Outbox::new();
        self.step(input, &mut staged);
        // Script gate on outputs (timers always pass — they are local).
        if self.script.sends_at(now) {
            out.msgs.extend(staged.msgs);
        }
        out.timers.extend(staged.timers);
    }

    fn committed_log(&self) -> &[LogEntry] {
        self.shell.log()
    }

    fn committed_seq(&self) -> u64 {
        self.shell.committed()
    }

    fn wipe(&mut self) {
        // Rejuvenation: volatile protocol and application state goes; the
        // replica's identity, keys, fault script and the self-verifying
        // stable certificate (trusted persistent store) stay.
        self.in_outage = false;
        self.booted = false;
        self.core.wipe();
        self.shell.wipe();
    }

    fn checkpoint_stats(&self) -> CheckpointStats {
        self.shell.ckpt().stats()
    }

    fn checkpoint_history(&self) -> &[(u64, [u8; 32])] {
        self.shell.ckpt().history()
    }

    fn make_request(req: Arc<Request>) -> P::Msg {
        P::REQUEST(req)
    }

    fn as_reply(msg: &P::Msg) -> Option<&Reply> {
        match msg.as_shell() {
            Some(ShellMsg::Reply(reply)) => Some(reply),
            _ => None,
        }
    }

    fn state_digest(&self) -> [u8; 32] {
        self.shell.state_digest()
    }

    fn current_view(&self) -> u64 {
        self.core.view()
    }

    fn enable_durability(&mut self) {
        self.shell.enable_durability();
    }

    fn drain_durable(&mut self, out: &mut Vec<DurableEvent>) {
        self.shell.drain_durable(out);
    }

    fn recover(&mut self, state: RecoveredState) -> RecoveryReport {
        let report = self.shell.recover(&state, P::ENTRY_DIGEST);
        P::recovered(self, &state);
        report
    }

    fn mac_count(&self) -> u64 {
        self.core.mac_count()
    }
}
// lint: end

/// A cluster of [`Replica<P>`]s (index = replica id).
#[derive(Debug)]
pub struct Replicas<P> {
    nodes: Vec<Replica<P>>,
}

impl<P: Core> Replicas<P> {
    /// Builds the protocol's replicas for `config.f` with `make` and
    /// configures each from `config`: batching, patience, and checkpoints
    /// under one key set.
    pub(crate) fn provision(config: &RunConfig, make: impl Fn(ReplicaId) -> Replica<P>) -> Self {
        let n = P::PROTOCOL.replicas(config.f);
        let keys = CkptKeys::provision(config.seed, n as usize);
        let nodes = (0..n)
            .map(|i| {
                let mut r = make(ReplicaId(i));
                r.shell.set_batching(config.batch_size, config.batch_flush);
                r.shell.set_patience(config.request_patience);
                r.shell.set_checkpointing(config.checkpoint_interval, Arc::clone(&keys));
                r
            })
            .collect();
        Replicas { nodes }
    }
}

impl<P: Core> Cluster for Replicas<P> {
    type Node = Replica<P>;

    fn nodes_mut(&mut self) -> &mut [Replica<P>] {
        &mut self.nodes
    }

    fn nodes(&self) -> &[Replica<P>] {
        &self.nodes
    }

    fn into_nodes(self) -> Vec<Replica<P>> {
        self.nodes
    }

    /// f+1 matching replies: one more than the faults the cluster masks.
    fn reply_quorum(&self) -> usize {
        self.nodes.first().map_or(1, |r| r.f as usize + 1)
    }

    fn protocol_name(&self) -> &'static str {
        P::PROTOCOL.name()
    }

    fn correct_replicas(&self) -> Vec<ReplicaId> {
        self.nodes.iter().filter(|r| !r.script.is_byzantine()).map(|r| r.id).collect()
    }

    fn set_script(&mut self, id: ReplicaId, script: ReplicaScript) {
        self.nodes[id.0 as usize].script = script;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::Window;
    use crate::api::{ClientId, OpId};
    use crate::checkpoint::{verify_image, StateTransfer};
    use crate::minbft::MinBftCluster;
    use crate::passive::PassiveCluster;
    use crate::pbft::PbftCluster;
    use crate::runner::run;

    /// Client 1's request `seq`.
    fn request<P: Core>(seq: u64) -> Input<P::Msg> {
        let op = OpId { client: ClientId(1), seq };
        let req = Arc::new(Request { op, payload: format!("SET k v{seq}").into_bytes() });
        Input::Message { from: Endpoint::Client(ClientId(1)), msg: P::REQUEST(req) }
    }

    /// A timer kind no protocol arms: every replica ignores it.
    fn idle<M>() -> Input<M> {
        Input::Timer { kind: u32::MAX, token: 0 }
    }

    /// `requester`'s state request, having executed nothing.
    fn ask<M: From<ShellMsg>>(requester: ReplicaId) -> M {
        ShellMsg::StateRequest { have: 0, from: requester }.into()
    }

    /// Twelve requests with a checkpoint every four slots: every replica
    /// ends holding a stable certificate and the image it certifies.
    fn checkpointed<P: Core>(make: fn(&RunConfig) -> Replicas<P>) -> Replicas<P> {
        let config = RunConfig {
            clients: 2,
            requests_per_client: 6,
            checkpoint_interval: 4,
            ..RunConfig::default()
        };
        let mut cluster = make(&config);
        run(&mut cluster, &config);
        cluster
    }

    /// What the chassis promises whichever protocol it carries.
    fn keeps_the_contract<P: Core>(make: fn(&RunConfig) -> Replicas<P>) {
        let name = P::PROTOCOL.name();
        let config = RunConfig { batch_size: 2, ..RunConfig::default() };
        // An input inside a crash window emits nothing; the first one after
        // it revives exactly the chains the replica had running — a
        // backup's patience for the request it watches, or its detector.
        let mut backup = make(&config).into_nodes().swap_remove(1);
        backup.script = ReplicaScript::correct().crash(Window::new(100, 200));
        let mut running = Outbox::new();
        backup.on_input(request::<P>(1), 10, &mut running);
        assert!(running.msgs.is_empty() && !running.timers.is_empty(), "{name}");
        let mut out = Outbox::new();
        backup.on_input(request::<P>(2), 150, &mut out);
        assert!(out.msgs.is_empty() && out.timers.is_empty(), "{name}: emitted while crashed");
        backup.on_input(idle(), 250, &mut out);
        assert!(out.msgs.is_empty(), "{name}");
        assert_eq!(out.timers, running.timers, "{name}: the revived chains");

        // A muting script stages the messages and drops them; timers are
        // local and pass.
        let primary = || make(&config).into_nodes().swap_remove(0);
        let (mut loud, mut muted) = (primary(), primary());
        muted.script = ReplicaScript::correct().silence(Window::ALWAYS);
        let (mut heard, mut kept) = (Outbox::new(), Outbox::new());
        for (seq, now) in [(1, 10), (2, 20)] {
            loud.on_input(request::<P>(seq), now, &mut heard);
            muted.on_input(request::<P>(seq), now, &mut kept);
        }
        assert!(!heard.msgs.is_empty() && !heard.timers.is_empty(), "{name}");
        assert!(kept.msgs.is_empty(), "{name}: a muted replica sent");
        assert_eq!(kept.timers, heard.timers, "{name}");

        // A wipe keeps the script and the stable certificate, and nothing
        // it executed.
        let mut cluster = checkpointed(make);
        let script = ReplicaScript::correct().silence(Window::new(1 << 40, 1 << 41));
        cluster.set_script(ReplicaId(1), script.clone());
        let node = &mut cluster.nodes_mut()[1];
        let stable = node.shell.ckpt().stable_seq();
        assert!(stable > 0 && node.committed_seq() > 0, "{name}");
        node.wipe();
        assert_eq!((node.committed_seq(), node.shell.ckpt().stable_seq()), (0, stable), "{name}");
        assert_eq!(node.script, script, "{name}");
    }

    #[test]
    fn every_protocol_keeps_the_chassis_contract() {
        keeps_the_contract(PbftCluster::new);
        keeps_the_contract(MinBftCluster::new);
        keeps_the_contract(PassiveCluster::new);
    }

    /// A transfer is the whole state: a request naming a replica but
    /// arriving on another link (here a client's) must not be answered to
    /// the replica it names.
    fn serves_transfers_only_over_the_requesters_link<P: Core>(
        make: fn(&RunConfig) -> Replicas<P>,
    ) {
        let mut nodes = checkpointed(make).into_nodes();
        let requester = ReplicaId(nodes.len() as u32 - 1);
        let server = &mut nodes[0];
        assert!(server.shell.ckpt().stable_seq() > 0, "{}", P::PROTOCOL.name());
        let ask = |from| Input::Message { from, msg: ask(requester) };
        let mut out = Outbox::new();
        server.on_input(ask(Endpoint::Client(ClientId(1))), 1 << 30, &mut out);
        assert!(
            out.msgs.is_empty(),
            "{}: a transfer reflected to {requester:?}",
            P::PROTOCOL.name()
        );
        server.on_input(ask(Endpoint::Replica(requester)), 1 << 30, &mut out);
        let to: Vec<Endpoint> = out.msgs.iter().map(|(to, _)| *to).collect();
        assert_eq!(to, [Endpoint::Replica(requester)], "{}", P::PROTOCOL.name());
    }

    #[test]
    fn state_requests_are_served_only_over_the_requesters_link() {
        serves_transfers_only_over_the_requesters_link(PbftCluster::new);
        serves_transfers_only_over_the_requesters_link(MinBftCluster::new);
        serves_transfers_only_over_the_requesters_link(PassiveCluster::new);
    }

    /// The one transfer `server` answers `requester`'s request with, asked
    /// over the requester's own link.
    fn served<P: Core>(server: &mut Replica<P>, requester: ReplicaId) -> StateTransfer {
        let from = Endpoint::Replica(requester);
        let mut out = Outbox::new();
        server.on_input(Input::Message { from, msg: ask(requester) }, 1 << 30, &mut out);
        match out.msgs.pop().map(|(to, msg)| (to, msg.into_shell())) {
            Some((to, Ok(ShellMsg::StateResponse(st)))) if to == from => *st,
            other => panic!("{}: expected one state response, got {other:?}", P::PROTOCOL.name()),
        }
    }

    /// A content-attack script corrupts a served image only where the
    /// protocol masks Byzantine faults: passive replication has no second
    /// responder to outvote a flipped byte, so its scripts stay inert.
    fn corrupts_images_only_where_byzantine_faults_are_masked<P: Core>(
        make: fn(&RunConfig) -> Replicas<P>,
    ) {
        let mut nodes = checkpointed(make).into_nodes();
        let requester = ReplicaId(nodes.len() as u32 - 1);
        let server = &mut nodes[0];
        server.script = ReplicaScript::correct().corrupt_snapshots(Window::ALWAYS);
        let st = served(server, requester);
        let intact = verify_image(&st.cert, &st.snapshot).is_some();
        assert_eq!(intact, !P::PROTOCOL.tolerates_byzantine(), "{}", P::PROTOCOL.name());
    }

    #[test]
    fn content_attack_scripts_corrupt_transfers_only_under_byzantine_protocols() {
        corrupts_images_only_where_byzantine_faults_are_masked(PbftCluster::new);
        corrupts_images_only_where_byzantine_faults_are_masked(MinBftCluster::new);
        corrupts_images_only_where_byzantine_faults_are_masked(PassiveCluster::new);
    }

    /// A transfer installs on f+1 responders, one per link: replica 0's
    /// tampered transfer, delivered twice over its own link — once as
    /// itself, once relabelled as replica 1 — must not install on a wiped
    /// replica. With replica 1's honest answer the two agree on the
    /// certified image and out-vote the tampered suffix.
    fn installs_transfers_only_from_f_plus_1_links<P: Core>(make: fn(&RunConfig) -> Replicas<P>) {
        let name = P::PROTOCOL.name();
        let mut nodes = checkpointed(make).into_nodes();
        let requester = ReplicaId(nodes.len() as u32 - 1);
        nodes[0].script = ReplicaScript::correct().corrupt_suffixes(Window::ALWAYS);
        let lie = served(&mut nodes[0], requester);
        let honest = served(&mut nodes[1], requester);
        let mut relabelled = lie.clone();
        relabelled.from = ReplicaId(1);
        let digest = nodes[1].state_digest();
        let wiped = &mut nodes[requester.0 as usize];
        wiped.wipe();
        let mut out = Outbox::new();
        let mut deliver = |wiped: &mut Replica<P>, link: u32, st: StateTransfer| {
            let msg = ShellMsg::StateResponse(Box::new(st)).into();
            let from = Endpoint::Replica(ReplicaId(link));
            wiped.on_input(Input::Message { from, msg }, 1 << 30, &mut out);
        };
        deliver(wiped, 0, lie);
        deliver(wiped, 0, relabelled);
        assert_eq!(wiped.committed_seq(), 0, "{name}: one link installed a transfer");
        deliver(wiped, 1, honest);
        assert!(wiped.committed_seq() > 0, "{name}");
        assert_eq!(wiped.state_digest(), digest, "{name}");
    }

    #[test]
    fn one_link_cannot_forge_a_state_transfer_quorum() {
        installs_transfers_only_from_f_plus_1_links(PbftCluster::new);
        installs_transfers_only_from_f_plus_1_links(MinBftCluster::new);
    }
}
