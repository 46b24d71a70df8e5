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
//! | routes a client request, over any link                  | [`Core::intake`]        |
//! | resolves every other message's link to a replica of the cluster, or refuses and counts it | — |
//! | hands a voucher naming its own link to [`Shell::on_voucher`] | [`Core::certified`] |
//! | serves a state request to its link ([`Shell::serve_transfer`]) | [`Core::view`]   |
//! | admits a state response at f+1 links and installs it   | [`Core::installed`]     |
//! | routes a protocol message with its link as the sender   | [`Core::on_message`]    |
//! | routes a timer                                          | [`Core::on_timer`]      |
//! | then chases a stable certificate ahead of execution     | —                       |
//! | gates outputs: a muted script's messages are dropped, its timers pass | —         |
//! | wipes the shell and the protocol state, keeps the script | [`Core::wipe`]         |
//! | recovers through the shell, then runs the protocol tail | [`Core::recovered`]     |
//! | answers the [`ReplicaNode`] reads                       | [`Core::view`]          |
//! | provisions a cluster of at most [`MAX_REPLICAS`] from a [`RunConfig`] | the replica constructor |
//!
//! The link is the sender. A replica message names a replica only where a
//! key proves the name (a USIG's `UI.id`, a voucher's `from`); the chassis
//! takes every message but a request only over `Endpoint::Replica(id)`
//! with `id < n` and `id` not its own, and hands the handler that `id` as
//! the voter, requester or responder. One link is therefore one replica,
//! however many ids its messages might claim.
//!
//! A protocol file keeps its message enum (its own messages plus one
//! `Shell(ShellMsg)` variant), its state and its handlers: inherent
//! `impl Replica<…>` blocks that reach the shell, the script and `now` as
//! fields of the replica they run on, and the protocol's own state as
//! `core`. Passive replication implements [`Core`] itself; PBFT and MinBFT
//! share one implementation, the agreement front-end
//! ([`Agreement`](crate::agreement::Agreement)), and supply only a
//! [`Discipline`](crate::agreement::Discipline).

use crate::adversary::{Fault, ReplicaScript};
use crate::api::{Cluster, Endpoint, Input, Outbox, ReplicaId, ReplicaNode, Reply, Request};
use crate::checkpoint::{CheckpointStats, CkptKeys, CstInstall, LogView};
use crate::dense::MAX_REPLICAS;
use crate::durable::{DurableEvent, RecoveredState, RecoveryReport};
use crate::protocol::Protocol;
use crate::runner::RunConfig;
use crate::shell::{Carrier, Routed, Shell, ShellMsg};
use std::fmt;
use std::sync::Arc;

/// What differs between the protocols that share the chassis. (`pub` only
/// so the public `Replica<P>` impls may name it; the module is private.)
pub trait Core: Sized {
    /// The protocol's wire messages.
    type Msg: Carrier + fmt::Debug;
    /// Which protocol this core is.
    const PROTOCOL: Protocol;

    /// Takes a client request in, whichever link it arrived on.
    fn intake(r: &mut Replica<Self>, req: Arc<Request>, out: &mut Outbox<Self::Msg>);

    /// Routes one of the protocol's own messages (never a request or a
    /// [`ShellMsg`]: the chassis routes those), sent by replica `link` of
    /// this cluster over its own link.
    fn on_message(
        r: &mut Replica<Self>,
        link: ReplicaId,
        msg: Self::Msg,
        out: &mut Outbox<Self::Msg>,
    );

    /// Handles a timer of `kind` the replica armed with `token`.
    fn on_timer(r: &mut Replica<Self>, kind: u32, token: u64, out: &mut Outbox<Self::Msg>);

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
    /// Messages refused (see [`Replica::refused`]).
    pub(crate) refused: u64,
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
            refused: 0,
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

    /// Messages refused, each counted once: a request whose client seq
    /// exceeds `u32::MAX` (the seq space of a patience-timer token), every
    /// other message that did not arrive over the link of another replica
    /// of this cluster, a voucher naming another replica than its link,
    /// and (MinBFT) a certified future-view message past its sender's
    /// share of the stash.
    pub fn refused(&self) -> u64 {
        self.refused
    }
}

// Every message a peer (or a forged client) sends enters here.
// lint: ingress
impl<P: Core> Replica<P> {
    /// Routes one input — a request or a timer to the protocol, any other
    /// message only over a replica's link: a shell message here, the rest
    /// to the protocol — then chases any stable certificate it revealed
    /// ahead of local execution (post-wipe, or crashed past retention),
    /// rate-limited by the transfer backoff.
    fn step(&mut self, input: Input<P::Msg>, out: &mut Outbox<P::Msg>) {
        match input {
            Input::Message { from, msg } => {
                // A replica of the cluster, and never this one: a replica
                // does not message itself.
                let link = match from {
                    Endpoint::Replica(id) if id.0 < self.n && id != self.id => Some(id),
                    _ => None,
                };
                match (msg.route(), link) {
                    // A patience timer's token carries 32 bits of seq.
                    (Routed::Request(req), _) if req.op.seq > u64::from(u32::MAX) => {
                        self.refused += 1
                    }
                    (Routed::Request(req), _) => P::intake(self, req, out),
                    (Routed::Shell(msg), Some(link)) => self.route(link, msg, out),
                    (Routed::Own(msg), Some(link)) => P::on_message(self, link, msg, out),
                    (_, None) => self.refused += 1,
                }
            }
            Input::Timer { kind, token } => P::on_timer(self, kind, token, out),
        }
        self.shell.request_transfer(self.now, out);
    }

    /// Routes a shell message from replica `link`, the same for every
    /// protocol: one link is one voucher, one transfer goes back to the
    /// link that asked, and one link is one of the f+1 responders a
    /// transfer installs on. A loose voucher still names its signer, and
    /// the voucher key ring is one ring, so the voucher must name its own
    /// link. A Byzantine responder script corrupts a served transfer only
    /// where the protocol masks Byzantine faults: passive replication has
    /// no quorum to outvote a lie, so its content-attack scripts stay inert
    /// (a compromised passive tile shows as silence or crash).
    pub(crate) fn route(&mut self, link: ReplicaId, msg: ShellMsg, out: &mut Outbox<P::Msg>) {
        match msg {
            ShellMsg::Checkpoint(voucher) if voucher.from != link => self.refused += 1,
            ShellMsg::Checkpoint(voucher) => {
                if self.shell.on_voucher(&voucher) {
                    P::certified(self);
                }
            }
            ShellMsg::StateRequest { have } => {
                let byzantine = P::PROTOCOL.tolerates_byzantine();
                self.shell.serve_transfer(
                    have,
                    link,
                    self.core.view(),
                    byzantine && self.script.active(self.now, Fault::CorruptSnapshot),
                    byzantine && self.script.active(self.now, Fault::CorruptSuffix),
                    out,
                );
            }
            ShellMsg::StateResponse(st) => {
                let Some(plan) = self.shell.admit_transfer(link, *st, self.f as usize + 1) else {
                    return;
                };
                self.shell.install(&plan);
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
        if self.script.active(now, Fault::Crash) {
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
        if !self.script.active(now, Fault::Silence) {
            out.msgs.extend(staged.msgs);
        }
        out.timers.extend(staged.timers);
    }

    fn committed_log(&self) -> LogView<'_> {
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
        req.into()
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
        let report = self.shell.recover(&state);
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
    ///
    /// # Panics
    /// Panics beyond [`MAX_REPLICAS`] replicas.
    pub(crate) fn provision(config: &RunConfig, make: impl Fn(ReplicaId) -> Replica<P>) -> Self {
        let n = P::PROTOCOL
            .checked_replicas(config.f)
            .unwrap_or_else(|| panic!("f = {} needs more than {MAX_REPLICAS} replicas", config.f));
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
    use crate::dense::op_token;
    use crate::minbft::MinBftCluster;
    use crate::passive::PassiveCluster;
    use crate::pbft::PbftCluster;
    use crate::runner::run;

    /// Client 1's request `seq`.
    fn request<P: Core>(seq: u64) -> Input<P::Msg> {
        let op = OpId { client: ClientId(1), seq };
        let req = Arc::new(Request { op, payload: format!("SET k v{seq}").into_bytes() });
        Input::Message { from: Endpoint::Client(ClientId(1)), msg: req.into() }
    }

    /// A timer kind no protocol arms: every replica ignores it.
    fn idle<M>() -> Input<M> {
        Input::Timer { kind: u32::MAX, token: 0 }
    }

    /// A state request from a replica that executed nothing.
    fn ask<M: From<ShellMsg>>() -> M {
        ShellMsg::StateRequest { have: 0 }.into()
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

    /// A patience timer's token carries 32 bits of client seq: a request
    /// past them is refused and counted by every replica, with no effect (a
    /// backup panicked on it in a debug build, and in a release build armed
    /// a timer that could never find its op). The last seq that fits is
    /// taken in.
    fn refuses_client_seqs_past_the_token_space<P: Core>(make: fn(&RunConfig) -> Replicas<P>) {
        let name = P::PROTOCOL.name();
        for mut node in make(&RunConfig::default()).into_nodes() {
            let id = node.id;
            node.on_input(idle(), 10, &mut Outbox::new());
            let mut out = Outbox::new();
            node.on_input(request::<P>(1 << 32), 20, &mut out);
            assert!(out.msgs.is_empty() && out.timers.is_empty(), "{name} {id:?}");
            assert_eq!(node.refused(), 1, "{name} {id:?}");
            let last = OpId { client: ClientId(1), seq: u32::MAX.into() };
            node.on_input(request::<P>(last.seq), 30, &mut out);
            assert_eq!(node.refused(), 1, "{name} {id:?}");
            let backup = id.0 > 0 && P::PROTOCOL.tolerates_byzantine();
            assert_eq!(node.shell.watching(op_token(last)), backup, "{name} {id:?}");
        }
    }

    #[test]
    fn every_protocol_refuses_client_seqs_past_the_token_space() {
        refuses_client_seqs_past_the_token_space(PbftCluster::new);
        refuses_client_seqs_past_the_token_space(MinBftCluster::new);
        refuses_client_seqs_past_the_token_space(PassiveCluster::new);
    }

    /// A transfer is the whole state, and it goes to the link that asked:
    /// a request over a client's link is refused and counted, one over
    /// replica r's link is answered to r alone.
    fn serves_transfers_only_over_the_requesters_link<P: Core>(
        make: fn(&RunConfig) -> Replicas<P>,
    ) {
        let name = P::PROTOCOL.name();
        let mut nodes = checkpointed(make).into_nodes();
        let requester = ReplicaId(nodes.len() as u32 - 1);
        let server = &mut nodes[0];
        assert!(server.shell.ckpt().stable_seq() > 0, "{name}");
        let ask = |from| Input::Message { from, msg: ask() };
        let mut out = Outbox::new();
        server.on_input(ask(Endpoint::Client(ClientId(1))), 1 << 30, &mut out);
        assert!(out.msgs.is_empty(), "{name}: a transfer served to a client link");
        assert_eq!(server.refused(), 1, "{name}");
        server.on_input(ask(Endpoint::Replica(requester)), 1 << 30, &mut out);
        let to: Vec<Endpoint> = out.msgs.iter().map(|(to, _)| *to).collect();
        assert_eq!(to, [Endpoint::Replica(requester)], "{name}");
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
        server.on_input(Input::Message { from, msg: ask() }, 1 << 30, &mut out);
        let got = out.msgs.pop();
        match got.as_ref().map(|(to, msg)| (*to, msg.as_shell())) {
            Some((to, Some(ShellMsg::StateResponse(st)))) if to == from => (**st).clone(),
            _ => panic!("{}: expected one state response, got {got:?}", P::PROTOCOL.name()),
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

    /// Delivers `st` to `wiped` as a state response over link `link`.
    fn deliver_transfer<P: Core>(wiped: &mut Replica<P>, link: u32, st: StateTransfer) {
        let msg = ShellMsg::StateResponse(Box::new(st)).into();
        let from = Endpoint::Replica(ReplicaId(link));
        wiped.on_input(Input::Message { from, msg }, 1 << 30, &mut Outbox::new());
    }

    /// A checkpointed cluster whose last replica is wiped, with replica 0's
    /// transfer to it under a `corrupt_suffixes` script (a batch the
    /// cluster never committed on top), replica 1's honest one, and the
    /// state every correct replica reached.
    fn lie_and_truth<P: Core>(
        make: fn(&RunConfig) -> Replicas<P>,
    ) -> (Vec<Replica<P>>, StateTransfer, StateTransfer, [u8; 32]) {
        let mut nodes = checkpointed(make).into_nodes();
        let requester = ReplicaId(nodes.len() as u32 - 1);
        nodes[0].script = ReplicaScript::correct().corrupt_suffixes(Window::ALWAYS);
        let lie = served(&mut nodes[0], requester);
        let honest = served(&mut nodes[1], requester);
        let digest = nodes[1].state_digest();
        nodes[requester.0 as usize].wipe();
        (nodes, lie, honest, digest)
    }

    /// A transfer installs on f+1 responders, one per link: replica 0's
    /// tampered transfer, delivered twice over its own link, must not
    /// install on a wiped replica. With replica 1's honest answer the two
    /// agree on the certified image and out-vote the tampered suffix.
    fn installs_transfers_only_from_f_plus_1_links<P: Core>(make: fn(&RunConfig) -> Replicas<P>) {
        let name = P::PROTOCOL.name();
        let (mut nodes, lie, honest, digest) = lie_and_truth(make);
        let wiped = nodes.last_mut().expect("a cluster");
        deliver_transfer(wiped, 0, lie.clone());
        deliver_transfer(wiped, 0, lie);
        assert_eq!(wiped.committed_seq(), 0, "{name}: one link installed a transfer");
        deliver_transfer(wiped, 1, honest);
        assert!(wiped.committed_seq() > 0, "{name}");
        assert_eq!(wiped.state_digest(), digest, "{name}");
    }

    #[test]
    fn one_link_cannot_forge_a_state_transfer_quorum() {
        installs_transfers_only_from_f_plus_1_links(PbftCluster::new);
        installs_transfers_only_from_f_plus_1_links(MinBftCluster::new);
    }

    /// Links 5 and 6 are no replicas of the cluster (PBFT f = 1 is 0–3,
    /// MinBFT 0–2): replica 0's tampered transfer over them is refused and
    /// counted, not two of the f+1 responders a wiped replica installs on.
    /// The real links still install the honest state.
    fn refuses_transfers_from_outside_the_cluster<P: Core>(make: fn(&RunConfig) -> Replicas<P>) {
        let name = P::PROTOCOL.name();
        let (mut nodes, lie, honest, digest) = lie_and_truth(make);
        let wiped = nodes.last_mut().expect("a cluster");
        deliver_transfer(wiped, 5, lie.clone());
        deliver_transfer(wiped, 6, lie.clone());
        assert_eq!(wiped.committed_seq(), 0, "{name}: links outside the cluster installed");
        assert_eq!(wiped.refused(), 2, "{name}");
        deliver_transfer(wiped, 1, honest);
        deliver_transfer(wiped, 0, lie);
        assert_eq!(wiped.state_digest(), digest, "{name}");
    }

    #[test]
    fn links_outside_the_cluster_cannot_install_a_state_transfer() {
        refuses_transfers_from_outside_the_cluster(PbftCluster::new);
        refuses_transfers_from_outside_the_cluster(MinBftCluster::new);
    }
}
