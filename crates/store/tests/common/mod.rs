//! Four durable PBFT replicas driven by hand over a FIFO in-memory
//! network (no timers: the primary is correct), each stepped by
//! [`step_node`], so its durable events reach its own [`DataDir`] before
//! its messages leave, with a checkpoint every four slots.
#![allow(dead_code)] // each test file uses its own part

use rsoc_bft::api::{
    ClientId, Cluster, Endpoint, Input, OpId, Outbox, ReplicaId, ReplicaNode, Request,
};
use rsoc_bft::durable::DurableEvent;
use rsoc_bft::pbft::{PbftCluster, PbftMsg, PbftReplica};
use rsoc_bft::plane::{step_node, Transport};
use rsoc_bft::runner::RunConfig;
use rsoc_store::DataDir;
use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub const N: usize = 4;
pub const INTERVAL: u64 = 4;

pub fn fresh_nodes() -> Vec<PbftReplica> {
    let config = RunConfig::builder().f(1).seed(23).checkpoint_interval(INTERVAL).build();
    PbftCluster::new(&config).into_nodes()
}

pub struct Net {
    pub nodes: Vec<PbftReplica>,
    wire: Fifo,
    now: u64,
}

/// The network the replicas step into: each replica's data directory,
/// and one FIFO queue of replica-bound messages.
struct Fifo {
    stores: Vec<DataDir>,
    queue: VecDeque<(usize, Endpoint, PbftMsg)>,
}

impl Transport<PbftMsg> for Fifo {
    fn persist(&mut self, from: ReplicaId, events: &[DurableEvent]) -> io::Result<()> {
        self.stores[from.0 as usize].persist(events)
    }

    fn dispatch(&mut self, from: ReplicaId, out: &mut Outbox<PbftMsg>, _now: u64) {
        for (dest, msg) in out.msgs.drain(..) {
            if let Endpoint::Replica(r) = dest {
                self.queue.push_back((r.0 as usize, Endpoint::Replica(from), msg));
            }
        }
    }
}

impl Net {
    /// Delivers client op `seq` to every replica and runs the network
    /// until it is quiet.
    pub fn commit(&mut self, seq: u64) {
        let request = Arc::new(Request {
            op: OpId { client: ClientId(1), seq },
            payload: format!("SET k1.{seq} v{seq}").into_bytes(),
        });
        let from = Endpoint::Client(ClientId(1));
        let requests = (0..N).map(|to| (to, from, PbftReplica::make_request(request.clone())));
        self.wire.queue.extend(requests);
        let mut out = Outbox::new();
        while let Some((to, from, msg)) = self.wire.queue.pop_front() {
            self.now += 1;
            let input = Input::Message { from, msg };
            step_node(&mut self.nodes[to], input, self.now, &mut out, &mut self.wire)
                .expect("persist");
        }
    }

    /// Kills replica `id` and restarts it from its data directory.
    /// Returns whether the store replayed anything at all, and how many
    /// operations recovery then committed.
    pub fn restart(&mut self, id: usize, dir: &Path) -> (bool, u64) {
        let (store, state) = DataDir::open(dir).expect("reopen");
        let replayed = !state.is_empty();
        let mut node = fresh_nodes().swap_remove(id);
        let report = node.recover(state);
        node.enable_durability();
        self.nodes[id] = node;
        self.wire.stores[id] = store;
        (replayed, report.committed)
    }
}

pub fn cluster(root: &Path) -> Net {
    let _ = std::fs::remove_dir_all(root);
    let mut nodes = fresh_nodes();
    nodes.iter_mut().for_each(|n| n.enable_durability());
    let stores = (0..N).map(|i| DataDir::open(dir_of(root, i)).expect("open").0).collect();
    Net { nodes, wire: Fifo { stores, queue: VecDeque::new() }, now: 0 }
}

pub fn dir_of(root: &Path, i: usize) -> PathBuf {
    root.join(format!("replica-{i}"))
}

pub fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rsoc_store_cluster_{name}_{}", std::process::id()))
}
