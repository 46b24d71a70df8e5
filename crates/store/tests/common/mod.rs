//! Four durable PBFT replicas driven by hand over a FIFO in-memory
//! network (no timers: the primary is correct), each persisting its
//! durable events to its own [`DataDir`] before its messages leave, with a
//! checkpoint every four slots.
#![allow(dead_code)] // each test file uses its own part

use rsoc_bft::api::{
    ClientId, Cluster, Endpoint, Input, OpId, Outbox, ReplicaId, ReplicaNode, Request,
};
use rsoc_bft::pbft::{PbftCluster, PbftMsg, PbftReplica};
use rsoc_bft::runner::RunConfig;
use rsoc_store::DataDir;
use std::collections::VecDeque;
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
    pub stores: Vec<DataDir>,
    now: u64,
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
        let mut queue: VecDeque<(usize, Endpoint, PbftMsg)> =
            (0..N).map(|to| (to, from, PbftReplica::make_request(request.clone()))).collect();
        let mut out = Outbox::new();
        let mut events = Vec::new();
        while let Some((to, from, msg)) = queue.pop_front() {
            self.now += 1;
            out.clear();
            self.nodes[to].on_input(Input::Message { from, msg }, self.now, &mut out);
            self.nodes[to].drain_durable(&mut events);
            self.stores[to].persist(&events).expect("persist");
            events.clear();
            let from = Endpoint::Replica(ReplicaId(to as u32));
            for (dest, msg) in out.msgs.drain(..) {
                if let Endpoint::Replica(r) = dest {
                    queue.push_back((r.0 as usize, from, msg));
                }
            }
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
        self.stores[id] = store;
        (replayed, report.committed)
    }
}

pub fn cluster(root: &Path) -> Net {
    let _ = std::fs::remove_dir_all(root);
    let mut nodes = fresh_nodes();
    nodes.iter_mut().for_each(|n| n.enable_durability());
    let stores = (0..N).map(|i| DataDir::open(dir_of(root, i)).expect("open").0).collect();
    Net { nodes, stores, now: 0 }
}

pub fn dir_of(root: &Path, i: usize) -> PathBuf {
    root.join(format!("replica-{i}"))
}

pub fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rsoc_store_cluster_{name}_{}", std::process::id()))
}
