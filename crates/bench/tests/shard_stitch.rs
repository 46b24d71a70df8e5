//! Property tests for the multi-machine sweep contract: running a grid
//! in shards and stitching the pieces back together must reproduce the
//! unsharded single-threaded sweep **byte-identically** — same cell
//! records, same merged histograms. This is the invariant the f8
//! campaign's `--shard i/N` / `--stitch` pipeline and CI's shard-stitch
//! gate rest on.

use proptest::prelude::*;
use rsoc_bench::run_cells_sharded;
use rsoc_bft::adversary::Scenario;
use rsoc_bft::api::Cluster;
use rsoc_bft::runner::{run_open_loop, OpenLoopReport, OpenLoopSpec, RunConfig};
use rsoc_bft::{ClusterJob, Protocol};
use rsoc_sim::{Arrival, KeyDist, LogHistogram};
use serde::Serialize;

const BATCHES: [usize; 2] = [1, 8];

/// The serialized form a sweep would record per cell: every counter plus
/// the sparse histogram, so byte-comparing JSON covers the whole report.
#[derive(Serialize)]
struct CellRecord {
    protocol: &'static str,
    batch: usize,
    issued: u64,
    committed: u64,
    distinct_users: u64,
    retries: u64,
    messages_total: u64,
    duration_cycles: u64,
    hist_bucket_indices: Vec<u64>,
    hist_bucket_counts: Vec<u64>,
}

/// An open-loop run on whichever cluster the protocol builds.
struct OpenLoop<'a>(&'a RunConfig, &'a OpenLoopSpec);

impl ClusterJob for OpenLoop<'_> {
    type Output = OpenLoopReport;
    fn run<C: Cluster>(self, mut cluster: C) -> OpenLoopReport {
        run_open_loop(&mut cluster, self.0, self.1, &Scenario::none())
    }
}

fn run_cell(protocol: Protocol, batch: usize, seed: u64) -> String {
    let cfg =
        RunConfig { f: 1, seed, batch_size: batch, max_cycles: 20_000_000, ..RunConfig::default() };
    let spec = OpenLoopSpec {
        arrival: Arrival::Poisson { mean_gap: 200 },
        mods: vec![],
        users: KeyDist::HotSet { n: 400, hot: 8, hot_per_mille: 600 },
        total_ops: 120,
    };
    let r = protocol.build(&cfg, OpenLoop(&cfg, &spec));
    let (hist_bucket_indices, hist_bucket_counts) = r.latency.to_sparse();
    serde_json::to_string(&CellRecord {
        protocol: protocol.name(),
        batch,
        issued: r.issued,
        committed: r.committed,
        distinct_users: r.distinct_users,
        retries: r.retries,
        messages_total: r.messages_total,
        duration_cycles: r.duration_cycles,
        hist_bucket_indices,
        hist_bucket_counts,
    })
    .expect("serialize cell record")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Sharding the protocol × batch grid any way and stitching the
    /// shard outputs in canonical order reproduces the unsharded
    /// `--jobs 1` sweep byte-for-byte.
    #[test]
    fn sharded_sweep_stitches_byte_identically(
        seed in any::<u64>(),
        n_shards in 1usize..5,
        shard_jobs in 1usize..4,
    ) {
        let cells: Vec<(Protocol, usize)> = Protocol::ALL
            .iter()
            .flat_map(|p| BATCHES.iter().map(move |b| (*p, *b)))
            .collect();
        // Per-cell seed derived from coordinates, as every campaign does.
        let whole: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, &(p, b))| run_cell(p, b, seed ^ ((i as u64) << 8)))
            .collect();
        let mut stitched: Vec<(usize, String)> = (0..n_shards)
            .flat_map(|s| {
                run_cells_sharded(&cells, shard_jobs, Some((s, n_shards)), |&(p, b)| {
                    let i = cells.iter().position(|c| *c == (p, b)).unwrap();
                    run_cell(p, b, seed ^ ((i as u64) << 8))
                })
            })
            .collect();
        stitched.sort_by_key(|&(i, _)| i);
        let indices: Vec<usize> = stitched.iter().map(|&(i, _)| i).collect();
        prop_assert_eq!(indices, (0..cells.len()).collect::<Vec<_>>());
        for (i, (_, rec)) in stitched.iter().enumerate() {
            prop_assert_eq!(rec, &whole[i], "cell {} diverged across shard boundaries", i);
        }
    }

    /// Merging per-shard histograms in any partition order equals the
    /// histogram of all samples recorded in one place — sparse encoding
    /// included. (This is why per-cell percentiles survive stitching.)
    #[test]
    fn histogram_merge_is_partition_invariant(
        samples in proptest::collection::vec(any::<u64>(), 1..400),
        cuts in proptest::collection::vec(any::<u64>(), 0..6),
    ) {
        let mut whole = LogHistogram::new();
        for &s in &samples {
            whole.record(s);
        }
        // Partition the sample stream at the (sorted, deduped) cut points.
        let mut bounds: Vec<usize> =
            cuts.iter().map(|c| (*c % samples.len() as u64) as usize).collect();
        bounds.push(0);
        bounds.push(samples.len());
        bounds.sort_unstable();
        bounds.dedup();
        let mut merged = LogHistogram::new();
        for w in bounds.windows(2) {
            let mut part = LogHistogram::new();
            for &s in &samples[w[0]..w[1]] {
                part.record(s);
            }
            merged.merge(&part);
        }
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert_eq!(merged.to_sparse(), whole.to_sparse());
        prop_assert_eq!(merged.quantile(0.999), whole.quantile(0.999));
    }
}
