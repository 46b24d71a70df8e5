//! Online statistics collectors used by all experiments.

use std::fmt;

/// Numerically stable online mean/variance/min/max (Welford's algorithm).
///
/// ```
/// use rsoc_sim::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] { s.push(x); }
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), 1.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (`+inf` if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (`-inf` if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator (parallel Welford combine).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for OnlineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} max={:.3}",
            self.n,
            self.mean(),
            self.std_dev(),
            if self.n == 0 { 0.0 } else { self.min },
            if self.n == 0 { 0.0 } else { self.max },
        )
    }
}

/// Sample reservoir with exact quantiles (stores all samples).
///
/// Suitable for experiment-scale sample counts (≤ millions); quantiles are
/// computed on demand over a sorted copy.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<f64>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram { samples: Vec::new() }
    }

    /// Records a sample.
    pub fn record(&mut self, x: f64) {
        self.samples.push(x);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Returns the `q`-quantile (nearest-rank), `q` in `[0,1]`.
    ///
    /// Returns `None` when empty.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1])
    }

    /// Median shortcut.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Mean of samples (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Read-only access to raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Sub-bucket resolution bits of [`LogHistogram`]: 32 sub-buckets per
/// power-of-two magnitude, i.e. ≤ 1/32 (~3.1%) relative quantization error.
const LOG_HIST_SUB_BITS: u32 = 5;
const LOG_HIST_SUB: u64 = 1 << LOG_HIST_SUB_BITS;

/// HDR-style log-bucketed histogram over `u64` samples.
///
/// Values below 32 are recorded exactly; above that, each power-of-two
/// magnitude is split into 32 sub-buckets, bounding relative error at
/// quantile time to 1/32. Everything is integer arithmetic on `u64`
/// counts, so merges and serializations are byte-deterministic — two
/// histograms recording the same multiset of samples (in any order, in
/// any sharding) are identical.
///
/// ```
/// use rsoc_sim::LogHistogram;
/// let mut h = LogHistogram::new();
/// for v in 1..=1000u64 { h.record(v); }
/// assert_eq!(h.count(), 1000);
/// let p50 = h.quantile(0.5).unwrap();
/// assert!((470..=530).contains(&p50));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl LogHistogram {
    /// Total number of buckets (covers the full `u64` range): one block
    /// of exact values below 32 plus one 32-wide block per exponent
    /// 5..=63.
    pub const NUM_BUCKETS: usize = (64 - LOG_HIST_SUB_BITS as usize + 1) * LOG_HIST_SUB as usize;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram { counts: vec![0; Self::NUM_BUCKETS], total: 0 }
    }

    /// Bucket index for a value. Total order preserving: `a <= b` implies
    /// `bucket_index(a) <= bucket_index(b)`.
    pub fn bucket_index(v: u64) -> usize {
        if v < LOG_HIST_SUB {
            return v as usize;
        }
        let e = 63 - v.leading_zeros(); // >= LOG_HIST_SUB_BITS
        let shift = e - LOG_HIST_SUB_BITS;
        let block = (shift + 1) as u64;
        (block * LOG_HIST_SUB + (v >> shift) - LOG_HIST_SUB) as usize
    }

    /// Inclusive `(low, high)` value range of a bucket.
    ///
    /// # Panics
    /// Panics if `index >= NUM_BUCKETS`.
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        assert!(index < Self::NUM_BUCKETS, "bucket index out of range");
        let i = index as u64;
        if i < LOG_HIST_SUB {
            return (i, i);
        }
        let block = i / LOG_HIST_SUB; // >= 1
        let offset = i % LOG_HIST_SUB;
        let shift = (block - 1) as u32;
        let low = (LOG_HIST_SUB + offset) << shift;
        (low, low + ((1u64 << shift) - 1))
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` occurrences of a sample.
    pub fn record_n(&mut self, v: u64, n: u64) {
        self.counts[Self::bucket_index(v)] += n;
        self.total += n;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Merges another histogram into this one. Order-independent:
    /// any merge tree over the same shards yields identical state.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
    }

    /// Nearest-rank `q`-quantile, reported as the upper bound of the
    /// bucket holding that rank (conservative for tail latencies).
    /// Returns `None` when empty.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(Self::bucket_bounds(i).1);
            }
        }
        None // unreachable: cum == total >= rank by the end
    }

    /// Largest recorded bucket's upper bound (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        self.quantile(1.0)
    }

    /// Sparse serialization: parallel `(bucket_indices, counts)` vectors,
    /// indices strictly ascending, counts non-zero. Byte-deterministic.
    pub fn to_sparse(&self) -> (Vec<u64>, Vec<u64>) {
        let mut idx = Vec::new();
        let mut cnt = Vec::new();
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                idx.push(i as u64);
                cnt.push(c);
            }
        }
        (idx, cnt)
    }

    // lint: ingress
    /// Rebuilds a histogram from a sparse encoding, validating shape:
    /// equal lengths, strictly ascending in-range indices, non-zero and
    /// non-overflowing counts. Returns `None` on any violation.
    pub fn from_sparse(indices: &[u64], counts: &[u64]) -> Option<Self> {
        if indices.len() != counts.len() {
            return None;
        }
        let mut h = LogHistogram::new();
        let mut prev: Option<u64> = None;
        for (&i, &c) in indices.iter().zip(counts) {
            if i >= Self::NUM_BUCKETS as u64 || c == 0 {
                return None;
            }
            if prev.is_some_and(|p| p >= i) {
                return None;
            }
            prev = Some(i);
            // bounds: i < NUM_BUCKETS checked above.
            h.counts[i as usize] = c;
            h.total = h.total.checked_add(c)?;
        }
        Some(h)
    }
    // lint: end
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_matches_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_merge_equals_sequential() {
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        let mut whole = OnlineStats::new();
        for i in 0..50 {
            let x = (i as f64).sin() * 10.0;
            if i % 2 == 0 {
                a.push(x)
            } else {
                b.push(x)
            }
            whole.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_sane() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        let mut a = OnlineStats::new();
        a.merge(&s); // merging empty is a no-op
        assert_eq!(a.count(), 0);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new();
        for i in 1..=100 {
            h.record(i as f64);
        }
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.median(), Some(50.0));
        assert_eq!(h.quantile(0.99), Some(99.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
        assert_eq!(h.mean(), Some(50.5));
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.median(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn log_histogram_exact_below_sub() {
        for v in 0..32u64 {
            assert_eq!(LogHistogram::bucket_index(v), v as usize);
            assert_eq!(LogHistogram::bucket_bounds(v as usize), (v, v));
        }
    }

    #[test]
    fn log_histogram_buckets_are_contiguous_and_ordered() {
        // Bucket bounds tile the u64 range without gaps or overlaps.
        let mut next_low = 0u64;
        for i in 0..LogHistogram::NUM_BUCKETS {
            let (low, high) = LogHistogram::bucket_bounds(i);
            assert_eq!(low, next_low, "bucket {i} leaves a gap");
            assert!(high >= low);
            assert_eq!(LogHistogram::bucket_index(low), i);
            assert_eq!(LogHistogram::bucket_index(high), i);
            if i + 1 == LogHistogram::NUM_BUCKETS {
                assert_eq!(high, u64::MAX);
            } else {
                next_low = high + 1;
            }
        }
    }

    #[test]
    fn log_histogram_relative_error_bounded() {
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            let (low, high) = LogHistogram::bucket_bounds(LogHistogram::bucket_index(v));
            assert!(low <= v && v <= high);
            // Quantiles report the bucket upper bound; error <= width/low <= 1/32.
            assert!(high - low <= low.max(1) / 16, "v={v} low={low} high={high}");
            v = v * 3 + 1;
        }
    }

    #[test]
    fn log_histogram_quantiles_nearest_rank() {
        let mut h = LogHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        // Values <= 31 are exact; above, upper-bound-of-bucket.
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(0.25), Some(25));
        let p99 = h.quantile(0.99).unwrap();
        assert!((99..=103).contains(&p99), "p99={p99}");
        assert!(h.max().unwrap() >= 100);
        assert_eq!(LogHistogram::new().quantile(0.5), None);
    }

    #[test]
    fn log_histogram_merge_equals_sequential() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut whole = LogHistogram::new();
        let mut x = 7u64;
        for i in 0..5000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = x >> (x % 50);
            if i % 3 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        assert_eq!(a.to_sparse(), whole.to_sparse());
    }

    #[test]
    fn log_histogram_sparse_roundtrip() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 31, 32, 33, 1000, u64::MAX] {
            h.record_n(v, v % 7 + 1);
        }
        let (idx, cnt) = h.to_sparse();
        assert!(idx.windows(2).all(|w| w[0] < w[1]));
        assert!(cnt.iter().all(|&c| c > 0));
        let back = LogHistogram::from_sparse(&idx, &cnt).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn log_histogram_sparse_rejects_malformed() {
        assert!(LogHistogram::from_sparse(&[0, 1], &[1]).is_none(), "length mismatch");
        assert!(LogHistogram::from_sparse(&[2, 1], &[1, 1]).is_none(), "unsorted");
        assert!(LogHistogram::from_sparse(&[1, 1], &[1, 1]).is_none(), "duplicate");
        assert!(LogHistogram::from_sparse(&[0], &[0]).is_none(), "zero count");
        let oob = LogHistogram::NUM_BUCKETS as u64;
        assert!(LogHistogram::from_sparse(&[oob], &[1]).is_none(), "index out of range");
        assert!(LogHistogram::from_sparse(&[0, 1], &[u64::MAX, 1]).is_none(), "total overflow");
        assert!(LogHistogram::from_sparse(&[], &[]).is_some_and(|h| h.is_empty()));
    }
}
