//! Log-bucketed latency histograms (power-of-two buckets, HDR-style).
//!
//! A [`Histogram`] has 64 buckets: bucket 0 holds the value 0, bucket
//! `i ≥ 1` holds values in `[2^(i-1), 2^i - 1]` (the top bucket absorbs
//! everything above). Any thread may read quantiles at any time.
//!
//! [`Histogram::record`] is a few relaxed atomic read-modify-writes, so
//! any number of threads may record into one histogram. A hot path with
//! one writer thread uses [`Histogram::record_unshared`] instead: plain
//! loads and stores, no locked instruction and no cache line shared
//! with another writer. The runtime gives each shard worker its own
//! histograms that way and merges them when read ([`Histogram::merged`]):
//! bucket counts add, so the merge answers exactly what one histogram
//! fed every sample would. Quantile answers are the midpoint of the answering bucket, clamped to
//! the observed maximum — a relative error bounded by the bucket width
//! (≤ 2×), which is plenty for latency distributions spanning decades.

use std::sync::atomic::{AtomicU64, Ordering};

const BUCKETS: usize = 64;

/// A concurrent, fixed-footprint latency histogram.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A point-in-time digest of a [`Histogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Median estimate.
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// Largest sample (exact).
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// The bucket a value lands in.
    pub fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records one sample with plain loads and stores. Only for a
    /// histogram whose one writer is the calling thread: a second thread
    /// writing at the same time can lose samples (never tear a reader's
    /// view of a word). Readers may read concurrently as usual.
    pub fn record_unshared(&self, v: u64) {
        // Wraps like `fetch_add` does.
        let bump = |a: &AtomicU64, by: u64| {
            a.store(
                a.load(Ordering::Relaxed).wrapping_add(by),
                Ordering::Relaxed,
            )
        };
        bump(&self.buckets[Self::bucket_index(v)], 1);
        bump(&self.count, 1);
        bump(&self.sum, v);
        if v > self.max.load(Ordering::Relaxed) {
            self.max.store(v, Ordering::Relaxed);
        }
    }

    /// One histogram holding every sample of `parts`: buckets, count and
    /// sum add, max is the largest. Its summary equals that of one
    /// histogram fed all the samples.
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a Histogram>) -> Histogram {
        let out = Histogram::new();
        for h in parts {
            for (dst, src) in out.buckets.iter().zip(&h.buckets) {
                dst.fetch_add(src.load(Ordering::Relaxed), Ordering::Relaxed);
            }
            out.count.fetch_add(h.count(), Ordering::Relaxed);
            out.sum.fetch_add(h.sum(), Ordering::Relaxed);
            out.max.fetch_max(h.max(), Ordering::Relaxed);
        }
        out
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples so far.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest sample so far (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Occupancy of bucket `i` (test / exposition hook).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i.min(BUCKETS - 1)].load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`): midpoint of the answering
    /// bucket, clamped to the observed maximum. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for i in 0..BUCKETS {
            seen += self.buckets[i].load(Ordering::Relaxed);
            if seen >= rank {
                return Self::representative(i).min(self.max());
            }
        }
        self.max()
    }

    /// Bucket `i`'s representative value (its midpoint).
    fn representative(i: usize) -> u64 {
        if i == 0 {
            return 0;
        }
        let lo = 1u64 << (i - 1);
        let hi = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
        lo + (hi - lo) / 2
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// A full digest.
    pub fn summary(&self) -> Summary {
        let count = self.count();
        let sum = self.sum();
        Summary {
            count,
            sum,
            mean: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            p50: self.p50(),
            p90: self.p90(),
            p99: self.p99(),
            max: self.max(),
        }
    }
}

/// A family of histograms keyed by a static name (one per layer, say).
///
/// Registration takes a lock; recording through the returned handle is
/// lock-free. Resolve handles at setup, not on the hot path.
#[derive(Debug, Default)]
pub struct HistogramVec {
    inner: std::sync::Mutex<Vec<(&'static str, std::sync::Arc<Histogram>)>>,
}

impl HistogramVec {
    /// An empty family.
    pub fn new() -> HistogramVec {
        HistogramVec::default()
    }

    /// The histogram for `name`, created on first use.
    pub fn get(&self, name: &'static str) -> std::sync::Arc<Histogram> {
        let mut inner = self.inner.lock().expect("histogram family poisoned");
        if let Some((_, h)) = inner.iter().find(|(n, _)| *n == name) {
            return std::sync::Arc::clone(h);
        }
        let h = std::sync::Arc::new(Histogram::new());
        inner.push((name, std::sync::Arc::clone(&h)));
        h
    }

    /// Snapshot of every member: `(name, digest)`, in creation order.
    pub fn summaries(&self) -> Vec<(&'static str, Summary)> {
        self.inner
            .lock()
            .expect("histogram family poisoned")
            .iter()
            .map(|(n, h)| (*n, h.summary()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(7), 3);
        assert_eq!(Histogram::bucket_index(8), 4);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 63);
    }

    #[test]
    fn exact_fields_and_bucket_occupancy() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 1000, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1_001_006);
        assert_eq!(h.max(), 1_000_000);
        assert_eq!(h.bucket(0), 1); // 0
        assert_eq!(h.bucket(1), 1); // 1
        assert_eq!(h.bucket(2), 2); // 2, 3
        assert_eq!(h.bucket(10), 1); // 1000
        assert_eq!(h.bucket(20), 1); // 1_000_000
    }

    #[test]
    fn quantiles_land_in_the_right_bucket() {
        let h = Histogram::new();
        // 90 fast samples (~100 ns), 9 medium (~10 µs), 1 slow (~1 ms).
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..9 {
            h.record(10_000);
        }
        h.record(1_000_000);
        let p50 = h.p50();
        assert!((64..=127).contains(&p50), "p50 {p50} in the 100ns bucket");
        let p99 = h.p99();
        assert!(
            (8192..=16383).contains(&p99),
            "p99 {p99} in the 10us bucket"
        );
        let q100 = h.quantile(1.0);
        assert!(
            (524_288..=1_000_000).contains(&q100),
            "q1.0 {q100} in the max sample's bucket, never above the max"
        );
        assert_eq!(h.max(), 1_000_000, "max is exact, not bucketed");
    }

    #[test]
    fn empty_histogram_answers_zero() {
        let h = Histogram::new();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.summary(), Summary::default());
    }

    #[test]
    fn quantile_clamps_to_observed_max() {
        let h = Histogram::new();
        h.record(1025); // bucket 11 spans 1024..=2047; midpoint 1535.
        assert_eq!(h.p50(), 1025, "midpoint clamped to the one sample's max");
    }

    #[test]
    fn a_merge_of_two_summarizes_like_one_fed_every_sample() {
        let (a, b, all) = (Histogram::new(), Histogram::new(), Histogram::new());
        for i in 0..1000u64 {
            let v = i * i % 70_001;
            if i % 3 == 0 {
                a.record_unshared(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        let m = Histogram::merged([&a, &b]);
        assert_eq!(m.summary(), all.summary());
        for i in 0..BUCKETS {
            assert_eq!(m.bucket(i), all.bucket(i), "bucket {i}");
        }
        assert_eq!(Histogram::merged([]).summary(), Summary::default());
    }

    #[test]
    fn unshared_recording_matches_shared_recording() {
        let (shared, unshared) = (Histogram::new(), Histogram::new());
        for v in [0, 7, 7, 1 << 40, 3, 1_000_000] {
            shared.record(v);
            unshared.record_unshared(v);
        }
        assert_eq!(shared.summary(), unshared.summary());
    }

    #[test]
    fn histogram_vec_reuses_by_name() {
        let v = HistogramVec::new();
        v.get("mnak").record(5);
        v.get("mnak").record(7);
        v.get("pt2pt").record(1);
        let s = v.summaries();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].0, "mnak");
        assert_eq!(s[0].1.count, 2);
        assert_eq!(s[1].1.count, 1);
    }
}
