//! Log-bucketed latency histogram (HDR-style).
//!
//! Fixed 64 × 32 layout: 64 power-of-two ranges, each split into 32
//! linear sub-buckets. Values below 32 land in dedicated exact slots;
//! a value in range `b ≥ 1` (covering `[32·2^(b-1), 32·2^b)`) is
//! bucketed with relative error below `1/32`. Recording is a single
//! array increment, so the hot path can afford one per committed
//! transaction. The 16 KiB slot array is allocated by the first
//! `record`: an empty histogram (and a [`Metrics`](crate::Metrics)
//! full of them) stays small to clone and to keep on a stack.

/// Number of power-of-two ranges.
const RANGES: usize = 64;
/// Linear sub-buckets per range.
const SUB: usize = 32;
/// Total slots. Only 61 ranges are reachable for `u64` values; the
/// fixed 64 × 32 layout keeps index arithmetic branch-free.
const SLOTS: usize = RANGES * SUB;

/// A fixed-size log-bucketed histogram of `u64` samples.
///
/// Tracks exact `count`, `sum`, `min`, and `max` alongside the bucket
/// array, so [`mean`](Histogram::mean) is exact and the extreme
/// percentiles (rank 1 and rank `count`) are exact; interior
/// percentiles report the upper bound of the containing sub-bucket
/// (exact below 32, off by at most 1 below 128, relative error below
/// `1/32` beyond that).
#[derive(Clone)]
pub struct Histogram {
    /// `SLOTS` bucket counts, or empty until the first sample.
    counts: Box<[u64]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: Box::default(), count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl PartialEq for Histogram {
    /// Equal sample summaries and slots; an array not yet allocated
    /// reads as all zeros.
    fn eq(&self, other: &Self) -> bool {
        let slot = |h: &Histogram, i: usize| h.counts.get(i).copied().unwrap_or(0);
        (self.count, self.sum, self.min, self.max) == (other.count, other.sum, other.min, other.max)
            && (0..SLOTS).all(|i| slot(self, i) == slot(other, i))
    }
}

impl Eq for Histogram {}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// The slot index for a value. Values below 32 are exact; larger
    /// values use the top 5 bits below the most significant bit as a
    /// linear sub-bucket within their power-of-two range.
    fn slot(value: u64) -> usize {
        if value < SUB as u64 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros() as usize;
        let range = msb - 4;
        let sub = ((value >> (range - 1)) as usize) - SUB;
        range * SUB + sub
    }

    /// The largest value that maps to `slot` — the reported
    /// representative, so bucketed percentiles never under-estimate.
    fn slot_high(slot: usize) -> u64 {
        if slot < SUB {
            return slot as u64;
        }
        let range = slot / SUB;
        let sub = (slot % SUB) as u64;
        let width = 1u64 << (range - 1);
        ((SUB as u64 + sub) << (range - 1)) + (width - 1)
    }

    /// Record one sample. Allocates only the first time.
    pub fn record(&mut self, value: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; SLOTS].into_boxed_slice();
        }
        self.counts[Self::slot(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (exact, saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact maximum sample, if any.
    pub fn max(&self) -> Option<u64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Exact minimum sample, if any.
    pub fn min(&self) -> Option<u64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Exact mean of recorded samples, if any.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// A percentile (0.0–1.0) by ceil nearest-rank: the reported value
    /// is the smallest sample whose cumulative rank reaches
    /// `ceil(count · p)`. Rank 1 and rank `count` return the exact
    /// tracked `min` / `max`; interior ranks return the upper bound of
    /// the containing sub-bucket.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((self.count as f64 * p).ceil() as u64).clamp(1, self.count);
        if rank == 1 {
            return Some(self.min);
        }
        if rank == self.count {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (slot, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::slot_high(slot));
            }
        }
        Some(self.max)
    }

    /// The samples recorded since `baseline` (which must be an earlier
    /// snapshot of this histogram). `count`, `sum`, and `mean` of the
    /// delta are exact; `min` / `max` are bucket bounds, since the
    /// exact extremes of a window are not recoverable from snapshots.
    pub fn since(&self, baseline: &Histogram) -> Histogram {
        let mut out = Histogram::new();
        if !self.counts.is_empty() {
            out.counts = self
                .counts
                .iter()
                .enumerate()
                .map(|(i, &a)| a.saturating_sub(baseline.counts.get(i).copied().unwrap_or(0)))
                .collect();
        }
        out.count = self.count.saturating_sub(baseline.count);
        out.sum = self.sum.saturating_sub(baseline.sum);
        if out.count > 0 {
            let lowest = out.counts.iter().position(|&c| c > 0).map(|s| {
                if s < SUB {
                    s as u64
                } else {
                    Self::slot_high(s - 1) + 1
                }
            });
            let highest = out.counts.iter().rposition(|&c| c > 0).map(Self::slot_high);
            out.min = lowest.unwrap_or(u64::MAX);
            out.max = highest.unwrap_or(0);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 5, 31] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(31));
        assert_eq!(h.percentile(0.5), Some(1));
    }

    #[test]
    fn slot_roundtrip_bounds() {
        // Every value's representative is >= the value and within the
        // documented error bound.
        for v in (0u64..4096).chain([1 << 20, (1 << 20) + 12345, u64::MAX >> 3, u64::MAX]) {
            let rep = Histogram::slot_high(Histogram::slot(v));
            assert!(rep >= v, "rep {rep} < value {v}");
            if v < 32 {
                assert_eq!(rep, v);
            } else {
                // Width of the containing sub-bucket is 2^(range-1) = v/32-ish.
                assert!(rep - v <= v / 16, "rep {rep} too far from {v}");
            }
        }
    }

    #[test]
    fn slots_are_monotone_in_value() {
        let mut prev = 0;
        for v in 0u64..100_000 {
            let s = Histogram::slot(v);
            assert!(s >= prev);
            prev = s;
        }
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        for v in [100u64, 200, 300, 401] {
            h.record(v);
        }
        assert_eq!(h.mean(), Some(250.25));
    }

    #[test]
    fn percentiles_match_nearest_rank_on_exact_range() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.50), Some(50));
        // 90 and 91 share a width-2 sub-bucket; the upper bound is
        // reported, within the documented ±1 error below 128.
        assert_eq!(h.percentile(0.90), Some(91));
        assert_eq!(h.percentile(0.99), Some(99));
        assert_eq!(h.percentile(1.0), Some(100));
        assert_eq!(h.percentile(0.0), Some(1));
    }

    #[test]
    fn since_subtracts_a_snapshot() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(20);
        let snap = h.clone();
        h.record(30);
        h.record(50);
        let delta = h.since(&snap);
        assert_eq!(delta.count(), 2);
        assert_eq!(delta.sum(), 80);
        assert_eq!(delta.mean(), Some(40.0));
    }

    #[test]
    fn slots_are_allocated_by_the_first_sample() {
        // Metrics holds five histograms and is cloned by value on every
        // read; an inline slot array made each copy 82 KB.
        assert!(std::mem::size_of::<Histogram>() <= 64);
        assert!(std::mem::size_of::<crate::Metrics>() <= 1024);
        let empty = Histogram::new();
        assert!(empty.counts.is_empty());
        let mut h = empty.clone();
        h.record(7);
        assert_eq!(h.counts.len(), SLOTS);
        let delta = h.since(&empty);
        assert_eq!((delta.count(), delta.percentile(0.5)), (1, Some(7)));
        assert_eq!(empty.since(&empty), Histogram::new());
        assert_ne!(h, empty);
    }

    #[test]
    fn empty_histogram_reports_none() {
        let h = Histogram::new();
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.max(), None);
    }
}
