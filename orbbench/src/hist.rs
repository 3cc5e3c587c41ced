//! Fixed-memory latency histogram with log-spaced buckets.
//!
//! Values below 128 get one exact bucket each. Above that, every power of two
//! is split into 128 equal buckets, so a bucket is at most 1/128 of its lower
//! bound wide and a reported value (the bucket midpoint) is within
//! [`MAX_RELATIVE_ERROR`] of every sample in it. The bucket array is allocated
//! once, before set-up, so recording never allocates and the sampler does not
//! grow the process's resident memory during a run.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;

/// Bucket count covering the whole `u64` range.
pub const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Worst-case relative error of a value reported by [`LogHistogram::percentile`].
pub const MAX_RELATIVE_ERROR: f64 = 1.0 / (2 * SUB) as f64;

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: u64 = 10;

/// Log-bucketed histogram of `u64` samples (nanoseconds in this benchmark).
pub struct LogHistogram {
    counts: Box<[u64]>,
    total: u64,
}

fn index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    let mantissa = (v >> shift) as usize & (SUB - 1);
    (shift as usize + 1) * SUB + mantissa
}

/// Lower bound and width of bucket `i`, in `f64` so the top bucket's upper
/// edge (2^64) is representable.
fn bucket(i: usize) -> (f64, f64) {
    if i < SUB {
        return (i as f64, 1.0);
    }
    let shift = (i / SUB - 1) as i32;
    let width = 2f64.powi(shift);
    ((SUB + i % SUB) as f64 * width, width)
}

impl LogHistogram {
    /// An empty histogram; allocates its whole bucket array now.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile (`0 < q < 1`): the value of the sample at rank
    /// `ceil(q·n)`, reported as its bucket's midpoint (exact below 128).
    /// `None` unless at least [`MIN_BEYOND`] samples lie beyond that rank,
    /// so a tail percentile is never read off a handful of samples.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        if self.total < rank + MIN_BEYOND {
            return None;
        }
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, width) = bucket(i);
                return Some(if width == 1.0 { lo } else { lo + width / 2.0 });
            }
        }
        None
    }
}

/// The `q`-quantile of `v` by linear interpolation between order
/// statistics (NaN for an empty `v`).
pub fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    let Some(&last) = v.last() else {
        return f64::NAN;
    };
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    v.get(lo + 1)
        .map_or(last, |&hi| v[lo] + (pos - lo as f64) * (hi - v[lo]))
}

/// Cuts `slices` into as many contiguous groups (at most one per slice) as
/// leave each group enough samples for the `q`-quantile, and returns each
/// group's `q`-quantile. Empty when even all slices together have too few.
pub fn group_percentiles(slices: &[&LogHistogram], q: f64) -> Vec<f64> {
    let need = (MIN_BEYOND as f64 / (1.0 - q)).ceil() as u64;
    let total: u64 = slices.iter().map(|h| h.count()).sum();
    let n = slices.len();
    let groups = n.min((total / need.max(1)) as usize);
    (0..groups)
        .filter_map(|g| {
            let mut h = LogHistogram::new();
            for s in &slices[g * n / groups..(g + 1) * n / groups] {
                h.merge(s);
            }
            h.percentile(q)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(vec![3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(vec![4.0, 1.0, 3.0, 2.0], 0.5), 2.5);
        assert_eq!(quantile(vec![1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(vec![1.0, 2.0, 3.0, 4.0, 5.0], 0.75), 4.0);
        assert_eq!(quantile(vec![7.0], 0.25), 7.0);
        assert!(quantile(vec![], 0.5).is_nan());
    }

    #[test]
    fn groups_hold_enough_samples_for_the_percentile() {
        let hist = |n: u64, v: u64| {
            let mut h = LogHistogram::new();
            for _ in 0..n {
                h.record(v);
            }
            h
        };
        // 12 slices of 300 samples: p99 needs 1000 per group, so 3 groups
        // of 4 slices; p50 needs 20, so one group per slice.
        let slices: Vec<LogHistogram> = (0..12).map(|i| hist(300, 10 + i)).collect();
        let refs: Vec<&LogHistogram> = slices.iter().collect();
        assert_eq!(group_percentiles(&refs, 0.99), vec![13.0, 17.0, 21.0]);
        assert_eq!(group_percentiles(&refs, 0.5).len(), 12);
        assert!(
            group_percentiles(&refs[..3], 0.99).is_empty(),
            "900 samples cannot give a p99"
        );
        assert!(group_percentiles(&[], 0.5).is_empty());
    }

    #[test]
    fn buckets_cover_every_value_in_order() {
        assert_eq!(index(0), 0);
        assert_eq!(index(127), 127);
        assert_eq!(index(128), 128);
        assert_eq!(index(u64::MAX), BUCKETS - 1);
        let mut last = 0;
        for v in (0..1_000_000u64).chain((20..64).map(|s| (1u64 << s) + 12345)) {
            let i = index(v);
            assert!(i >= last, "index must be monotonic in the value");
            last = i;
            let (lo, width) = bucket(i);
            assert!(
                lo <= v as f64 && (v as f64) < lo + width,
                "{v} outside bucket {i}"
            );
        }
    }

    #[test]
    fn reported_value_is_within_the_stated_relative_error() {
        let mut worst: f64 = 0.0;
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            for probe in [v, v + v / 3, v * 2 - 1] {
                let mut h = LogHistogram::new();
                for _ in 0..=MIN_BEYOND {
                    h.record(probe);
                }
                let got = h.percentile(0.01).unwrap_or(f64::NAN);
                worst = worst.max((got - probe as f64).abs() / probe as f64);
            }
            v = v * 3 / 2 + 1;
        }
        assert!(worst <= MAX_RELATIVE_ERROR, "worst relative error {worst}");
        assert!(
            worst > MAX_RELATIVE_ERROR / 4.0,
            "the bound should be tight, got {worst}"
        );
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(
            h.percentile(0.99),
            Some(990.0),
            "rank 990 of 1000 leaves 10 beyond"
        );
        let mut h = LogHistogram::new();
        for v in 1..=999u64 {
            h.record(v);
        }
        assert_eq!(
            h.percentile(0.99),
            None,
            "rank 990 of 999 leaves only 9 beyond"
        );
        assert!(h.percentile(0.5).is_some());
        assert_eq!(LogHistogram::new().percentile(0.5), None);
    }

    #[test]
    fn percentile_picks_the_ranked_sample() {
        let mut h = LogHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.5), Some(50.0));
        assert_eq!(h.percentile(0.9), Some(90.0));
        let mut other = LogHistogram::new();
        for _ in 0..100 {
            other.record(1_000_000);
        }
        h.merge(&other);
        assert_eq!(h.count(), 200);
        assert_eq!(h.percentile(0.5), Some(100.0));
        let p75 = h.percentile(0.75).unwrap_or(0.0);
        assert!((p75 - 1e6).abs() / 1e6 <= MAX_RELATIVE_ERROR);
    }
}
