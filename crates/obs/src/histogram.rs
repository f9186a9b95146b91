//! Fixed-bucket log2 histogram: the fold the trace analyzer uses for
//! probe latencies.
//!
//! Values bucket by `64 - leading_zeros`, giving exact powers of two as
//! bucket bounds. Merge is element-wise addition, which makes
//! aggregation associative and commutative — the property the trace
//! analyzer's determinism tests pin down.

/// Number of log2 buckets: bucket 0 holds value 0, bucket `i` holds
/// values in `[2^(i-1), 2^i)`, up to bucket 64 which tops out at
/// `u64::MAX`.
pub const BUCKETS: usize = 65;

fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket.
fn bucket_max(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else if idx >= 64 {
        u64::MAX
    } else {
        (1u64 << idx) - 1
    }
}

/// Log2-bucketed counts plus their count and sum. Merging is
/// element-wise addition, so any grouping of partial histograms folds
/// to the same aggregate.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Histogram {
    pub buckets: [u64; BUCKETS],
    pub count: u64,
    pub sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    pub fn observe(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value;
    }

    pub fn merge(&self, other: &Histogram) -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|i| self.buckets[i] + other.buckets[i]),
            count: self.count + other.count,
            sum: self.sum + other.sum,
        }
    }

    /// Upper-bound estimate of the `q`-quantile (0.0..=1.0): the
    /// inclusive max of the first bucket whose cumulative count
    /// reaches `ceil(q * count)`. Exact to within one power of two.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_max(i);
            }
        }
        bucket_max(BUCKETS - 1)
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 0..BUCKETS {
            assert_eq!(bucket_of(bucket_max(i)), i, "bucket_max inverts");
        }
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 3, 4, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1110);
        // p50 of {1,2,3,4,100,1000} lands in the [2,4) bucket.
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(1.0), 1023);
        assert_eq!(h.quantile(0.0), 1);
    }

    #[test]
    fn histogram_merge_is_associative_and_commutative() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut c = Histogram::default();
        let mut all = Histogram::default();
        // Deterministic pseudo-random values via the shared splitmix64.
        let mut g = crate::rng::Gen::new(0x9e3779b97f4a7c15);
        for i in 0..300 {
            let v = g.next_u64() % 100_000;
            [&mut a, &mut b, &mut c][i % 3].observe(v);
            all.observe(v);
        }
        assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
        assert_eq!(a.merge(&b), b.merge(&a));
        assert_eq!(a.merge(&b).merge(&c), all);
    }
}
