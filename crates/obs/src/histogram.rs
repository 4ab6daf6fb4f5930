/// Number of histogram buckets: four per factor-of-two ("quarter octaves") from 1 µs
/// up past 100 s, which bounds the quantile error to about ±19% — plenty for p50/p99
/// reporting without any external histogram dependency.
const BUCKETS: usize = 112;

/// Nanoseconds covered by the first bucket.
const BASE_NS: f64 = 1_000.0;

/// Sample counts at or below this keep every sample verbatim, so small-N quantiles
/// are nearest-rank exact. A handful of requests otherwise collapses onto bucket
/// upper bounds clamped into the sample range — reporting p90 == p99 == max.
const EXACT_SAMPLES: u64 = 64;

/// A fixed-bucket, log-spaced latency histogram (no external dependencies). Records
/// nanosecond samples; at or below `EXACT_SAMPLES` recorded samples quantiles are
/// nearest-rank exact, above that they interpolate within the containing
/// quarter-octave bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    /// Every recorded sample, sorted, kept only while `total <= EXACT_SAMPLES` and
    /// emptied permanently once the histogram outgrows the exact regime — so
    /// equality and merge results are independent of recording order.
    samples: Vec<u64>,
    total: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; BUCKETS],
            samples: Vec::new(),
            total: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index of a nanosecond sample (quarter-octave log spacing).
    fn bucket(ns: u64) -> usize {
        if (ns as f64) <= BASE_NS {
            return 0;
        }
        let position = (ns as f64 / BASE_NS).log2() * 4.0;
        (position.ceil() as usize).min(BUCKETS - 1)
    }

    /// Upper latency bound of `bucket`, in nanoseconds.
    fn bucket_upper_ns(bucket: usize) -> f64 {
        BASE_NS * (bucket as f64 / 4.0).exp2()
    }

    /// Records one latency sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
        if self.total <= EXACT_SAMPLES {
            let at = self.samples.partition_point(|&s| s <= ns);
            self.samples.insert(at, ns);
        } else {
            self.samples.clear();
        }
        self.sum_ns += u128::from(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Folds another histogram into this one (used to merge per-worker histograms).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
        if self.total <= EXACT_SAMPLES {
            // Both sides are below the threshold, so both sample sets are complete.
            for &ns in &other.samples {
                let at = self.samples.partition_point(|&s| s <= ns);
                self.samples.insert(at, ns);
            }
        } else {
            self.samples.clear();
        }
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.total as f64
        }
    }

    /// Largest recorded sample in nanoseconds (0 when empty).
    pub fn max_ns(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.max_ns
        }
    }

    /// Smallest recorded sample in nanoseconds (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// The `q`-quantile (`0 < q <= 1`) in nanoseconds; 0 when the histogram is
    /// empty. Nearest-rank exact at or below `EXACT_SAMPLES` recorded samples,
    /// linearly interpolated within the containing bucket above.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `(0, 1]`.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        if self.samples.len() as u64 == self.total {
            return self.samples[rank as usize - 1] as f64;
        }
        let mut seen = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if seen + count >= rank {
                // Interpolate by the rank's position within the bucket, then clamp
                // the coarse bound into the observed sample range.
                let lower = if bucket == 0 {
                    0.0
                } else {
                    Self::bucket_upper_ns(bucket - 1)
                };
                let upper = Self::bucket_upper_ns(bucket);
                let frac = (rank - seen) as f64 / count as f64;
                return (lower + (upper - lower) * frac)
                    .clamp(self.min_ns as f64, self.max_ns as f64);
            }
            seen += count;
        }
        self.max_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.quantile_ns(0.5), 0.0);
        assert_eq!(h.max_ns(), 0);
    }

    #[test]
    fn quantiles_bound_the_true_value_within_a_bucket() {
        let mut h = LatencyHistogram::new();
        // 100 samples at 1ms, 10 at 100ms: p50 ~ 1ms, p99+ ~ 100ms.
        for _ in 0..100 {
            h.record(1_000_000);
        }
        for _ in 0..10 {
            h.record(100_000_000);
        }
        assert_eq!(h.count(), 110);
        let p50 = h.quantile_ns(0.5);
        assert!((800_000.0..=1_300_000.0).contains(&p50), "p50 {p50}");
        let p99 = h.quantile_ns(0.99);
        assert!((80_000_000.0..=120_000_000.0).contains(&p99), "p99 {p99}");
        assert!(h.quantile_ns(1.0) >= p99);
        let mean = h.mean_ns();
        assert!((9_000_000.0..=11_000_000.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for (i, ns) in [500u64, 2_000, 40_000, 1_000_000, 2_500_000, 900_000_000]
            .iter()
            .enumerate()
        {
            if i % 2 == 0 {
                a.record(*ns);
            } else {
                b.record(*ns);
            }
            all.record(*ns);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn extreme_samples_stay_in_range() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), u64::MAX);
        assert!(h.quantile_ns(0.01) >= 0.0);
        assert!(h.quantile_ns(1.0) > 0.0);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn zero_quantile_is_rejected() {
        LatencyHistogram::new().quantile_ns(0.0);
    }

    #[test]
    fn bucket_edges_sit_exactly_on_quarter_octave_boundaries() {
        // Samples exactly on a power-of-two boundary share the bucket whose upper
        // bound IS that boundary (log2 of an exact power of two is exact in f64, so
        // there is no epsilon drift at the edges). Enough samples to leave the
        // exact-sample regime and exercise the bucket readout.
        let mut h = LatencyHistogram::new();
        for _ in 0..65 {
            h.record(1_999);
            h.record(2_000);
        }
        // The full-rank quantile interpolates to the bucket's exact upper edge.
        assert_eq!(h.quantile_ns(1.0), 2_000.0);
        // Mid-bucket interpolation clamps up to the observed minimum.
        assert_eq!(h.quantile_ns(0.5), 1_999.0);
        // One nanosecond past the boundary falls into the next bucket: the p99 rank
        // resolves to a different bucket than the p50 rank.
        let mut h = LatencyHistogram::new();
        for _ in 0..65 {
            h.record(2_000);
            h.record(2_001);
        }
        assert_eq!(h.quantile_ns(0.5), 2_000.0);
        // The next bucket's coarse upper bound (2000·2^¼ ≈ 2378) clamps to max.
        assert_eq!(h.quantile_ns(0.99), 2_001.0);
    }

    #[test]
    fn small_sample_counts_report_exact_distinct_quantiles() {
        // The motivating defect: with a handful of samples the bucket readout
        // clamped every upper tail onto the observed max, reporting
        // p90 == p99 == max. At or below the exact-sample threshold quantiles are
        // nearest-rank exact.
        let mut h = LatencyHistogram::new();
        for i in 1..=10u64 {
            h.record(i * 1_000_000);
        }
        assert_eq!(h.quantile_ns(0.5), 5_000_000.0);
        assert_eq!(h.quantile_ns(0.9), 9_000_000.0);
        assert_eq!(h.quantile_ns(0.99), 10_000_000.0);
        assert_eq!(h.quantile_ns(1.0), 10_000_000.0);
        assert_ne!(
            h.quantile_ns(0.9),
            h.quantile_ns(0.99),
            "the upper tail must not collapse onto max at small N"
        );
    }

    #[test]
    fn single_sample_quantiles_are_exact_at_every_q() {
        for ns in [1u64, 1_000, 2_000, 2_001, 123_456_789, 99_999_999_999] {
            let mut h = LatencyHistogram::new();
            h.record(ns);
            for q in [0.01, 0.5, 0.99, 1.0] {
                assert_eq!(h.quantile_ns(q), ns as f64, "sample {ns} quantile {q}");
            }
        }
    }

    #[test]
    fn two_sample_quantiles_split_across_buckets() {
        let (a, b) = (1_000_000u64, 100_000_000u64);
        let mut h = LatencyHistogram::new();
        h.record(a);
        h.record(b);
        // Two samples sit inside the exact regime: every rank reads back verbatim.
        assert_eq!(h.quantile_ns(0.5), a as f64);
        assert_eq!(h.quantile_ns(0.99), b as f64);
        assert_eq!(h.quantile_ns(1.0), b as f64);
    }

    #[test]
    fn quantile_error_is_bounded_by_one_quarter_octave() {
        // 3000 ns sits mid-bucket (cap 1000·2^(7/4) ≈ 3364). Past the exact-sample
        // threshold, and with a distinct max to keep the clamp from hiding the
        // coarseness, the interpolated p50 may overshoot the true value — but never
        // by more than the 2^¼ bucket ratio.
        let mut h = LatencyHistogram::new();
        for _ in 0..65 {
            h.record(3_000);
            h.record(10_000);
        }
        let p50 = h.quantile_ns(0.5);
        assert!(p50 >= 3_000.0, "p50 {p50}");
        assert!(p50 <= 3_000.0 * 2f64.powf(0.25), "p50 {p50}");
    }

    #[test]
    fn merge_across_the_exact_threshold_matches_direct_recording() {
        // Two 48-sample histograms are each inside the exact regime; their merge
        // (96 samples) is not. The merged histogram must equal one recorded
        // directly — including the permanent hand-off to the bucket readout.
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for i in 0..48u64 {
            let (x, y) = (1_000_000 + i * 30_000, 2_500_000 + i * 30_000);
            a.record(x);
            b.record(y);
            all.record(x);
            all.record(y);
        }
        a.merge(&b);
        assert_eq!(a, all);
        let (p50, p90, p99) = (
            all.quantile_ns(0.5),
            all.quantile_ns(0.9),
            all.quantile_ns(0.99),
        );
        assert!(p50 < p90 && p90 <= p99, "p50 {p50}, p90 {p90}, p99 {p99}");
        // Interpolation keeps the estimate within the documented bucket error of
        // the true mid-rank sample (~2.44 ms).
        assert!((2_000_000.0..=2_900_000.0).contains(&p50), "p50 {p50}");
    }
}
