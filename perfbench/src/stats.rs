//! Sample statistics, the response digest and failure accounting.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64 / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples: the middle one, or the mean of the middle
/// two. Averaging keeps the median of a few heterogeneous samples from
/// jumping by a whole gap when two neighbours swap ranks.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest whole percentile, capped at 99, that leaves at least ten
/// samples strictly beyond it under [`percentile`]'s nearest rank. `None`
/// below eleven samples, where no percentile has ten samples beyond it.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (1..=99u32).rev().find(|&p| {
        let rank = (p as usize * n).div_ceil(100);
        rank >= 1 && n.saturating_sub(rank) >= 10
    })
}

/// FNV-1a, 64 bit: the digest that response bodies and encoded grid cells
/// are compared by.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Operations attempted and failed in one run. An operation fails on a
/// non-200 response, on output that differs from its reference, or on a
/// drain that does not exit 0.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }

    /// Failed over attempted; 0 when nothing was attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(5000), Some(99), "capped at p99");
        assert_eq!(tail_percentile(999), Some(98));
        assert_eq!(tail_percentile(32), Some(68));
        assert_eq!(tail_percentile(11), Some(9));
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(0), None);
        for n in 11..3000 {
            let p = tail_percentile(n).unwrap();
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let at = percentile(&v, f64::from(p));
            let beyond = v.iter().filter(|&&x| x > at).count();
            assert!(beyond >= 10, "n={n} p={p} leaves {beyond}");
            if p < 99 {
                let next = percentile(&v, f64::from(p + 1));
                assert!(
                    v.iter().filter(|&&x| x > next).count() < 10,
                    "n={n}: p{p} not highest"
                );
            }
        }
    }

    #[test]
    fn digest_is_fnv1a_and_order_sensitive() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest(b"foobar"), 0x8594_4171_f739_67e8);
        assert_ne!(digest(b"ab"), digest(b"ba"));
    }

    #[test]
    fn error_rate_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 0.0);
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(t.error_rate(), 0.25);
        let mut u = Tally::default();
        u.record(false);
        t.merge(u);
        assert_eq!(
            t,
            Tally {
                attempted: 5,
                failed: 2
            }
        );
        assert_eq!(t.error_rate(), 0.4);
    }
}
