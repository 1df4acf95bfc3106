//! The benchmark's own statistics: tail-safe percentiles and best-of-K
//! unit timing with a digest gate.

/// The `q`-quantile (0 < q < 1) of `samples` by the nearest-rank rule,
/// or `None` when fewer than ten samples lie beyond it. A percentile
/// with a thinner tail is one or two outliers, not a distribution.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank: the smallest value with at least q·n samples at or
    // below it.
    let rank = ((q * v.len() as f64).ceil() as usize).max(1);
    if v.len() < rank + 10 {
        return None;
    }
    Some(v[rank - 1])
}

/// The median of `samples` (mean of the middle pair for even counts).
/// Unlike [`percentile`] it needs no tail: it summarises repeated
/// measurements of one quantity, not a latency distribution.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Best-of-K timing of one deterministic unit of work. The first
/// repetition fixes the unit's report digest; a later repetition whose
/// digest differs did different work, so its time is rejected instead
/// of competing for the minimum.
#[derive(Clone, Debug, Default)]
pub struct BestOf {
    digest: Option<u64>,
    best: Option<f64>,
}

impl BestOf {
    /// Record one repetition's host time and report digest. Returns
    /// `false` (and keeps the time out of the minimum) on a digest
    /// mismatch.
    pub fn record(&mut self, secs: f64, digest: u64) -> bool {
        match self.digest {
            Some(d) if d != digest => return false,
            Some(_) => {}
            None => self.digest = Some(digest),
        }
        self.best = Some(self.best.map_or(secs, |b| b.min(secs)));
        true
    }

    /// The fastest accepted repetition, if any.
    pub fn best(&self) -> Option<f64> {
        self.best
    }

    /// The digest the first repetition fixed.
    pub fn digest(&self) -> Option<u64> {
        self.digest
    }
}

/// FNV-1a over `bytes` — the report and verdict digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        // p99 of 100 samples has one sample beyond it.
        assert_eq!(percentile(&v, 0.99), None);
        // p90 of 99 samples: rank 90, nine beyond.
        assert_eq!(percentile(&v[..99], 0.9), None);
        // p50 of 20 samples: rank 10, ten beyond.
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let v: Vec<f64> = (0..40).map(|i| f64::from((i * 17) % 40)).collect();
        assert_eq!(percentile(&v, 0.5), Some(19.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn best_of_keeps_the_fastest_repetition() {
        let mut b = BestOf::default();
        assert!(b.record(0.30, 7));
        assert!(b.record(0.21, 7));
        assert!(b.record(0.25, 7));
        assert_eq!(b.best(), Some(0.21));
        assert_eq!(b.digest(), Some(7));
    }

    #[test]
    fn best_of_rejects_a_digest_mismatch() {
        let mut b = BestOf::default();
        assert!(b.record(0.30, 7));
        // Faster, but it did different work: rejected.
        assert!(!b.record(0.01, 8));
        assert_eq!(b.best(), Some(0.30));
        // The first digest stays the reference.
        assert!(b.record(0.29, 7));
        assert_eq!(b.best(), Some(0.29));
    }

    #[test]
    fn best_of_starts_empty() {
        let b = BestOf::default();
        assert_eq!(b.best(), None);
        assert_eq!(b.digest(), None);
    }
}
