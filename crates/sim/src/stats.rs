//! The latency histogram the fabric and the machine record packet delays in.

/// A fixed-width linear histogram over `u64` samples with overflow bucket,
/// supporting approximate percentiles. Used for latency distributions.
///
/// # Example
///
/// ```
/// use spinn_sim::Histogram;
///
/// let mut h = Histogram::new(10, 100); // 10 buckets of width 100
/// for v in 0..1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// let p50 = h.percentile(50.0);
/// assert!((400..=600).contains(&p50), "{p50}");
/// ```
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Vec<u64>,
    width: u64,
    overflow: u64,
    count: u64,
    max: u64,
    sum: u128,
}

impl Histogram {
    /// Creates a histogram with `buckets` linear buckets of width `width`.
    ///
    /// # Panics
    ///
    /// Panics if `buckets == 0` or `width == 0`.
    pub fn new(buckets: usize, width: u64) -> Self {
        assert!(
            buckets > 0 && width > 0,
            "histogram needs buckets and width"
        );
        Histogram {
            buckets: vec![0; buckets],
            width,
            overflow: 0,
            count: 0,
            max: 0,
            sum: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = (value / self.width) as usize;
        if idx < self.buckets.len() {
            self.buckets[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.count += 1;
        self.max = self.max.max(value);
        self.sum += value as u128;
    }

    /// Total number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of samples above the last bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of all recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate percentile `p` (0–100): upper edge of the bucket where
    /// the cumulative count crosses `p`%, but never above `max()` (so it
    /// is `max()` when the crossing lies in the last occupied bucket or
    /// in the overflow bucket).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (p.clamp(0.0, 100.0) / 100.0 * self.count as f64).ceil() as u64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target.max(1) {
                return ((i as u64 + 1) * self.width).min(self.max);
            }
        }
        self.max
    }

    /// Merges another histogram recorded with the same geometry
    /// (per-shard latency histograms from a parallel run).
    ///
    /// # Panics
    ///
    /// Panics if bucket count or width differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.width, other.width, "histogram width mismatch");
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "histogram bucket-count mismatch"
        );
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }

    /// Serializes the histogram (geometry + counts) for checkpoints.
    pub fn encode(&self, enc: &mut crate::wire::Enc) {
        enc.seq(self.buckets.len());
        enc.u64(self.width);
        for &b in &self.buckets {
            enc.u64(b);
        }
        enc.u64(self.overflow)
            .u64(self.count)
            .u64(self.max)
            .u128(self.sum);
    }

    /// Rebuilds a histogram from [`Histogram::encode`] bytes.
    pub fn decode(dec: &mut crate::wire::Dec<'_>) -> Result<Histogram, crate::wire::WireError> {
        let n = dec.seq(8)?;
        if n == 0 {
            return Err(crate::wire::WireError::Corrupt("histogram buckets"));
        }
        let width = dec.u64()?;
        if width == 0 {
            return Err(crate::wire::WireError::Corrupt("histogram width"));
        }
        let mut buckets = Vec::with_capacity(n);
        for _ in 0..n {
            buckets.push(dec.u64()?);
        }
        Ok(Histogram {
            buckets,
            width,
            overflow: dec.u64()?,
            count: dec.u64()?,
            max: dec.u64()?,
            sum: dec.u128()?,
        })
    }

    /// Iterates `(bucket_lower_bound, count)` for all non-empty buckets.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(move |(i, &c)| (i as u64 * self.width, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_and_overflow() {
        let mut h = Histogram::new(10, 10); // covers [0, 100)
        for v in 0..100 {
            h.record(v);
        }
        h.record(500);
        assert_eq!(h.count(), 101);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.max(), 500);
        assert!(h.percentile(50.0) <= 60);
        assert_eq!(h.percentile(100.0), 500);
    }

    #[test]
    fn percentile_never_exceeds_the_largest_sample() {
        let mut zeros = Histogram::new(16, 250);
        for _ in 0..10 {
            zeros.record(0);
        }
        assert_eq!(zeros.percentile(50.0), 0);
        let mut one = Histogram::new(16, 250);
        one.record(780);
        assert_eq!(one.percentile(99.0), 780);
        assert_eq!(one.percentile(50.0), 780);
    }

    #[test]
    fn histogram_mean() {
        let mut h = Histogram::new(4, 25);
        h.record(0);
        h.record(100);
        assert!((h.mean() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_iter_skips_empty() {
        let mut h = Histogram::new(5, 10);
        h.record(12);
        h.record(13);
        h.record(44);
        let buckets: Vec<_> = h.iter().collect();
        assert_eq!(buckets, vec![(10, 2), (40, 1)]);
    }

    #[test]
    #[should_panic(expected = "histogram needs")]
    fn histogram_rejects_zero_width() {
        let _ = Histogram::new(10, 0);
    }
}
