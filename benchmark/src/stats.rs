//! Order statistics and the output fingerprint.

/// Nearest-rank percentile of an ascending-sorted, non-empty slice:
/// the smallest sample with at least `p` percent of the samples at or
/// below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a sample set ascending (no NaNs by construction: every sample
/// is a duration or a count).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median of an unsorted, non-empty sample set (mean of the two middle
/// samples when the count is even).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile, by the same rule as Python's
/// `statistics.quantiles(v, n=4)` (exclusive method), which is what the
/// driver computes spreads with. Needs at least two samples.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median — the spread the
/// driver holds against each metric's bound. A single sample has no
/// spread to show.
pub fn spread(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(v);
    let m = median(v);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// What the timed loop reports: the median over `BLOCKS` contiguous
/// blocks of the loop of each block's own throughput, p50 and p95.
/// The host this runs on slows down for a second or two at a time; a
/// block median sheds those episodes where a whole-loop figure (a tail
/// percentile above all) keeps them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LoopStats {
    pub jobs_per_s: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
}

pub const BLOCKS: usize = 10;

/// `step_wall_s[i]` is the wall time of step `i` of the loop and
/// `step_jobs[i]` the number of jobs it completed; `lat_ms` holds every
/// job's latency in completion order. A block with no completed job is
/// left out.
pub fn loop_stats(step_wall_s: &[f64], step_jobs: &[usize], lat_ms: &[f64]) -> LoopStats {
    assert_eq!(step_wall_s.len(), step_jobs.len());
    assert_eq!(step_jobs.iter().sum::<usize>(), lat_ms.len());
    let steps = step_wall_s.len();
    let blocks = BLOCKS.min(steps).max(1);
    let (mut rate, mut p50, mut p95) = (Vec::new(), Vec::new(), Vec::new());
    let mut next_job = 0;
    for b in 0..blocks {
        let (lo, hi) = (b * steps / blocks, (b + 1) * steps / blocks);
        let wall: f64 = step_wall_s[lo..hi].iter().sum();
        let jobs: usize = step_jobs[lo..hi].iter().sum();
        let lat = sorted(lat_ms[next_job..next_job + jobs].to_vec());
        next_job += jobs;
        if jobs == 0 || wall <= 0.0 {
            continue;
        }
        rate.push(jobs as f64 / wall);
        p50.push(percentile(&lat, 50.0));
        p95.push(percentile(&lat, 95.0));
    }
    assert!(!rate.is_empty(), "the loop completed no job");
    LoopStats {
        jobs_per_s: median(&rate),
        p50_ms: median(&p50),
        p95_ms: median(&p95),
    }
}

/// FNV-1a over 64-bit words: the fingerprint every output check
/// compares. Stable across runs, hosts and thread counts because it
/// only ever eats values in the program's canonical output order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn eat(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// SplitMix64: the benchmark's own input generator (connector seeds,
/// stimulus choices, the job stream), independent of the program's RNG
/// so a change there cannot silently change the inputs.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at
    /// the sizes drawn here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Five samples: p99 is the maximum, p50 the third.
        let v = [1.0, 2.0, 3.0, 4.0, 50.0];
        assert_eq!(percentile(&v, 99.0), 50.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[4.0]), 0.0);
    }

    #[test]
    fn block_medians_shed_a_slow_episode() {
        // 100 one-job steps of 10 ms; steps 40-49 hit a 5x slowdown.
        let lat: Vec<f64> = (0..100)
            .map(|i| if (40..50).contains(&i) { 50.0 } else { 10.0 })
            .collect();
        let wall: Vec<f64> = lat.iter().map(|ms| ms / 1e3).collect();
        let s = loop_stats(&wall, &[1; 100], &lat);
        assert_eq!((s.p50_ms, s.p95_ms), (10.0, 10.0));
        assert!((s.jobs_per_s - 100.0).abs() < 1e-9);
        // The whole-loop p95 would have read the slow episode.
        assert_eq!(percentile(&sorted(lat), 95.0), 50.0);
    }

    #[test]
    fn blocks_follow_steps_and_batches() {
        // Four steps completing 2, 0, 3, 1 jobs: fewer steps than
        // BLOCKS, so one block per step; the empty step is left out.
        let s = loop_stats(
            &[0.2, 0.1, 0.3, 0.1],
            &[2, 0, 3, 1],
            &[5.0, 7.0, 1.0, 2.0, 3.0, 9.0],
        );
        // rates 10, 10, 10 -> 10; p50s 5, 2, 9 -> 5; p95s 7, 3, 9 -> 7.
        assert_eq!(
            s,
            LoopStats {
                jobs_per_s: 10.0,
                p50_ms: 5.0,
                p95_ms: 7.0
            }
        );
        let one = loop_stats(&[0.5], &[1], &[4.0]);
        assert_eq!(
            one,
            LoopStats {
                jobs_per_s: 2.0,
                p50_ms: 4.0,
                p95_ms: 4.0
            }
        );
    }

    #[test]
    fn fingerprint_is_stable_and_order_sensitive() {
        let fp = |words: &[u64]| {
            let mut h = Fnv::default();
            words.iter().for_each(|&w| h.eat(w));
            h.value()
        };
        // Pinned: a change to the hash silently invalidates every
        // recorded fingerprint, so it must be deliberate.
        assert_eq!(fp(&[]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fp(&[1, 2, 3]), fp(&[1, 2, 3]));
        assert_ne!(fp(&[1, 2, 3]), fp(&[3, 2, 1]));
        assert_ne!(fp(&[0]), fp(&[]));
        assert_eq!(fp(&[0x0123_4567_89ab_cdef]), 0x37eb_3f33_4776_1c55);
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix::new(7);
        let mut b = SplitMix::new(7);
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(SplitMix::new(8).next_u64(), xs[0]);
        assert!((0..100).all(|_| a.below(10) < 10));
        assert!((0..100).all(|_| (0.0..1.0).contains(&a.unit())));
    }
}
