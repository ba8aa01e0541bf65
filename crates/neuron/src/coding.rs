//! Population codes: N-of-M and rank-order (§5.4).
//!
//! "Information may be encoded in the choice of a subset of a population
//! that is active at any time, which in its purest form is an N-of-M
//! code ... In an extension of this approach, the N active neurons convey
//! additional information in the order in which they fire — these are
//! 'rank-order' codes \[20\]."

/// A rank-order code: the indices of the firing neurons, in firing order
/// (earliest first).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankOrderCode {
    /// Neuron indices, most significant (first to fire) first.
    pub order: Vec<u32>,
}

impl RankOrderCode {
    /// Number of firing neurons (the N in N-of-M).
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether no neuron fired.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The active subset, ignoring order (an N-of-M code).
    pub fn as_n_of_m(&self) -> Vec<u32> {
        let mut v = self.order.clone();
        v.sort_unstable();
        v
    }
}

/// Encodes an analog activity vector as a rank-order code over its `n`
/// strongest components: stronger activation fires earlier \[20\].
///
/// Components must exceed `threshold` to fire at all. Ties break by
/// index, deterministically.
///
/// # Example
///
/// ```
/// use spinn_neuron::coding::rank_order_encode;
///
/// let code = rank_order_encode(&[0.1, 0.9, 0.5, 0.7], 3, 0.0);
/// assert_eq!(code.order, vec![1, 3, 2]);
/// ```
pub fn rank_order_encode(values: &[f64], n: usize, threshold: f64) -> RankOrderCode {
    let mut idx: Vec<u32> = (0..values.len() as u32)
        .filter(|&i| values[i as usize] > threshold)
        .collect();
    idx.sort_by(|&a, &b| {
        values[b as usize]
            .partial_cmp(&values[a as usize])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    idx.truncate(n);
    RankOrderCode { order: idx }
}

/// Decodes a rank-order code into an estimated activity vector of length
/// `m` using geometric rank sensitivity: the r-th firing neuron gets
/// weight `alpha^r` (the standard rank-order decoding of \[20\]).
pub fn rank_order_decode(code: &RankOrderCode, m: usize, alpha: f64) -> Vec<f64> {
    let mut est = vec![0.0; m];
    let mut w = 1.0;
    for &i in &code.order {
        if (i as usize) < m {
            est[i as usize] = w;
        }
        w *= alpha;
    }
    est
}

/// Similarity of two rank-order codes in `[0, 1]`: the normalized dot
/// product of their decoded vectors (1 = identical code).
pub fn rank_order_similarity(a: &RankOrderCode, b: &RankOrderCode, m: usize, alpha: f64) -> f64 {
    let da = rank_order_decode(a, m, alpha);
    let db = rank_order_decode(b, m, alpha);
    let dot: f64 = da.iter().zip(&db).map(|(x, y)| x * y).sum();
    let na: f64 = da.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = db.iter().map(|x| x * x).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot / (na * nb)
}

/// Overlap `|a ∩ b|` of two N-of-M codes (inputs must be sorted, as
/// produced by [`RankOrderCode::as_n_of_m`]).
pub fn n_of_m_overlap(a: &[u32], b: &[u32]) -> usize {
    let mut i = 0;
    let mut j = 0;
    let mut shared = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                shared += 1;
                i += 1;
                j += 1;
            }
        }
    }
    shared
}

/// Information capacity of an N-of-M code, bits: `log2(C(m, n))`.
pub fn n_of_m_capacity_bits(m: u64, n: u64) -> f64 {
    log2_binomial(m, n)
}

/// Information capacity of a rank-order code, bits:
/// `log2(C(m, n) * n!)` — the order multiplies the alphabet by `n!`
/// (§5.4's point that rank order conveys *additional* information).
pub fn rank_order_capacity_bits(m: u64, n: u64) -> f64 {
    log2_binomial(m, n) + log2_factorial(n)
}

fn log2_factorial(n: u64) -> f64 {
    (2..=n).map(|k| (k as f64).log2()).sum()
}

fn log2_binomial(m: u64, n: u64) -> f64 {
    if n > m {
        return f64::NEG_INFINITY;
    }
    log2_factorial(m) - log2_factorial(n) - log2_factorial(m - n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_orders_by_strength() {
        let code = rank_order_encode(&[5.0, 1.0, 3.0, 4.0, 2.0], 5, 0.0);
        assert_eq!(code.order, vec![0, 3, 2, 4, 1]);
    }

    #[test]
    fn encode_truncates_to_n() {
        let code = rank_order_encode(&[5.0, 1.0, 3.0, 4.0, 2.0], 2, 0.0);
        assert_eq!(code.order, vec![0, 3]);
        assert_eq!(code.as_n_of_m(), vec![0, 3]);
    }

    #[test]
    fn threshold_gates_firing() {
        let code = rank_order_encode(&[0.5, 2.0, 0.1], 3, 0.4);
        assert_eq!(code.order, vec![1, 0]);
        let none = rank_order_encode(&[0.1, 0.2], 2, 1.0);
        assert!(none.is_empty());
    }

    #[test]
    fn ties_break_deterministically() {
        let a = rank_order_encode(&[1.0, 1.0, 1.0], 3, 0.0);
        let b = rank_order_encode(&[1.0, 1.0, 1.0], 3, 0.0);
        assert_eq!(a, b);
        assert_eq!(a.order, vec![0, 1, 2]);
    }

    #[test]
    fn decode_geometric_weights() {
        let code = RankOrderCode { order: vec![2, 0] };
        let est = rank_order_decode(&code, 4, 0.5);
        assert_eq!(est, vec![0.5, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn similarity_identity_and_disjoint() {
        let a = rank_order_encode(&[4.0, 3.0, 2.0, 1.0, 0.0, 0.0], 3, 0.0);
        assert!((rank_order_similarity(&a, &a, 6, 0.8) - 1.0).abs() < 1e-12);
        let b = RankOrderCode {
            order: vec![3, 4, 5],
        };
        let c = RankOrderCode {
            order: vec![0, 1, 2],
        };
        assert_eq!(rank_order_similarity(&b, &c, 6, 0.8), 0.0);
    }

    #[test]
    fn similarity_decreases_with_perturbation() {
        let base = RankOrderCode {
            order: vec![0, 1, 2, 3],
        };
        let swapped = RankOrderCode {
            order: vec![1, 0, 2, 3],
        };
        let shifted = RankOrderCode {
            order: vec![4, 5, 2, 3],
        };
        let s_swap = rank_order_similarity(&base, &swapped, 8, 0.7);
        let s_shift = rank_order_similarity(&base, &shifted, 8, 0.7);
        assert!(s_swap > s_shift);
        assert!(s_swap < 1.0);
    }

    #[test]
    fn n_of_m_overlap_counts() {
        assert_eq!(n_of_m_overlap(&[1, 2, 3], &[2, 3, 4]), 2);
        assert_eq!(n_of_m_overlap(&[], &[1]), 0);
        assert_eq!(n_of_m_overlap(&[5, 9], &[5, 9]), 2);
    }

    #[test]
    fn capacities_match_combinatorics() {
        // C(8,2) = 28 -> log2(28) ≈ 4.807
        assert!((n_of_m_capacity_bits(8, 2) - 28f64.log2()).abs() < 1e-9);
        // Rank order adds log2(2!) = 1 bit.
        assert!((rank_order_capacity_bits(8, 2) - (28f64.log2() + 1.0)).abs() < 1e-9);
        // The paper's observation: with N and M "in the hundreds or
        // thousands", the capacity is enormous.
        assert!(rank_order_capacity_bits(1000, 100) > 700.0);
    }

    #[test]
    fn rank_order_beats_n_of_m_capacity() {
        for (m, n) in [(10u64, 3u64), (100, 10), (256, 32)] {
            assert!(rank_order_capacity_bits(m, n) > n_of_m_capacity_bits(m, n));
        }
    }
}
