//! Pair-based spike-timing-dependent plasticity, as the machine runs it.
//!
//! The paper's conclusion calls for platforms on which networks "develop,
//! learn and adapt"; STDP is the standard SpiNNaker plasticity rule. The
//! machine applies it deferred, at the one moment a core holds a row: when
//! a pre-synaptic spike has DMAed the row in (§5.3: "modified
//! connectivity data is DMAed back"). [`weight_change`] is the rule; the
//! row handler calls it once per synapse of the fetched row and clamps the
//! result with [`apply_bounded`]. Each synapse is
//!
//! * depressed by `a_minus · exp(-Δt / tau_minus)` against its target's
//!   most recent post-synaptic spike, `Δt` before the fetch, and
//! * potentiated by `a_plus · exp(-Δt / tau_plus)` for the row's previous
//!   pre-synaptic spike against that post-synaptic spike, when the post
//!   came `Δt` after the previous pre,
//!
//! each term rounded to the 8.8 weight grid. Pairing is nearest-spike:
//! a core keeps one time per row (its last pre-synaptic spike) and one
//! per neuron (its last post-synaptic spike), not per-synapse traces.

/// STDP rule parameters.
#[derive(Copy, Clone, Debug)]
pub struct StdpParams {
    /// Potentiation amplitude per pairing.
    pub a_plus: f32,
    /// Depression amplitude per pairing.
    pub a_minus: f32,
    /// Potentiation time constant, ms.
    pub tau_plus_ms: f32,
    /// Depression time constant, ms.
    pub tau_minus_ms: f32,
    /// Lower weight bound (8.8 fixed point).
    pub w_min_raw: i16,
    /// Upper weight bound (8.8 fixed point).
    pub w_max_raw: i16,
}

impl Default for StdpParams {
    fn default() -> Self {
        StdpParams {
            a_plus: 8.0,
            a_minus: 8.5,
            tau_plus_ms: 20.0,
            tau_minus_ms: 20.0,
            w_min_raw: 0,
            w_max_raw: 4 * 256, // 4 nA
        }
    }
}

/// The weight change (8.8 fixed point) of one synapse whose row is
/// fetched at `now_ms`: depression against the target's latest
/// post-synaptic spike at `last_post_ms`, plus potentiation of the row's
/// previous pre-synaptic spike at `last_pre_ms` against that
/// post-synaptic spike when it came later. A spike that never happened
/// is `f64::NEG_INFINITY` and pairs with nothing.
#[inline]
pub fn weight_change(now_ms: f64, last_pre_ms: f64, last_post_ms: f64, p: &StdpParams) -> i16 {
    let mut dw = 0i16;
    if last_post_ms.is_finite() && last_post_ms <= now_ms {
        let dt = (now_ms - last_post_ms) as f32;
        dw -= (p.a_minus * (-dt / p.tau_minus_ms).exp()).round() as i16;
    }
    if last_post_ms.is_finite() && last_pre_ms.is_finite() && last_post_ms > last_pre_ms {
        let dt = (last_post_ms - last_pre_ms) as f32;
        dw += (p.a_plus * (-dt / p.tau_plus_ms).exp()).round() as i16;
    }
    dw
}

/// Applies a weight delta within the rule's bounds.
pub fn apply_bounded(weight_raw: i16, dw_raw: i16, p: &StdpParams) -> i16 {
    (weight_raw.saturating_add(dw_raw)).clamp(p.w_min_raw, p.w_max_raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    const NEVER: f64 = f64::NEG_INFINITY;

    #[test]
    fn pre_then_post_potentiates() {
        let p = StdpParams::default();
        // Post 5 ms after the previous pre; the row is fetched long after,
        // when the depression against that post has decayed to nothing.
        let dw = weight_change(200.0, 100.0, 105.0, &p);
        assert_eq!(dw, (8.0f32 * (-0.25f32).exp()).round() as i16);
        assert!(dw > 0, "post 5 ms after pre must potentiate, got {dw}");
    }

    #[test]
    fn post_then_pre_depresses() {
        let p = StdpParams::default();
        let dw = weight_change(105.0, NEVER, 100.0, &p);
        assert_eq!(dw, -(8.5f32 * (-0.25f32).exp()).round() as i16);
        assert!(dw < 0, "pre 5 ms after post must depress, got {dw}");
        // A post before the previous pre potentiates nothing.
        assert_eq!(weight_change(105.0, 101.0, 100.0, &p), dw);
    }

    #[test]
    fn no_post_spike_no_change() {
        let p = StdpParams::default();
        assert_eq!(weight_change(100.0, 50.0, NEVER, &p), 0);
        assert_eq!(weight_change(100.0, NEVER, NEVER, &p), 0);
    }

    #[test]
    fn magnitude_decays_with_interval() {
        let p = StdpParams::default();
        let near = weight_change(1000.0, 0.0, 2.0, &p);
        let far = weight_change(1000.0, 0.0, 40.0, &p);
        assert!(
            near > far,
            "closer pairing must change more: {near} vs {far}"
        );
        assert!(far >= 0);
        let near = weight_change(2.0, NEVER, 0.0, &p);
        let far = weight_change(40.0, NEVER, 0.0, &p);
        assert!(
            near < far,
            "closer pairing must change more: {near} vs {far}"
        );
        assert!(far <= 0);
    }

    #[test]
    fn bounds_respected() {
        let p = StdpParams::default();
        assert_eq!(apply_bounded(p.w_max_raw, 100, &p), p.w_max_raw);
        assert_eq!(apply_bounded(p.w_min_raw, -100, &p), p.w_min_raw);
        assert_eq!(apply_bounded(100, 20, &p), 120);
    }

    #[test]
    fn asymmetry_matches_parameters() {
        // With a_minus slightly larger than a_plus, symmetric pairings
        // net-depress — the classic stability condition.
        let p = StdpParams::default();
        for dt in [1.0, 5.0, 10.0, 20.0] {
            let pot = weight_change(1000.0, 0.0, dt, &p) as i32;
            let dep = weight_change(dt, NEVER, 0.0, &p) as i32;
            assert!(pot + dep <= 0, "dt {dt}: pot {pot} dep {dep}");
        }
    }
}
