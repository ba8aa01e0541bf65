//! 16.16 signed fixed-point arithmetic.
//!
//! The ARM968 cores in SpiNNaker have no floating-point unit; the neuron
//! kernels run in 16.16 fixed point \[17\]. Using the same representation
//! keeps the reproduction's dynamics bit-identical across platforms and
//! faithful to the hardware's quantization behaviour.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A signed 16.16 fixed-point number (range ±32768, resolution 2⁻¹⁶).
///
/// Arithmetic saturates at the representable range, matching the ARM
/// saturating-arithmetic idiom used by the neuron kernels.
///
/// # Example
///
/// ```
/// use spinn_neuron::fixed::Fix1616;
///
/// let a = Fix1616::from_f32(1.5);
/// let b = Fix1616::from_f32(-0.25);
/// assert_eq!((a * b).to_f32(), -0.375);
/// assert_eq!((a + b).to_f32(), 1.25);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fix1616(i32);

impl Fix1616 {
    /// The number of fractional bits.
    pub const FRAC_BITS: u32 = 16;
    /// Zero.
    pub const ZERO: Fix1616 = Fix1616(0);
    /// One.
    pub const ONE: Fix1616 = Fix1616(1 << 16);
    /// The largest representable value (≈ 32768).
    pub const MAX: Fix1616 = Fix1616(i32::MAX);
    /// The smallest representable value (≈ −32768).
    pub const MIN: Fix1616 = Fix1616(i32::MIN);

    /// Creates a value from raw 16.16 bits.
    #[inline]
    pub const fn from_bits(bits: i32) -> Self {
        Fix1616(bits)
    }

    /// The raw 16.16 bit pattern.
    #[inline]
    pub const fn to_bits(self) -> i32 {
        self.0
    }

    /// Converts from an integer (saturating).
    #[inline]
    pub fn from_int(v: i32) -> Self {
        Fix1616(v.saturating_mul(1 << 16))
    }

    /// Converts from `f32` (saturating, truncating toward zero).
    #[inline]
    pub fn from_f32(v: f32) -> Self {
        let scaled = (v as f64) * 65536.0;
        if scaled >= i32::MAX as f64 {
            Fix1616::MAX
        } else if scaled <= i32::MIN as f64 {
            Fix1616::MIN
        } else {
            Fix1616(scaled as i32)
        }
    }

    /// Converts to `f32`.
    #[inline]
    pub fn to_f32(self) -> f32 {
        self.0 as f32 / 65536.0
    }

    /// Converts to `f64` (exact).
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / 65536.0
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Fix1616) -> Fix1616 {
        Fix1616(self.0.saturating_add(rhs.0))
    }

    /// Saturating multiplication (rounds toward negative infinity).
    #[inline]
    pub fn saturating_mul(self, rhs: Fix1616) -> Fix1616 {
        let wide = (self.0 as i64 * rhs.0 as i64) >> 16;
        if wide > i32::MAX as i64 {
            Fix1616::MAX
        } else if wide < i32::MIN as i64 {
            Fix1616::MIN
        } else {
            Fix1616(wide as i32)
        }
    }

    /// Absolute value (saturating at `MAX` for `MIN`).
    #[inline]
    pub fn abs(self) -> Fix1616 {
        if self.0 == i32::MIN {
            Fix1616::MAX
        } else {
            Fix1616(self.0.abs())
        }
    }
}

impl Add for Fix1616 {
    type Output = Fix1616;
    #[inline]
    fn add(self, rhs: Fix1616) -> Fix1616 {
        self.saturating_add(rhs)
    }
}

impl AddAssign for Fix1616 {
    #[inline]
    fn add_assign(&mut self, rhs: Fix1616) {
        *self = *self + rhs;
    }
}

impl Sub for Fix1616 {
    type Output = Fix1616;
    #[inline]
    fn sub(self, rhs: Fix1616) -> Fix1616 {
        Fix1616(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Fix1616 {
    #[inline]
    fn sub_assign(&mut self, rhs: Fix1616) {
        *self = *self - rhs;
    }
}

impl Mul for Fix1616 {
    type Output = Fix1616;
    #[inline]
    fn mul(self, rhs: Fix1616) -> Fix1616 {
        self.saturating_mul(rhs)
    }
}

impl Div for Fix1616 {
    type Output = Fix1616;
    /// # Panics
    ///
    /// Panics on division by zero.
    #[inline]
    fn div(self, rhs: Fix1616) -> Fix1616 {
        assert!(rhs.0 != 0, "fixed-point division by zero");
        let wide = ((self.0 as i64) << 16) / rhs.0 as i64;
        if wide > i32::MAX as i64 {
            Fix1616::MAX
        } else if wide < i32::MIN as i64 {
            Fix1616::MIN
        } else {
            Fix1616(wide as i32)
        }
    }
}

impl Neg for Fix1616 {
    type Output = Fix1616;
    #[inline]
    fn neg(self) -> Fix1616 {
        Fix1616(self.0.saturating_neg())
    }
}

impl fmt::Debug for Fix1616 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fix1616({})", self.to_f64())
    }
}

impl fmt::Display for Fix1616 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.5}", self.to_f64())
    }
}

impl From<i16> for Fix1616 {
    fn from(v: i16) -> Self {
        Fix1616::from_int(v as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        for v in [-100.5f32, -1.0, -0.25, 0.0, 0.5, 1.0, 3.75, 1000.125] {
            assert_eq!(Fix1616::from_f32(v).to_f32(), v, "{v}");
        }
        assert_eq!(Fix1616::from_int(5).to_f32(), 5.0);
        assert_eq!(Fix1616::from(-3i16).to_f32(), -3.0);
    }

    #[test]
    fn constants() {
        assert_eq!(Fix1616::ZERO.to_f32(), 0.0);
        assert_eq!(Fix1616::ONE.to_f32(), 1.0);
        assert_eq!(Fix1616::ONE.to_bits(), 65536);
    }

    #[test]
    fn arithmetic() {
        let a = Fix1616::from_f32(2.5);
        let b = Fix1616::from_f32(0.5);
        assert_eq!((a + b).to_f32(), 3.0);
        assert_eq!((a - b).to_f32(), 2.0);
        assert_eq!((a * b).to_f32(), 1.25);
        assert_eq!((a / b).to_f32(), 5.0);
        assert_eq!((-a).to_f32(), -2.5);
        assert_eq!(Fix1616::from_f32(-1.5).abs().to_f32(), 1.5);
    }

    #[test]
    fn saturation() {
        let big = Fix1616::from_f32(30000.0);
        assert_eq!(big + big, Fix1616::MAX);
        assert_eq!(big * big, Fix1616::MAX);
        assert_eq!((-big) * big, Fix1616::MIN);
        assert_eq!(Fix1616::MIN.abs(), Fix1616::MAX);
        assert_eq!(Fix1616::from_f32(1e30), Fix1616::MAX);
        assert_eq!(Fix1616::from_f32(-1e30), Fix1616::MIN);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = Fix1616::ONE / Fix1616::ZERO;
    }

    #[test]
    fn multiplication_matches_f64_within_quantum() {
        // Fixed-point multiply truncates at 2^-16: error < 2 quanta.
        let cases = [(1.1, 2.3), (-0.7, 0.9), (100.0, 0.01), (-3.3, -4.4)];
        for (x, y) in cases {
            let qx = Fix1616::from_f32(x as f32);
            let qy = Fix1616::from_f32(y as f32);
            // Compare against the exact product of the *quantized* inputs:
            // the multiply itself truncates by at most one quantum.
            let err = ((qx * qy).to_f64() - qx.to_f64() * qy.to_f64()).abs();
            assert!(err <= 1.0 / 65536.0, "({x}, {y}): err {err}");
        }
    }

    #[test]
    fn assign_ops() {
        let mut a = Fix1616::ONE;
        a += Fix1616::ONE;
        assert_eq!(a.to_f32(), 2.0);
        a -= Fix1616::from_f32(0.5);
        assert_eq!(a.to_f32(), 1.5);
    }

    #[test]
    fn ordering_and_display() {
        assert!(Fix1616::from_f32(1.0) < Fix1616::from_f32(1.5));
        assert_eq!(format!("{}", Fix1616::from_f32(0.5)), "0.50000");
        assert!(format!("{:?}", Fix1616::ONE).contains("Fix1616"));
    }
}
