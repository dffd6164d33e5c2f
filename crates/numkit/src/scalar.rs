//! The [`Scalar`] field trait.
//!
//! Algorithms in this workspace are written once and instantiated twice:
//! with `f64` for production speed, and with `bigratio::Rational` for exact,
//! certified runs (the paper verified Conjecture 13 symbolically with Sage;
//! we use exact rational arithmetic for the same purpose).

use crate::tol::Tolerance;
use std::cmp::Ordering;
use std::fmt::Debug;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An ordered field with conversions from machine numbers.
///
/// The bounds require *owned* arithmetic (`Self (op) Self -> Self`). For
/// `f64` this is free; for big rationals it costs clones, which is acceptable
/// because the exact paths only run on small instances (n ≤ 15 in the paper's
/// exact experiments).
///
/// `PartialOrd` must be a total order on the values actually produced
/// (rationals are totally ordered; `f64` is total as long as no NaN is
/// produced, which the algorithms guarantee by never dividing by zero — all
/// divisions are guarded by domain validation).
pub trait Scalar:
    Clone
    + Debug
    + PartialOrd
    + PartialEq
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
{
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Exact conversion from a small integer.
    fn from_int(v: i64) -> Self;
    /// Exact conversion from an integer ratio `n / d`.
    ///
    /// The default divides two [`Scalar::from_int`] lifts; exact fields
    /// with a fixed-limb fast path override it to build the reduced value
    /// directly (one machine GCD, no division).
    ///
    /// # Panics
    /// Exact implementations panic when `d == 0`; `f64` follows IEEE and
    /// returns an infinity.
    #[inline]
    fn from_ratio(n: i64, d: i64) -> Self {
        Self::from_int(n) / Self::from_int(d)
    }
    /// Conversion from `f64`.
    ///
    /// Implementations must be *exact* when the value is representable
    /// (every finite `f64` is a binary rational, so `bigratio` converts
    /// exactly; `f64` is the identity).
    fn from_f64(v: f64) -> Self;
    /// Approximate conversion to `f64` (used for reporting only).
    fn to_f64(&self) -> f64;

    /// The natural comparison tolerance of this scalar: float slack for
    /// `f64`, **exactly zero** for exact fields (rational comparisons need
    /// no epsilon — see [`Tolerance::exact`]).
    ///
    /// Required (no default) on purpose: an approximate scalar that
    /// silently inherited a zero tolerance would reintroduce the very
    /// float-comparison bugs [`Tolerance`] exists to prevent.
    fn default_tolerance() -> Tolerance<Self>;

    /// `true` iff the value is finite. Exact fields return `true`
    /// unconditionally; approximate fields must perform the real check —
    /// this is what lets the generic algorithms validate untrusted input.
    ///
    /// Required (no default) so a new approximate scalar cannot forget it
    /// and silently accept infinite/NaN instance parameters.
    fn is_finite(&self) -> bool;

    /// Total order on the values the algorithms produce. `f64` uses IEEE
    /// `total_cmp`; exact fields use their `PartialOrd` (total by
    /// construction).
    fn total_cmp_s(&self, other: &Self) -> Ordering {
        self.partial_cmp(other)
            .expect("Scalar order must be total on produced values")
    }

    /// Sum of an iterator of values. The default folds exactly (right for
    /// exact fields); `f64` overrides with Kahan–Babuška compensated
    /// summation so accumulating many small terms stays accurate.
    fn sum<I: IntoIterator<Item = Self>>(iter: I) -> Self {
        iter.into_iter().fold(Self::zero(), |a, b| a + b)
    }

    /// `true` iff the value equals the additive identity exactly.
    #[inline]
    fn is_zero(&self) -> bool {
        *self == Self::zero()
    }
    /// `true` iff the value is strictly positive.
    #[inline]
    fn is_positive(&self) -> bool {
        *self > Self::zero()
    }
    /// `true` iff the value is strictly negative.
    #[inline]
    fn is_negative(&self) -> bool {
        *self < Self::zero()
    }
    /// Absolute value.
    #[inline]
    fn abs(&self) -> Self {
        if self.is_negative() {
            -self.clone()
        } else {
            self.clone()
        }
    }
    /// The smaller of two values (ties keep `self`).
    #[inline]
    fn min_of(self, other: Self) -> Self {
        if other < self {
            other
        } else {
            self
        }
    }
    /// The larger of two values (ties keep `self`).
    #[inline]
    fn max_of(self, other: Self) -> Self {
        if other > self {
            other
        } else {
            self
        }
    }
    /// `self` clamped into `[lo, hi]` (callers guarantee `lo ≤ hi`).
    #[inline]
    fn clamp_to(self, lo: Self, hi: Self) -> Self {
        self.max_of(lo).min_of(hi)
    }

    /// The largest integer value ≤ `self`. The default rounds through
    /// `f64`, which is only correct while the value fits a double-precision
    /// integer grid; exact fields with large denominators must override
    /// (as `bigratio::Rational` does) so staircase constructions stay
    /// exact.
    #[inline]
    fn floor_s(&self) -> Self {
        Self::from_f64(self.to_f64().floor())
    }

    /// The smallest integer value ≥ `self` (see [`Scalar::floor_s`] for
    /// the default's precision caveat).
    #[inline]
    fn ceil_s(&self) -> Self {
        let f = self.floor_s();
        if f == *self {
            f
        } else {
            f + Self::one()
        }
    }

    /// The nearest integer value (half-way cases round up).
    #[inline]
    fn round_s(&self) -> Self {
        (self.clone() + Self::from_ratio(1, 2)).floor_s()
    }
}

impl Scalar for f64 {
    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn from_int(v: i64) -> Self {
        v as f64
    }
    #[inline]
    fn from_ratio(n: i64, d: i64) -> Self {
        n as f64 / d as f64
    }
    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline]
    fn to_f64(&self) -> f64 {
        *self
    }
    #[inline]
    fn default_tolerance() -> Tolerance<f64> {
        Tolerance {
            abs: 1e-9,
            rel: 1e-9,
        }
    }
    #[inline]
    fn is_finite(&self) -> bool {
        f64::is_finite(*self)
    }
    #[inline]
    fn total_cmp_s(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
    #[inline]
    fn sum<I: IntoIterator<Item = f64>>(iter: I) -> f64 {
        crate::sum::ksum(iter)
    }
    #[inline]
    fn floor_s(&self) -> Self {
        f64::floor(*self)
    }
    #[inline]
    fn ceil_s(&self) -> Self {
        f64::ceil(*self)
    }
    // round_s deliberately keeps the trait default (`⌊x + ½⌋`):
    // `f64::round` rounds halves *away from zero*, which would disagree
    // with the exact fields at negative half-integers.
}

/// Sum of a slice of scalars (Kahan-compensated for `f64`, exact for exact
/// fields — see [`Scalar::sum`]).
#[inline]
pub fn sum<S: Scalar>(xs: &[S]) -> S {
    S::sum(xs.iter().cloned())
}

/// Compare the ratios `num_a/den_a` and `num_b/den_b` by their quotients
/// under [`Scalar::total_cmp_s`]. A non-positive denominator counts as
/// ratio `+∞` (sorts after every finite ratio); two non-positive
/// denominators compare equal. Numerators are assumed non-negative (the
/// scheduling ratios — Smith's `V/w`, WDEQ's `δ/w` — always are).
///
/// Each quotient is one value, so this is a total order on `f64` and safe
/// for `sort_by`. Cross-multiplying instead rounds two products
/// independently, which can make the order intransitive. On exact fields
/// with positive denominators both orders coincide.
#[inline]
pub fn ratio_cmp<S: Scalar>(num_a: &S, den_a: &S, num_b: &S, den_b: &S) -> Ordering {
    match (den_a.is_positive(), den_b.is_positive()) {
        (false, false) => Ordering::Equal,
        (false, true) => Ordering::Greater,
        (true, false) => Ordering::Less,
        (true, true) => {
            let a = num_a.clone() / den_a.clone();
            let b = num_b.clone() / den_b.clone();
            a.total_cmp_s(&b)
        }
    }
}

/// Dot product of two equally long slices.
///
/// # Panics
/// Panics if the slices have different lengths (programming error, not user
/// input).
#[inline]
pub fn dot<S: Scalar>(a: &[S], b: &[S]) -> S {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    S::sum(a.iter().zip(b).map(|(x, y)| x.clone() * y.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_field_basics() {
        assert_eq!(f64::zero(), 0.0);
        assert_eq!(f64::one(), 1.0);
        assert_eq!(f64::from_int(-3), -3.0);
        assert_eq!(f64::from_ratio(-3, 4), -0.75);
        assert!(Scalar::is_positive(&2.0f64));
        assert!(Scalar::is_negative(&-2.0f64));
        assert!(Scalar::is_zero(&0.0f64));
        assert_eq!(Scalar::abs(&-5.0f64), 5.0);
        assert!(Scalar::is_finite(&1.0f64));
        assert!(!Scalar::is_finite(&f64::INFINITY));
    }

    #[test]
    fn min_max_of() {
        assert_eq!(1.0f64.min_of(2.0), 1.0);
        assert_eq!(1.0f64.max_of(2.0), 2.0);
        assert_eq!(2.0f64.min_of(1.0), 1.0);
        // Ties keep self.
        assert_eq!(3.0f64.min_of(3.0), 3.0);
        assert_eq!(5.0f64.clamp_to(0.0, 3.0), 3.0);
        assert_eq!((-1.0f64).clamp_to(0.0, 3.0), 0.0);
    }

    #[test]
    fn sum_and_dot() {
        assert_eq!(sum(&[1.0, 2.0, 3.5]), 6.5);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(sum::<f64>(&[]), 0.0);
    }

    #[test]
    fn floor_ceil_round() {
        assert_eq!(Scalar::floor_s(&2.7f64), 2.0);
        assert_eq!(Scalar::ceil_s(&2.3f64), 3.0);
        assert_eq!(Scalar::ceil_s(&3.0f64), 3.0);
        assert_eq!(Scalar::round_s(&2.5f64), 3.0);
        assert_eq!(Scalar::floor_s(&-0.5f64), -1.0);
        // Halves round *up* on every scalar (the f64 path must match the
        // exact fields, so it does not use f64::round's away-from-zero).
        assert_eq!(Scalar::round_s(&-2.5f64), -2.0);
        assert_eq!(Scalar::round_s(&-2.6f64), -3.0);
    }

    #[test]
    fn f64_sum_is_compensated() {
        // 1 + 1e100 − 1e100 = 1 under Kahan–Babuška, 0 under naive folding.
        assert_eq!(<f64 as Scalar>::sum([1.0, 1e100, -1e100]), 1.0);
    }

    #[test]
    fn default_tolerances() {
        let t = <f64 as Scalar>::default_tolerance();
        assert_eq!((t.abs, t.rel), (1e-9, 1e-9));
    }

    #[test]
    fn total_cmp_handles_f64() {
        use std::cmp::Ordering;
        assert_eq!(1.0f64.total_cmp_s(&2.0), Ordering::Less);
        assert_eq!(2.0f64.total_cmp_s(&2.0), Ordering::Equal);
    }

    #[test]
    fn ratio_cmp_is_a_total_order_where_cross_multiplication_is_not() {
        // Found by a seeded search over near-equal ratios: cross-multiplied
        // products round to a = b and b = c, yet a > c.
        let [a, b, c] = [
            (0x3fe0_ed82_6b16_3fdd_u64, 0x3fe0_5d8e_5461_9d33_u64),
            (0x3ff1_103d_11f9_36bb, 0x3ff0_7f21_a551_bdd7),
            (0x3fe2_f860_9318_7dce, 0x3fe2_570e_06fb_3bfb),
        ]
        .map(|(num, den)| (f64::from_bits(num), f64::from_bits(den)));
        let cross = |x: (f64, f64), y: (f64, f64)| (x.0 * y.1).total_cmp(&(y.0 * x.1));
        assert_eq!(cross(a, b), Ordering::Equal);
        assert_eq!(cross(b, c), Ordering::Equal);
        assert_eq!(cross(a, c), Ordering::Greater);

        let cmp = |x: &(f64, f64), y: &(f64, f64)| ratio_cmp(&x.0, &x.1, &y.0, &y.1);
        let triple = [a, b, c];
        for x in &triple {
            for y in &triple {
                assert_eq!(cmp(x, y), cmp(y, x).reverse());
                for z in &triple {
                    if cmp(x, y).is_le() && cmp(y, z).is_le() {
                        assert!(cmp(x, z).is_le(), "{x:?} ≤ {y:?} ≤ {z:?}");
                    }
                }
            }
        }
        // A sort over many interleaved copies completes in order.
        let mut keys: Vec<(f64, f64)> = (0..64).map(|i| triple[(i * 7) % 3]).collect();
        keys.sort_by(cmp);
        assert!(keys.windows(2).all(|w| cmp(&w[0], &w[1]).is_le()));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }
}
