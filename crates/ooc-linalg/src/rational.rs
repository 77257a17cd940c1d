//! Exact rational arithmetic.
//!
//! The compiler algorithms in this workspace (kernel computation,
//! matrix inversion, Fourier–Motzkin elimination) must be *exact*:
//! a hyperplane vector of `(1, -1)` and one of `(0.9999, -1.0001)`
//! describe completely different file layouts. All linear algebra is
//! therefore carried out over `Rational`, a normalized fraction of
//! `i128` components.
//!
//! `i128` gives enormous headroom: the matrices manipulated here are
//! small (loop depths ≤ 8, array ranks ≤ 4) with entries that start as
//! small integers, so intermediate growth during Gaussian elimination
//! or Fourier–Motzkin stays far below the overflow threshold. All
//! arithmetic nonetheless uses checked operations and panics loudly on
//! overflow rather than wrapping silently.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Greatest common divisor of two `i128`s (always non-negative).
#[must_use]
pub fn gcd_i128(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// An exact rational number `num / den` with `den > 0` and
/// `gcd(|num|, den) == 1` (zero is represented as `0/1`).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

impl Rational {
    /// The rational number zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// The rational number one.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates a rational from a numerator and denominator.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    #[must_use]
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "rational with zero denominator");
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd_i128(num, den);
        if g == 0 {
            return Self::ZERO;
        }
        Rational {
            num: sign * num / g,
            den: sign * den / g,
        }
    }

    /// Creates a rational from an integer.
    #[must_use]
    pub const fn from_int(v: i128) -> Self {
        Rational { num: v, den: 1 }
    }

    /// The numerator of the normalized fraction (sign-carrying).
    #[must_use]
    pub const fn num(&self) -> i128 {
        self.num
    }

    /// The denominator of the normalized fraction (always positive).
    #[must_use]
    pub const fn den(&self) -> i128 {
        self.den
    }

    /// Returns `true` if this value is zero.
    #[must_use]
    pub const fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Returns `true` if this value is a (possibly negative) integer.
    #[must_use]
    pub const fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// Returns the integer value if this rational is an integer.
    #[must_use]
    pub const fn as_integer(&self) -> Option<i128> {
        if self.den == 1 {
            Some(self.num)
        } else {
            None
        }
    }

    /// Sign of the value: -1, 0, or 1.
    #[must_use]
    pub const fn signum(&self) -> i128 {
        self.num.signum()
    }

    /// Absolute value.
    #[must_use]
    pub fn abs(&self) -> Self {
        Rational {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if the value is zero.
    #[must_use]
    pub fn recip(&self) -> Self {
        assert!(self.num != 0, "reciprocal of zero");
        Rational::new(self.den, self.num)
    }

    /// Floor: the greatest integer `<= self`.
    #[must_use]
    pub fn floor(&self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Ceiling: the least integer `>= self`.
    #[must_use]
    pub fn ceil(&self) -> i128 {
        -((-self.num).div_euclid(self.den))
    }

    /// `self + rhs`, or `None` when a component leaves `i128`.
    #[must_use]
    pub fn checked_add(self, rhs: Self) -> Option<Self> {
        // a/b + c/d = (a*(l/b) + c*(l/d)) / l with l = lcm(b, d).
        let g = gcd_i128(self.den, rhs.den);
        let l = (self.den / g).checked_mul(rhs.den)?;
        let left = self.num.checked_mul(l / self.den)?;
        let right = rhs.num.checked_mul(l / rhs.den)?;
        Some(Rational::new(left.checked_add(right)?, l))
    }

    /// `self * rhs`, or `None` when a component leaves `i128`.
    #[must_use]
    pub fn checked_mul(self, rhs: Self) -> Option<Self> {
        // Cross-reduce before multiplying to delay overflow.
        let g1 = gcd_i128(self.num, rhs.den);
        let g2 = gcd_i128(rhs.num, self.den);
        let num = (self.num / g1).checked_mul(rhs.num / g2)?;
        let den = (self.den / g2).checked_mul(rhs.den / g1)?;
        Some(Rational::new(num, den))
    }
}

impl Default for Rational {
    fn default() -> Self {
        Self::ZERO
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Self {
        Rational::from_int(i128::from(v))
    }
}

impl From<i32> for Rational {
    fn from(v: i32) -> Self {
        Rational::from_int(i128::from(v))
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Self) -> Self {
        self.checked_add(rhs).expect("rational addition overflow")
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Self) -> Self {
        self + (-rhs)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Self) -> Self {
        self.checked_mul(rhs)
            .expect("rational multiplication overflow")
    }
}

impl Div for Rational {
    type Output = Rational;
    #[allow(clippy::suspicious_arithmetic_impl)] // a/b == a * (1/b) exactly
    fn div(self, rhs: Self) -> Self {
        self * rhs.recip()
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Self {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for Rational {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl DivAssign for Rational {
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b ? c/d  <=>  a*d ? c*b   (b, d > 0)
        let left = self
            .num
            .checked_mul(other.den)
            .expect("rational comparison overflow");
        let right = other
            .num
            .checked_mul(self.den)
            .expect("rational comparison overflow");
        left.cmp(&right)
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(2, -4), Rational::new(-1, 2));
        assert_eq!(Rational::new(0, 5), Rational::ZERO);
        assert_eq!(Rational::new(0, -5).den(), 1);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        let half = Rational::new(1, 2);
        let third = Rational::new(1, 3);
        assert_eq!(half + third, Rational::new(5, 6));
        assert_eq!(half - third, Rational::new(1, 6));
        assert_eq!(half * third, Rational::new(1, 6));
        assert_eq!(half / third, Rational::new(3, 2));
        assert_eq!(-half, Rational::new(-1, 2));
    }

    #[test]
    fn comparison() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::new(-1, 2) < Rational::new(-1, 3));
        assert!(Rational::new(7, 4) > Rational::ONE);
        assert_eq!(
            Rational::new(3, 6).cmp(&Rational::new(1, 2)),
            Ordering::Equal
        );
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Rational::new(7, 2).floor(), 3);
        assert_eq!(Rational::new(7, 2).ceil(), 4);
        assert_eq!(Rational::new(-7, 2).floor(), -4);
        assert_eq!(Rational::new(-7, 2).ceil(), -3);
        assert_eq!(Rational::from_int(5).floor(), 5);
        assert_eq!(Rational::from_int(5).ceil(), 5);
        assert_eq!(Rational::new(-6, 3).floor(), -2);
        assert_eq!(Rational::new(-6, 3).ceil(), -2);
    }

    #[test]
    fn recip() {
        assert_eq!(Rational::new(3, 4).recip(), Rational::new(4, 3));
        assert_eq!(Rational::new(-3, 4).recip(), Rational::new(-4, 3));
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn recip_zero_panics() {
        let _ = Rational::ZERO.recip();
    }

    #[test]
    fn integer_queries() {
        assert!(Rational::from_int(-9).is_integer());
        assert_eq!(Rational::from_int(-9).as_integer(), Some(-9));
        assert!(!Rational::new(1, 2).is_integer());
        assert_eq!(Rational::new(1, 2).as_integer(), None);
    }

    #[test]
    fn display() {
        assert_eq!(Rational::new(-10, 4).to_string(), "-5/2");
        assert_eq!(Rational::from_int(3).to_string(), "3");
    }
}
