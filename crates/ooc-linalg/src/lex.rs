//! Lexicographic order utilities for dependence legality.
//!
//! A loop transformation `T` is legal iff for every dependence
//! distance vector `d` of the nest, `T·d` remains lexicographically
//! positive — the transformed source iteration still executes before
//! the transformed sink iteration.

/// `true` iff the integer vector is lexicographically positive (first
/// nonzero entry is positive). The zero vector is *not* positive.
#[must_use]
pub fn lex_positive_i64(v: &[i64]) -> bool {
    v.iter().find(|&&x| x != 0).is_some_and(|&x| x > 0)
}

/// `true` iff the integer vector is lexicographically non-negative.
#[must_use]
pub fn lex_nonnegative_i64(v: &[i64]) -> bool {
    v.iter().find(|&&x| x != 0).is_none_or(|&x| x > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::Rational;

    /// Reference: `true` iff `v` is lexicographically positive, by the
    /// definition over exact rationals.
    fn lex_positive(v: &[Rational]) -> bool {
        for x in v {
            match x.signum() {
                0 => continue,
                s => return s > 0,
            }
        }
        false
    }

    /// Reference: `true` iff `v` is lexicographically non-negative
    /// (zero vector included).
    fn lex_nonnegative(v: &[Rational]) -> bool {
        for x in v {
            match x.signum() {
                0 => continue,
                s => return s > 0,
            }
        }
        true
    }

    fn r(v: &[i64]) -> Vec<Rational> {
        v.iter().map(|&x| Rational::from(x)).collect()
    }

    #[test]
    fn lex_positive_cases() {
        assert!(lex_positive(&r(&[1, -5])));
        assert!(lex_positive(&r(&[0, 1])));
        assert!(!lex_positive(&r(&[0, 0])));
        assert!(!lex_positive(&r(&[-1, 100])));
        assert!(!lex_positive(&r(&[0, -1])));
    }

    #[test]
    fn lex_nonnegative_cases() {
        assert!(lex_nonnegative(&r(&[0, 0])));
        assert!(lex_nonnegative(&r(&[0, 2])));
        assert!(!lex_nonnegative(&r(&[0, -2])));
    }

    #[test]
    fn i64_variants_agree() {
        for v in [
            vec![1, -5],
            vec![0, 0],
            vec![-1, 3],
            vec![0, 2],
            vec![0, -2],
        ] {
            assert_eq!(lex_positive_i64(&v), lex_positive(&r(&v)));
            assert_eq!(lex_nonnegative_i64(&v), lex_nonnegative(&r(&v)));
        }
    }
}
