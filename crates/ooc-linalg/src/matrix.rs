//! Dense matrices over [`Rational`] with the exact operations the
//! transformation framework needs: products, inverses, determinants,
//! rank, and (integer) nullspace bases.
//!
//! Matrices here are tiny — loop-transformation matrices are `k × k`
//! for loop depth `k ≤ 8`, access matrices are `m × k` for array rank
//! `m ≤ 4` — so a simple row-major `Vec<Rational>` with textbook
//! Gauss–Jordan elimination is both the clearest and, at this size,
//! the fastest reasonable representation.

use crate::gcd::{lcm, primitive};
use crate::rational::Rational;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense `rows × cols` matrix of exact rationals.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Rational>,
}

impl Matrix {
    /// Creates a zero matrix.
    #[must_use]
    pub fn zero(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![Rational::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m[(i, i)] = Rational::ONE;
        }
        m
    }

    /// Creates a matrix from row-major integer entries.
    ///
    /// # Panics
    /// Panics if `entries.len() != rows * cols`.
    #[must_use]
    pub fn from_i64(rows: usize, cols: usize, entries: &[i64]) -> Self {
        assert_eq!(
            entries.len(),
            rows * cols,
            "entry count {} does not match {rows}x{cols}",
            entries.len()
        );
        Matrix {
            rows,
            cols,
            data: entries.iter().map(|&e| Rational::from(e)).collect(),
        }
    }

    /// Creates a matrix from row-major rational entries.
    ///
    /// # Panics
    /// Panics if `entries.len() != rows * cols`.
    #[must_use]
    pub fn from_rationals(rows: usize, cols: usize, entries: Vec<Rational>) -> Self {
        assert_eq!(entries.len(), rows * cols);
        Matrix {
            rows,
            cols,
            data: entries,
        }
    }

    /// Creates a matrix from rows of integers.
    ///
    /// # Panics
    /// Panics if rows have unequal lengths.
    #[must_use]
    pub fn from_rows(rows: &[Vec<i64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend(row.iter().map(|&e| Rational::from(e)));
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    #[must_use]
    pub const fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub const fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` for a square matrix.
    #[must_use]
    const fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Extracts row `i` as a vector.
    #[must_use]
    pub fn row(&self, i: usize) -> Vec<Rational> {
        assert!(i < self.rows);
        self.data[i * self.cols..(i + 1) * self.cols].to_vec()
    }

    /// Extracts column `j` as a vector.
    #[must_use]
    pub fn col(&self, j: usize) -> Vec<Rational> {
        assert!(j < self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Replaces column `j` with `v`.
    ///
    /// # Panics
    /// Panics if `v.len() != rows`.
    pub fn set_col(&mut self, j: usize, v: &[Rational]) {
        assert_eq!(v.len(), self.rows);
        for i in 0..self.rows {
            self[(i, j)] = v[i];
        }
    }

    /// The transpose.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zero(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Panics
    /// Panics if `v.len() != cols`.
    #[must_use]
    pub fn mul_vec(&self, v: &[Rational]) -> Vec<Rational> {
        assert_eq!(v.len(), self.cols, "dimension mismatch in mul_vec");
        (0..self.rows)
            .map(|i| (0..self.cols).fold(Rational::ZERO, |acc, j| acc + self[(i, j)] * v[j]))
            .collect()
    }

    /// Matrix–integer-vector product as exact rationals.
    #[must_use]
    pub fn mul_vec_i64(&self, v: &[i64]) -> Vec<Rational> {
        let rv: Vec<Rational> = v.iter().map(|&x| Rational::from(x)).collect();
        self.mul_vec(&rv)
    }

    /// Row-vector–matrix product `v^T * self`.
    ///
    /// # Panics
    /// Panics if `v.len() != rows`.
    #[must_use]
    pub fn vec_mul(&self, v: &[Rational]) -> Vec<Rational> {
        assert_eq!(v.len(), self.rows, "dimension mismatch in vec_mul");
        (0..self.cols)
            .map(|j| (0..self.rows).fold(Rational::ZERO, |acc, i| acc + v[i] * self[(i, j)]))
            .collect()
    }

    /// Determinant via fraction-free-ish Gaussian elimination.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    #[must_use]
    pub fn determinant(&self) -> Rational {
        assert!(self.is_square(), "determinant of non-square matrix");
        let n = self.rows;
        let mut a = self.clone();
        let mut det = Rational::ONE;
        for col in 0..n {
            // Partial pivot: any nonzero entry works for exact arithmetic.
            let Some(pivot_row) = (col..n).find(|&r| !a[(r, col)].is_zero()) else {
                return Rational::ZERO;
            };
            if pivot_row != col {
                a.swap_rows(pivot_row, col);
                det = -det;
            }
            let pivot = a[(col, col)];
            det *= pivot;
            for r in col + 1..n {
                let factor = a[(r, col)] / pivot;
                if factor.is_zero() {
                    continue;
                }
                for c in col..n {
                    let sub = factor * a[(col, c)];
                    a[(r, c)] -= sub;
                }
            }
        }
        det
    }

    /// The inverse, or `None` if singular.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    #[must_use]
    pub fn inverse(&self) -> Option<Matrix> {
        assert!(self.is_square(), "inverse of non-square matrix");
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = Matrix::identity(n);
        for col in 0..n {
            let pivot_row = (col..n).find(|&r| !a[(r, col)].is_zero())?;
            if pivot_row != col {
                a.swap_rows(pivot_row, col);
                inv.swap_rows(pivot_row, col);
            }
            let pivot = a[(col, col)];
            for c in 0..n {
                a[(col, c)] /= pivot;
                inv[(col, c)] /= pivot;
            }
            for r in 0..n {
                if r == col || a[(r, col)].is_zero() {
                    continue;
                }
                let factor = a[(r, col)];
                for c in 0..n {
                    let s1 = factor * a[(col, c)];
                    a[(r, c)] -= s1;
                    let s2 = factor * inv[(col, c)];
                    inv[(r, c)] -= s2;
                }
            }
        }
        Some(inv)
    }

    /// Rank via Gaussian elimination.
    #[must_use]
    pub fn rank(&self) -> usize {
        let (reduced, pivots) = self.rref();
        let _ = reduced;
        pivots.len()
    }

    /// Reduced row-echelon form; returns `(rref, pivot_columns)`.
    #[must_use]
    pub fn rref(&self) -> (Matrix, Vec<usize>) {
        let mut a = self.clone();
        let mut pivots = Vec::new();
        let mut row = 0;
        for col in 0..a.cols {
            if row >= a.rows {
                break;
            }
            let Some(pivot_row) = (row..a.rows).find(|&r| !a[(r, col)].is_zero()) else {
                continue;
            };
            a.swap_rows(pivot_row, row);
            let pivot = a[(row, col)];
            for c in 0..a.cols {
                a[(row, c)] /= pivot;
            }
            for r in 0..a.rows {
                if r == row || a[(r, col)].is_zero() {
                    continue;
                }
                let factor = a[(r, col)];
                for c in 0..a.cols {
                    let s = factor * a[(row, c)];
                    a[(r, c)] -= s;
                }
            }
            pivots.push(col);
            row += 1;
        }
        (a, pivots)
    }

    /// A rational basis of the (right) nullspace `{ x : self * x = 0 }`.
    #[must_use]
    pub fn nullspace(&self) -> Vec<Vec<Rational>> {
        let (rref, pivots) = self.rref();
        let free: Vec<usize> = (0..self.cols).filter(|c| !pivots.contains(c)).collect();
        let mut basis = Vec::with_capacity(free.len());
        for &fc in &free {
            let mut v = vec![Rational::ZERO; self.cols];
            v[fc] = Rational::ONE;
            for (r, &pc) in pivots.iter().enumerate() {
                v[pc] = -rref[(r, fc)];
            }
            basis.push(v);
        }
        basis
    }

    /// A basis of the nullspace scaled to primitive integer vectors
    /// (each vector's entries have gcd 1, first nonzero entry positive).
    ///
    /// This is the `Ker{...}` operation of the paper's relations (1)
    /// and (2): the candidates from which layouts and loop-transform
    /// columns are chosen.
    #[must_use]
    pub fn integer_nullspace(&self) -> Vec<Vec<i64>> {
        self.nullspace()
            .into_iter()
            .map(|v| {
                let scale = v.iter().fold(1i64, |acc, r| {
                    lcm(acc, i64::try_from(r.den()).expect("den overflow"))
                });
                let ints: Vec<i64> = v
                    .iter()
                    .map(|r| {
                        i64::try_from(r.num() * i128::from(scale) / r.den())
                            .expect("nullspace entry overflow")
                    })
                    .collect();
                primitive(&ints)
            })
            .collect()
    }

    /// Returns `true` if all entries are integers.
    #[must_use]
    pub fn is_integer(&self) -> bool {
        self.data.iter().all(Rational::is_integer)
    }

    /// Returns `true` if the matrix is square, integer, and has
    /// determinant ±1 (i.e. is unimodular).
    #[must_use]
    pub fn is_unimodular(&self) -> bool {
        self.is_square() && self.is_integer() && self.determinant().abs() == Rational::ONE
    }

    /// Swaps two rows in place.
    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for c in 0..self.cols {
            self.data.swap(a * self.cols + c, b * self.cols + c);
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = Rational;
    fn index(&self, (r, c): (usize, usize)) -> &Rational {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Rational {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch in matrix product");
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik.is_zero() {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += aik * rhs[(k, j)];
                }
            }
        }
        out
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Matrix {
    fn fmt_rows(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_rows(f)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_rows(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, e: &[i64]) -> Matrix {
        Matrix::from_i64(rows, cols, e)
    }

    #[test]
    fn identity_and_product() {
        let a = m(2, 2, &[1, 2, 3, 4]);
        let i = Matrix::identity(2);
        assert_eq!(&a * &i, a);
        assert_eq!(&i * &a, a);
        let b = m(2, 2, &[0, 1, 1, 0]);
        assert_eq!(&a * &b, m(2, 2, &[2, 1, 4, 3]));
    }

    #[test]
    fn rectangular_product() {
        let a = m(2, 3, &[1, 0, 2, 0, 1, 1]);
        let b = m(3, 2, &[1, 1, 2, 0, 0, 3]);
        assert_eq!(&a * &b, m(2, 2, &[1, 7, 2, 3]));
    }

    #[test]
    fn determinant_cases() {
        assert_eq!(m(2, 2, &[1, 2, 3, 4]).determinant(), Rational::from(-2i64));
        assert_eq!(m(2, 2, &[0, 1, 1, 0]).determinant(), Rational::from(-1i64));
        assert_eq!(m(2, 2, &[1, 2, 2, 4]).determinant(), Rational::ZERO);
        assert_eq!(
            m(3, 3, &[2, 0, 0, 0, 3, 0, 0, 0, 4]).determinant(),
            Rational::from(24i64)
        );
        assert_eq!(Matrix::identity(5).determinant(), Rational::ONE);
    }

    #[test]
    fn inverse_roundtrip() {
        let a = m(3, 3, &[1, 2, 0, 0, 1, 0, 2, 0, 1]);
        let inv = a.inverse().expect("invertible");
        assert_eq!(&a * &inv, Matrix::identity(3));
        assert_eq!(&inv * &a, Matrix::identity(3));
    }

    #[test]
    fn singular_has_no_inverse() {
        assert!(m(2, 2, &[1, 2, 2, 4]).inverse().is_none());
        assert!(m(2, 2, &[0, 0, 0, 0]).inverse().is_none());
    }

    #[test]
    fn rank_cases() {
        assert_eq!(m(2, 2, &[1, 2, 2, 4]).rank(), 1);
        assert_eq!(Matrix::identity(4).rank(), 4);
        assert_eq!(Matrix::zero(3, 3).rank(), 0);
        assert_eq!(m(2, 3, &[1, 0, 2, 0, 1, 1]).rank(), 2);
    }

    #[test]
    fn nullspace_annihilates() {
        let a = m(2, 3, &[1, 2, 3, 2, 4, 6]);
        let ns = a.nullspace();
        assert_eq!(ns.len(), 2); // rank 1, 3 cols
        for v in &ns {
            for x in a.mul_vec(v) {
                assert!(x.is_zero());
            }
        }
    }

    #[test]
    fn integer_nullspace_is_primitive() {
        // Ker of the row vector (2, 4): spanned by (2, -1) after scaling.
        let a = m(1, 2, &[2, 4]);
        let ns = a.integer_nullspace();
        assert_eq!(ns, vec![vec![2, -1]]);
    }

    #[test]
    fn integer_nullspace_column_major_example() {
        // Paper §3.2.3: Ker{(0, 1)^T as 2x1}: column vector (0,1) viewed as
        // the 2x1 matrix times scalar => kernel of (0,1)·x over row vectors.
        // (g1,g2) in Ker{ [0;1] } means (g1,g2) with g1*0 + g2*1 = 0 as a
        // row-vector condition => represent as matrix with that column as a
        // row: [0 1] x = 0 => x = (1, 0): the row-major layout.
        let a = m(1, 2, &[0, 1]);
        assert_eq!(a.integer_nullspace(), vec![vec![1, 0]]);
        let b = m(1, 2, &[1, 0]);
        assert_eq!(b.integer_nullspace(), vec![vec![0, 1]]);
    }

    #[test]
    fn unimodular_checks() {
        assert!(m(2, 2, &[0, 1, 1, 0]).is_unimodular());
        assert!(m(2, 2, &[1, 1, 0, 1]).is_unimodular());
        assert!(!m(2, 2, &[2, 0, 0, 1]).is_unimodular());
        assert!(!m(2, 2, &[1, 2, 2, 4]).is_unimodular());
    }

    #[test]
    fn vec_products() {
        let a = m(2, 2, &[0, 1, 1, 0]);
        let v = [Rational::from(3i64), Rational::from(7i64)];
        assert_eq!(
            a.mul_vec(&v),
            vec![Rational::from(7i64), Rational::from(3i64)]
        );
        assert_eq!(
            a.vec_mul(&v),
            vec![Rational::from(7i64), Rational::from(3i64)]
        );
    }

    #[test]
    fn transpose_involution() {
        let a = m(2, 3, &[1, 2, 3, 4, 5, 6]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().rows(), 3);
    }

    #[test]
    fn row_col_access() {
        let a = m(2, 3, &[1, 2, 3, 4, 5, 6]);
        assert_eq!(a.row(1), vec![4i64.into(), 5i64.into(), 6i64.into()]);
        assert_eq!(a.col(2), vec![3i64.into(), 6i64.into()]);
    }
}
