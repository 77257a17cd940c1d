//! # ooc-linalg
//!
//! Exact linear algebra for the out-of-core locality-optimization
//! compiler (a reproduction of Kandemir, Choudhary & Ramanujam,
//! *Compiler Optimizations for I/O-Intensive Computations*, ICPP
//! 1999).
//!
//! Everything the paper's framework manipulates is small and exact:
//!
//! * [`Rational`] — exact fractions, the scalar field.
//! * [`Matrix`] — access matrices `L`, loop transformations `T`,
//!   their inverses `Q`, with determinants, inverses, ranks, and
//!   (integer) nullspaces — the `Ker{…}` of the paper's relations (1)
//!   and (2).
//! * [`hnf`] / [`completion`] — Hermite normal form and the
//!   Bik–Wijshoff-style completion that turns a desired last column of
//!   `Q` into a full unimodular matrix.
//! * [`fm`] — affine constraint systems and Fourier–Motzkin
//!   elimination, used to regenerate loop bounds after a
//!   transformation.
//! * [`lex`] — lexicographic legality of transformed dependence
//!   distance vectors.
//!
//! # Example: the paper's relation (1)
//!
//! The file layout giving `V(j, i)` spatial locality in an innermost
//! `j` loop is the kernel of `L·q_k`:
//!
//! ```
//! use ooc_linalg::Matrix;
//!
//! // V(j, i): access matrix [[0, 1], [1, 0]]; identity loop order,
//! // innermost column q_k = (0, 1).
//! let l = Matrix::from_i64(2, 2, &[0, 1, 1, 0]);
//! let u = l.mul_vec_i64(&[0, 1]); // movement of one innermost step
//! let m = Matrix::from_rationals(2, 1, u);
//! let g = m.transpose().integer_nullspace();
//! assert_eq!(g, vec![vec![0, 1]]); // column-major, as in the paper
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod completion;
pub mod fm;
pub mod gcd;
pub mod hnf;
pub mod lex;
pub mod matrix;
pub mod rational;

pub use completion::{complete_last_column, completion_candidates};
pub use fm::{Affine, Constraint, LoopBounds, Polyhedron};
pub use gcd::{extended_gcd, gcd, gcd_slice, lcm, primitive};
pub use hnf::{column_hnf, HnfResult};
pub use lex::{lex_nonnegative_i64, lex_positive_i64};
pub use matrix::Matrix;
pub use rational::Rational;
