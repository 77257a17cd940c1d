//! # ooc-ir
//!
//! The affine program representation of the out-of-core optimizing
//! compiler (reproduction of Kandemir, Choudhary & Ramanujam, ICPP
//! 1999):
//!
//! * [`builder`] — a fluent DSL for writing perfect nests directly
//!   (`A(i, j+1)`-style subscripts).
//! * [`imperfect`] — surface syntax for (possibly imperfectly nested)
//!   input programs.
//! * [`mod@normalize`] — Step (1) of the paper: loop fusion, loop
//!   distribution, and code sinking lower the surface program to a
//!   sequence of perfect nests.
//! * [`program`] — the normalized representation: loop nests with
//!   polyhedral bounds and `L·Ī + ō` array references.
//! * [`deps`] — dependence analysis producing distance/direction
//!   vectors, plus transformation-legality checking.
//! * [`exec`] — a reference interpreter establishing the functional
//!   semantics every transformed variant must preserve.
//! * [`pretty`] — pseudo-Fortran rendering of nests for inspection.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod deps;
pub mod exec;
pub mod imperfect;
pub mod normalize;
pub mod pretty;
pub mod program;

pub use builder::{NestBuilder, ProgramBuilder, B};
pub use deps::{
    array_dependences, merge_arrays, nest_dependences, transformation_preserves, DepElem, DepKind,
    Dependence,
};
pub use exec::{execute_program, Memory};
pub use imperfect::{
    LoopNode, Node, Subscript, SurfaceExpr, SurfaceProgram, SurfaceRef, SurfaceStmt,
};
pub use normalize::{normalize, NormalizeError};
pub use pretty::program_to_string;
pub use program::{
    ArrayDecl, ArrayId, ArrayRef, DimSize, Expr, Guard, GuardAt, LoopNest, NestId, Program,
    Statement,
};
