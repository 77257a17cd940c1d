//! Surface representation of (possibly imperfectly nested) input
//! programs, before normalization.
//!
//! The paper's Step (1) takes arbitrary sequences of imperfectly
//! nested loops and produces a sequence of perfect nests via loop
//! fusion, loop distribution, and code sinking (Figure 1). This module
//! is the input side of that step: loops are named, bounds are
//! `1..=N`-style with symbolic or constant trip counts, and subscripts
//! are written as affine combinations of the visible loop variables.

use crate::program::{ArrayId, DimSize};

/// A subscript expression: `Σ coeff·var + constant` over named loop
/// variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subscript {
    /// `(variable name, coefficient)` terms.
    pub terms: Vec<(String, i64)>,
    /// Constant offset.
    pub constant: i64,
}

impl Subscript {
    /// The subscript `var`.
    #[must_use]
    pub fn var(name: &str) -> Self {
        Subscript {
            terms: vec![(name.to_string(), 1)],
            constant: 0,
        }
    }

    /// A constant subscript.
    #[must_use]
    pub fn constant(c: i64) -> Self {
        Subscript {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// A general affine subscript.
    #[must_use]
    pub fn affine(terms: &[(&str, i64)], constant: i64) -> Self {
        Subscript {
            terms: terms.iter().map(|(n, c)| ((*n).to_string(), *c)).collect(),
            constant,
        }
    }
}

/// An array reference in the surface syntax.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SurfaceRef {
    /// The referenced array.
    pub array: ArrayId,
    /// One subscript per array dimension.
    pub subs: Vec<Subscript>,
}

impl SurfaceRef {
    /// Builds a reference with simple variable subscripts, e.g.
    /// `SurfaceRef::vars(a, &["i", "j"])` for `A(i, j)`.
    #[must_use]
    pub fn vars(array: ArrayId, names: &[&str]) -> Self {
        SurfaceRef {
            array,
            subs: names.iter().map(|n| Subscript::var(n)).collect(),
        }
    }
}

/// Right-hand-side expression in the surface syntax.
#[derive(Debug, Clone, PartialEq)]
pub enum SurfaceExpr {
    /// Floating constant.
    Const(f64),
    /// Array read.
    Ref(SurfaceRef),
    /// `a + b`.
    Add(Box<SurfaceExpr>, Box<SurfaceExpr>),
    /// `a - b`.
    Sub(Box<SurfaceExpr>, Box<SurfaceExpr>),
    /// `a * b`.
    Mul(Box<SurfaceExpr>, Box<SurfaceExpr>),
    /// `a / b`.
    Div(Box<SurfaceExpr>, Box<SurfaceExpr>),
}

impl SurfaceExpr {
    /// Collects the reads in evaluation order.
    pub fn collect_refs<'a>(&'a self, out: &mut Vec<&'a SurfaceRef>) {
        match self {
            SurfaceExpr::Const(_) => {}
            SurfaceExpr::Ref(r) => out.push(r),
            SurfaceExpr::Add(a, b)
            | SurfaceExpr::Sub(a, b)
            | SurfaceExpr::Mul(a, b)
            | SurfaceExpr::Div(a, b) => {
                a.collect_refs(out);
                b.collect_refs(out);
            }
        }
    }
}

/// An assignment in the surface syntax.
#[derive(Debug, Clone, PartialEq)]
pub struct SurfaceStmt {
    /// Written reference.
    pub lhs: SurfaceRef,
    /// Right-hand side.
    pub rhs: SurfaceExpr,
}

/// A node of the (possibly imperfect) loop tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A `do var = 1, bound` loop around child nodes.
    Loop(LoopNode),
    /// A straight-line statement.
    Stmt(SurfaceStmt),
}

/// A counted loop `do var = 1, bound`.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopNode {
    /// Loop variable name (must be unique along any root-to-leaf path).
    pub var: String,
    /// Trip count: the loop runs `1..=bound`.
    pub bound: DimSize,
    /// Child nodes in source order.
    pub body: Vec<Node>,
}

impl LoopNode {
    /// Convenience constructor.
    #[must_use]
    pub fn new(var: &str, bound: DimSize, body: Vec<Node>) -> Self {
        LoopNode {
            var: var.to_string(),
            bound,
            body,
        }
    }
}

/// A surface program: declarations plus a top-level node sequence.
#[derive(Debug, Clone, Default)]
pub struct SurfaceProgram {
    /// Parameter names.
    pub params: Vec<String>,
    /// Array names and shapes (indexed by [`ArrayId`]).
    pub arrays: Vec<(String, Vec<DimSize>)>,
    /// Top-level loop/statement sequence.
    pub top: Vec<Node>,
}

impl SurfaceProgram {
    /// New empty surface program.
    #[must_use]
    pub fn new(params: &[&str]) -> Self {
        SurfaceProgram {
            params: params.iter().map(|s| (*s).to_string()).collect(),
            arrays: Vec::new(),
            top: Vec::new(),
        }
    }

    /// Declares an array with all dimensions equal to parameter `p`.
    pub fn declare_array(&mut self, name: &str, rank: usize, p: usize) -> ArrayId {
        let id = ArrayId(self.arrays.len());
        self.arrays
            .push((name.to_string(), vec![DimSize::Param(p); rank]));
        id
    }

    /// Declares an array with explicit dimensions.
    pub fn declare_array_dims(&mut self, name: &str, dims: Vec<DimSize>) -> ArrayId {
        let id = ArrayId(self.arrays.len());
        self.arrays.push((name.to_string(), dims));
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subscript_constructors() {
        assert_eq!(Subscript::var("i").terms, [("i".to_string(), 1)]);
        assert_eq!(Subscript::constant(4).terms.len(), 0);
        let s = Subscript::affine(&[("i", 2), ("j", -1)], 3);
        assert_eq!(s.terms, [("i".to_string(), 2), ("j".to_string(), -1)]);
        assert_eq!(s.constant, 3);
    }

    #[test]
    fn surface_ref_vars() {
        let r = SurfaceRef::vars(ArrayId(2), &["i", "j"]);
        assert_eq!(r.array, ArrayId(2));
        assert_eq!(r.subs.len(), 2);
        assert_eq!(r.subs[0], Subscript::var("i"));
    }

    #[test]
    fn collect_refs_in_order() {
        let a = SurfaceRef::vars(ArrayId(0), &["i"]);
        let b = SurfaceRef::vars(ArrayId(1), &["i"]);
        let e = SurfaceExpr::Mul(
            Box::new(SurfaceExpr::Ref(a.clone())),
            Box::new(SurfaceExpr::Add(
                Box::new(SurfaceExpr::Ref(b.clone())),
                Box::new(SurfaceExpr::Const(1.0)),
            )),
        );
        let mut refs = Vec::new();
        e.collect_refs(&mut refs);
        assert_eq!(refs.len(), 2);
        assert_eq!(refs[0].array, ArrayId(0));
        assert_eq!(refs[1].array, ArrayId(1));
    }
}
