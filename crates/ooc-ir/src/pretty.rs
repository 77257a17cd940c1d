//! Pretty-printing of programs as pseudo-Fortran `do` nests.
//!
//! Output mirrors the listings in the paper so transformation results
//! can be inspected side by side with the publication (e.g. the worked
//! example in §3.2.3 and the tiled codes of §3.3).

use crate::program::{ArrayRef, Expr, GuardAt, LoopNest, Program, Statement};
use ooc_linalg::Affine;
use std::fmt::Write as _;

/// Loop variable names used by the printer: `i, j, k, l, m, n, o, p`.
const VAR_NAMES: [&str; 8] = ["i", "j", "k", "l", "m", "n", "o", "p"];

fn var_name(level: usize) -> String {
    VAR_NAMES
        .get(level)
        .map_or_else(|| format!("i{level}"), |s| (*s).to_string())
}

fn affine_str(a: &Affine, params: &[String]) -> String {
    let mut out = String::new();
    let mut first = true;
    let mut term = |coeff: ooc_linalg::Rational, name: &str, out: &mut String| {
        if coeff.is_zero() {
            return;
        }
        if first {
            first = false;
            if coeff == ooc_linalg::Rational::ONE {
                let _ = write!(out, "{name}");
            } else if coeff == -ooc_linalg::Rational::ONE {
                let _ = write!(out, "-{name}");
            } else {
                let _ = write!(out, "{coeff}*{name}");
            }
        } else if coeff.signum() > 0 {
            if coeff == ooc_linalg::Rational::ONE {
                let _ = write!(out, " + {name}");
            } else {
                let _ = write!(out, " + {coeff}*{name}");
            }
        } else if coeff == -ooc_linalg::Rational::ONE {
            let _ = write!(out, " - {name}");
        } else {
            let _ = write!(out, " - {}*{name}", coeff.abs());
        }
    };
    for (i, &c) in a.var_coeffs.iter().enumerate() {
        term(c, &var_name(i), &mut out);
    }
    for (j, &c) in a.param_coeffs.iter().enumerate() {
        let name = params.get(j).cloned().unwrap_or_else(|| format!("p{j}"));
        term(c, &name, &mut out);
    }
    if first {
        let _ = write!(out, "{}", a.constant);
    } else if !a.constant.is_zero() {
        if a.constant.signum() > 0 {
            let _ = write!(out, " + {}", a.constant);
        } else {
            let _ = write!(out, " - {}", a.constant.abs());
        }
    }
    out
}

fn bound_str(forms: &[Affine], params: &[String], is_lower: bool) -> String {
    let rendered: Vec<String> = forms.iter().map(|a| affine_str(a, params)).collect();
    match rendered.len() {
        0 => "?".to_string(),
        1 => rendered.into_iter().next().unwrap(),
        _ if is_lower => format!("max({})", rendered.join(", ")),
        _ => format!("min({})", rendered.join(", ")),
    }
}

/// Renders a reference like `U(i,j+1)`.
#[must_use]
fn ref_str(r: &ArrayRef, array_names: &[String]) -> String {
    let name = array_names
        .get(r.array.0)
        .cloned()
        .unwrap_or_else(|| format!("A{}", r.array.0));
    let mut subs = Vec::with_capacity(r.rank());
    for dim in 0..r.rank() {
        let mut a = Affine::zero(r.depth(), 0);
        for c in 0..r.depth() {
            a.var_coeffs[c] = r.access[(dim, c)];
        }
        a.constant = ooc_linalg::Rational::from(r.offset[dim]);
        subs.push(affine_str(&a, &[]));
    }
    format!("{name}({})", subs.join(","))
}

fn expr_str(e: &Expr, array_names: &[String]) -> String {
    match e {
        Expr::Const(c) => format!("{c:?}"),
        Expr::Ref(r) => ref_str(r, array_names),
        Expr::Add(a, b) => format!(
            "{} + {}",
            expr_str(a, array_names),
            expr_str(b, array_names)
        ),
        Expr::Sub(a, b) => format!(
            "{} - {}",
            expr_str(a, array_names),
            expr_str(b, array_names)
        ),
        Expr::Mul(a, b) => format!(
            "({}) * ({})",
            expr_str(a, array_names),
            expr_str(b, array_names)
        ),
        Expr::Div(a, b) => format!(
            "({}) / ({})",
            expr_str(a, array_names),
            expr_str(b, array_names)
        ),
    }
}

fn stmt_str(s: &Statement, array_names: &[String]) -> String {
    let base = format!(
        "{} = {}",
        ref_str(&s.lhs, array_names),
        expr_str(&s.rhs, array_names)
    );
    if s.guards.is_empty() {
        base
    } else {
        let guards: Vec<String> = s
            .guards
            .iter()
            .map(|g| {
                let end = match g.at {
                    GuardAt::LowerBound => "lb",
                    GuardAt::UpperBound => "ub",
                };
                format!("{} == {end}", var_name(g.var))
            })
            .collect();
        format!("if ({}) {base}", guards.join(" .and. "))
    }
}

/// Renders one nest as an indented `do` pyramid.
#[must_use]
fn nest_to_string(nest: &LoopNest, params: &[String], array_names: &[String]) -> String {
    let mut out = String::new();
    let bounds = nest.bounds.loop_bounds();
    for (level, b) in bounds.iter().enumerate() {
        let indent = "  ".repeat(level);
        let _ = writeln!(
            out,
            "{indent}do {} = {}, {}",
            var_name(level),
            bound_str(&b.lowers, params, true),
            bound_str(&b.uppers, params, false),
        );
    }
    let indent = "  ".repeat(nest.depth);
    for s in &nest.body {
        let _ = writeln!(out, "{indent}{}", stmt_str(s, array_names));
    }
    for level in (0..nest.depth).rev() {
        let _ = writeln!(out, "{}end do", "  ".repeat(level));
    }
    out
}

/// Renders a whole program.
#[must_use]
pub fn program_to_string(prog: &Program) -> String {
    let array_names: Vec<String> = prog.arrays.iter().map(|a| a.name.clone()).collect();
    let mut out = String::new();
    for nest in &prog.nests {
        let _ = writeln!(out, "! {}", nest.name);
        out.push_str(&nest_to_string(nest, &prog.params, &array_names));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ArrayId, ArrayRef, Expr, LoopNest, Program, Statement};

    #[test]
    fn prints_paper_fragment() {
        let mut p = Program::new(&["N"]);
        let u = p.declare_array("U", 2, 0);
        let v = p.declare_array("V", 2, 0);
        let s = Statement::assign(
            ArrayRef::new(u, &[vec![1, 0], vec![0, 1]], vec![0, 0]),
            Expr::Add(
                Box::new(Expr::Ref(ArrayRef::new(
                    v,
                    &[vec![0, 1], vec![1, 0]],
                    vec![0, 0],
                ))),
                Box::new(Expr::Const(1.0)),
            ),
        );
        p.add_nest(LoopNest::rectangular("nest0", 2, 1, 0, vec![s]));
        let text = program_to_string(&p);
        assert!(text.contains("do i = 1, N"), "got:\n{text}");
        assert!(text.contains("do j = 1, N"), "got:\n{text}");
        assert!(text.contains("U(i,j) = V(j,i) + 1.0"), "got:\n{text}");
    }

    #[test]
    fn prints_offsets_and_coefficients() {
        let r = ArrayRef::new(ArrayId(0), &[vec![2, 1], vec![0, 1]], vec![1, -1]);
        let s = ref_str(&r, &["U".to_string()]);
        assert_eq!(s, "U(2*i + j + 1,j - 1)");
    }

    #[test]
    fn prints_guarded_statement() {
        let mut p = Program::new(&["N"]);
        let a = p.declare_array("A", 1, 0);
        let s = Statement {
            lhs: ArrayRef::new(a, &[vec![1, 0]], vec![0]),
            rhs: Expr::Const(0.0),
            guards: vec![crate::program::Guard {
                var: 1,
                at: crate::program::GuardAt::LowerBound,
            }],
        };
        p.add_nest(LoopNest::rectangular("n", 2, 1, 0, vec![s]));
        let text = program_to_string(&p);
        assert!(text.contains("if (j == lb) A(i) = 0.0"), "got:\n{text}");
    }
}
