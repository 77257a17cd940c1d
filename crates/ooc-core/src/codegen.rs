//! Rendering tiled plans as the paper's §3.3 listings.
//!
//! The paper shows the generated out-of-core code as Fortran `do`
//! nests with tile loops hoisted outside and explicit
//! `< read data tiles ... >` / `< write data tile ... >` markers. This
//! module reproduces that surface form from a [`TiledProgram`], so a
//! compiled plan can be inspected side by side with the publication.

use crate::exec::ExecConfig;
use crate::plan::plan_nest;
use crate::tiling::TiledProgram;
use std::fmt::Write as _;

const TILE_VARS: [&str; 8] = ["UT", "VT", "WT", "XT", "YT", "ZT", "ST", "TT"];
const ELEM_VARS: [&str; 8] = ["u'", "v'", "w'", "x'", "y'", "z'", "s'", "t'"];

/// Renders one nest of a tiled program as pseudo-Fortran with tile
/// loops, I/O markers, and element loops, at the given parameter
/// values (tile spans are computed exactly as the executor would).
///
/// # Panics
/// Panics if `nest_idx` is out of range.
#[must_use]
fn render_tiled_nest(tp: &TiledProgram, nest_idx: usize, cfg: &ExecConfig) -> String {
    let tnest = &tp.nests[nest_idx];
    let nest = &tnest.nest;
    let params = &cfg.params;
    let mut out = String::new();

    // Ranges and spans: the plan the simulator runs.
    let plan = cfg.plan_env(&tp.program, &tp.layouts).and_then(|env| {
        let plan = plan_nest(&env, nest, tnest.strategy, &tnest.tiled_levels, None)?;
        Ok(plan.map(|p| (p.ranges, p.spans)))
    });
    let (ranges, spans) = match plan {
        Ok(Some(plan)) => plan,
        Ok(None) => {
            let _ = writeln!(out, "! nest `{}` is empty at {params:?}", nest.name);
            return out;
        }
        Err(e) => {
            let _ = writeln!(out, "! nest `{}` cannot be planned: {e}", nest.name);
            return out;
        }
    };

    let _ = writeln!(
        out,
        "! nest `{}` — {:?} tiling, tile spans {:?}",
        nest.name, tnest.strategy, spans
    );

    let array_name = |a: ooc_ir::ArrayId| tp.program.arrays[a.0].name.clone();
    let reads: Vec<String> = {
        let mut names = Vec::new();
        for s in &nest.body {
            for r in s.reads() {
                let n = array_name(r.array);
                if !names.contains(&n) {
                    names.push(n);
                }
            }
        }
        names
    };
    let writes: Vec<String> = {
        let mut names = Vec::new();
        for s in &nest.body {
            let n = array_name(s.lhs.array);
            if !names.contains(&n) {
                names.push(n);
            }
        }
        names
    };

    // Tile loops (only levels actually tiled with span < extent).
    let mut indent = 0usize;
    let mut tiled_printed = Vec::new();
    for &l in &tnest.tiled_levels {
        let (lo, hi) = ranges[l];
        if spans[l] > hi - lo {
            continue; // span covers the range: no tile loop emitted
        }
        let _ = writeln!(
            out,
            "{}do {} = {}, {}, {}",
            "  ".repeat(indent),
            TILE_VARS[l.min(7)],
            lo,
            hi,
            spans[l]
        );
        indent += 1;
        tiled_printed.push(l);
    }
    let _ = writeln!(
        out,
        "{}< read data tiles for arrays {} from files >",
        "  ".repeat(indent),
        reads.join(", ")
    );
    // Element loops.
    for l in 0..nest.depth {
        let (lo, hi) = ranges[l];
        if tiled_printed.contains(&l) {
            let tv = TILE_VARS[l.min(7)];
            let _ = writeln!(
                out,
                "{}do {} = {tv}, min({tv}+{}-1, {hi})",
                "  ".repeat(indent),
                ELEM_VARS[l.min(7)],
                spans[l]
            );
        } else {
            let _ = writeln!(
                out,
                "{}do {} = {lo}, {hi}",
                "  ".repeat(indent),
                ELEM_VARS[l.min(7)]
            );
        }
        indent += 1;
    }
    for s in &nest.body {
        let _ = writeln!(
            out,
            "{}{} = ...",
            "  ".repeat(indent),
            ref_with_elem_vars(tp, &s.lhs)
        );
    }
    for _ in 0..nest.depth {
        indent -= 1;
        let _ = writeln!(out, "{}end do", "  ".repeat(indent));
    }
    let _ = writeln!(
        out,
        "{}< write data tiles for arrays {} to files >",
        "  ".repeat(indent),
        writes.join(", ")
    );
    for _ in &tiled_printed {
        indent -= 1;
        let _ = writeln!(out, "{}end do", "  ".repeat(indent));
    }
    out
}

/// Renders a reference with the element-loop variable names
/// (`u'`, `v'`, ...) used in the paper's listings.
fn ref_with_elem_vars(tp: &TiledProgram, r: &ooc_ir::ArrayRef) -> String {
    let name = &tp.program.arrays[r.array.0].name;
    let mut subs = Vec::with_capacity(r.rank());
    for d in 0..r.rank() {
        let mut terms = Vec::new();
        for l in 0..r.depth() {
            let c = r.access[(d, l)];
            if c.is_zero() {
                continue;
            }
            let v = ELEM_VARS[l.min(7)];
            if c == ooc_linalg::Rational::ONE {
                terms.push(v.to_string());
            } else {
                terms.push(format!("{c}*{v}"));
            }
        }
        if r.offset[d] != 0 {
            terms.push(format!("{:+}", r.offset[d]));
        }
        if terms.is_empty() {
            terms.push("0".to_string());
        }
        subs.push(terms.join(" "));
    }
    format!("{name}({})", subs.join(","))
}

/// Renders every nest of the program.
#[must_use]
pub fn render_tiled_program(tp: &TiledProgram, cfg: &ExecConfig) -> String {
    let mut out = String::new();
    for i in 0..tp.nests.len() {
        out.push_str(&render_tiled_nest(tp, i, cfg));
        out.push('\n');
    }
    // Layout legend.
    let _ = writeln!(out, "! file layouts:");
    for (a, l) in tp.layouts.iter().enumerate() {
        let _ = writeln!(out, "!   {:6} -> {l:?}", tp.program.arrays[a].name);
    }
    let _ = out;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{optimize, OptimizeOptions};
    use crate::tiling::{TiledProgram, TilingStrategy};
    use ooc_ir::{ArrayRef, Expr, LoopNest, Program, Statement};

    fn worked_example() -> Program {
        let mut p = Program::new(&["N"]);
        let u = p.declare_array("U", 2, 0);
        let v = p.declare_array("V", 2, 0);
        let s1 = Statement::assign(
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
        p.add_nest(LoopNest::rectangular("nest1", 2, 1, 0, vec![s1]));
        p
    }

    #[test]
    fn renders_paper_structure() {
        let prog = worked_example();
        let opt = optimize(&prog, &OptimizeOptions::default());
        let tp = TiledProgram::from_optimized(&opt, TilingStrategy::OutOfCore);
        let cfg = ExecConfig::new(vec![64], 1);
        let text = render_tiled_nest(&tp, 0, &cfg);
        // The §3.3 shape: a tile loop, the read marker before the element
        // loops, the write marker after.
        assert!(text.contains("do UT ="), "tile loop missing:\n{text}");
        assert!(
            text.contains("< read data tiles for arrays V from files >"),
            "read marker missing:\n{text}"
        );
        assert!(
            text.contains("< write data tiles for arrays U to files >"),
            "write marker missing:\n{text}"
        );
        let read_pos = text.find("< read").expect("read");
        let stmt_pos = text.find("U(u'").expect("stmt");
        let write_pos = text.find("< write").expect("write");
        assert!(
            read_pos < stmt_pos && stmt_pos < write_pos,
            "ordering:\n{text}"
        );
    }

    #[test]
    fn out_of_core_leaves_innermost_untiled() {
        let prog = worked_example();
        let opt = optimize(&prog, &OptimizeOptions::default());
        let tp = TiledProgram::from_optimized(&opt, TilingStrategy::OutOfCore);
        let cfg = ExecConfig::new(vec![64], 1);
        let text = render_tiled_nest(&tp, 0, &cfg);
        // Only the outer tile loop appears; no VT loop for the innermost.
        assert!(
            !text.contains("do VT ="),
            "innermost must stay untiled:\n{text}"
        );
    }

    #[test]
    fn whole_program_render_includes_layout_legend() {
        let prog = worked_example();
        let opt = optimize(&prog, &OptimizeOptions::default());
        let tp = TiledProgram::from_optimized(&opt, TilingStrategy::OutOfCore);
        let cfg = ExecConfig::new(vec![32], 1);
        let text = render_tiled_program(&tp, &cfg);
        assert!(text.contains("! file layouts:"));
        assert!(text.contains("U "));
    }

    /// `do i = 1,N; do j = 1,i`: the `j` tile loop must cover the
    /// bounding range `1..=N`, not the single column the inner loop
    /// spans at the first outer iteration.
    #[test]
    fn triangular_nest_tiles_its_bounding_box() {
        let mut prog = worked_example();
        let (i, j) = (
            ooc_linalg::Affine::var(2, 1, 0),
            ooc_linalg::Affine::var(2, 1, 1),
        );
        prog.nests[0].bounds.add_ge0(i.sub(&j));
        let tp = TiledProgram {
            layouts: crate::cost::default_layouts(&prog),
            nests: vec![crate::tiling::TiledNest {
                nest: prog.nests[0].clone(),
                tiled_levels: vec![0, 1],
                strategy: TilingStrategy::Traditional,
            }],
            program: prog,
        };
        let text = render_tiled_nest(&tp, 0, &ExecConfig::new(vec![64], 1));
        assert!(text.contains("do UT = 1, 64, "), "level 0:\n{text}");
        assert!(text.contains("do VT = 1, 64, "), "level 1:\n{text}");
        assert!(text.contains("min(VT+"), "level 1 element loop:\n{text}");
    }
}
