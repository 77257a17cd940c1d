//! Step (3) of the paper: the global locality optimizer combining
//! loop (iteration-space) and data (file-layout) transformations.
//!
//! Per connected component of the interference graph:
//!
//! 1. order the nests by estimated cost (most expensive first);
//! 2. optimize the costliest nest with **data transformations only**
//!    — relation (1) fixes a layout per referenced array;
//! 3. for every remaining nest, derive the innermost column of the
//!    inverse loop transformation from the already-fixed layouts
//!    (relation (2)), complete it to a full unimodular matrix
//!    (Bik–Wijshoff) subject to dependence legality, apply it, then
//!    fix the layouts of the arrays still free (relation (1) again)
//!    and propagate.
//!
//! The same machinery also produces the paper's comparison versions:
//! [`optimize_data_only`] (`d-opt`) never transforms loops and
//! [`optimize_loop_only`] (`l-opt`) never changes layouts.

use crate::cost::{default_layouts, nest_cost, order_by_cost};
use crate::exec::ExecConfig;
use crate::interference::InterferenceGraph;
use crate::locality::{
    dim_order_for, innermost_candidates, layouts_for_2d, locality_under, loop_constraint_rows,
    movement_i64,
};
use crate::plan::{plan_nest_memo, PlanMemo};
use crate::tiling::TilingStrategy;
use ooc_ir::{nest_dependences, transformation_preserves, LoopNest, Program};
use ooc_linalg::{completion_candidates, Matrix};
use ooc_runtime::FileLayout;

/// Options controlling the optimizer.
#[derive(Debug, Clone)]
pub struct OptimizeOptions {
    /// Parameter values used by the cost model for nest ordering (the
    /// paper uses profile data; a representative size works equally
    /// well for ranking).
    pub cost_params: Vec<i64>,
}

/// Maximum completions tried per innermost-column candidate.
const COMPLETION_LIMIT: usize = 24;

/// Representative processor count for the cost model: the modeled
/// nest is partitioned over this many processors (outermost parallel
/// level), mirroring how the code will execute.
const MODEL_PROCS: usize = 16;

impl Default for OptimizeOptions {
    fn default() -> Self {
        OptimizeOptions {
            // A representative out-of-core size: large enough that the
            // 1/128 memory budget and run lengths are in the deployment
            // regime (callers compiling real kernels pass their actual
            // extents, cf. ooc-kernels::compile).
            cost_params: vec![1024],
        }
    }
}

/// Result of optimization: the transformed program, the chosen file
/// layouts, and per-nest transformation matrices.
#[derive(Debug, Clone)]
pub struct OptimizedProgram {
    /// The program with all loop transformations applied.
    pub program: Program,
    /// Chosen file layout per array (indexed by `ArrayId`).
    pub layouts: Vec<FileLayout>,
    /// Per nest: the applied inverse transformation `Q` (`I` = nest
    /// untouched).
    pub transforms: Vec<Matrix>,
    /// Human-readable decision log.
    pub log: Vec<String>,
}

/// The paper's combined loop + data optimization (`c-opt`).
#[must_use]
pub fn optimize(prog: &Program, opts: &OptimizeOptions) -> OptimizedProgram {
    run(prog, opts, Mode::Combined)
}

/// Data (file layout) transformations only (`d-opt`): loop order is
/// left untouched, each nest fixes layouts for its still-free arrays
/// in cost order.
#[must_use]
pub fn optimize_data_only(prog: &Program, opts: &OptimizeOptions) -> OptimizedProgram {
    run(prog, opts, Mode::DataOnly)
}

/// Loop transformations only (`l-opt`): layouts stay at the given
/// defaults (column-major when `None`), each nest gets the best legal
/// loop transformation for those layouts.
#[must_use]
pub fn optimize_loop_only(
    prog: &Program,
    opts: &OptimizeOptions,
    layouts: Option<Vec<FileLayout>>,
) -> OptimizedProgram {
    run_loop_only(prog, opts, layouts.unwrap_or_else(|| default_layouts(prog)))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Combined,
    DataOnly,
}

fn run(prog: &Program, opts: &OptimizeOptions, mode: Mode) -> OptimizedProgram {
    let _opt_span = ooc_trace::span_with(
        "compiler",
        "optimize",
        vec![
            (
                "mode",
                match mode {
                    Mode::Combined => "c-opt",
                    Mode::DataOnly => "d-opt",
                }
                .into(),
            ),
            ("nests", (prog.nests.len() as u64).into()),
            ("arrays", (prog.arrays.len() as u64).into()),
        ],
    );
    let mut out = OptimizedProgram {
        program: prog.clone(),
        layouts: default_layouts(prog),
        transforms: prog
            .nests
            .iter()
            .map(|n| Matrix::identity(n.depth))
            .collect(),
        log: Vec::new(),
    };
    let mut fixed: Vec<Option<FileLayout>> = vec![None; prog.arrays.len()];
    let weights = array_weights(prog, &opts.cost_params);
    let mut pricer = Pricer::new(prog, opts);

    let graph = {
        let _s = ooc_trace::span("compiler", "interference-graph");
        InterferenceGraph::build(prog)
    };
    let components = graph.connected_components();
    for (ci, comp) in components.iter().enumerate() {
        let _comp_span = ooc_trace::span_with(
            "compiler",
            &format!("component-{ci}"),
            vec![
                ("nests", (comp.nests.len() as u64).into()),
                ("arrays", (comp.arrays.len() as u64).into()),
            ],
        );
        let defaults = default_layouts(prog);
        let order = {
            let _s = ooc_trace::span("compiler", "cost-rank");
            order_by_cost(prog, &comp.nests, &defaults, &opts.cost_params)
        };
        if ooc_trace::enabled() {
            if let Some(&costliest) = order.first() {
                let ranking = order
                    .iter()
                    .map(|&n| {
                        format!(
                            "{}({:.0})",
                            prog.nest(n).name,
                            nest_cost(prog.nest(n), &defaults, &opts.cost_params)
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(" > ");
                ooc_trace::explain(
                    ooc_trace::Explain::new(
                        "component",
                        format!("component-{ci}"),
                        format!("{} nests, {} arrays", comp.nests.len(), comp.arrays.len()),
                    )
                    .detail("nests", ranking.clone()),
                );
                ooc_trace::explain(
                    ooc_trace::Explain::new(
                        "cost-rank",
                        prog.nest(costliest).name.clone(),
                        "costliest nest: optimized first, data transformations only",
                    )
                    .detail("order", ranking),
                );
            }
        }
        for (rank, &nid) in order.iter().enumerate() {
            let nest = out.program.nests[nid.0].clone();
            let _nest_span = ooc_trace::span_with(
                "compiler",
                &format!("nest:{}", nest.name),
                vec![("rank", (rank as u64).into())],
            );
            let Chosen { q, nest, priced } = if rank == 0 || mode == Mode::DataOnly {
                // Costliest nest (or d-opt everywhere): data
                // transformations only.
                Chosen::identity(nest)
            } else {
                choose_transform(&mut pricer, &nest, &fixed, &weights, &mut out.log)
            };
            if !is_identity(&q) {
                out.log.push(format!(
                    "{}: applied loop transformation Q = {q:?}",
                    nest.name
                ));
                ooc_trace::explain(
                    ooc_trace::Explain::new(
                        "transform",
                        nest.name.clone(),
                        format!("applied loop transformation Q = {q:?}"),
                    )
                    .detail("rank", rank.to_string())
                    .detail("rule", "kernel relation (2) + Bik-Wijshoff completion"),
                );
            }
            fix_layouts_checked(&mut pricer, &nest, &mut fixed, rank, priced, &mut out.log);
            out.transforms[nid.0] = q;
            out.program.nests[nid.0] = nest;
        }
    }

    for (a, f) in fixed.into_iter().enumerate() {
        if let Some(layout) = f {
            out.layouts[a] = layout;
        }
    }
    out
}

fn run_loop_only(
    prog: &Program,
    opts: &OptimizeOptions,
    layouts: Vec<FileLayout>,
) -> OptimizedProgram {
    let mut out = OptimizedProgram {
        program: prog.clone(),
        layouts: layouts.clone(),
        transforms: prog
            .nests
            .iter()
            .map(|n| Matrix::identity(n.depth))
            .collect(),
        log: Vec::new(),
    };
    let fixed: Vec<Option<FileLayout>> = layouts.into_iter().map(Some).collect();
    let weights = array_weights(prog, &opts.cost_params);
    let mut pricer = Pricer::new(prog, opts);
    for (i, nest) in prog.nests.iter().enumerate() {
        let chosen = choose_transform(&mut pricer, nest, &fixed, &weights, &mut out.log);
        if !is_identity(&chosen.q) {
            out.log.push(format!(
                "{}: applied loop transformation Q = {:?}",
                nest.name, chosen.q
            ));
            out.program.nests[i] = chosen.nest;
        }
        out.transforms[i] = chosen.q;
    }
    out
}

fn is_identity(q: &Matrix) -> bool {
    *q == Matrix::identity(q.rows())
}

/// Per-array weights for scoring: the array's element count at the
/// cost-model parameter values. A reference into a 4096×4096 matrix
/// must outweigh any number of references into small 1-D coefficient
/// vectors.
fn array_weights(prog: &Program, cost_params: &[i64]) -> Vec<f64> {
    let params: Vec<i64> = (0..prog.params.len())
        .map(|i| cost_params.get(i).copied().unwrap_or(64))
        .collect();
    prog.arrays
        .iter()
        .map(|a| a.len(&params).max(1) as f64)
        .collect()
}

/// Chooses the best legal inverse loop transformation for a nest given
/// the layouts fixed so far: candidate innermost columns come from the
/// kernel relations, legality from the dependence test, and the final
/// choice minimizes the compiler's modeled I/O time of the transformed
/// and tiled nest (the identity is always a candidate, so a
/// transformation is applied only when the model says it wins).
fn choose_transform(
    pricer: &mut Pricer,
    nest: &LoopNest,
    fixed: &[Option<FileLayout>],
    weights: &[f64],
    log: &mut Vec<String>,
) -> Chosen {
    let depth = nest.depth;
    if depth == 0 {
        return Chosen::identity(nest.clone());
    }
    let _span = ooc_trace::span("compiler", &format!("choose-transform:{}", nest.name));
    let deps = nest_dependences(nest);
    let refs = nest.all_refs();

    // Candidate pool for the innermost column q_k.
    let mut pool: Vec<Vec<i64>> = Vec::new();
    let push = |v: Vec<i64>, pool: &mut Vec<Vec<i64>>| {
        if v.iter().any(|&x| x != 0) && !pool.contains(&v) {
            pool.push(v);
        }
    };
    // (a) The joint kernel of every constrained reference — the ideal
    // solution satisfying all fixed layouts at once.
    let mut all_rows = Vec::new();
    for r in &refs {
        if let Some(layout) = &fixed[r.array.0] {
            all_rows.extend(loop_constraint_rows(layout, r));
        }
    }
    for v in innermost_candidates(&all_rows, depth) {
        push(v, &mut pool);
    }
    // (b) Per-reference kernels (partial satisfaction when the joint
    // kernel is empty).
    for r in &refs {
        if let Some(layout) = &fixed[r.array.0] {
            let rows = loop_constraint_rows(layout, r);
            for v in innermost_candidates(&rows, depth) {
                push(v, &mut pool);
            }
        }
    }
    // (c) The identity choice (no transformation) as a safe fallback.
    let mut ek = vec![0i64; depth];
    ek[depth - 1] = 1;
    push(ek.clone(), &mut pool);

    // Rank candidates: best locality score first; on ties prefer the
    // identity innermost column (no gratuitous transformation). A
    // column that moves some reference by a fraction has no score and
    // is not a candidate.
    let mut scored: Vec<(f64, bool, Vec<i64>)> = pool
        .into_iter()
        .filter_map(|q_last| {
            let score = score_innermost(nest, fixed, weights, &q_last)?;
            Some((score, q_last == ek, q_last))
        })
        .collect();
    scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(b.1.cmp(&a.1)));

    let n_candidates = scored.len();

    // First legal completion per candidate column; identity always last
    // (it needs no completion and never fails legality).
    let mut legal: Vec<Matrix> = Vec::new();
    for (_, is_ek, q_last) in &scored {
        if *is_ek {
            continue;
        }
        for q in completion_candidates(q_last, COMPLETION_LIMIT) {
            let Some(t) = q.inverse() else { continue };
            if transformation_preserves(&t, &deps) {
                if ooc_trace::enabled() {
                    ooc_trace::explain(
                        ooc_trace::Explain::new(
                            "completion",
                            nest.name.clone(),
                            format!("completed innermost column {q_last:?} to unimodular Q"),
                        )
                        .detail("rule", "Bik-Wijshoff, dependence-legal"),
                    );
                }
                legal.push(q);
                break;
            }
        }
    }
    legal.truncate(6);
    legal.push(Matrix::identity(depth));
    if ooc_trace::enabled() {
        ooc_trace::explain(
            ooc_trace::Explain::new(
                "kernel-relation",
                nest.name.clone(),
                format!(
                    "{n_candidates} innermost-column candidates from fixed layouts, {} legal completions",
                    legal.len() - 1
                ),
            )
            .detail("rule", "relation (2): layout rows constrain q_k"),
        );
    }

    // Evaluate each legal transformation under the full modeled I/O
    // cost of the transformed, tiled nest; take the cheapest (identity
    // wins ties).
    let mut best: Option<(f64, Matrix, LoopNest)> = None;
    for q in legal {
        let candidate_nest = if is_identity(&q) {
            nest.clone()
        } else {
            nest.transformed(&q)
        };
        // Hypothesize relation-(1) layouts for the free arrays under
        // this candidate, then cost the nest.
        let mut trial = fixed.to_vec();
        fix_layouts(&candidate_nest, &mut trial, &mut Vec::new());
        let layouts = concrete_layouts(pricer.prog, &trial);
        let cost = pricer.cost(&candidate_nest, &layouts);
        let better = match &best {
            None => true,
            // Strict improvement required, so identity (evaluated last)
            // is kept on ties.
            Some((c, ..)) => cost < *c - 1e-12,
        };
        let is_id = is_identity(&q);
        if better || (is_id && best.as_ref().is_some_and(|(c, ..)| cost <= *c + 1e-12)) {
            best = Some((cost, q, candidate_nest));
        }
    }
    match best {
        Some((cost, q, nest)) => Chosen {
            q,
            nest,
            priced: Some(cost),
        },
        None => {
            log.push(format!(
                "{}: no legal transformation found, keeping original order",
                nest.name
            ));
            Chosen::identity(nest.clone())
        }
    }
}

/// A nest's loop transformation as [`choose_transform`] chose it.
struct Chosen {
    /// The inverse transformation `Q`.
    q: Matrix,
    /// The nest under `q`, as priced.
    nest: LoopNest,
    /// Its modeled cost under the layouts relation (1) hypothesizes
    /// for it, when the model priced it.
    priced: Option<f64>,
}

impl Chosen {
    /// `nest` untransformed and unpriced.
    fn identity(nest: LoopNest) -> Self {
        Chosen {
            q: Matrix::identity(nest.depth),
            nest,
            priced: None,
        }
    }
}

/// The cost model of one optimizer pass over the nests of `prog`:
/// every nest it prices plans through one [`PlanMemo`], which the pass
/// drops when it returns.
struct Pricer<'a> {
    prog: &'a Program,
    /// The default machine under the paper's memory rule, at the cost
    /// parameters.
    cfg: ExecConfig,
    memo: PlanMemo,
}

impl<'a> Pricer<'a> {
    fn new(prog: &'a Program, opts: &OptimizeOptions) -> Self {
        let params: Vec<i64> = (0..prog.params.len())
            .map(|i| opts.cost_params.get(i).copied().unwrap_or(64))
            .collect();
        Pricer {
            prog,
            cfg: ExecConfig::new(params, MODEL_PROCS),
            memo: PlanMemo::default(),
        }
    }

    /// Modeled I/O time of one nest after tiling under the given
    /// concrete layouts, used to compare candidate loop transformations
    /// and layout assignments: the cost of the nest's plan on the
    /// default machine, partitioned the way the executor will run it
    /// (the ownership level block-divided over the representative
    /// processor count). A nest that is empty at the cost parameters
    /// costs nothing; one that cannot be planned there (its arrays or
    /// regions leave the integers planning works in) costs infinitely
    /// much, so no candidate wins by being unplannable. No consumer
    /// subtracts two costs, so the infinity never becomes a NaN.
    fn cost(&mut self, nest: &LoopNest, layouts: &[FileLayout]) -> f64 {
        let levels: Vec<usize> = (0..nest.depth).collect();
        let cost = self.cfg.plan_env(self.prog, layouts).and_then(|env| {
            let plan = plan_nest_memo(
                &env,
                nest,
                TilingStrategy::Optimized,
                &levels,
                Some(self.cfg.procs),
                &mut self.memo,
            )?;
            Ok(plan.map_or(0.0, |p| p.cost))
        });
        cost.unwrap_or(f64::INFINITY)
    }
}

/// Scores an innermost-column candidate: fixed-layout references score
/// their actual locality; free arrays score optimistically (they will
/// receive a layout via relation (1) afterwards). Each reference is
/// weighted by its array's data size — locality for a scratch vector
/// must not trump locality for an out-of-core matrix. `None` when the
/// column moves some reference by a fraction of an element.
fn score_innermost(
    nest: &LoopNest,
    fixed: &[Option<FileLayout>],
    weights: &[f64],
    q_last: &[i64],
) -> Option<f64> {
    let mut score = 0.0;
    for r in nest.all_refs() {
        let u = movement_i64(&r.access, q_last)?;
        let s = match &fixed[r.array.0] {
            Some(layout) => locality_under(layout, &u).score(),
            None => {
                if u.iter().all(|&x| x == 0) {
                    3 // temporal
                } else if r.rank() == 2 || dim_order_for(&r.access, q_last).is_some() {
                    2 // a layout exists that makes this stride-1
                } else {
                    0
                }
            }
        };
        score += weights[r.array.0] * s as f64;
    }
    Some(score)
}

/// [`fix_layouts`] with a cost check: a candidate layout is kept only
/// when the modeled I/O time of this nest does not get worse — the
/// published data-transformation frameworks the paper compares against
/// would not change a layout their own model says loses. `priced` is
/// the cost [`choose_transform`] gave `nest` under the layouts relation
/// (1) hypothesizes, if it priced it: the cost of the trial here.
fn fix_layouts_checked(
    pricer: &mut Pricer,
    nest: &LoopNest,
    fixed: &mut [Option<FileLayout>],
    rank: usize,
    priced: Option<f64>,
    log: &mut Vec<String>,
) {
    let prog = pricer.prog;
    let before = pricer.cost(nest, &concrete_layouts(prog, fixed));
    let mut trial = fixed.to_vec();
    let mut trial_log = Vec::new();
    let newly = fix_layouts(nest, &mut trial, &mut trial_log);
    // Fixing nothing leaves the layouts `before` priced.
    let after = match priced {
        Some(cost) => cost,
        None if newly.is_empty() => before,
        None => pricer.cost(nest, &concrete_layouts(prog, &trial)),
    };
    // Reject only gross losses: relation (1) encodes locality knowledge
    // the tile-shape cost model cannot fully see (within-call stride,
    // cache behaviour), so marginal modeled regressions still apply.
    if after <= before * 1.10 + 1e-12 {
        log.extend(trial_log);
        fixed.clone_from_slice(&trial);
        if ooc_trace::enabled() {
            // rank 0 = the component's costliest nest fixing layouts
            // directly; later ranks receive them via propagation.
            let kind = if rank == 0 {
                "layout-fixed"
            } else {
                "layout-propagated"
            };
            for (a, layout) in &newly {
                ooc_trace::explain(
                    ooc_trace::Explain::new(
                        kind,
                        prog.arrays[*a].name.clone(),
                        format!("{layout:?}"),
                    )
                    .detail("nest", nest.name.clone())
                    .detail("rank", rank.to_string())
                    .detail("rule", "relation (1)"),
                );
            }
        }
    } else {
        log.push(format!(
            "{}: relation-(1) layouts rejected by the cost model ({after:.3} > {before:.3})",
            nest.name
        ));
        if ooc_trace::enabled() {
            ooc_trace::explain(
                ooc_trace::Explain::new(
                    "layout-rejected",
                    nest.name.clone(),
                    format!("relation-(1) layouts rejected ({after:.3} > {before:.3})"),
                )
                .detail("rank", rank.to_string()),
            );
        }
    }
}

/// Total modeled I/O time of an optimized program: the sum of its
/// (transformed, tiled) nests' modeled costs under its layouts.
#[must_use]
pub fn modeled_program_cost(prog: &Program, opt: &OptimizedProgram, opts: &OptimizeOptions) -> f64 {
    let _ = prog;
    let mut pricer = Pricer::new(&opt.program, opts);
    opt.program
        .nests
        .iter()
        .map(|nest| pricer.cost(nest, &opt.layouts))
        .sum()
}

/// The best legal loop transformation for `nest` when every array's
/// layout is already pinned (used by the global layout search).
/// Returns the chosen inverse transformation and its modeled cost.
#[must_use]
pub fn best_transform_for(
    prog: &Program,
    nest: &LoopNest,
    layouts: &[FileLayout],
    opts: &OptimizeOptions,
) -> (Matrix, f64) {
    let fixed: Vec<Option<FileLayout>> = layouts.iter().cloned().map(Some).collect();
    let weights = array_weights(prog, &opts.cost_params);
    let mut log = Vec::new();
    let mut pricer = Pricer::new(prog, opts);
    let chosen = choose_transform(&mut pricer, nest, &fixed, &weights, &mut log);
    let cost = pricer.cost(&chosen.nest, layouts);
    (chosen.q, cost)
}

/// Fixed layouts where decided, the program default (column-major)
/// elsewhere.
fn concrete_layouts(prog: &Program, fixed: &[Option<FileLayout>]) -> Vec<FileLayout> {
    let defaults = default_layouts(prog);
    fixed
        .iter()
        .zip(defaults)
        .map(|(f, d)| f.clone().unwrap_or(d))
        .collect()
}

/// Relation (1): fixes layouts for the still-free arrays of a
/// (possibly transformed) nest, using the identity innermost column of
/// the nest's own iteration space. Returns the newly fixed
/// `(array index, layout)` pairs so the committing caller can record
/// the decisions (trial callers drop them).
fn fix_layouts(
    nest: &LoopNest,
    fixed: &mut [Option<FileLayout>],
    log: &mut Vec<String>,
) -> Vec<(usize, FileLayout)> {
    let mut newly = Vec::new();
    let depth = nest.depth;
    if depth == 0 {
        return newly;
    }
    let mut ek = vec![0i64; depth];
    ek[depth - 1] = 1;
    for r in nest.all_refs() {
        if fixed[r.array.0].is_some() {
            continue;
        }
        let chosen = if r.rank() == 2 {
            match layouts_for_2d(&r.access, &ek) {
                Some(gs) if gs.is_empty() => None, // temporal: keep free
                Some(gs) => pick_hyperplane(&gs).map(|g| FileLayout::from_hyperplane(&g)),
                None => unreachable!("rank checked"),
            }
        } else {
            dim_order_for(&r.access, &ek)
        };
        if let Some(layout) = chosen {
            log.push(format!(
                "{}: fixed layout of array {} to {layout:?}",
                nest.name, r.array.0
            ));
            newly.push((r.array.0, layout.clone()));
            fixed[r.array.0] = Some(layout);
        }
    }
    newly
}

/// Chooses among kernel basis vectors: axis-aligned hyperplanes first
/// (cheap exact run accounting), then minimal coefficient magnitude —
/// the paper's "minimum gcd" rule on primitive vectors reduces to
/// preferring small entries.
fn pick_hyperplane(gs: &[Vec<i64>]) -> Option<Vec<i64>> {
    gs.iter()
        .min_by_key(|g| {
            let axis = usize::from(!(g.as_slice() == [1, 0] || g.as_slice() == [0, 1]));
            let mag: i64 = g.iter().map(|x| x.abs()).sum();
            (axis, mag)
        })
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::paper_example;
    use ooc_ir::{ArrayRef, Expr, LoopNest, Program, Statement};

    #[test]
    fn worked_example_layouts_and_interchange() {
        let p = paper_example();
        let opt = optimize(&p, &OptimizeOptions::default());
        // U row-major, V column-major, W row-major (paper §3.2.3).
        assert_eq!(opt.layouts[0], FileLayout::row_major(2), "U");
        assert_eq!(opt.layouts[1], FileLayout::col_major(2), "V");
        assert_eq!(opt.layouts[2], FileLayout::row_major(2), "W");
        // Nest 1 untouched; nest 2 interchanged.
        assert_eq!(opt.transforms[0], Matrix::identity(2));
        assert_eq!(opt.transforms[1], Matrix::from_i64(2, 2, &[0, 1, 1, 0]));
        // Transformed nest 2 is V(v,u) = W(u,v) + 2 in new coordinates:
        // its V access matrix becomes the interchange of the identity.
        let v_ref = &opt.program.nests[1].body[0].lhs;
        assert_eq!(v_ref.access, Matrix::from_i64(2, 2, &[0, 1, 1, 0]));
    }

    #[test]
    fn data_only_leaves_loops_alone() {
        let p = paper_example();
        let opt = optimize_data_only(&p, &OptimizeOptions::default());
        assert_eq!(opt.transforms[0], Matrix::identity(2));
        assert_eq!(opt.transforms[1], Matrix::identity(2));
        // U gets row-major; V col-major (from nest 1, the costlier);
        // nest 2's V(i,j) reference then conflicts and W... nest 2 with
        // identity loops wants V row-major (taken) and W col-major...
        // W is free and gets col-major via relation (1) on W(j,i) with
        // e_2: u = (1,0) -> Ker ∋ (0,1).
        assert_eq!(opt.layouts[0], FileLayout::row_major(2));
        assert_eq!(opt.layouts[1], FileLayout::col_major(2));
        assert_eq!(opt.layouts[2], FileLayout::col_major(2));
    }

    #[test]
    fn loop_only_keeps_layouts() {
        let p = paper_example();
        let opt = optimize_loop_only(&p, &OptimizeOptions::default(), None);
        assert_eq!(opt.layouts[0], FileLayout::col_major(2));
        assert_eq!(opt.layouts[1], FileLayout::col_major(2));
        assert_eq!(opt.layouts[2], FileLayout::col_major(2));
        // Nest 1 with all-column-major: U(i,j) wants innermost moving
        // only U's dim 0 => q ∈ Ker{row 1 of L_U} = (1,0): interchange;
        // V(j,i) wants q ∈ Ker{(0,1)·L_V} = Ker{(1,0)} = (0,1): identity.
        // Either choice optimizes exactly one reference; both score equal.
        let q = &opt.transforms[0];
        assert!(q.is_unimodular());
    }

    #[test]
    fn dependences_block_illegal_interchange() {
        // A(i,j) = A(i-1, j+1): distance (1,-1); interchange illegal.
        // Fix A row-major so the layout asks for interchange; the
        // optimizer must refuse and keep a legal order.
        let mut p = Program::new(&["N"]);
        let a = p.declare_array("A", 2, 0);
        let s = Statement::assign(
            ArrayRef::new(a, &[vec![1, 0], vec![0, 1]], vec![0, 0]),
            Expr::Ref(ArrayRef::new(a, &[vec![1, 0], vec![0, 1]], vec![-1, 1])),
        );
        p.add_nest(LoopNest::rectangular("n", 2, 1, 0, vec![s]));
        let opt = optimize_loop_only(
            &p,
            &OptimizeOptions::default(),
            Some(vec![FileLayout::col_major(2)]),
        );
        let t = opt.transforms[0].inverse().expect("invertible");
        let deps = nest_dependences(&p.nests[0]);
        assert!(transformation_preserves(&t, &deps));
    }

    /// Ranking candidate columns must not panic on a reference the
    /// columns move by a fraction: such columns are no candidates, and
    /// the identity is still there to fall back on.
    #[test]
    fn a_fractional_access_entry_is_skipped_not_a_panic() {
        // A(i, j) = B(i/2 + j/2, j): integral wherever i + j is even,
        // which the compiler is never asked to execute here.
        let mut p = Program::new(&["N"]);
        let a = p.declare_array("A", 2, 0);
        let b = p.declare_array("B", 2, 0);
        let half = ooc_linalg::Rational::new(1, 2);
        let zero_one = [ooc_linalg::Rational::ZERO, ooc_linalg::Rational::ONE];
        let halved = ArrayRef {
            array: b,
            access: Matrix::from_rationals(2, 2, [[half, half], zero_one].concat()),
            offset: vec![0, 0],
        };
        let s = Statement::assign(
            ArrayRef::new(a, &[vec![1, 0], vec![0, 1]], vec![0, 0]),
            Expr::Ref(halved),
        );
        p.add_nest(LoopNest::rectangular("n", 2, 1, 0, vec![s]));
        let opt = optimize_loop_only(&p, &OptimizeOptions::default(), None);
        let t = opt.transforms[0].inverse().expect("invertible");
        assert!(opt.transforms[0].is_unimodular());
        assert!(transformation_preserves(&t, &nest_dependences(&p.nests[0])));
    }

    #[test]
    fn combined_beats_single_technique_on_example() {
        use crate::cost::nest_cost;
        let p = paper_example();
        let params = [64];
        let copt = optimize(&p, &OptimizeOptions::default());
        let dopt = optimize_data_only(&p, &OptimizeOptions::default());
        let lopt = optimize_loop_only(&p, &OptimizeOptions::default(), None);
        let total = |o: &OptimizedProgram| -> f64 {
            o.program
                .nests
                .iter()
                .map(|n| nest_cost(n, &o.layouts, &params))
                .sum()
        };
        let c = total(&copt);
        let d = total(&dopt);
        let l = total(&lopt);
        assert!(c <= d, "c-opt {c} should beat d-opt {d}");
        assert!(c <= l, "c-opt {c} should beat l-opt {l}");
        // And on this program, strictly better than both (the paper's
        // motivating point: only the combined approach optimizes all four
        // references).
        assert!(c < d && c < l, "c={c} d={d} l={l}");
    }

    #[test]
    fn one_d_arrays_handled() {
        let mut p = Program::new(&["N"]);
        let a = p.declare_array("A", 1, 0);
        let b = p.declare_array("B", 2, 0);
        let s = Statement::assign(
            ArrayRef::new(a, &[vec![1, 0]], vec![0]),
            Expr::Ref(ArrayRef::new(b, &[vec![1, 0], vec![0, 1]], vec![0, 0])),
        );
        p.add_nest(LoopNest::rectangular("n", 2, 1, 0, vec![s]));
        let opt = optimize(&p, &OptimizeOptions::default());
        // B moves along dim 1 innermost: row-major. A is temporal in j.
        assert_eq!(opt.layouts[1], FileLayout::row_major(2));
        assert_eq!(opt.layouts[0].hyperplane(), None);
    }

    #[test]
    fn empty_and_degenerate_programs() {
        let p = Program::new(&["N"]);
        let opt = optimize(&p, &OptimizeOptions::default());
        assert!(opt.program.nests.is_empty());
        assert!(opt.layouts.is_empty());
    }

    /// The cost gate plans a non-rectangular nest on its bounding box:
    /// `do i = 1,N; do j = 1,i` costs what `do i = 1,N; do j = 1,N`
    /// costs, not what one column of it would.
    #[test]
    fn triangular_nest_costs_its_bounding_rectangle() {
        let p = paper_example();
        let opts = OptimizeOptions::default();
        let layouts = default_layouts(&p);
        let rect = p.nests[0].clone();
        let mut tri = rect.clone();
        let (i, j) = (
            ooc_linalg::Affine::var(2, 1, 0),
            ooc_linalg::Affine::var(2, 1, 1),
        );
        tri.bounds.add_ge0(i.sub(&j));
        let cost = |nest: &LoopNest| Pricer::new(&p, &opts).cost(nest, &layouts);
        assert!(cost(&rect) > 0.0);
        assert_eq!(cost(&tri), cost(&rect));
    }

    /// A candidate the planner cannot plan at the cost parameters is
    /// priced infinitely, not as free, and an empty one at nothing;
    /// the program total and the global search's per-nest price stay
    /// infinite, not NaN.
    #[test]
    fn an_unplannable_candidate_costs_infinity() {
        // X(4·i, j) over i up to 2^62: the regions leave i64.
        let mut p = Program::new(&["N"]);
        let x = p.declare_array("X", 2, 0);
        let far = ArrayRef::new(x, &[vec![4, 0], vec![0, 1]], vec![0, 0]);
        let zero = Statement::assign(far, Expr::Const(0.0));
        let mut nest = LoopNest::rectangular("far", 2, 1, 0, vec![zero]);
        nest.bounds = ooc_linalg::Polyhedron::universe(2, 1);
        nest.bounds.add_var_range(0, 1, i64::MAX / 2);
        nest.bounds.add_var_range(1, 1, 4);
        p.add_nest(nest.clone());
        let opts = OptimizeOptions::default();
        let layouts = default_layouts(&p);
        let mut pricer = Pricer::new(&p, &opts);
        assert_eq!(pricer.cost(&nest, &layouts), f64::INFINITY);
        let mut empty = nest.clone();
        empty.bounds.add_var_range(1, 5, 4);
        assert_eq!(pricer.cost(&empty, &layouts), 0.0);
        let (q, cost) = best_transform_for(&p, &nest, &layouts, &opts);
        assert_eq!((q, cost), (Matrix::identity(2), f64::INFINITY));
        let opt = OptimizedProgram {
            program: p.clone(),
            layouts,
            transforms: vec![Matrix::identity(2)],
            log: Vec::new(),
        };
        assert_eq!(modeled_program_cost(&p, &opt, &opts), f64::INFINITY);
    }
}
