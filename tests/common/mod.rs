//! The random-nest generator shared by the suites that stress what
//! the ten kernels do not (`tile_kernel`, `plan_search`).

use ooc_opt::core::ref_region;
use ooc_opt::ir::{ArrayId, ArrayRef, DimSize, Expr, Guard, GuardAt, LoopNest, Program, Statement};
use ooc_opt::linalg::{Affine, Polyhedron};
use ooc_opt::runtime::FileLayout;

/// A stream of small choices drawn from a generated pool.
pub struct Pool<'a>(pub std::slice::Iter<'a, u32>);

impl Pool<'_> {
    pub fn below(&mut self, n: u32) -> u32 {
        self.0.next().copied().unwrap_or(0) % n
    }

    pub fn coin(&mut self) -> bool {
        self.below(2) == 1
    }

    /// A value in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + i64::from(self.below(u32::try_from(hi - lo + 1).expect("small range")))
    }
}

/// One random nest over four arrays: `R0`, `R1` are only read, `W0`,
/// `W1` are written.
///
/// * statement 1 writes `W0` from `R0`, a halo neighbour of the same
///   `R0` class, `R1`, and — on a coin — `W0` itself through a second
///   access class, which puts `W0` in hull mode; on another coin it is
///   an accumulation `W0 = W0 op x` whose `W0` the innermost level does
///   not move, a fold unless something else names `W0`;
/// * statement 2 (on a coin) writes `W1` from the element statement 1
///   has just written in the same iteration;
/// * statement 3 (on a coin) resets `W1` under one or two guards, on
///   any level.
///
/// Level extents are drawn from `3..=max_extent`, access entries from
/// −2..=2; each (array, access class) is then shifted so its
/// subscripts start at 1 over the bounding box, and the arrays are
/// sized to what the references reach. The layouts are a coin per
/// array between row- and column-major.
pub fn random_nest(pool: &mut Pool<'_>, max_extent: i64) -> (Program, Vec<FileLayout>) {
    let depth = pool.range(1, 3) as usize;
    let extents: Vec<i64> = (0..depth).map(|_| pool.range(3, max_extent)).collect();
    let mut bounds = Polyhedron::universe(depth, 0);
    for (l, &n) in extents.iter().enumerate() {
        bounds.add_var_range(l, 1, n);
    }
    for l in 1..depth {
        // Triangular: level l bounded by level l-1, from either side.
        let (outer, inner) = (Affine::var(depth, 0, l - 1), Affine::var(depth, 0, l));
        match pool.below(4) {
            0 => bounds.add_ge0(outer.sub(&inner)),
            1 => bounds.add_ge0(inner.sub(&outer)),
            _ => {}
        }
    }

    let ranks: Vec<usize> = (0..4).map(|_| pool.range(1, 2) as usize).collect();
    let (r0, r1, w0, w1) = (ArrayId(0), ArrayId(1), ArrayId(2), ArrayId(3));
    let rows = |pool: &mut Pool<'_>, a: ArrayId| -> Vec<Vec<i64>> {
        (0..ranks[a.0])
            .map(|_| (0..depth).map(|_| pool.range(-2, 2)).collect())
            .collect()
    };
    let zero = |a: ArrayId| vec![0i64; ranks[a.0]];
    let halo = |pool: &mut Pool<'_>, a: ArrayId| -> Vec<i64> {
        (0..ranks[a.0]).map(|_| pool.range(-1, 1)).collect()
    };

    // Raw references, offsets relative to their class; fixed up below.
    let r0_class = rows(pool, r0);
    let mut w0_class = rows(pool, w0);
    let accumulate = pool.coin();
    if accumulate {
        for row in &mut w0_class {
            row[depth - 1] = 0;
        }
    }
    let mut refs = vec![
        ArrayRef::new(w0, &w0_class, zero(w0)),       // 0: stmt 1 lhs
        ArrayRef::new(r0, &r0_class, zero(r0)),       // 1
        ArrayRef::new(r0, &r0_class, halo(pool, r0)), // 2: same class, halo
        ArrayRef::new(r1, &rows(pool, r1), zero(r1)), // 3
        ArrayRef::new(w0, &rows(pool, w0), zero(w0)), // 4: second class of W0
        ArrayRef::new(w1, &rows(pool, w1), zero(w1)), // 5: stmt 2 / 3 lhs
    ];
    let lo = vec![1i64; depth];
    let mut dims: Vec<Vec<i64>> = ranks.iter().map(|&r| vec![1; r]).collect();
    for i in 0..refs.len() {
        // Shift the whole class by what its lowest member needs.
        let class: Vec<usize> = (0..refs.len())
            .filter(|&j| refs[j].array == refs[i].array && refs[j].access == refs[i].access)
            .collect();
        if class[0] != i {
            continue;
        }
        for d in 0..refs[i].rank() {
            let min = class
                .iter()
                .map(|&j| ref_region(&refs[j], &lo, &extents).lo[d])
                .min()
                .expect("a class has a member");
            for &j in &class {
                refs[j].offset[d] += 1 - min;
            }
        }
    }
    for r in &refs {
        let region = ref_region(r, &lo, &extents);
        for (dim, &hi) in dims[r.array.0].iter_mut().zip(&region.hi) {
            *dim = (*dim).max(hi);
        }
    }

    let read = |i: usize| Box::new(Expr::Ref(refs[i].clone()));
    let binary = |pool: &mut Pool<'_>, a: Box<Expr>, b: Box<Expr>| match pool.below(4) {
        0 => Expr::Add(a, b),
        1 => Expr::Sub(a, b),
        2 => Expr::Mul(a, b),
        _ => Expr::Div(a, b),
    };
    let mut rhs = binary(pool, read(1), read(2));
    rhs = binary(pool, Box::new(rhs), read(3));
    if pool.coin() {
        // Right-nested on purpose: the tape must keep operand order.
        rhs = binary(pool, read(4), Box::new(rhs));
    }
    if accumulate {
        rhs = binary(pool, read(0), Box::new(rhs));
    }
    let mut body = vec![Statement::assign(refs[0].clone(), rhs)];
    if pool.coin() {
        let rhs = binary(pool, read(0), Box::new(Expr::Const(1.25)));
        body.push(Statement::assign(refs[5].clone(), rhs));
    }
    if pool.coin() {
        let mut guards = Vec::new();
        for _ in 0..pool.range(1, 2) {
            guards.push(Guard {
                var: pool.below(depth as u32) as usize,
                at: if pool.coin() {
                    GuardAt::LowerBound
                } else {
                    GuardAt::UpperBound
                },
            });
        }
        body.push(Statement {
            lhs: refs[5].clone(),
            rhs: Expr::Const(-3.5),
            guards,
        });
    }

    let mut prog = Program::new(&[]);
    for (a, d) in dims.iter().enumerate() {
        let name = ["R0", "R1", "W0", "W1"][a];
        prog.declare_array_dims(name, d.iter().map(|&n| DimSize::Const(n)).collect());
    }
    prog.add_nest(LoopNest {
        name: "random".into(),
        depth,
        bounds,
        body,
        iterations: pool.range(1, 2) as u32,
    });
    let layouts = ranks
        .iter()
        .map(|&r| {
            if pool.coin() {
                FileLayout::row_major(r)
            } else {
                FileLayout::col_major(r)
            }
        })
        .collect();
    (prog, layouts)
}
