//! Step (2) of the paper: the interference graph and its connected
//! components.
//!
//! The interference graph is bipartite — loop-nest nodes on one side,
//! array nodes on the other, with an edge whenever a nest references
//! an array. Connected components access disjoint array sets, so the
//! optimizer (Step 3) runs on one component at a time: a layout
//! decision made in one component can never affect another.

use ooc_ir::{ArrayId, NestId, Program};
use std::collections::BTreeSet;

/// One connected component of the interference graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// Nests in the component, in program order.
    pub nests: Vec<NestId>,
    /// Arrays referenced by those nests.
    pub arrays: Vec<ArrayId>,
}

/// The bipartite interference graph.
#[derive(Debug, Clone)]
pub struct InterferenceGraph {
    /// `edges[n]` = arrays referenced by nest `n`.
    edges: Vec<Vec<ArrayId>>,
    n_arrays: usize,
}

impl InterferenceGraph {
    /// Builds the graph of a normalized program.
    #[must_use]
    pub fn build(prog: &Program) -> Self {
        InterferenceGraph {
            edges: prog.nests.iter().map(ooc_ir::LoopNest::arrays).collect(),
            n_arrays: prog.arrays.len(),
        }
    }

    /// Connected components, each with nests in program order.
    ///
    /// Union-find over `nests + arrays`; arrays never referenced by any
    /// nest form no component (they are dead and need no layout).
    #[must_use]
    pub fn connected_components(&self) -> Vec<Component> {
        let n_nests = self.edges.len();
        let mut parent: Vec<usize> = (0..n_nests + self.n_arrays).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        for (n, arrays) in self.edges.iter().enumerate() {
            for a in arrays {
                let ra = find(&mut parent, n_nests + a.0);
                let rn = find(&mut parent, n);
                if ra != rn {
                    parent[ra] = rn;
                }
            }
        }
        // Group by root, ordered by first nest appearance.
        let mut roots: Vec<usize> = Vec::new();
        let mut components: Vec<(Vec<NestId>, BTreeSet<ArrayId>)> = Vec::new();
        for n in 0..n_nests {
            let r = find(&mut parent, n);
            let idx = match roots.iter().position(|&x| x == r) {
                Some(i) => i,
                None => {
                    roots.push(r);
                    components.push((Vec::new(), BTreeSet::new()));
                    roots.len() - 1
                }
            };
            components[idx].0.push(NestId(n));
            components[idx].1.extend(self.edges[n].iter().copied());
        }
        components
            .into_iter()
            .map(|(nests, arrays)| Component {
                nests,
                arrays: arrays.into_iter().collect(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooc_ir::{ArrayRef, Expr, LoopNest, Program, Statement};

    fn nest_over(prog: &mut Program, name: &str, arrays: &[ArrayId]) -> NestId {
        // A statement writing the first array and reading the rest.
        let mk = |a: ArrayId| ArrayRef::new(a, &[vec![1, 0], vec![0, 1]], vec![0, 0]);
        let mut rhs = Expr::Const(1.0);
        for a in &arrays[1..] {
            rhs = Expr::Add(Box::new(rhs), Box::new(Expr::Ref(mk(*a))));
        }
        let stmt = Statement::assign(mk(arrays[0]), rhs);
        prog.add_nest(LoopNest::rectangular(name, 2, 1, 0, vec![stmt]))
    }

    /// The paper's Figure 1: nests over {U,V}, {V,W}, {X}, {X,Y} split
    /// into two components {n0,n1 | U,V,W} and {n2,n3 | X,Y}.
    #[test]
    fn figure1_components() {
        let mut p = Program::new(&["N"]);
        let u = p.declare_array("U", 2, 0);
        let v = p.declare_array("V", 2, 0);
        let w = p.declare_array("W", 2, 0);
        let x = p.declare_array("X", 2, 0);
        let y = p.declare_array("Y", 2, 0);
        let n0 = nest_over(&mut p, "n0", &[u, v]);
        let n1 = nest_over(&mut p, "n1", &[v, w]);
        let n2 = nest_over(&mut p, "n2", &[x]);
        let n3 = nest_over(&mut p, "n3", &[x, y]);

        let g = InterferenceGraph::build(&p);
        assert!(g.edges[n0.0].contains(&u));
        assert!(g.edges[n0.0].contains(&v));
        assert!(!g.edges[n0.0].contains(&w));

        let comps = g.connected_components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].nests, vec![n0, n1]);
        assert_eq!(comps[0].arrays, vec![u, v, w]);
        assert_eq!(comps[1].nests, vec![n2, n3]);
        assert_eq!(comps[1].arrays, vec![x, y]);
    }

    #[test]
    fn single_component_chain() {
        let mut p = Program::new(&["N"]);
        let a = p.declare_array("A", 2, 0);
        let b = p.declare_array("B", 2, 0);
        let c = p.declare_array("C", 2, 0);
        nest_over(&mut p, "n0", &[a, b]);
        nest_over(&mut p, "n1", &[b, c]);
        nest_over(&mut p, "n2", &[c, a]);
        let comps = InterferenceGraph::build(&p).connected_components();
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].nests.len(), 3);
        assert_eq!(comps[0].arrays.len(), 3);
    }

    #[test]
    fn fully_disjoint_nests() {
        let mut p = Program::new(&["N"]);
        let ids: Vec<ArrayId> = (0..4)
            .map(|i| p.declare_array(&format!("A{i}"), 2, 0))
            .collect();
        for (i, a) in ids.iter().enumerate() {
            nest_over(&mut p, &format!("n{i}"), &[*a]);
        }
        let comps = InterferenceGraph::build(&p).connected_components();
        assert_eq!(comps.len(), 4);
        for c in comps {
            assert_eq!(c.nests.len(), 1);
            assert_eq!(c.arrays.len(), 1);
        }
    }

    #[test]
    fn empty_program() {
        let p = Program::new(&["N"]);
        let comps = InterferenceGraph::build(&p).connected_components();
        assert!(comps.is_empty());
    }
}
