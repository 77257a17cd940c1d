//! Optimization reports: a structured before/after account of every
//! reference's locality, in the spirit of a compiler's optimization
//! remarks.
//!
//! For each nest the report lists each reference's innermost-loop
//! locality under the original program with default layouts versus
//! the optimized program with its chosen layouts — making the paper's
//! "how many references did each technique fix" argument (§3.1)
//! mechanically checkable.

use crate::cost::default_layouts;
use crate::exec::FunctionalRun;
use crate::locality::{locality_under, movement_i64, Locality};
use crate::optimizer::OptimizedProgram;
use ooc_ir::Program;
use ooc_runtime::MeasuredIo;
use std::fmt;

/// Locality of one reference, before and after optimization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefReport {
    /// Array name.
    pub array: String,
    /// Locality in the original nest under default (column-major)
    /// layouts.
    pub before: Locality,
    /// Locality in the transformed nest under the chosen layouts.
    pub after: Locality,
}

/// Report for one nest.
#[derive(Debug, Clone)]
pub struct NestReport {
    /// Nest name.
    pub nest: String,
    /// Whether a loop transformation was applied.
    pub transformed: bool,
    /// Per-reference locality changes (write first, then reads, per
    /// statement).
    pub refs: Vec<RefReport>,
}

impl NestReport {
    /// References with good (temporal or stride-1) locality, before.
    #[must_use]
    fn good_before(&self) -> usize {
        self.refs.iter().filter(|r| is_good(r.before)).count()
    }

    /// References with good locality after optimization.
    #[must_use]
    fn good_after(&self) -> usize {
        self.refs.iter().filter(|r| is_good(r.after)).count()
    }
}

fn is_good(l: Locality) -> bool {
    matches!(l, Locality::Temporal | Locality::Spatial(1))
}

/// The whole program's report.
#[derive(Debug, Clone)]
pub struct OptimizationReport {
    /// Per-nest reports, in program order.
    pub nests: Vec<NestReport>,
}

impl OptimizationReport {
    /// Total references with good locality before / after.
    #[must_use]
    pub fn totals(&self) -> (usize, usize, usize) {
        let total = self.nests.iter().map(|n| n.refs.len()).sum();
        let before = self.nests.iter().map(NestReport::good_before).sum();
        let after = self.nests.iter().map(NestReport::good_after).sum();
        (before, after, total)
    }
}

impl fmt::Display for OptimizationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (before, after, total) = self.totals();
        writeln!(
            f,
            "optimization report: {before}/{total} references had innermost locality; \
             now {after}/{total}"
        )?;
        for n in &self.nests {
            writeln!(
                f,
                "  {} ({}): {} -> {} of {}",
                n.nest,
                if n.transformed {
                    "transformed"
                } else {
                    "loops kept"
                },
                n.good_before(),
                n.good_after(),
                n.refs.len()
            )?;
            for r in &n.refs {
                writeln!(f, "    {:6} {:?} -> {:?}", r.array, r.before, r.after)?;
            }
        }
        Ok(())
    }
}

/// Side-by-side analytic vs measured I/O of one program version.
///
/// The *analytic* counters come from the runtime's run accounting
/// (contiguous runs split by the call-size cap); the *measured*
/// counters are what an instrumented store actually observed. The two
/// agree when the run model is exact; divergence localizes modeling
/// bugs.
#[derive(Debug, Clone, PartialEq)]
pub struct IoComparison {
    /// Version label (e.g. `c-opt`).
    pub label: String,
    /// Analytic I/O calls (tile accounting).
    pub analytic_calls: u64,
    /// Analytic bytes moved.
    pub analytic_bytes: u64,
    /// Transient store failures recovered by the retry policy
    /// (`IoStats.retries` summed across arrays).
    pub retries: u64,
    /// Store-level observation.
    pub measured: MeasuredIo,
}

impl IoComparison {
    /// Extracts the comparison from a functional run; `None` when no
    /// store in the run was instrumented.
    #[must_use]
    pub fn from_run(label: &str, run: &FunctionalRun) -> Option<Self> {
        let stats = run.total_stats();
        run.total_measured().map(|measured| IoComparison {
            label: label.to_string(),
            analytic_calls: stats.total_calls(),
            analytic_bytes: stats.total_bytes(),
            retries: stats.retries,
            measured,
        })
    }
}

impl fmt::Display for IoComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: analytic {} calls / {} B; measured {} calls / {} B, \
             {} seeks ({} elems apart), mean run {:.1}",
            self.label,
            self.analytic_calls,
            self.analytic_bytes,
            self.measured.total_calls(),
            self.measured.total_elems() * ooc_runtime::ELEM_BYTES,
            self.measured.seeks,
            self.measured.seek_elems,
            self.measured.mean_run_len()
        )?;
        // Fault-injected runs: show recovery work next to the traffic
        // it caused, so retry storms are visible in inspect output.
        if self.retries > 0 || self.measured.failed_calls > 0 {
            write!(
                f,
                "; {} faults, {} retries",
                self.measured.failed_calls, self.retries
            )?;
        }
        Ok(())
    }
}

/// Builds the report comparing `original` (default layouts) with the
/// optimizer's output.
///
/// # Panics
/// Panics if the programs' nest structures disagree (they come from
/// the same optimization run by construction).
#[must_use]
pub fn optimization_report(original: &Program, opt: &OptimizedProgram) -> OptimizationReport {
    let defaults = default_layouts(original);
    assert_eq!(original.nests.len(), opt.program.nests.len());
    let mut nests = Vec::with_capacity(original.nests.len());
    for (i, (before_nest, after_nest)) in original.nests.iter().zip(&opt.program.nests).enumerate()
    {
        let depth = before_nest.depth;
        let mut ek = vec![0i64; depth];
        if depth > 0 {
            ek[depth - 1] = 1;
        }
        let before_refs = before_nest.all_refs();
        let after_refs = after_nest.all_refs();
        assert_eq!(before_refs.len(), after_refs.len());
        let refs = before_refs
            .iter()
            .zip(&after_refs)
            .map(|(b, a)| {
                let ub = movement_i64(&b.access, &ek).expect("integer movement");
                let ua = movement_i64(&a.access, &ek).expect("integer movement");
                RefReport {
                    array: original.arrays[b.array.0].name.clone(),
                    before: locality_under(&defaults[b.array.0], &ub),
                    after: locality_under(&opt.layouts[a.array.0], &ua),
                }
            })
            .collect();
        nests.push(NestReport {
            nest: before_nest.name.clone(),
            transformed: opt.transforms[i] != ooc_linalg::Matrix::identity(depth),
            refs,
        });
    }
    OptimizationReport { nests }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{optimize, optimize_data_only, optimize_loop_only, OptimizeOptions};
    use ooc_ir::ProgramBuilder;

    fn worked_example() -> Program {
        let mut b = ProgramBuilder::new(&["N"]);
        let u = b.array("U", 2);
        let v = b.array("V", 2);
        let w = b.array("W", 2);
        b.nest("nest1", &["i", "j"], |n| {
            n.assign(u, &["i", "j"], n.read(v, &["j", "i"]).plus(1.0));
        });
        b.nest("nest2", &["i", "j"], |n| {
            n.assign(v, &["i", "j"], n.read(w, &["j", "i"]).plus(2.0));
        });
        b.build()
    }

    /// §3.1's exact claim: col optimizes 2 of 4 references, loop-only
    /// and data-only each reach 3, combined reaches all 4.
    #[test]
    fn paper_section31_reference_counts() {
        let p = worked_example();
        let opts = OptimizeOptions::default();

        let c = optimization_report(&p, &optimize(&p, &opts));
        assert_eq!(c.totals(), (2, 4, 4), "combined fixes all four");

        let d = optimization_report(&p, &optimize_data_only(&p, &opts));
        assert_eq!(d.totals().1, 3, "data-only leaves one reference");

        let l = optimization_report(&p, &optimize_loop_only(&p, &opts, None));
        assert!(
            l.totals().1 <= 3,
            "loop-only cannot fix all four: {:?}",
            l.totals()
        );
    }

    #[test]
    fn report_displays() {
        let p = worked_example();
        let rep = optimization_report(&p, &optimize(&p, &OptimizeOptions::default()));
        let text = rep.to_string();
        assert!(text.contains("optimization report: 2/4"));
        assert!(text.contains("nest2 (transformed)"));
        assert!(text.contains("U "));
    }

    #[test]
    fn transformed_flag_tracks_transforms() {
        let p = worked_example();
        let rep = optimization_report(&p, &optimize(&p, &OptimizeOptions::default()));
        assert!(!rep.nests[0].transformed, "nest 1 untouched");
        assert!(rep.nests[1].transformed, "nest 2 interchanged");
    }
}
