//! The paper's future work, §5: globally optimal file layouts.
//!
//! The greedy algorithm fixes layouts nest by nest in cost order; on
//! codes like `adi` — three sweeps over the same arrays in different
//! directions — an early layout decision can strand a later nest (see
//! the `adi d-opt` row in `EXPERIMENTS.md`). The exact search
//! enumerates joint layout assignments with branch-and-bound, giving
//! each nest its best legal transformation per assignment.
//!
//! ```sh
//! cargo run --release --example global_layouts
//! ```

use ooc_opt::core::{
    modeled_program_cost, optimize, optimize_global, simulate, ExecConfig, GlobalOptions,
    OptimizeOptions, TiledProgram, TilingStrategy,
};
use ooc_opt::kernels::kernel_by_name;

fn main() {
    for name in ["adi", "gfunp", "trans", "mat"] {
        let k = kernel_by_name(name).expect("kernel");
        let opts = OptimizeOptions {
            cost_params: k.paper_params.clone(),
        };
        let gopts = GlobalOptions {
            opts: opts.clone(),
            ..Default::default()
        };

        let greedy = optimize(&k.program, &opts);
        let global = optimize_global(&k.program, &gopts);
        let g_cost = modeled_program_cost(&k.program, &greedy, &opts);

        println!("== {name}");
        println!(
            "   greedy (paper §3) modeled cost: {g_cost:.3};  global search: {:.3} \
             ({} assignments{})",
            global.modeled_cost,
            global.assignments_searched,
            if global.fell_back {
                ", fell back to greedy"
            } else {
                ""
            },
        );

        // Simulate both at a reduced scale on 16 processors.
        let params: Vec<i64> = k.paper_params.iter().map(|&n| (n / 4).max(8)).collect();
        let cfg = ExecConfig::new(params, 16);
        let t_greedy = simulate(
            &TiledProgram::from_optimized(&greedy, TilingStrategy::OutOfCore),
            &cfg,
        )
        .result
        .total_time;
        let t_global = simulate(
            &TiledProgram::from_optimized(&global.optimized, TilingStrategy::OutOfCore),
            &cfg,
        )
        .result
        .total_time;
        println!(
            "   simulated (1/4 scale, 16 procs): greedy {t_greedy:.1} s, global {t_global:.1} s"
        );
        if !global.fell_back {
            for (a, (gl, ol)) in global
                .optimized
                .layouts
                .iter()
                .zip(&greedy.layouts)
                .enumerate()
            {
                if gl != ol {
                    println!(
                        "   layout change: {:6} {ol:?} -> {gl:?}",
                        k.program.arrays[a].name
                    );
                }
            }
        }
        println!();
    }
}
