//! The experiment runners behind the table harnesses.

use ooc_core::{simulate, ExecConfig};
use ooc_kernels::{all_kernels, compile, Kernel, Version};

/// One version's measurement within a kernel row.
#[derive(Debug, Clone)]
pub struct Table2Cell {
    /// Version label (`col`, `row`, ...).
    pub version: String,
    /// Simulated wall-clock seconds.
    pub seconds: f64,
    /// Total I/O calls.
    pub io_calls: u64,
    /// Total bytes moved.
    pub io_bytes: u64,
}

/// One kernel row of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Kernel name.
    pub kernel: String,
    /// Parameter values used.
    pub params: Vec<i64>,
    /// Per-version cells, in `Version::ALL` order.
    pub cells: Vec<Table2Cell>,
}

impl Table2Row {
    /// Execution time of the `col` baseline.
    #[must_use]
    pub fn col_seconds(&self) -> f64 {
        self.cells[0].seconds
    }

    /// A version's time as a percentage of `col` (the paper's format).
    #[must_use]
    pub fn percent_of_col(&self, idx: usize) -> f64 {
        100.0 * self.cells[idx].seconds / self.col_seconds()
    }
}

/// Scales a kernel's paper parameters by `1/scale` (min 8) — used to
/// run the tables quickly at reduced size.
#[must_use]
pub fn scaled_params(kernel: &Kernel, scale: i64) -> Vec<i64> {
    kernel
        .paper_params
        .iter()
        .map(|&n| (n / scale.max(1)).max(8))
        .collect()
}

/// Runs one kernel at one processor count across all six versions.
#[must_use]
pub fn table2_row(kernel: &Kernel, procs: usize, scale: i64) -> Table2Row {
    let params = scaled_params(kernel, scale);
    let cells: Vec<Table2Cell> = Version::ALL
        .iter()
        .map(|&v| {
            let cv = compile(kernel, v);
            let mut cfg = ExecConfig::new(params.clone(), procs);
            cfg.interleave = cv.interleave.clone();
            let r = simulate(&cv.tiled, &cfg);
            Table2Cell {
                version: v.label().to_string(),
                seconds: r.result.total_time,
                io_calls: r.io_calls,
                io_bytes: r.io_bytes,
            }
        })
        .collect();
    Table2Row {
        kernel: kernel.name.to_string(),
        params,
        cells,
    }
}

/// Regenerates Table 2: all ten kernels, six versions, 16 processors.
#[must_use]
pub fn run_table2(procs: usize, scale: i64) -> Vec<Table2Row> {
    all_kernels()
        .iter()
        .map(|k| table2_row(k, procs, scale))
        .collect()
}

/// One (kernel, version, procs) speedup entry of Table 3.
#[derive(Debug, Clone)]
pub struct Table3Entry {
    /// Kernel name.
    pub kernel: String,
    /// Version label.
    pub version: String,
    /// Processor count.
    pub procs: usize,
    /// Simulated seconds on `procs` processors.
    pub seconds: f64,
    /// Speedup relative to the same version on 1 processor
    /// (the paper's definition).
    pub speedup: f64,
}

/// Regenerates Table 3: speedups of every version of every kernel on
/// 16/32/64/128 processors versus its own single-node run.
#[must_use]
pub fn run_table3(scale: i64, proc_counts: &[usize]) -> Vec<Table3Entry> {
    let kernels = all_kernels();
    let work: Vec<(usize, Version)> = (0..kernels.len())
        .flat_map(|k| Version::ALL.iter().map(move |&v| (k, v)))
        .collect();
    work.iter()
        .flat_map(|&(ki, v)| {
            let k = &kernels[ki];
            let params = scaled_params(k, scale);
            let cv = compile(k, v);
            let time_at = |procs: usize| {
                let mut cfg = ExecConfig::new(params.clone(), procs);
                cfg.interleave = cv.interleave.clone();
                simulate(&cv.tiled, &cfg).result.total_time
            };
            let t1 = time_at(1);
            proc_counts
                .iter()
                .map(|&p| Table3Entry {
                    kernel: k.name.to_string(),
                    version: v.label().to_string(),
                    procs: p,
                    seconds: time_at(p),
                    speedup: t1 / time_at(p).max(f64::MIN_POSITIVE),
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooc_kernels::kernel_by_name;

    #[test]
    fn table2_row_has_six_cells() {
        let _no_sessions = ooc_trace::exclude_sessions();
        let k = kernel_by_name("trans").expect("kernel");
        let row = table2_row(&k, 4, 32);
        assert_eq!(row.cells.len(), 6);
        assert_eq!(row.cells[0].version, "col");
        assert!(row.col_seconds() > 0.0);
        assert!((row.percent_of_col(0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn scaled_params_floor() {
        let k = kernel_by_name("mat").expect("kernel");
        assert_eq!(scaled_params(&k, 4), vec![1024]);
        assert_eq!(scaled_params(&k, 1_000_000), vec![8]);
    }

    #[test]
    fn table3_speedup_definition() {
        let _no_sessions = ooc_trace::exclude_sessions();
        let k = kernel_by_name("trans").expect("kernel");
        let params = scaled_params(&k, 32);
        let cv = compile(&k, Version::DOpt);
        let t1 = simulate(&cv.tiled, &ExecConfig::new(params.clone(), 1))
            .result
            .total_time;
        let t4 = simulate(&cv.tiled, &ExecConfig::new(params, 4))
            .result
            .total_time;
        assert!(t4 < t1, "more processors must not be slower: {t4} vs {t1}");
    }
}
