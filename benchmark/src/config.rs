//! Workload sizes. They are fixed here, not on the command line: a
//! change to a size is a change to the benchmark and needs its own
//! baseline.

/// Every size the workloads and the traced pass use.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// `mxm_sync_mem`: matrix extent.
    pub mxm_n: i64,
    /// `trans_stage_*`: matrix extent of the replayed schedule.
    pub stage_n: i64,
    /// `trans_stage_*`: extent at which the replay's `IoStats` are
    /// checked against `run_functional_on` during set-up. The full
    /// extent would cost a 4 s interpreter run per variant.
    pub stage_check_n: i64,
    /// `trans_stage_crc`: elements per CRC sidecar chunk.
    pub crc_chunk_elems: u64,
    /// `trans_par_striped`: matrix extent.
    pub par_n: i64,
    /// `trans_par_striped`: I/O nodes of the striped store.
    pub par_nodes: usize,
    /// `trans_par_striped`: prefetch depth per shard.
    pub par_depth: usize,
    /// Overhead section (durable, ledger, trace): `trans` extent.
    pub overhead_n: i64,
    /// Memory is total data / this (the paper uses 128; 16 keeps the
    /// tiles large enough to cross stripes at these extents).
    pub memory_fraction: u64,
    /// `compile_all`: the kernels compiled; `None` is all ten.
    pub compile_kernels: Option<&'static [&'static str]>,
    /// `compile_all`: the modelled run is paper size / this.
    pub sim_scale: i64,
    /// `compile_all`: processors of the modelled run.
    pub sim_procs: usize,
    /// Repetitions per variant a run measures at least, however short
    /// `--seconds` is.
    pub min_reps: usize,
    /// How many times a run sets up; `setup_s` is the median.
    pub setups: usize,
}

impl Sizes {
    /// The sizes `BENCHMARK.json`'s baselines are measured at.
    #[must_use]
    pub fn full() -> Self {
        Sizes {
            mxm_n: 40,
            stage_n: 1024,
            stage_check_n: 128,
            crc_chunk_elems: 512,
            par_n: 512,
            par_nodes: 4,
            par_depth: 4,
            overhead_n: 256,
            memory_fraction: 16,
            compile_kernels: None,
            sim_scale: 32,
            sim_procs: 16,
            min_reps: 7,
            setups: 3,
        }
    }

    /// Toy sizes for the smoke test: every code path, no statistics.
    #[must_use]
    pub fn toy() -> Self {
        Sizes {
            mxm_n: 8,
            stage_n: 16,
            stage_check_n: 8,
            crc_chunk_elems: 16,
            par_n: 16,
            par_nodes: 4,
            par_depth: 2,
            overhead_n: 8,
            memory_fraction: 16,
            compile_kernels: Some(&["htribk", "gfunp", "trans"]),
            sim_scale: 512,
            sim_procs: 2,
            min_reps: 1,
            setups: 1,
        }
    }
}
