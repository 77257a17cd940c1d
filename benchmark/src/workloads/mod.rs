//! The five workloads. Each module's docs say why it was chosen and
//! which layer it isolates.

pub mod compile_all;
pub mod mxm_sync_mem;
pub mod trans_par_striped;
pub mod trans_stage;
