//! # lakeroad-suite
//!
//! Workspace-root convenience crate: re-exports the public API of every crate in the
//! Lakeroad reproduction so the runnable examples (`examples/`) and the cross-crate
//! integration tests (`tests/`) have a single import point.
//!
//! The interesting code lives in the member crates:
//!
//! * [`lakeroad`] — the technology mapper itself (`map_design`, `map_verilog`,
//!   microbenchmark suites, reporting).
//! * [`lr_serve`] — the batch mapping engine: content-addressed synthesis
//!   cache and batch scheduler.
//! * [`lr_sketch`] — architecture-independent sketch templates.
//! * [`lr_arch`] — architecture descriptions and primitive semantics.
//! * [`lr_synth`] — the CEGIS synthesis engine and solver portfolio.
//! * [`lr_ir`] — the ℒlr intermediate language.
//! * [`lr_hdl`] — the behavioral mini-Verilog frontend and structural emitter.
//! * [`lr_smt`] / `lr_sat` / [`lr_bv`] — the QF_BV and SAT substrates.

pub use lakeroad;
pub use lr_arch;
pub use lr_baselines;
pub use lr_bv;
pub use lr_hdl;
pub use lr_ir;
pub use lr_serve;
pub use lr_sketch;
pub use lr_smt;
pub use lr_synth;

/// A prelude with the items most examples need.
pub mod prelude {
    pub use lakeroad::{map_design, map_verilog, MapConfig, MapOutcome, Resources, Template};
    pub use lr_arch::{ArchName, Architecture};
    pub use lr_bv::BitVec;
    pub use lr_ir::{BvOp, Prog, ProgBuilder, StreamInputs};
    pub use lr_serve::{run_batch, BatchJob, BatchOptions, SynthCache, TemplateChoice};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_reexports_compile() {
        use crate::prelude::*;
        let arch = Architecture::sofa();
        assert_eq!(arch.name(), ArchName::Sofa);
        let _ = BitVec::from_u64(1, 1);
    }
}
