//! # oraql-passes — AA-consuming transformation passes
//!
//! The optimization pipeline whose effectiveness depends on alias
//! information, mirroring the passes the ORAQL paper instruments:
//!
//! | pass | paper statistic (Fig. 6) |
//! |---|---|
//! | [`earlycse::EarlyCSE`] | `# instructions eliminated` |
//! | [`gvn::Gvn`] | `# loads deleted` |
//! | [`dse::Dse`] | `# stores deleted` |
//! | [`dce::Dce`] | (cleanup: removes orphaned pure instructions) |
//! | [`licm::Licm`] | `# loads hoisted or sunk` |
//! | [`loopdel::LoopDeletion`] | `# deleted loops` |
//! | [`loopvec::LoopVectorize`] | `# vectorized loops` |
//! | [`slp::SlpVectorize`] | `# vector instructions generated` |
//! | [`memcpyopt::MemCpyOpt`] | `# memcpys optimized` |
//! | [`sink::MachineSink`] | `# instructions sunk` |
//! | [`memssa_prime::MemorySsaPrime`] | (analysis: primes MemorySSA walks) |
//!
//! Every pass issues its alias queries through the shared
//! [`oraql_analysis::AAManager`], with `current_pass` set so queries can
//! be attributed to their issuer (paper §IV-D / Fig. 3). The machine-level
//! statistics (`asm printer`, `register allocation`) come from
//! `oraql-vm::machine` after the pipeline runs.

pub mod dce;
pub mod dse;
pub mod earlycse;
pub mod gvn;
pub mod licm;
pub mod loopdel;
pub mod loopvec;
pub mod manager;
pub mod memcpyopt;
pub mod memssa_prime;
pub mod sink;
pub mod slp;
pub mod stats;

pub use manager::{standard_passes, standard_pipeline, Pass, PassCx, PassManager};
pub use stats::Stats;
