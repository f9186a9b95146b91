//! End-to-end and per-layer benchmark of the ORAQL probing driver.
//!
//! Three workloads (`paper_cold`, `gen_j2`, `served_warm`; see
//! `README.md` beside this crate) are driven through the repository's
//! crates, used as libraries. An untraced run reports the end-to-end
//! metrics; a traced run splits each round's time by layer, timing the
//! calls into each layer's public functions from this crate.

pub mod layers;
pub mod pace;
pub mod run;
pub mod stats;
pub mod suite;
