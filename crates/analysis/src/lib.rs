//! # oraql-analysis — the alias-analysis stack and supporting analyses
//!
//! Reproduces the part of LLVM's analysis infrastructure that the ORAQL
//! paper builds on:
//!
//! * [`location::MemoryLocation`] / [`location::LocationSize`] — what an
//!   alias query is about (pointer + size + access metadata),
//! * [`aa::AliasAnalysis`] / [`aa::AAManager`] — a *chain* of analyses
//!   queried lazily; the first definite (`NoAlias`/`MustAlias`) answer
//!   wins and `MayAlias` is the pessimistic fallback (paper §III),
//! * the conservative analyses: [`basic::BasicAA`], [`tbaa::TypeBasedAA`],
//!   [`scoped::ScopedNoAliasAA`], [`globals::GlobalsAA`],
//!   [`steens::SteensgaardAA`] and [`andersen::AndersenAA`] — mirroring
//!   LLVM 14's `{Basic, TypeBased, ScopedNoAlias, Globals, CFLSteens,
//!   CFLAnders}AA`,
//! * structural analyses shared by the transformation passes:
//!   [`domtree::DomTree`], [`loops::LoopForest`] and
//!   [`memssa::MemorySsa`], over the CFG facts
//!   ([`facts::CfgFacts`]) that [`facts::FunctionFacts`] keeps across
//!   the passes of a pipeline run.
//!
//! The ORAQL pass itself lives in the `oraql` crate and implements
//! [`aa::AliasAnalysis`]; the driver appends it at the *end* of the chain
//! so it only sees queries every conservative analysis gave up on.

pub mod aa;
pub mod aaeval;
pub mod andersen;
pub mod basic;
pub mod constraints;
pub mod domtree;
pub mod facts;
pub mod globals;
pub mod location;
pub mod loops;
pub mod memssa;
pub mod pointer;
pub mod scoped;
pub mod steens;
pub mod tbaa;

pub use aa::{AAManager, AliasAnalysis, QueryCtx};
pub use location::{AliasResult, LocationSize, MemoryLocation};
