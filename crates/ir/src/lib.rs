//! # oraql-ir — a typed SSA intermediate representation
//!
//! This crate is the substrate that stands in for LLVM IR in the ORAQL
//! reproduction. It provides:
//!
//! * a small, typed, SSA-form instruction set with opaque pointers
//!   ([`Inst`], [`Ty`], [`Value`]),
//! * functions, basic blocks and modules stored in index arenas
//!   ([`Function`], [`Module`]),
//! * the metadata alias analyses feed on: TBAA type tags, `noalias`
//!   parameter attributes, alias scopes and source locations
//!   ([`meta`]),
//! * a builder API ([`builder::FunctionBuilder`]), a textual printer
//!   ([`printer`]), a structural verifier ([`verify`]), CFG
//!   utilities ([`mod@cfg`]) and the hasher of the compiler's
//!   in-memory, id-keyed maps ([`hash`]).
//!
//! The design deliberately mirrors the parts of LLVM that matter for the
//! paper: memory is byte addressed, pointers are untyped, and every load
//! and store carries an access type plus optional TBAA/scope metadata, so
//! that the alias-analysis stack in `oraql-analysis` can reproduce the
//! query protocol that the ORAQL pass participates in.
//!
//! ## Quick example
//!
//! ```
//! use oraql_ir::builder::FunctionBuilder;
//! use oraql_ir::{Module, Ty, Value};
//!
//! let mut m = Module::new("demo");
//! let mut b = FunctionBuilder::new(&mut m, "sum", vec![Ty::Ptr, Ty::I64], Some(Ty::I64));
//! let ptr = b.arg(0);
//! let n = b.arg(1);
//! // ... build a loop summing n i64s starting at ptr ...
//! let first = b.load(Ty::I64, ptr);
//! b.ret(Some(first));
//! let f = b.finish();
//! assert!(oraql_ir::verify::verify_function(&m, f).is_ok());
//! ```

pub mod builder;
pub mod cfg;
pub mod hash;
pub mod inst;
pub mod interner;
pub mod meta;
pub mod module;
pub mod printer;
pub mod types;
pub mod value;
pub mod verify;

pub use hash::{FxHashMap, FxHashSet};
pub use inst::{BinOp, CallKind, CastKind, CmpPred, FuncRef, GepOffset, Inst, InstData, InstId};
pub use interner::{StrId, StringInterner};
pub use meta::{AccessMeta, ScopeId, SrcLoc, Target, TbaaTag, TbaaTree};
pub use module::{Function, FunctionId, Global, GlobalId, Module, Param};
pub use types::Ty;
pub use value::{BlockId, Value};
