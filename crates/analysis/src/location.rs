//! Memory locations, location sizes and alias results — the vocabulary
//! of an alias query.

use oraql_ir::inst::{Inst, InstId};
use oraql_ir::meta::{ScopeId, TbaaTag};
use oraql_ir::module::Function;
use oraql_ir::value::Value;

/// How much memory, starting at the pointer, a query is about.
///
/// Mirrors LLVM's `LocationSize`: most queries are about a precise access
/// width; queries issued for whole objects or imprecise accesses use
/// `BeforeOrAfterPointer` ("any offset around the pointer").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LocationSize {
    /// Exactly `n` bytes starting at the pointer.
    Precise(u64),
    /// Unknown extent on either side of the pointer.
    BeforeOrAfterPointer,
}

impl LocationSize {
    /// The byte count if precise.
    pub fn bytes(self) -> Option<u64> {
        match self {
            LocationSize::Precise(n) => Some(n),
            LocationSize::BeforeOrAfterPointer => None,
        }
    }
}

impl std::fmt::Display for LocationSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LocationSize::Precise(n) => write!(f, "LocationSize::precise({n})"),
            LocationSize::BeforeOrAfterPointer => write!(f, "LocationSize::beforeOrAfterPointer"),
        }
    }
}

/// Result of an alias query (paper §III). `MayAlias` is the pessimistic
/// "don't know"; `NoAlias` is the most optimization-enabling answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AliasResult {
    /// The locations are guaranteed disjoint.
    NoAlias,
    /// Unknown (the conservative fallback).
    MayAlias,
    /// The locations overlap but are not identical.
    PartialAlias,
    /// The locations start at the same address.
    MustAlias,
}

impl AliasResult {
    /// True for `NoAlias`/`MustAlias`/`PartialAlias`, i.e. answers that
    /// terminate the analysis chain.
    pub fn is_definite(self) -> bool {
        !matches!(self, AliasResult::MayAlias)
    }
}

impl std::fmt::Display for AliasResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AliasResult::NoAlias => "NoAlias",
            AliasResult::MayAlias => "MayAlias",
            AliasResult::PartialAlias => "PartialAlias",
            AliasResult::MustAlias => "MustAlias",
        };
        f.write_str(s)
    }
}

/// A memory location: a pointer SSA value, an extent, and the access
/// metadata of the instruction the location was taken from.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MemoryLocation {
    /// The pointer value.
    pub ptr: Value,
    /// The extent of the access.
    pub size: LocationSize,
    /// TBAA tag of the originating access, if any.
    pub tbaa: Option<TbaaTag>,
    /// Alias scopes the originating access belongs to.
    pub scopes: Vec<ScopeId>,
    /// Scopes the originating access is declared not to alias.
    pub noalias: Vec<ScopeId>,
}

impl MemoryLocation {
    /// A bare location with no metadata.
    pub fn new(ptr: Value, size: LocationSize) -> Self {
        MemoryLocation {
            ptr,
            size,
            tbaa: None,
            scopes: Vec::new(),
            noalias: Vec::new(),
        }
    }

    /// Precise location of `bytes` bytes at `ptr`.
    pub fn precise(ptr: Value, bytes: u64) -> Self {
        Self::new(ptr, LocationSize::Precise(bytes))
    }

    /// Whole-object location at `ptr` (unknown extent).
    pub fn whole(ptr: Value) -> Self {
        Self::new(ptr, LocationSize::BeforeOrAfterPointer)
    }

    /// The location accessed by a load or store instruction, carrying the
    /// instruction's access metadata. Returns `None` for instructions
    /// that are not a single scalar memory access.
    pub fn of_access(f: &Function, id: InstId) -> Option<MemoryLocation> {
        match f.inst(id) {
            Inst::Load { ptr, ty, meta } => Some(MemoryLocation {
                ptr: *ptr,
                size: LocationSize::Precise(ty.size()),
                tbaa: meta.tbaa,
                scopes: meta.scopes.clone(),
                noalias: meta.noalias.clone(),
            }),
            Inst::Store { ptr, ty, meta, .. } => Some(MemoryLocation {
                ptr: *ptr,
                size: LocationSize::Precise(ty.size()),
                tbaa: meta.tbaa,
                scopes: meta.scopes.clone(),
                noalias: meta.noalias.clone(),
            }),
            _ => None,
        }
    }

    /// The source (read) location of a memcpy.
    pub fn memcpy_source(f: &Function, id: InstId) -> Option<MemoryLocation> {
        match f.inst(id) {
            Inst::Memcpy {
                src, bytes, meta, ..
            } => Some(MemoryLocation {
                ptr: *src,
                size: match bytes.as_int() {
                    Some(n) if n >= 0 => LocationSize::Precise(n as u64),
                    _ => LocationSize::BeforeOrAfterPointer,
                },
                tbaa: meta.tbaa,
                scopes: meta.scopes.clone(),
                noalias: meta.noalias.clone(),
            }),
            _ => None,
        }
    }

    /// The destination (written) location of a memcpy.
    pub fn memcpy_dest(f: &Function, id: InstId) -> Option<MemoryLocation> {
        match f.inst(id) {
            Inst::Memcpy {
                dst, bytes, meta, ..
            } => Some(MemoryLocation {
                ptr: *dst,
                size: match bytes.as_int() {
                    Some(n) if n >= 0 => LocationSize::Precise(n as u64),
                    _ => LocationSize::BeforeOrAfterPointer,
                },
                tbaa: meta.tbaa,
                scopes: meta.scopes.clone(),
                noalias: meta.noalias.clone(),
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oraql_ir::builder::FunctionBuilder;
    use oraql_ir::{Module, Ty};

    #[test]
    fn location_of_load_and_store() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::Ptr], None);
        let p = b.arg(0);
        let v = b.load(Ty::F64, p);
        b.store(Ty::I32, v, p);
        b.ret(None);
        let id = b.finish();
        let f = m.func(id);
        let load = f.blocks()[0].insts[0];
        let store = f.blocks()[0].insts[1];
        let la = MemoryLocation::of_access(f, load).unwrap();
        let lb = MemoryLocation::of_access(f, store).unwrap();
        assert_eq!(la.size, LocationSize::Precise(8));
        assert_eq!(lb.size, LocationSize::Precise(4));
        assert_eq!(la.ptr, lb.ptr);
        // Terminator is not an access.
        let ret = f.blocks()[0].insts[2];
        assert!(MemoryLocation::of_access(f, ret).is_none());
    }

    #[test]
    fn memcpy_locations() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::Ptr, Ty::Ptr], None);
        let d = b.arg(0);
        let s = b.arg(1);
        b.memcpy(d, s, oraql_ir::Value::ConstInt(32));
        b.ret(None);
        let id = b.finish();
        let f = m.func(id);
        let mc = f.blocks()[0].insts[0];
        assert_eq!(
            MemoryLocation::memcpy_dest(f, mc).unwrap().size,
            LocationSize::Precise(32)
        );
        assert_eq!(MemoryLocation::memcpy_source(f, mc).unwrap().ptr, s);
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            LocationSize::Precise(8).to_string(),
            "LocationSize::precise(8)"
        );
        assert_eq!(
            LocationSize::BeforeOrAfterPointer.to_string(),
            "LocationSize::beforeOrAfterPointer"
        );
        assert_eq!(AliasResult::NoAlias.to_string(), "NoAlias");
    }

    #[test]
    fn definiteness() {
        assert!(AliasResult::NoAlias.is_definite());
        assert!(AliasResult::MustAlias.is_definite());
        assert!(!AliasResult::MayAlias.is_definite());
    }
}
