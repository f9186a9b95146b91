//! The ORAQL alias-analysis pass (paper §IV-A).
//!
//! "Alias analysis pass" is a misnomer: no analysis is performed. The
//! pass answers queries solely according to a predetermined decision
//! sequence. It is appended as the *final* analysis in the chain, so it
//! only responds to queries that no conservative analysis could answer.
//!
//! A cache keyed by the unordered pointer pair (location descriptions
//! deliberately ignored) keeps responses consistent — optimistic
//! responses often violate internal invariants if inconsistent — and
//! shortens the sequence that must be probed. When the end of the
//! sequence is reached, all further unique queries are answered
//! optimistically. The number of unique queries is reported through the
//! statistics interface so the driver can adjust sequence lengths.

use crate::compile::Scope;
use crate::sequence::Decisions;
use oraql_analysis::aa::{AliasAnalysis, QueryCtx};
use oraql_analysis::location::{AliasResult, MemoryLocation};
use oraql_ir::hash::FxHashMap;
use oraql_ir::module::FunctionId;
use oraql_ir::value::Value;
use std::sync::{Arc, Mutex, MutexGuard};

/// Query counters, matching the columns of the paper's Fig. 4.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OraqlStats {
    /// Unique queries answered optimistically.
    pub unique_optimistic: u64,
    /// Cache hits replaying an optimistic answer.
    pub cached_optimistic: u64,
    /// Unique queries answered pessimistically.
    pub unique_pessimistic: u64,
    /// Cache hits replaying a pessimistic answer.
    pub cached_pessimistic: u64,
    /// Queries outside the configured scope (not answered, not cached).
    pub out_of_scope: u64,
}

impl OraqlStats {
    /// Total unique (non-cached) queries — the sequence length the
    /// driver must cover.
    pub fn unique(&self) -> u64 {
        self.unique_optimistic + self.unique_pessimistic
    }
}

/// One unique query as recorded for reports (Fig. 3).
#[derive(Debug, Clone)]
pub struct UniqueQuery {
    /// Function containing the query.
    pub func: FunctionId,
    /// First location as queried (with its location size).
    pub a: MemoryLocation,
    /// Second location.
    pub b: MemoryLocation,
    /// `true` = answered no-alias.
    pub optimistic: bool,
    /// Pass that issued the first (non-cached) occurrence.
    pub pass: String,
    /// Position in the decision sequence.
    pub index: u64,
    /// How many later queries were served from the cache entry.
    pub cached_hits: u64,
}

/// What an *optimistic* answer means (paper §VIII future work: explore
/// whether optimistic must-alias responses unlock further
/// optimizations, e.g. store-to-load forwarding between pointers the
/// analyses cannot relate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptimismKind {
    /// Optimistic answers are `NoAlias` (the paper's main design).
    #[default]
    NoAlias,
    /// Optimistic answers are `MustAlias`.
    MustAlias,
}

/// Pass state shared between the installed analysis (inside the AA
/// manager) and the driver that inspects it after compilation.
#[derive(Debug, Default)]
pub struct OraqlState {
    /// Decision source for this compilation.
    pub decisions: Decisions,
    /// Next sequence index to consume.
    pub next_index: u64,
    /// Per-pointer-pair decision cache.
    cache: FxHashMap<(FunctionId, Value, Value), usize>,
    /// Counters.
    pub stats: OraqlStats,
    /// Unique query records (always collected; one entry per cache key).
    pub queries: Vec<UniqueQuery>,
    /// Scope restriction.
    pub scope: Scope,
    /// Disabled passes answer everything MayAlias without recording.
    pub enabled: bool,
    /// What optimistic answers mean.
    pub optimism: OptimismKind,
}

impl Default for Decisions {
    fn default() -> Self {
        Decisions::all_optimistic()
    }
}

/// `std::sync::Mutex` wrapper with a `parking_lot`-style infallible
/// `lock()` (a poisoned lock means a panicking compilation thread; the
/// state is plain counters, so we recover the inner value).
#[derive(Debug, Default)]
pub struct SharedOraqlState(Mutex<OraqlState>);

impl SharedOraqlState {
    /// Locks the pass state.
    pub fn lock(&self) -> MutexGuard<'_, OraqlState> {
        self.0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Shared handle to the pass state.
pub type OraqlShared = Arc<SharedOraqlState>;

/// Creates a fresh shared state for one compilation.
pub fn new_shared(decisions: Decisions, scope: Scope) -> OraqlShared {
    new_shared_with(decisions, scope, OptimismKind::NoAlias)
}

/// [`new_shared`] with an explicit optimism kind (§VIII extension).
pub fn new_shared_with(decisions: Decisions, scope: Scope, optimism: OptimismKind) -> OraqlShared {
    Arc::new(SharedOraqlState(Mutex::new(OraqlState {
        decisions,
        scope,
        enabled: true,
        optimism,
        ..Default::default()
    })))
}

/// The installable analysis: a thin adapter around the shared state.
pub struct OraqlAA {
    shared: OraqlShared,
}

impl OraqlAA {
    /// Wraps a shared state.
    pub fn new(shared: OraqlShared) -> Self {
        OraqlAA { shared }
    }
}

impl AliasAnalysis for OraqlAA {
    fn name(&self) -> &'static str {
        "ORAQL"
    }

    fn alias(&mut self, ctx: &QueryCtx<'_>, a: &MemoryLocation, b: &MemoryLocation) -> AliasResult {
        let mut st = self.shared.lock();
        if !st.enabled {
            return AliasResult::MayAlias;
        }
        // Scope restriction (§IV-E): only answer for functions from the
        // configured files / the configured compilation target.
        let f = ctx.module.func(ctx.func);
        if !st.scope.contains(ctx.module, f) {
            st.stats.out_of_scope += 1;
            return AliasResult::MayAlias;
        }

        // Cache lookup: unordered pointer pair, location sizes ignored.
        let key = if a.ptr <= b.ptr {
            (ctx.func, a.ptr, b.ptr)
        } else {
            (ctx.func, b.ptr, a.ptr)
        };
        let positive = match st.optimism {
            OptimismKind::NoAlias => AliasResult::NoAlias,
            OptimismKind::MustAlias => AliasResult::MustAlias,
        };
        if let Some(&qi) = st.cache.get(&key) {
            let optimistic = st.queries[qi].optimistic;
            st.queries[qi].cached_hits += 1;
            if optimistic {
                st.stats.cached_optimistic += 1;
                return positive;
            }
            st.stats.cached_pessimistic += 1;
            return AliasResult::MayAlias;
        }

        // New unique query: consume the next sequence position.
        let index = st.next_index;
        st.next_index += 1;
        let optimistic = st.decisions.decide(index);
        if optimistic {
            st.stats.unique_optimistic += 1;
        } else {
            st.stats.unique_pessimistic += 1;
        }
        let qi = st.queries.len();
        st.queries.push(UniqueQuery {
            func: ctx.func,
            a: a.clone(),
            b: b.clone(),
            optimistic,
            pass: ctx.pass.to_owned(),
            index,
            cached_hits: 0,
        });
        st.cache.insert(key, qi);
        if optimistic {
            positive
        } else {
            AliasResult::MayAlias
        }
    }

    fn stats(&self) -> Vec<(String, u64)> {
        let st = self.shared.lock();
        vec![
            ("unique queries".into(), st.stats.unique()),
            ("unique optimistic".into(), st.stats.unique_optimistic),
            ("unique pessimistic".into(), st.stats.unique_pessimistic),
            ("cached optimistic".into(), st.stats.cached_optimistic),
            ("cached pessimistic".into(), st.stats.cached_pessimistic),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oraql_analysis::location::LocationSize;
    use oraql_ir::builder::FunctionBuilder;
    use oraql_ir::{Module, Ty};

    fn module() -> Module {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::Ptr, Ty::Ptr], None);
        b.set_src_file("sna.cpp");
        b.store(Ty::I64, Value::ConstInt(0), b.arg(0));
        b.ret(None);
        b.finish();
        m
    }

    fn loc(arg: u32, size: LocationSize) -> MemoryLocation {
        MemoryLocation::new(Value::Arg(arg), size)
    }

    fn query(aa: &mut OraqlAA, m: &Module, a: &MemoryLocation, b: &MemoryLocation) -> AliasResult {
        let ctx = QueryCtx {
            module: m,
            func: FunctionId(0),
            pass: "GVN",
        };
        aa.alias(&ctx, a, b)
    }

    #[test]
    fn sequence_consumed_only_by_unique_queries() {
        let m = module();
        let shared = new_shared(
            Decisions::Explicit {
                seq: vec![true, false],
                tail: true,
            },
            Scope::everything(),
        );
        let mut aa = OraqlAA::new(shared.clone());
        let a = loc(0, LocationSize::Precise(8));
        let b = loc(1, LocationSize::Precise(8));
        assert_eq!(query(&mut aa, &m, &a, &b), AliasResult::NoAlias);
        // Identical pair, different location size: served from cache.
        let a2 = loc(0, LocationSize::BeforeOrAfterPointer);
        assert_eq!(query(&mut aa, &m, &a2, &b), AliasResult::NoAlias);
        // Swapped operand order: still the same pair.
        assert_eq!(query(&mut aa, &m, &b, &a), AliasResult::NoAlias);
        let st = shared.lock();
        assert_eq!(st.stats.unique_optimistic, 1);
        assert_eq!(st.stats.cached_optimistic, 2);
        assert_eq!(st.next_index, 1);
        assert_eq!(st.queries[0].cached_hits, 2);
    }

    #[test]
    fn pessimistic_decision_replayed_from_cache() {
        let m = module();
        let shared = new_shared(
            Decisions::Explicit {
                seq: vec![false],
                tail: true,
            },
            Scope::everything(),
        );
        let mut aa = OraqlAA::new(shared.clone());
        let a = loc(0, LocationSize::Precise(8));
        let b = loc(1, LocationSize::Precise(8));
        assert_eq!(query(&mut aa, &m, &a, &b), AliasResult::MayAlias);
        assert_eq!(query(&mut aa, &m, &a, &b), AliasResult::MayAlias);
        let st = shared.lock();
        assert_eq!(st.stats.unique_pessimistic, 1);
        assert_eq!(st.stats.cached_pessimistic, 1);
    }

    #[test]
    fn end_of_sequence_is_optimistic() {
        let m = module();
        let shared = new_shared(
            Decisions::Explicit {
                seq: vec![],
                tail: true,
            },
            Scope::everything(),
        );
        let mut aa = OraqlAA::new(shared.clone());
        for i in 0..5u32 {
            let a = loc(0, LocationSize::Precise(8 + i as u64));
            let mut b = loc(1, LocationSize::Precise(8));
            // Make pairs unique by varying the second pointer.
            b.ptr = Value::ConstInt(i as i64);
            assert_eq!(query(&mut aa, &m, &a, &b), AliasResult::NoAlias);
        }
        assert_eq!(shared.lock().stats.unique_optimistic, 5);
    }

    #[test]
    fn out_of_scope_queries_not_answered() {
        let m = module();
        let shared = new_shared(
            Decisions::all_optimistic(),
            Scope::files(vec!["lulesh.cc".into()]),
        );
        let mut aa = OraqlAA::new(shared.clone());
        let a = loc(0, LocationSize::Precise(8));
        let b = loc(1, LocationSize::Precise(8));
        // The module's function is from sna.cpp: out of scope.
        assert_eq!(query(&mut aa, &m, &a, &b), AliasResult::MayAlias);
        let st = shared.lock();
        assert_eq!(st.stats.unique(), 0);
        assert_eq!(st.stats.out_of_scope, 1);
    }

    #[test]
    fn disabled_pass_is_inert() {
        let m = module();
        let shared = new_shared(Decisions::all_optimistic(), Scope::everything());
        shared.lock().enabled = false;
        let mut aa = OraqlAA::new(shared.clone());
        let a = loc(0, LocationSize::Precise(8));
        let b = loc(1, LocationSize::Precise(8));
        assert_eq!(query(&mut aa, &m, &a, &b), AliasResult::MayAlias);
        assert_eq!(shared.lock().stats.unique(), 0);
    }

    #[test]
    fn records_issuing_pass() {
        let m = module();
        let shared = new_shared(Decisions::all_optimistic(), Scope::everything());
        let mut aa = OraqlAA::new(shared.clone());
        let a = loc(0, LocationSize::Precise(8));
        let b = loc(1, LocationSize::Precise(8));
        query(&mut aa, &m, &a, &b);
        let st = shared.lock();
        assert_eq!(st.queries[0].pass, "GVN");
        assert_eq!(st.queries[0].index, 0);
    }
}
