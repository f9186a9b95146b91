//! `Function::apply` against the same entries applied one at a time.
//!
//! Seeded random batches go to every function of the 16 workloads, as
//! built and after a baseline compile, and of a generated corpus, built
//! and compiled. A batch mixes replacement chains (an instruction
//! replaced by one that a later entry replaces), removals, and moves to
//! both placements. Each batch must leave its function exactly as
//! applying its entries one at a time in recording order does: the same
//! printed text and the same `block_of` for every id. The batch's result
//! must also have these properties, checked here without `apply`'s code:
//! - replaced and removed ids are `Removed` and sit in no block;
//! - no live operand names a replaced id;
//! - every live id sits once, in the block its `block_of` names;
//! - untouched ids keep their block and their relative order;
//! - each moved id sits at its placement.

mod common;

use common::Gen;
use oraql::compile::{compile, CompileOptions};
use oraql::TestCase;
use oraql_gen::GenPlan;
use oraql_ir::inst::{Inst, InstId};
use oraql_ir::module::{Edit, Edits, Function, FunctionId, Module, Place};
use oraql_ir::printer::function_str;
use oraql_ir::value::{BlockId, Value};
use std::collections::{HashMap, HashSet};

/// Random batches per function.
const BATCHES: usize = 4;

/// What the batches covered.
#[derive(Default, Debug)]
struct Seen {
    batches: u64,
    chained: u64,
    removals: u64,
    moves: [u64; 2],
}

/// An element of `pool` that `ok` accepts, if a few draws find one.
fn draw(g: &mut Gen, pool: &[InstId], ok: impl Fn(InstId) -> bool) -> Option<InstId> {
    (0..8).map(|_| *g.pick(pool)).find(|&id| ok(id))
}

/// A random batch for `f` that keeps to `apply`'s contract: every entry
/// names an instruction live when it is recorded, no phi or terminator
/// moves, and replacement targets are live, so no chain loops. Removals
/// spare the targets, which keeps every replacement's value defined.
fn random_batch(f: &Function, g: &mut Gen, seen: &mut Seen) -> Edits {
    let live: Vec<InstId> = f.live_insts().collect();
    let movable: Vec<InstId> = live
        .iter()
        .copied()
        .filter(|&id| !f.inst(id).is_terminator() && !matches!(f.inst(id), Inst::Phi { .. }))
        .collect();
    let mut dead: HashSet<InstId> = HashSet::new();
    let mut targets: Vec<InstId> = Vec::new();
    let mut batch = Edits::new();
    for _ in 0..g.range_usize(1, 16) {
        match g.range_u64(0, 5) {
            0 | 1 => {
                // Half the time, replace an earlier replacement's target.
                let chain = !targets.is_empty() && g.bool();
                let pool = if chain { &targets } else { &live };
                let Some(id) = draw(g, pool, |id| !dead.contains(&id)) else {
                    continue;
                };
                let with = if g.chance(1, 4) {
                    Value::ConstInt(g.range_i64(-4, 5))
                } else {
                    let Some(t) = draw(g, &live, |t| t != id && !dead.contains(&t)) else {
                        continue;
                    };
                    targets.push(t);
                    Value::Inst(t)
                };
                seen.chained += u64::from(chain);
                dead.insert(id);
                batch.push(Edit::Replace(id, with));
            }
            2 => {
                let Some(id) = draw(g, &live, |id| !dead.contains(&id) && !targets.contains(&id))
                else {
                    continue;
                };
                dead.insert(id);
                seen.removals += 1;
                batch.push(Edit::Remove(id));
            }
            _ if movable.is_empty() => {}
            _ => {
                let Some(id) = draw(g, &movable, |id| !dead.contains(&id)) else {
                    continue;
                };
                let to = BlockId(g.range_usize(0, f.blocks().len()) as u32);
                let place = if g.bool() {
                    Place::BeforeTerminator
                } else {
                    Place::AfterPhis
                };
                seen.moves[usize::from(place == Place::AfterPhis)] += 1;
                batch.push(Edit::Move(id, to, place));
            }
        }
    }
    batch
}

/// Each id's block, from the first arena entry to the last.
fn blocks_of(f: &Function) -> Vec<BlockId> {
    (0..f.insts().len() as u32)
        .map(|i| f.block_of(InstId(i)))
        .collect()
}

/// The properties of `after`, the result of applying `batch` to
/// `before`, worked out from the batch alone.
fn check_properties(before: &Function, after: &Function, batch: &[Edit], what: &str) {
    let mut replaced = HashSet::new();
    let mut dead = HashSet::new();
    let mut touched = HashSet::new();
    let mut placed: HashMap<InstId, (BlockId, Place)> = HashMap::new();
    for &e in batch {
        match e {
            Edit::Replace(id, _) => {
                replaced.insert(id);
                dead.insert(id);
                touched.insert(id);
            }
            Edit::Remove(id) => {
                dead.insert(id);
                touched.insert(id);
            }
            Edit::Move(id, to, place) => {
                placed.insert(id, (to, place));
                touched.insert(id);
            }
        }
    }
    placed.retain(|id, _| !dead.contains(id));

    assert_eq!(after.insts().len(), before.insts().len(), "{what}: arena");
    let mut listed: HashMap<InstId, BlockId> = HashMap::new();
    for (bi, block) in after.blocks().iter().enumerate() {
        for &id in &block.insts {
            let bb = BlockId(bi as u32);
            assert!(
                listed.insert(id, bb).is_none(),
                "{what}: {id:?} listed twice"
            );
            assert_eq!(after.block_of(id), bb, "{what}: block_of {id:?}");
        }
    }
    for &id in &dead {
        assert!(
            matches!(after.inst(id), Inst::Removed),
            "{what}: {id:?} kept"
        );
        assert!(!listed.contains_key(&id), "{what}: {id:?} still listed");
    }
    for id in before.live_insts() {
        assert!(
            dead.contains(&id) || listed.contains_key(&id),
            "{what}: {id:?} lost"
        );
    }
    for &id in listed.keys() {
        after.inst(id).for_each_operand(|v| {
            assert!(
                !matches!(v, Value::Inst(d) if replaced.contains(&d)),
                "{what}: {id:?} still uses a replaced id"
            );
        });
    }
    let untouched = |list: &[InstId]| -> Vec<InstId> {
        list.iter()
            .copied()
            .filter(|id| !touched.contains(id))
            .collect()
    };
    for (bi, block) in before.blocks().iter().enumerate() {
        assert_eq!(
            untouched(&after.blocks()[bi].insts),
            untouched(&block.insts),
            "{what}: untouched ids of bb{bi}"
        );
    }
    for (&id, &(to, place)) in &placed {
        assert_eq!(listed.get(&id), Some(&to), "{what}: {id:?} not moved");
        let list = &after.blocks()[to.0 as usize].insts;
        let pos = list.iter().position(|&x| x == id).expect("listed");
        let ok = match place {
            Place::BeforeTerminator => list[pos + 1..]
                .iter()
                .all(|x| placed.contains_key(x) || after.inst(*x).is_terminator()),
            Place::AfterPhis => list[..pos]
                .iter()
                .all(|x| placed.contains_key(x) || matches!(after.inst(*x), Inst::Phi { .. })),
        };
        assert!(ok, "{what}: {id:?} is not {place:?} in bb{}", to.0);
    }
}

/// Applies `BATCHES` random batches to every function of `m`, each both
/// at once and one entry at a time, and compares the two.
fn check_module(m: &Module, what: &str, g: &mut Gen, seen: &mut Seen) {
    for fi in 0..m.funcs.len() {
        let fid = FunctionId(fi as u32);
        if m.func(fid).live_insts().next().is_none() {
            continue;
        }
        for round in 0..BATCHES {
            let what = format!("{what} @{} batch {round}", m.func(fid).name);
            let batch = random_batch(m.func(fid), g, seen);
            let mut at_once = m.clone();
            at_once.func_mut(fid).apply(&batch);
            let mut one_by_one = m.clone();
            for e in &batch {
                one_by_one.func_mut(fid).apply(std::slice::from_ref(e));
            }
            assert_eq!(
                function_str(&at_once, fid),
                function_str(&one_by_one, fid),
                "{what}: {batch:?}"
            );
            assert_eq!(
                blocks_of(at_once.func(fid)),
                blocks_of(one_by_one.func(fid)),
                "{what}: block_of, {batch:?}"
            );
            check_properties(m.func(fid), at_once.func(fid), &batch, &what);
            seen.batches += 1;
        }
    }
}

/// Checks each case's module as built and after a baseline compile.
fn check_cases(cases: &[TestCase], seed: u64) -> Seen {
    let mut g = Gen::new(seed);
    let mut seen = Seen::default();
    for case in cases {
        check_module(&(case.build)(), &case.name, &mut g, &mut seen);
        let compiled = compile(&*case.build, &CompileOptions::baseline()).module;
        let what = format!("{} (compiled)", case.name);
        check_module(&compiled, &what, &mut g, &mut seen);
    }
    // Every kind of entry ran, chains and both placements included.
    assert!(seen.batches > 0, "{seen:?}");
    assert!(seen.chained > 0 && seen.removals > 0, "{seen:?}");
    assert!(seen.moves[0] > 0 && seen.moves[1] > 0, "{seen:?}");
    seen
}

#[test]
fn batches_equal_one_at_a_time_on_the_workloads() {
    let cases = oraql_workloads::all_cases();
    assert_eq!(cases.len(), 16);
    check_cases(&cases, 22);
}

#[test]
fn batches_equal_one_at_a_time_on_a_gen_corpus() {
    let plan = GenPlan::parse("seed=7,cases=16,per=16").expect("plan");
    let (cases, _) = oraql_gen::suite(&plan);
    assert_eq!(cases.len(), 16);
    check_cases(&cases, 7);
}
