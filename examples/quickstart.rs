//! Quickstart: build a tiny program with a planted alias, run the ORAQL
//! probing driver on it, and inspect what it found.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The program has two kernels that receive a pair of pointers each:
//! one pair never aliases (but the compiler cannot prove it), the other
//! pair is the *same* array. ORAQL answers the first optimistically and
//! is forced to keep the second pessimistic.

use oraql_suite::ir::builder::FunctionBuilder;
use oraql_suite::ir::{Module, Ty, Value};
use oraql_suite::oraql::report::{render_report, DumpFlags};
use oraql_suite::oraql::{Driver, DriverOptions, TestCase};

/// `work(p, q)`: load p, store through q, re-load p. If p and q alias,
/// the second load must observe the store — forwarding it breaks the
/// printed sum.
fn emit_work(m: &mut Module, name: &str) -> oraql_suite::ir::FunctionId {
    let mut b = FunctionBuilder::new(m, name, vec![Ty::Ptr, Ty::Ptr], None);
    b.set_src_file("kernel.c");
    b.set_loc("kernel.c", 10, 5);
    let p = b.arg(0);
    let q = b.arg(1);
    let x1 = b.load(Ty::I64, p);
    let bumped = b.add(x1, Value::ConstInt(100));
    b.store(Ty::I64, bumped, q);
    let x2 = b.load(Ty::I64, p);
    let s = b.add(x1, x2);
    b.print(&format!("{name}: {{}}"), vec![s]);
    b.ret(None);
    b.finish()
}

fn build() -> Module {
    let mut m = Module::new("quickstart");
    let safe = emit_work(&mut m, "work_disjoint");
    let aliased = emit_work(&mut m, "work_aliased");
    let g = m.add_global("data", 32, vec![], false);
    let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
    b.set_src_file("main.c");
    let a0 = b.gep(Value::Global(g), 0);
    let a1 = b.gep(Value::Global(g), 16);
    b.store(Ty::I64, Value::ConstInt(1), a0);
    b.store(Ty::I64, Value::ConstInt(2), a1);
    // Disjoint halves of the array: never alias at run time.
    b.call(safe, vec![a0, a1], None);
    // The same pointer twice: a genuine alias.
    b.call(aliased, vec![a0, a0], None);
    b.ret(None);
    b.finish();
    m
}

fn main() {
    let case = TestCase::new("quickstart", build);
    let r = Driver::run(&case, DriverOptions::default()).expect("driver");

    println!("fully optimistic:      {}", r.fully_optimistic);
    println!("final decisions:       {}", r.decisions.render());
    println!(
        "unique queries:        {} optimistic, {} pessimistic",
        r.oraql.unique_optimistic, r.oraql.unique_pessimistic
    );
    println!(
        "no-alias results:      {} -> {} ({:+.1}%)",
        r.no_alias_original,
        r.no_alias_oraql,
        r.no_alias_delta_percent()
    );
    println!(
        "executed instructions: {} -> {}",
        r.baseline_run.stats.total_insts(),
        r.final_run.stats.total_insts()
    );
    println!(
        "probing effort:        {} compiles, {} tests, {} cached, {} deduced",
        r.effort.compiles, r.effort.tests_run, r.effort.tests_cached, r.effort.tests_deduced
    );
    println!("\n--- the queries ORAQL had to keep pessimistic ---");
    print!(
        "{}",
        render_report(&r.final_module, &r.queries, DumpFlags::pessimistic_only())
    );

    assert!(!r.fully_optimistic);
    assert!(r.oraql.unique_pessimistic >= 1);
    assert!(r.oraql.unique_optimistic >= 1);
    println!("\nquickstart OK");
}
