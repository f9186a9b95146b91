//! Where does a short decoded-mode run spend its time? Splits a few
//! representative workloads into decode-all cost, interpreter
//! construction (global memory init), and cold vs. warm run time per
//! mode. Useful when tuning `decode_function` against small modules.

use oraql_vm::{InterpMode, Interpreter};
use std::time::Instant;

fn main() {
    for name in ["xsbench", "testsnap", "lulesh"] {
        let case = oraql_workloads::find_case(name).unwrap();
        let compiled =
            oraql::compile::compile(&*case.build, &oraql::compile::CompileOptions::baseline());
        let m = &compiled.module;
        let statics: usize = m.funcs.iter().map(|f| f.insts().len()).sum();
        let gbytes: u64 = m.globals.iter().map(|g| g.size).sum();
        // Time a full decode of every function via a throwaway run in
        // each mode, plus decode_function directly.
        let t = Instant::now();
        let mut total = 0usize;
        for _ in 0..20 {
            let bases = oraql_vm::memory::global_layout(m);
            for f in &m.funcs {
                let d = oraql_vm::decode::decode_function(m, f, &bases);
                total += d.blocks.len();
            }
        }
        let dec_us = t.elapsed().as_secs_f64() * 1e6 / 20.0;
        // Interpreter construction alone (memory init dominates).
        let t = Instant::now();
        for _ in 0..20 {
            let i = Interpreter::new(m).with_fuel(case.fuel);
            std::hint::black_box(&i);
        }
        let new_us = t.elapsed().as_secs_f64() * 1e6 / 20.0;
        for mode in [InterpMode::TreeWalk, InterpMode::Decoded] {
            let main = m.find_func("main").unwrap();
            let t = Instant::now();
            for _ in 0..20 {
                let mut i = Interpreter::new(m).with_fuel(case.fuel).with_mode(mode);
                i.run(main, vec![]).unwrap();
            }
            let us = t.elapsed().as_secs_f64() * 1e6 / 20.0;
            // Second run on the same interpreter: decode cache + memory
            // already warm, so this isolates pure execution.
            let mut i = Interpreter::new(m).with_fuel(case.fuel).with_mode(mode);
            i.run(main, vec![]).unwrap();
            let t = Instant::now();
            for _ in 0..20 {
                i.run(main, vec![]).unwrap();
            }
            let warm_us = t.elapsed().as_secs_f64() * 1e6 / 20.0;
            println!(
                "{name:10} {mode:?}: {us:.0} us/run, {warm_us:.0} us warm ({statics} static insts)"
            );
        }
        println!("{name:10} decode-all: {dec_us:.0} us ({total} blocks), new: {new_us:.0} us, globals: {gbytes} bytes");
    }
}
