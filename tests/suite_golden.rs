//! Tier-1 golden for the 16 Fig. 4 configurations at `--jobs 1`.
//!
//! One line per configuration pins everything a probe-path change could
//! move without changing a Fig. 4 row: the raw final decisions, the
//! probing effort, the ORAQL query counters, the no-alias totals, the
//! final compile's Fig. 6 machine statistics and a hash of the final
//! module's printed text. A compile-speed change must leave every line
//! byte-identical.
//!
//! On a mismatch the test prints the full recomputed text; after an
//! intended verdict change, replace `tests/golden/suite_jobs1.txt` with
//! it.

use oraql::{DriverOptions, DriverResult};
use oraql_ir::meta::Target;
use oraql_workloads as workloads;

const GOLDEN: &str = include_str!("golden/suite_jobs1.txt");

const HEADER: &str = "# <config> compiles/tests_run/cached/deduced opt=unique/cached \
pess=unique/cached no_alias=original->oraql machine_insts=host/device \
spills=host/device module_fnv=<fnv-1a of module_str> seq=<raw final decisions>\n";

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn golden_line(r: &DriverResult) -> String {
    let e = &r.effort;
    let o = &r.oraql;
    let per_target = |pass: &str, stat: &str| {
        let [host, device] = [Target::Host, Target::Device]
            .map(|t| r.final_stats.get(pass, &format!("{stat} ({})", t.name())));
        format!("{host}/{device}")
    };
    let text = oraql_ir::printer::module_str(&r.final_module);
    format!(
        "{} {}/{}/{}/{} opt={}/{} pess={}/{} no_alias={}->{} machine_insts={} spills={} \
         module_fnv={:016x} seq={}\n",
        r.name,
        e.compiles,
        e.tests_run,
        e.tests_cached,
        e.tests_deduced,
        o.unique_optimistic,
        o.cached_optimistic,
        o.unique_pessimistic,
        o.cached_pessimistic,
        r.no_alias_original,
        r.no_alias_oraql,
        per_target("asm printer", "machine instructions generated"),
        per_target("register allocation", "register spills inserted"),
        fnv1a(text.as_bytes()),
        r.decisions.render(),
    )
}

#[test]
fn suite_jobs1_matches_golden() {
    let cases = workloads::all_cases();
    assert_eq!(cases.len(), 16);
    let results = oraql::run_suite(&cases, &DriverOptions::default());
    let mut actual = HEADER.to_owned();
    for (case, r) in cases.iter().zip(&results) {
        let r = r
            .as_ref()
            .unwrap_or_else(|e| panic!("{}: driver failed: {e}", case.name));
        actual.push_str(&golden_line(r));
    }
    assert!(
        actual == GOLDEN,
        "the 16-configuration suite at jobs 1 differs from tests/golden/suite_jobs1.txt; \
         recomputed text:\n{actual}"
    );
}
