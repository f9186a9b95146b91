//! # oraql-workloads — the seven HPC proxy applications
//!
//! IR generators mirroring the paper's evaluation benchmarks (Fig. 4's
//! sixteen configurations):
//!
//! | module | benchmark | configurations |
//! |---|---|---|
//! | [`testsnap`] | TestSNAP (LAMMPS SNAP force) | C++, OpenMP, Kokkos/CUDA, Fortran |
//! | [`xsbench`] | XSBench (OpenMC lookup) | C, OpenMP, CUDA/Thrust |
//! | [`gridmini`] | GridMini (lattice QCD SU3) | OpenMP offload |
//! | [`quicksilver`] | Quicksilver (Mercury MC) | OpenMP |
//! | [`lulesh`] | LULESH (shock hydro) | C++, OpenMP, MPI |
//! | [`minife`] | MiniFE (implicit FE) | OpenMP |
//! | [`minigmg`] | MiniGMG (geometric multigrid) | ompif, omptask, SSE |
//!
//! Each configuration is a [`oraql::TestCase`]: a deterministic module
//! builder, an ORAQL scope (file / device restriction) and the ignore
//! patterns for its volatile output lines. The problem sizes are scaled
//! down from the paper's testbed so a full Fig. 4 sweep completes in
//! minutes; the *shape* of the results (which configurations verify
//! fully optimistically, where the pessimistic queries live, which pass
//! statistics move) is preserved. See `EXPERIMENTS.md`.

pub mod amg;
pub mod analyze;
pub mod driver_flags;
pub mod gencli;
pub mod gridmini;
pub mod lulesh;
pub mod minife;
pub mod minigmg;
pub mod quicksilver;
pub mod sw4lite;
pub mod testsnap;
pub mod toolkit;
pub mod xsbench;

use oraql::TestCase;

/// Metadata for the Fig. 4 table rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaseInfo {
    /// Configuration name (also the `TestCase` name).
    pub name: &'static str,
    /// Benchmark column.
    pub benchmark: &'static str,
    /// Programming-model column.
    pub model: &'static str,
    /// Source-files column (the ORAQL scope).
    pub source_files: &'static str,
}

/// The sixteen configurations in the paper's Fig. 4 row order.
pub const CASE_INFOS: [CaseInfo; 16] = [
    CaseInfo {
        name: "testsnap",
        benchmark: "TestSNAP",
        model: "C++",
        source_files: "sna",
    },
    CaseInfo {
        name: "testsnap_omp",
        benchmark: "TestSNAP",
        model: "C++, OpenMP",
        source_files: "sna",
    },
    CaseInfo {
        name: "testsnap_kokkos",
        benchmark: "TestSNAP",
        model: "C++, Kokkos, CUDA",
        source_files: "sna",
    },
    CaseInfo {
        name: "testsnap_fortran",
        benchmark: "TestSNAP",
        model: "Fortran",
        source_files: "all (manual LTO)",
    },
    CaseInfo {
        name: "xsbench",
        benchmark: "XSBench",
        model: "C",
        source_files: "Simulation",
    },
    CaseInfo {
        name: "xsbench_omp",
        benchmark: "XSBench",
        model: "C, OpenMP",
        source_files: "Simulation",
    },
    CaseInfo {
        name: "xsbench_cuda",
        benchmark: "XSBench",
        model: "CUDA, Thrust",
        source_files: "Simulation",
    },
    CaseInfo {
        name: "gridmini",
        benchmark: "GridMini",
        model: "C++, OpenMP Offload",
        source_files: "Benchmark_su3",
    },
    CaseInfo {
        name: "quicksilver",
        benchmark: "Quicksilver",
        model: "C++, OpenMP",
        source_files: "all (manual LTO)",
    },
    CaseInfo {
        name: "lulesh",
        benchmark: "LULESH",
        model: "C++",
        source_files: "lulesh",
    },
    CaseInfo {
        name: "lulesh_omp",
        benchmark: "LULESH",
        model: "C++, OpenMP",
        source_files: "lulesh",
    },
    CaseInfo {
        name: "lulesh_mpi",
        benchmark: "LULESH",
        model: "C++, MPI",
        source_files: "lulesh",
    },
    CaseInfo {
        name: "minife",
        benchmark: "MiniFE",
        model: "C++, OpenMP",
        source_files: "main",
    },
    CaseInfo {
        name: "minigmg_ompif",
        benchmark: "MiniGMG",
        model: "C, OpenMP",
        source_files: "operators.ompif",
    },
    CaseInfo {
        name: "minigmg_omptask",
        benchmark: "MiniGMG",
        model: "C, OpenMP tasks",
        source_files: "operators.omptask",
    },
    CaseInfo {
        name: "minigmg_sse",
        benchmark: "MiniGMG",
        model: "C, SSE intrinsics",
        source_files: "operators.sse",
    },
];

/// Extra proxies beyond the paper's Fig. 4 table: hand-written models
/// of the aliasing motifs the `oraql-gen` corpus generalizes (CSR with
/// type-punned workspace views; zero-copy halo exchange). Kept out of
/// [`CASE_INFOS`] so the Fig. 4 sweep and its reports are unchanged.
pub const EXTRA_CASE_INFOS: [CaseInfo; 2] = [
    CaseInfo {
        name: "amg_csr",
        benchmark: "AMG",
        model: "C, CSR + punned workspace",
        source_files: "amg",
    },
    CaseInfo {
        name: "sw4lite_halo",
        benchmark: "SW4lite",
        model: "C, MPI halo (zero-copy)",
        source_files: "sw4lite",
    },
];

/// Builds all sixteen test cases, in Fig. 4 row order.
pub fn all_cases() -> Vec<TestCase> {
    let mut v = Vec::new();
    v.extend(testsnap::cases());
    v.extend(xsbench::cases());
    v.extend(gridmini::cases());
    v.extend(quicksilver::cases());
    v.extend(lulesh::cases());
    v.extend(minife::cases());
    v.extend(minigmg::cases());
    v
}

/// Builds the extra (non-Fig. 4) test cases, in [`EXTRA_CASE_INFOS`]
/// order.
pub fn extra_cases() -> Vec<TestCase> {
    let mut v = Vec::new();
    v.extend(amg::cases());
    v.extend(sw4lite::cases());
    v
}

/// Builds one test case by configuration name (Fig. 4 rows first, then
/// the extra proxies).
pub fn find_case(name: &str) -> Option<TestCase> {
    all_cases()
        .into_iter()
        .chain(extra_cases())
        .find(|c| c.name == name)
}

/// Metadata lookup by configuration name.
pub fn find_info(name: &str) -> Option<CaseInfo> {
    CASE_INFOS
        .iter()
        .chain(EXTRA_CASE_INFOS.iter())
        .copied()
        .find(|i| i.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oraql_vm::Interpreter;

    #[test]
    fn registry_is_complete_and_ordered() {
        let cases = all_cases();
        assert_eq!(cases.len(), 16);
        for (case, info) in cases.iter().zip(CASE_INFOS.iter()) {
            assert_eq!(case.name, info.name);
        }
    }

    #[test]
    fn every_case_builds_verifies_and_runs() {
        for case in all_cases() {
            let m = (case.build)();
            oraql_ir::verify::verify_module(&m).unwrap_or_else(|e| panic!("{}: {e}", case.name));
            let out = Interpreter::run_main(&m).unwrap_or_else(|e| panic!("{}: {e}", case.name));
            assert!(
                out.stdout.contains("checksum"),
                "{}: {}",
                case.name,
                out.stdout
            );
            assert!(out.stdout.contains("Runtime: "), "{}", case.name);
        }
    }

    #[test]
    fn builders_are_deterministic() {
        for case in all_cases() {
            let a = oraql_ir::printer::module_str(&(case.build)());
            let b = oraql_ir::printer::module_str(&(case.build)());
            assert_eq!(a, b, "{} build is nondeterministic", case.name);
        }
    }

    #[test]
    fn find_case_resolves_names() {
        assert!(find_case("lulesh_mpi").is_some());
        assert!(find_case("nonexistent").is_none());
        assert_eq!(find_info("gridmini").unwrap().model, "C++, OpenMP Offload");
        assert!(find_case("amg_csr").is_some());
        assert!(find_case("sw4lite_halo").is_some());
        assert_eq!(find_info("amg_csr").unwrap().benchmark, "AMG");
    }

    #[test]
    fn extra_cases_build_verify_and_run() {
        let cases = extra_cases();
        assert_eq!(cases.len(), EXTRA_CASE_INFOS.len());
        for (case, info) in cases.iter().zip(EXTRA_CASE_INFOS.iter()) {
            assert_eq!(case.name, info.name);
            let m = (case.build)();
            oraql_ir::verify::verify_module(&m).unwrap_or_else(|e| panic!("{}: {e}", case.name));
            let out = Interpreter::run_main(&m).unwrap_or_else(|e| panic!("{}: {e}", case.name));
            assert!(out.stdout.contains("checksum"), "{}", case.name);
            assert!(out.stdout.contains("Runtime: "), "{}", case.name);
            let a = oraql_ir::printer::module_str(&(case.build)());
            let b = oraql_ir::printer::module_str(&(case.build)());
            assert_eq!(a, b, "{} build is nondeterministic", case.name);
        }
    }
}
