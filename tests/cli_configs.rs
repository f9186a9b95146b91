//! The shipped configuration files in `configs/` must parse and drive
//! the workflow they describe.

use oraql_suite::oraql::config::Config;
use oraql_suite::oraql::{Driver, DriverOptions, DriverResult, Strategy};

fn repo_path(rel: &str) -> String {
    format!("{}/{}", env!("CARGO_MANIFEST_DIR"), rel)
}

/// Runs the benchmark a shipped config names, as `oraql --config` does:
/// the config reaches the case and the options through `Config::apply`.
fn run_config(file: &str) -> DriverResult {
    let cfg = Config::load(&repo_path(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
    let mut case = oraql_workloads::find_case(&cfg.benchmark).unwrap();
    let mut opts = DriverOptions::default();
    cfg.apply(&mut case, &mut opts);
    Driver::run(&case, opts).unwrap()
}

#[test]
fn shipped_configs_parse() {
    for (file, benchmark, strategy) in [
        (
            "configs/testsnap_omp.conf",
            "testsnap_omp",
            Strategy::Chunked,
        ),
        (
            "configs/gridmini_device.conf",
            "gridmini",
            Strategy::Chunked,
        ),
        (
            "configs/lulesh_mpi_frequency.conf",
            "lulesh_mpi",
            Strategy::FrequencySpace,
        ),
        ("configs/amg_csr.conf", "amg_csr", Strategy::Chunked),
        (
            "configs/sw4lite_halo.conf",
            "sw4lite_halo",
            Strategy::Chunked,
        ),
    ] {
        let cfg = Config::load(&repo_path(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(cfg.benchmark, benchmark);
        assert_eq!(cfg.strategy, strategy);
        assert!(!cfg.ignore.is_empty());
        // Every named benchmark exists in the registry.
        assert!(
            oraql_workloads::find_case(&cfg.benchmark).is_some(),
            "{file} names unknown benchmark {}",
            cfg.benchmark
        );
    }
}

#[test]
fn gridmini_config_drives_device_scoped_probe() {
    let r = run_config("configs/gridmini_device.conf");
    assert!(r.fully_optimistic);
    // All answered queries live in device functions (GridMini's host
    // side is plain enough that the conservative chain resolves it
    // before ORAQL is ever consulted).
    for q in &r.queries {
        assert_eq!(
            r.final_module.func(q.func).target,
            oraql_suite::ir::Target::Device,
            "query answered outside the device scope"
        );
    }
    assert!(r.oraql.unique() > 0);
}

#[test]
fn frequency_config_still_pins_lulesh_hazards() {
    let r = run_config("configs/lulesh_mpi_frequency.conf");
    assert!(!r.fully_optimistic);
    assert!(r.oraql.unique_pessimistic >= 16);
    // Frequency space is locally maximal but coarser: it may pin more
    // than the chunked strategy; it must still leave most optimistic.
    assert!(r.oraql.unique_optimistic > r.oraql.unique_pessimistic);
}

/// The two motif-model proxies behind `oraql-gen`: each plants exactly
/// one genuinely-aliasing pair (punned workspace view; zero-copy halo
/// buffer), which the driver must pin while keeping the rest optimistic.
#[test]
fn motif_proxy_configs_pin_exactly_the_planted_hazard() {
    for file in ["configs/amg_csr.conf", "configs/sw4lite_halo.conf"] {
        let r = run_config(file);
        assert!(!r.fully_optimistic, "{file}");
        assert_eq!(r.oraql.unique_pessimistic, 1, "{file}");
        assert!(r.oraql.unique_optimistic >= 4, "{file}");
    }
}
