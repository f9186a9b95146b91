//! A command-line flag wins over the `--config` file wherever it
//! appears: `--strategy` and `--max-tests` before `--config` must run
//! exactly what they run after it.

use std::process::Command;

/// The `probing:` line of one `oraql` run from the workspace root.
fn probing(args: &[&str]) -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let out = Command::new(env!("CARGO_BIN_EXE_oraql"))
        .args(args)
        .current_dir(root)
        .output()
        .expect("run oraql");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "oraql {args:?} failed:\n{stdout}");
    stdout
        .lines()
        .find(|l| l.starts_with("probing: "))
        .unwrap_or_else(|| panic!("oraql {args:?} printed no probing line:\n{stdout}"))
        .to_owned()
}

#[test]
fn flags_win_over_config_in_either_order() {
    const CONFIG: &str = "configs/amg_csr.conf";
    for flag in [["--max-tests", "1"], ["--strategy", "frequency"]] {
        let before = probing(&[flag[0], flag[1], "--config", CONFIG]);
        let after = probing(&["--config", CONFIG, flag[0], flag[1]]);
        assert_eq!(before, after, "{flag:?} before vs after --config");
        assert_ne!(
            before,
            probing(&["--config", CONFIG]),
            "{flag:?} had no effect"
        );
    }
}
