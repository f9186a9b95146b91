//! The command line and the `--config` file reach a run in one way: a
//! flag wins over the config wherever it appears (`--benchmark`,
//! `--strategy` and `--max-tests` before `--config` must run exactly
//! what they run after it), and every run mode, `--replay` included,
//! runs the case the config describes.

use std::process::{Command, Output};

/// One `oraql` run from the workspace root.
fn oraql(args: &[&str]) -> Output {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    Command::new(env!("CARGO_BIN_EXE_oraql"))
        .args(args)
        .current_dir(root)
        .output()
        .expect("run oraql")
}

/// The `probing:` line of one successful `oraql` run.
fn probing(args: &[&str]) -> String {
    let out = oraql(args);
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
    for flag in [
        ["--max-tests", "1"],
        ["--strategy", "frequency"],
        ["--benchmark", "sw4lite_halo"],
    ] {
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

#[test]
fn replay_runs_the_case_the_config_describes() {
    // A scope that matches no file leaves ORAQL nothing to answer.
    let path = std::env::temp_dir().join(format!("oraql_replay_scope_{}.conf", std::process::id()));
    std::fs::write(&path, "benchmark = testsnap_omp\nfiles = nothing.cpp\n").unwrap();
    let out = oraql(&["--config", path.to_str().unwrap(), "--replay", "...1"]);
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "replay failed:\n{stderr}");
    assert!(
        stderr.contains("replay: 0 optimistic / 0 pessimistic"),
        "replay ignored the config's scope:\n{stderr}"
    );
}

#[test]
fn replay_compiles_what_the_driver_compiled_last() {
    // CFL answers some of the queries ORAQL would get: a replay that
    // left the config's `use_cfl` out would count another compile's.
    let dir = std::env::temp_dir().join(format!("oraql_replay_cfl_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (conf, seq) = (dir.join("cfl.conf"), dir.join("final.seq"));
    std::fs::write(&conf, "benchmark = testsnap_fortran\nuse_cfl = true\n").unwrap();
    let (conf, seq) = (conf.to_str().unwrap(), seq.to_str().unwrap());
    let run = oraql(&["--config", conf, "--emit-sequence", seq]);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(run.status.success(), "driver run failed:\n{stdout}");
    // `opt queries: U unique / C cached | pess queries: U unique / C cached`
    let line = stdout.lines().find(|l| l.starts_with("opt queries: "));
    let words: Vec<&str> = line.expect("query line").split_whitespace().collect();
    let want = format!(
        "replay: {} optimistic / {} pessimistic unique queries",
        words[2], words[10]
    );
    let replay = oraql(&["--config", conf, "--replay", &format!("@{seq}")]);
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&replay.stderr);
    assert!(replay.status.success(), "replay failed:\n{stderr}");
    assert!(stderr.contains(&want), "want `{want}`, got:\n{stderr}");
}

#[test]
fn help_prints_usage_and_removed_flags_are_unknown() {
    for args in [&["--help"][..], &["gen", "--help"]] {
        let out = oraql(args);
        assert!(out.status.success(), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: oraql"));
    }
    for flag in ["--no-store", "--no-server", "--spans-out", "--metrics-out"] {
        let out = oraql(&["-b", "testsnap", flag]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
    }
    // The analyzer reads one positional trace file: its old `--probes`
    // and `--spans` inputs, and the retired `--check-metrics`, are
    // unknown.
    for flag in ["--probes", "--spans", "--check-metrics"] {
        let out = oraql(&["trace", flag, "x"]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage: oraql trace"));
    }
}
