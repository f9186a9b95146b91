//! A fault plan given together with `--store` reaches the store's
//! journal appends: the `store-write-bitflip` and `store-write-torn`
//! sites fire there, the next open drops every damaged record, and a
//! rerun on that journal still finds the fault-free run's final
//! decisions.

use std::path::{Path, PathBuf};
use std::process::Command;

/// One successful `oraql` run from the workspace root; its stdout.
fn oraql(args: &[&str]) -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let out = Command::new(env!("CARGO_BIN_EXE_oraql"))
        .args(args)
        .current_dir(root)
        .output()
        .expect("run oraql");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(out.status.success(), "oraql {args:?} failed:\n{stdout}");
    stdout
}

/// `(drawn, fired)` of `site` in the fault table, if it has a row.
fn site_row(stdout: &str, site: &str) -> Option<(u64, u64)> {
    let line = stdout
        .lines()
        .find(|l| l.split_whitespace().next() == Some(site))?;
    let n: Vec<u64> = line
        .split_whitespace()
        .filter_map(|w| w.parse().ok())
        .collect();
    Some((n[0], n[1]))
}

/// `(recovered, corrupt dropped, torn dropped)` of the `store:` line.
fn journal_counts(stdout: &str) -> (u64, u64, u64) {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("store: "))
        .unwrap_or_else(|| panic!("no store line:\n{stdout}"));
    let journal = line.split("journal: ").nth(1).expect("journal counts");
    let n: Vec<u64> = journal
        .split_whitespace()
        .filter_map(|w| w.parse().ok())
        .collect();
    (n[0], n[1], n[2])
}

/// Runs `testsnap_omp` with `extra` flags and returns its stdout and
/// its full final sequence.
fn run(dir: &Path, tag: &str, extra: &[&str]) -> (String, String) {
    let seq = dir.join(format!("{tag}.seq"));
    let mut args = vec!["-b", "testsnap_omp", "--emit-sequence"];
    args.push(seq.to_str().unwrap());
    args.extend_from_slice(extra);
    let stdout = oraql(&args);
    (
        stdout,
        std::fs::read_to_string(&seq).expect("sequence file"),
    )
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oraql_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn store_write_faults_fire_and_are_dropped_on_reopen() {
    let dir = scratch("store_faults");
    let (_, clean) = run(&dir, "clean", &[]);
    for (tag, plan) in [
        (
            "both",
            "seed=1,store-write-bitflip=1/1,store-write-torn=1/1",
        ),
        ("flip", "seed=1,store-write-bitflip=1/1"),
    ] {
        let journal = dir.join(format!("{tag}.journal"));
        let journal = journal.to_str().unwrap();
        let (faulty, seq) = run(&dir, tag, &["--store", journal, "--fault-plan", plan]);
        assert_eq!(
            seq, clean,
            "{plan}: faults on the write path changed decisions"
        );
        let (drawn, flipped) = site_row(&faulty, "store-write-bitflip")
            .unwrap_or_else(|| panic!("{plan}: no store-write-bitflip row:\n{faulty}"));
        assert!(flipped > 0 && flipped == drawn, "{plan}:\n{faulty}");
        let torn = site_row(&faulty, "store-write-torn").map_or(0, |(_, fired)| fired);
        if tag == "both" {
            assert_eq!(torn, drawn, "{plan}:\n{faulty}");
        }

        // Every append was damaged: the reopened journal recovers
        // nothing and counts the damage as dropped, and the rerun
        // recomputes its way to the fault-free decisions.
        let (warm, seq) = run(&dir, &format!("{tag}_warm"), &["--store", journal]);
        let (recovered, corrupt, torn_dropped) = journal_counts(&warm);
        assert_eq!(recovered, 0, "{plan}:\n{warm}");
        if tag == "flip" {
            // Whole frames with a bad checksum: one corrupt record each.
            assert_eq!((corrupt, torn_dropped), (flipped, 0), "{plan}:\n{warm}");
        } else {
            assert!(corrupt + torn_dropped > 0, "{plan}:\n{warm}");
        }
        assert_eq!(seq, clean, "{plan}: warm rerun");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
