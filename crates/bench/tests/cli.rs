//! Command-line contract checks on the bench binaries. Each invocation is
//! rejected during argument validation, so none of them simulates.

use std::process::Command;

/// `contend` does not accept `--snapshot-every`: its time-sliced points
/// take no periodic snapshots, so the flag is a usage error (exit 2)
/// rather than a silent no-op.
#[test]
fn contend_rejects_snapshot_every() {
    let dir = std::env::temp_dir().join(format!("csb-cli-test-contend-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_contend"))
        .arg("--cache-dir")
        .arg(&dir)
        .args(["--snapshot-every", "2000"])
        .output()
        .expect("contend starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag --snapshot-every"), "{stderr}");
    assert!(stderr.contains("usage: contend"), "{stderr}");
    assert!(out.stdout.is_empty(), "no table was printed");
    assert!(!dir.exists(), "rejected before the cache dir was opened");
}
