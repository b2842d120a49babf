//! Every example under `examples/` must keep running: each one is
//! executed end-to-end through `cargo run --example`, so a broken
//! example fails `cargo test` instead of rotting silently.
//!
//! Examples run from a scratch directory so the files some of them emit
//! (`cholesky_6x6.dot`, `cholesky_trace.prv`, …) never land in the
//! checkout.

use std::path::PathBuf;
use std::process::Command;

const EXAMPLES: &[&str] = &[
    "quickstart",
    "cholesky_graph",
    "heat_stencil",
    "lu_solver",
    "multisort_regions",
    "nqueens",
    "sparse_matmul",
    "trace_demo",
];

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smpss-example-{}-{}", name, std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn all_examples_run_to_completion() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
    for name in EXAMPLES {
        let dir = scratch_dir(name);
        let out = Command::new(&cargo)
            .args([
                "run",
                "--quiet",
                "--example",
                name,
                "--manifest-path",
                manifest,
            ])
            .current_dir(&dir)
            .output()
            .unwrap_or_else(|e| panic!("failed to launch `cargo run --example {name}`: {e}"));
        assert!(
            out.status.success(),
            "example `{}` exited with {}\n--- stdout ---\n{}\n--- stderr ---\n{}",
            name,
            out.status,
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
