//! Runs the real-structure models (`tests/real_structures.rs`) from a
//! plain `cargo test`: a nested cargo builds the workspace with
//! `--cfg fractal_check`, so the product crates' sync facade resolves to
//! the checker's instrumented types, in a target directory of its own.
//! Under that cfg this file compiles to nothing, so the nested run
//! cannot recurse.
#![cfg(not(fractal_check))]

use std::path::Path;
use std::process::Command;

#[test]
fn real_structure_models_pass() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = Command::new(env!("CARGO"))
        .current_dir(&root)
        .args(["test", "-p", "fractal-check", "--test", "real_structures"])
        .args(["--offline", "--locked"])
        .env("RUSTFLAGS", "--cfg fractal_check")
        .env_remove("CARGO_ENCODED_RUSTFLAGS")
        .env("CARGO_TARGET_DIR", root.join("target/model-check"))
        .output()
        .expect("spawn cargo test");
    assert!(
        out.status.success(),
        "real-structure models (--cfg fractal_check) failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
