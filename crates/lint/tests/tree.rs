//! The workspace itself, held to every lint rule on each `cargo test`:
//! `fractal lint`'s own passes over the real tree, and the clippy leg
//! that owns the sync facade and the hot-path and `crates/net` panic
//! denies (DESIGN.md §11.2, §15).

use fractal_lint::{render_text, run, LintConfig};
use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_lints_clean() {
    let out = run(&LintConfig::default_for(&workspace_root())).expect("lint run");
    assert!(out.ok(), "fractal lint findings:\n{}", render_text(&out));
}

/// Clippy over every lib and bin target with the facade resolved to the
/// model checker's types, so a std atomic, lock or `UnsafeCell` that
/// bypasses it is a `disallowed_types` error, and a stale `#[expect]` is
/// an `unfulfilled_lint_expectations` one.
#[test]
fn clippy_facade_leg_is_clean() {
    let root = workspace_root();
    let version = Command::new(env!("CARGO"))
        .args(["clippy", "--version"])
        .output()
        .expect("spawn cargo");
    assert!(
        version.status.success(),
        "`cargo clippy` is unavailable; install the rustup component `clippy`:\n{}",
        String::from_utf8_lossy(&version.stderr)
    );
    let out = Command::new(env!("CARGO"))
        .current_dir(&root)
        .args(["clippy", "--workspace", "--offline", "--locked", "--"])
        .args(["-D", "warnings"])
        .env("RUSTFLAGS", "--cfg fractal_check")
        .env_remove("CARGO_ENCODED_RUSTFLAGS")
        .env("CARGO_TARGET_DIR", root.join("target/clippy-facade"))
        .output()
        .expect("spawn cargo clippy");
    assert!(
        out.status.success(),
        "clippy leg (--cfg fractal_check) failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
