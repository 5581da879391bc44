//! The workspace itself, held on each `cargo test` to the rules no
//! compiler pass expresses: every product line that names an atomic
//! memory ordering carries an `// ordering:` comment, and the clippy leg
//! that owns the sync facade and the hot-path and `crates/net` panic
//! denies is clean (DESIGN.md §11.2, §15).

use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The sync facade's own files: their atomics are the model checker's,
/// not product sites.
const FACADE: &[&str] = &["crates/runtime/src/sync", "crates/check/", "crates/compat/"];

const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// How far above a site an `// ordering:` comment may sit and still
/// cover it.
const WINDOW: usize = 10;

/// Every line of `src` whose code names an atomic memory ordering, as
/// (1-based line, tagged). A line is tagged when it or one of the
/// [`WINDOW`] lines above carries a non-doc `// ordering:` comment. The
/// file's `#[cfg(test)] mod tests` tail is not scanned; an earlier
/// `#[cfg(test)]` item does not end the product code.
fn ordering_sites(src: &str) -> Vec<(usize, bool)> {
    let lines: Vec<&str> = src.lines().collect();
    let tail = lines
        .windows(2)
        .position(|w| w[0].trim() == "#[cfg(test)]" && w[1].trim_start().starts_with("mod tests"))
        .unwrap_or(lines.len());
    let is_tag = |line: &str| {
        line.find("//").is_some_and(|i| {
            let comment = &line[i..];
            !comment.starts_with("///")
                && !comment.starts_with("//!")
                && comment.contains("ordering:")
        })
    };
    (0..tail)
        .filter(|&i| {
            let code = lines[i].split("//").next().unwrap_or("");
            ORDERINGS
                .iter()
                .any(|o| code.contains(&format!("Ordering::{o}")))
        })
        .map(|i| {
            (
                i + 1,
                (i.saturating_sub(WINDOW)..=i).any(|j| is_tag(lines[j])),
            )
        })
        .collect()
}

/// `.rs` files under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for path in entries.flatten().map(|e| e.path()) {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn ordering_scan_cases() {
    let filler = "    let _ = 0;\n".repeat(9);
    // (case, source, untagged lines)
    let cases: &[(&str, String, &[usize])] = &[
        (
            "untagged load",
            "fn f(c: &A) -> u64 {\n    c.load(Ordering::Acquire)\n}\n".into(),
            &[2],
        ),
        (
            "tag 10 lines above",
            format!("fn f(c: &A) -> u64 {{\n    // ordering: Relaxed, a counter\n{filler}    c.load(Ordering::Relaxed)\n}}\n"),
            &[],
        ),
        (
            "tag 11 lines above",
            format!("// ordering: Relaxed, a counter\nfn f(c: &A) -> u64 {{\n{filler}    c.load(Ordering::Relaxed)\n}}\n"),
            &[12],
        ),
        (
            "doc line is no tag",
            "/// ordering: documents the convention\nfn f(c: &A) { c.store(1, Ordering::SeqCst) }\n".into(),
            &[2],
        ),
        (
            "test tail ignored",
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t(c: &A) { c.load(Ordering::AcqRel); }\n}\n".into(),
            &[],
        ),
        (
            "earlier cfg(test) item ends nothing",
            "#[cfg(test)]\nfn helper() {}\nfn f(c: &A) { c.swap(1, Ordering::Release); }\n".into(),
            &[3],
        ),
        (
            "comments and cmp orderings are no sites",
            "// c.load(Ordering::Acquire)\nfn f() -> std::cmp::Ordering { std::cmp::Ordering::Less }\n".into(),
            &[],
        ),
    ];
    for (case, src, want) in cases {
        let got: Vec<usize> = ordering_sites(src)
            .into_iter()
            .filter(|&(_, tagged)| !tagged)
            .map(|(line, _)| line)
            .collect();
        assert_eq!(got, *want, "{case}");
    }
}

/// Every product line outside the facade that names an atomic ordering
/// is tagged.
#[test]
fn workspace_lints_clean() {
    let root = workspace_root();
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates"))
        .expect("crates/")
        .flatten()
    {
        rust_files(&krate.path().join("src"), &mut files);
    }
    let (mut sites, mut untagged) = (0, Vec::new());
    for path in files {
        let rel = path
            .strip_prefix(&root)
            .unwrap()
            .to_string_lossy()
            .replace('\\', "/");
        if FACADE.iter().any(|p| rel.starts_with(p)) {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("read source");
        for (line, tagged) in ordering_sites(&src) {
            sites += 1;
            if !tagged {
                untagged.push(format!("{rel}:{line}"));
            }
        }
    }
    assert!(
        sites > 0,
        "no atomic ordering sites found under {}",
        root.display()
    );
    assert!(
        untagged.is_empty(),
        "atomic orderings with no `// ordering:` comment within {WINDOW} lines:\n{}",
        untagged.join("\n")
    );
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
