//! # fractal-lint
//!
//! Token-level static analysis for the fractal workspace (DESIGN.md §15).
//! Std-only, no crates.io dependencies — the same philosophy as the
//! compat shims; JSON goes through `fractal_runtime::json`. Two passes
//! run over every product `.rs` file, the rules rustc and clippy cannot
//! express:
//!
//! 1. **ordering** — every atomic `load/store/swap/compare_exchange/`
//!    `fetch_*` call site must carry a `// ordering:` comment within
//!    10 lines above it justifying the memory ordering.
//! 2. **artifacts** — cross-artifact consistency: every `pub … : u64`
//!    counter in the stats/fault structs must be serialized into the
//!    `fractal-metrics/1` schema and pinned by the perf baseline (or
//!    allow-listed with a reason); every `Frame`/`AppSpec` variant must
//!    have encode and decode match arms and a mention in `crates/net`
//!    tests.
//!
//! The sync facade, `unsafe` and hot-path panics are the toolchain's:
//! `#![forbid(unsafe_code)]` at every crate root, clippy's
//! `disallowed-types` (root `clippy.toml`) under `--cfg fractal_check`,
//! and `#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]`
//! in the hot modules and `crates/net` (DESIGN.md §11.2).
//!
//! Waivers: `// ordering:` documents a site; the JSON waiver file
//! `ci/lint-waivers.json` holds counter/codec allow-list entries. Every
//! waiver needs a reason; stale or reasonless waivers are themselves
//! findings (`waiver-hygiene`).

#![forbid(unsafe_code)]

pub mod artifacts;
pub mod lexer;
pub mod passes;
pub mod selftest;
pub mod source;
pub mod testkit;
pub mod waivers;

pub use fractal_runtime::json;
use source::SourceFile;
use std::path::{Path, PathBuf};

/// One lint violation. `pass` is the rule identifier (e.g.
/// `ordering-tag`); `line` is 0 for whole-file or
/// whole-artifact findings.
#[derive(Debug, Clone)]
pub struct Finding {
    pub pass: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
}

impl Finding {
    pub fn new(pass: &'static str, file: &str, line: u32, message: String) -> Finding {
        Finding {
            pass,
            file: file.to_string(),
            line,
            message,
        }
    }
}

/// Rule identifiers, grouped into pass families for reporting.
pub const RULE_ORDERING: &str = "ordering-tag";
pub const RULE_ARTIFACT: &str = "artifact-consistency";
pub const RULE_WAIVER: &str = "waiver-hygiene";

/// (pass family shown in the report, rule ids it aggregates)
pub const PASS_FAMILIES: &[(&str, &[&str])] = &[
    ("ordering", &[RULE_ORDERING]),
    ("artifacts", &[RULE_ARTIFACT]),
    ("waiver", &[RULE_WAIVER]),
];

/// What the analyzer scans and checks. `default_for` points every knob
/// at the real tree layout; the self-test and golden fixtures reuse the
/// same defaults against scratch roots so the production configuration
/// itself is what gets exercised.
pub struct LintConfig {
    pub root: PathBuf,
    /// Files/dirs (relative, `/`-separated prefixes) that implement the
    /// sync facade; their atomics are the checker's, not product sites.
    pub facade_exempt: Vec<String>,
    /// Counter declarations: (file, struct names).
    pub counter_structs: Vec<(String, Vec<String>)>,
    /// Files whose string literals form the metrics schema surface.
    pub schema_files: Vec<String>,
    pub baseline: String,
    pub waiver_file: String,
    /// Enum codec coverage: (file, enum, [encode fn, decode fn]).
    pub enums: Vec<(String, String, Vec<String>)>,
    /// Directory whose test files must mention every codec variant.
    pub codec_tests_dir: String,
}

impl LintConfig {
    pub fn default_for(root: &Path) -> LintConfig {
        LintConfig {
            root: root.to_path_buf(),
            facade_exempt: vec![
                "crates/runtime/src/sync".into(),
                "crates/check/".into(),
                "crates/compat/".into(),
            ],
            counter_structs: vec![
                (
                    "crates/runtime/src/stats.rs".into(),
                    vec!["CoreStats".into(), "PlannerStats".into()],
                ),
                (
                    "crates/runtime/src/fault.rs".into(),
                    vec!["FaultStats".into()],
                ),
            ],
            schema_files: vec![
                "crates/runtime/src/stats.rs".into(),
                "crates/runtime/src/fault.rs".into(),
            ],
            baseline: "ci/perf-baseline.json".into(),
            waiver_file: "ci/lint-waivers.json".into(),
            enums: vec![
                (
                    "crates/net/src/frame.rs".into(),
                    "Frame".into(),
                    vec!["encode_payload".into(), "decode_payload".into()],
                ),
                // The public encode_app_spec/decode_app_spec delegate to
                // put_app/get_app, which hold the per-variant match arms.
                (
                    "crates/net/src/blob.rs".into(),
                    "AppSpec".into(),
                    vec!["put_app".into(), "get_app".into()],
                ),
            ],
            codec_tests_dir: "crates/net/tests".into(),
        }
    }

    pub fn is_facade_exempt(&self, rel: &str) -> bool {
        self.facade_exempt
            .iter()
            .any(|p| rel.starts_with(p.as_str()))
    }
}

/// Aggregated result of one lint run.
pub struct LintOutcome {
    pub files_scanned: usize,
    pub findings: Vec<Finding>,
    /// Waiver-file entries actually consumed.
    pub waivers_used: usize,
    /// Per pass family: (name, findings, waivers used).
    pub pass_stats: Vec<(&'static str, usize, usize)>,
}

impl LintOutcome {
    pub fn ok(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Recursively collect product `.rs` files under `root/src` and
/// `root/crates`, skipping `tests/`, `benches/` and `target/`
/// directories (integration tests and benches are not product code; the
/// `#[cfg(test)]` mask handles unit tests inside product files).
pub fn rust_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for top in ["src", "crates"] {
        walk(&root.join(top), &mut out);
    }
    out.sort();
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "tests" | "benches" | "target") || name.starts_with('.') {
                continue;
            }
            walk(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn rel_of(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Run every pass. Fails only on environmental errors (unreadable root,
/// malformed waiver/baseline JSON is reported as findings instead where
/// possible).
pub fn run(cfg: &LintConfig) -> Result<LintOutcome, String> {
    let paths = rust_files(&cfg.root);
    if paths.is_empty() {
        return Err(format!(
            "no .rs files under {} — wrong --root?",
            cfg.root.display()
        ));
    }
    let mut files = Vec::with_capacity(paths.len());
    for p in &paths {
        let src = std::fs::read_to_string(p).map_err(|e| format!("read {}: {}", p.display(), e))?;
        files.push(SourceFile::parse(rel_of(&cfg.root, p), &src));
    }

    let mut waivers = waivers::Waivers::load(cfg);
    let mut findings = Vec::new();

    passes::ordering_pass(cfg, &files, &mut findings);
    artifacts::artifact_pass(cfg, &files, &mut waivers, &mut findings);
    waivers.hygiene(&mut findings);

    // Order findings by file then line for stable output.
    findings.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));

    let mut pass_stats = Vec::new();
    for (family, rules) in PASS_FAMILIES {
        let n = findings.iter().filter(|f| rules.contains(&f.pass)).count();
        let w = match *family {
            "artifacts" => waivers.used_count(),
            _ => 0,
        };
        pass_stats.push((*family, n, w));
    }

    Ok(LintOutcome {
        files_scanned: files.len(),
        findings,
        waivers_used: waivers.used_count(),
        pass_stats,
    })
}

/// Render the outcome as canonical `fractal-metrics/1` JSON (the same
/// envelope the trace/perf tooling emits, so `scripts/perf_gate.py` can
/// assert on it).
pub fn metrics_json(out: &LintOutcome) -> String {
    let mut e = json::Emitter::pretty();
    e.begin_obj();
    e.key("schema").str("fractal-metrics/1");
    e.key("kind").str("lint");
    e.key("lint_files_scanned").u64(out.files_scanned as u64);
    e.key("lint_findings").u64(out.findings.len() as u64);
    e.key("lint_waivers").u64(out.waivers_used as u64);
    e.key("passes").begin_arr();
    for (name, n, w) in &out.pass_stats {
        e.inline().begin_obj();
        e.key("name").str(name);
        e.key("findings").u64(*n as u64);
        e.key("waivers").u64(*w as u64);
        e.end_obj();
    }
    e.end_arr();
    e.key("findings").begin_arr();
    for f in &out.findings {
        e.inline().begin_obj();
        e.key("pass").str(f.pass);
        e.key("file").str(&f.file);
        e.key("line").u64(f.line as u64);
        e.key("message").str(&f.message);
        e.end_obj();
    }
    e.end_arr().end_obj();
    e.finish()
}

/// Human-readable findings listing for terminal use.
pub fn render_text(out: &LintOutcome) -> String {
    let mut s = String::new();
    for f in &out.findings {
        s.push_str(&format!(
            "{}:{}: [{}] {}\n",
            f.file, f.line, f.pass, f.message
        ));
    }
    s.push_str(&format!(
        "fractal lint: {} file(s) scanned, {} finding(s), {} waiver(s) in use\n",
        out.files_scanned,
        out.findings.len(),
        out.waivers_used
    ));
    s
}
