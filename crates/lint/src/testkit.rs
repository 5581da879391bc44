//! Scratch-tree builders shared by `--self-test` and the golden-fixture
//! tests. A scratch tree is a minimal fake workspace laid out exactly
//! like the real one (same relative paths as `LintConfig::default_for`),
//! so the *production* lint configuration is what gets exercised — not a
//! parallel test-only configuration that could drift.

use std::path::{Path, PathBuf};

pub struct Scratch {
    pub root: PathBuf,
}

impl Scratch {
    /// Fresh empty scratch root under the system temp dir. `tag` keeps
    /// concurrently-running tests apart.
    pub fn new(tag: &str) -> Scratch {
        let root = std::env::temp_dir().join(format!(
            "fractal-lint-scratch-{}-{}",
            std::process::id(),
            tag
        ));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create scratch root");
        Scratch { root }
    }

    pub fn write(&self, rel: &str, content: &str) {
        let path = self.root.join(rel);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create scratch dir");
        }
        std::fs::write(&path, content).expect("write scratch file");
    }

    pub fn append(&self, rel: &str, content: &str) {
        let path = self.root.join(rel);
        let mut cur = std::fs::read_to_string(&path).unwrap_or_default();
        cur.push_str(content);
        std::fs::write(&path, cur).expect("append scratch file");
    }

    pub fn path(&self) -> &Path {
        &self.root
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// A clean scratch workspace: every pass of the default configuration
/// runs over it and finds nothing. Mutating one file then re-running is
/// how each violation fixture is built.
pub fn clean_tree(tag: &str) -> Scratch {
    let s = Scratch::new(tag);

    // A product file exercising the tagged-atomic, waiver-free happy path.
    s.write(
        "crates/scratch/src/lib.rs",
        r#"pub fn tagged(c: &C) -> u64 {
    // ordering: Relaxed — scratch counter, no cross-thread invariant rides on it
    c.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    // Test regions are masked: this untagged atomic is fine.
    fn t(c: &C) {
        let _ = c.load(Ordering::SeqCst);
    }
}
"#,
    );

    // Counter structs + the serialized fractal-metrics/1 surface.
    s.write(
        "crates/runtime/src/stats.rs",
        r#"pub struct CoreStats {
    pub ec: u64,
    pub segments: Vec<u64>,
}

pub struct PlannerStats {
    pub plans_compiled: u64,
}

pub fn to_json(c: &CoreStats, p: &PlannerStats, f: &super::fault::FaultStats) -> String {
    format!(
        "{{\"total_ec\": {}, \"ec\": {}, \"plans_compiled\": {}, \"faults_injected\": {}}}",
        c.ec, c.ec, p.plans_compiled, f.faults_injected
    )
}
"#,
    );
    s.write(
        "crates/runtime/src/fault.rs",
        r#"pub struct FaultStats {
    pub faults_injected: u64,
}

pub struct FaultConfig {
    pub seed: u32,
}
"#,
    );

    // Wire codecs with full variant coverage.
    s.write(
        "crates/net/src/frame.rs",
        r#"pub enum Frame {
    Ping { n: u32 },
    Pong,
}

pub fn encode_payload(f: &Frame) -> u8 {
    match f {
        Frame::Ping { .. } => 1,
        Frame::Pong => 2,
    }
}

pub fn decode_payload(code: u8) -> Frame {
    if code == 1 {
        Frame::Ping { n: 0 }
    } else {
        Frame::Pong
    }
}
"#,
    );
    s.write(
        "crates/net/src/blob.rs",
        r#"pub enum AppSpec {
    Motifs { k: u32 },
}

pub fn put_app(a: &AppSpec) -> u8 {
    match a {
        AppSpec::Motifs { .. } => 1,
    }
}

pub fn get_app(_code: u8) -> AppSpec {
    AppSpec::Motifs { k: 3 }
}
"#,
    );
    s.write(
        "crates/net/tests/roundtrip.rs",
        "// mentions: Frame::Ping Frame::Pong AppSpec::Motifs\n",
    );

    // Artifacts: baseline pins and empty waivers.
    s.write(
        "ci/perf-baseline.json",
        r#"{
  "schema": "fractal-perf-baseline/1",
  "tolerances": {"total_ec": 0.0, "plans_compiled": 0.0},
  "fault_free_counters": ["faults_injected"]
}
"#,
    );
    s.write(
        "ci/lint-waivers.json",
        "{\n  \"schema\": \"fractal-lint-waivers/1\",\n  \"waivers\": []\n}\n",
    );

    s
}
