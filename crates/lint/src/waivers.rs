//! The JSON waiver file `ci/lint-waivers.json`
//! (`fractal-lint-waivers/1`): counter/codec allow-list entries. Every
//! entry needs a real reason (≥ 10 characters after trimming);
//! reasonless, unknown-pass, and never-consumed entries are reported as `waiver-hygiene` findings so
//! the file can only shrink or be consciously grown.

use crate::json;
use crate::{Finding, LintConfig, RULE_WAIVER};

/// Passes that accept waiver-file entries (both artifact checks).
const WAIVABLE: &[&str] = &["counter-pin", "codec-test"];

const MIN_REASON: usize = 10;

struct Entry {
    pass: String,
    key: String,
    reason: String,
    used: bool,
    index: usize,
}

pub struct Waivers {
    file: String,
    entries: Vec<Entry>,
    load_error: Option<String>,
}

impl Waivers {
    pub fn load(cfg: &LintConfig) -> Waivers {
        let path = cfg.root.join(&cfg.waiver_file);
        let mut w = Waivers {
            file: cfg.waiver_file.clone(),
            entries: Vec::new(),
            load_error: None,
        };
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => return w, // no waiver file = no waivers
        };
        let v = match json::parse(&text) {
            Ok(v) => v,
            Err(e) => {
                w.load_error = Some(format!("malformed waiver JSON: {}", e));
                return w;
            }
        };
        if v.get("schema").and_then(|s| s.as_str()) != Some("fractal-lint-waivers/1") {
            w.load_error =
                Some("waiver file must declare \"schema\": \"fractal-lint-waivers/1\"".into());
            return w;
        }
        for (index, e) in v
            .get("waivers")
            .and_then(|a| a.as_arr())
            .unwrap_or(&[])
            .iter()
            .enumerate()
        {
            let field = |k: &str| e.get(k).and_then(|s| s.as_str()).unwrap_or("").to_string();
            w.entries.push(Entry {
                pass: field("pass"),
                key: field("key"),
                reason: field("reason"),
                used: false,
                index,
            });
        }
        w
    }

    /// If a valid entry `(pass, key)` exists, mark it used and return
    /// its reason. Reasonless entries do not waive (they only produce
    /// hygiene findings), so a bad reason can never silence a real
    /// finding.
    pub fn consume(&mut self, pass: &str, key: &str) -> Option<&str> {
        let e = self
            .entries
            .iter_mut()
            .find(|e| e.pass == pass && e.key == key && e.reason.trim().len() >= MIN_REASON)?;
        e.used = true;
        Some(&e.reason)
    }

    pub fn used_count(&self) -> usize {
        self.entries.iter().filter(|e| e.used).count()
    }

    /// Emit `waiver-hygiene` findings: load errors, unknown passes,
    /// short/missing reasons, and entries nothing consumed.
    pub fn hygiene(&self, out: &mut Vec<Finding>) {
        if let Some(err) = &self.load_error {
            out.push(Finding::new(RULE_WAIVER, &self.file, 0, err.clone()));
        }
        for e in &self.entries {
            let at = format!("waiver #{} ({} / {})", e.index + 1, e.pass, e.key);
            if !WAIVABLE.contains(&e.pass.as_str()) {
                out.push(Finding::new(
                    RULE_WAIVER,
                    &self.file,
                    0,
                    format!("{}: unknown pass; waivable passes are {:?}", at, WAIVABLE),
                ));
                continue;
            }
            if e.reason.trim().len() < MIN_REASON {
                out.push(Finding::new(
                    RULE_WAIVER,
                    &self.file,
                    0,
                    format!(
                        "{}: reason must be at least {} characters — say *why* the waiver is sound",
                        at, MIN_REASON
                    ),
                ));
                continue;
            }
            if !e.used {
                out.push(Finding::new(
                    RULE_WAIVER,
                    &self.file,
                    0,
                    format!("{}: waives nothing (stale — delete it)", at),
                ));
            }
        }
    }
}
