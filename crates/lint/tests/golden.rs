//! Golden-fixture tests: for each pass, a clean snippet, a violating
//! snippet, and a *waivered* snippet where the pass takes waivers (the
//! self-test covers clean-vs-violating; the waiver legs live here). All
//! fixtures run the production `LintConfig::default_for` against scratch
//! trees from `fractal_lint::testkit`.

use fractal_lint::testkit::{clean_tree, Scratch};
use fractal_lint::{metrics_json, run, LintConfig, LintOutcome};

fn lint(s: &Scratch) -> LintOutcome {
    run(&LintConfig::default_for(s.path())).expect("lint run")
}

fn rules(out: &LintOutcome) -> Vec<&'static str> {
    out.findings.iter().map(|f| f.pass).collect()
}

#[test]
fn clean_tree_is_clean() {
    let s = clean_tree("golden-clean");
    let out = lint(&s);
    assert!(out.findings.is_empty(), "unexpected: {:?}", rules(&out));
    assert_eq!(out.files_scanned, 5);
    assert_eq!(out.waivers_used, 0);
}

#[test]
fn ordering_tag_within_window_passes_and_strings_do_not_fool_it() {
    let s = clean_tree("golden-ordering");
    // A tag 9 lines above is inside the 10-line window; an escape
    // spelled inside a string literal is not a finding.
    s.append(
        "crates/scratch/src/lib.rs",
        r#"pub fn windowed(c: &C) -> u64 {
    // ordering: Relaxed — fixture: tag sits several lines above the site
    let a = 1;
    let b = a + 1;
    let d = b + 1;
    let e = d + 1;
    let f = e + 1;
    let g = f + 1;
    let h = g + 1;
    let _ = (d, e, f, g, h);
    c.load(Ordering::Relaxed)
}
pub fn strings() -> &'static str {
    "std::sync::atomic::AtomicU64 c.load(Ordering::SeqCst)"
}
"#,
    );
    let out = lint(&s);
    assert!(out.findings.is_empty(), "{:?}", out.findings);
}

#[test]
fn ordering_cmp_match_arms_are_not_atomic_sites() {
    let s = clean_tree("golden-cmp");
    // std::cmp::Ordering idioms: no atomic ordering variant inside an
    // atomic accessor's argument list, so none of this is flagged.
    s.append(
        "crates/scratch/src/lib.rs",
        r#"pub fn cmp_noise(a: &[u32], b: &[u32], v: &mut Vec<u32>) -> std::cmp::Ordering {
    v.swap(0, 1);
    match a.len().cmp(&b.len()) {
        std::cmp::Ordering::Less => std::cmp::Ordering::Less,
        other => other,
    }
}
"#,
    );
    let out = lint(&s);
    assert!(out.findings.is_empty(), "{:?}", out.findings);
}

#[test]
fn counter_pin_allowlist_waives_with_reason() {
    let s = clean_tree("golden-counter");
    // New counter: serialized into the schema but not pinned anywhere.
    s.write(
        "crates/runtime/src/stats.rs",
        r#"pub struct CoreStats {
    pub ec: u64,
    pub jitter_ns: u64,
}
pub struct PlannerStats {
    pub plans_compiled: u64,
}
pub fn to_json() -> String {
    "{\"total_ec\": 0, \"ec\": 0, \"jitter_ns\": 0, \"plans_compiled\": 0, \"faults_injected\": 0}".to_string()
}
"#,
    );
    let out = lint(&s);
    assert_eq!(
        rules(&out),
        vec!["artifact-consistency"],
        "{:?}",
        out.findings
    );
    assert!(out.findings[0].message.contains("jitter_ns"));

    s.write(
        "ci/lint-waivers.json",
        r#"{
  "schema": "fractal-lint-waivers/1",
  "waivers": [
    {"pass": "counter-pin", "key": "jitter_ns",
     "reason": "timing counter, machine-dependent by definition (fixture)"}
  ]
}
"#,
    );
    let out = lint(&s);
    assert!(out.findings.is_empty(), "{:?}", out.findings);
    assert_eq!(out.waivers_used, 1);
}

#[test]
fn codec_test_mention_required_and_waivable() {
    let s = clean_tree("golden-codec");
    // Drop the test mention of Frame::Pong (arms stay intact).
    s.write(
        "crates/net/tests/roundtrip.rs",
        "// mentions: Frame::Ping AppSpec::Motifs\n",
    );
    let out = lint(&s);
    assert_eq!(
        rules(&out),
        vec!["artifact-consistency"],
        "{:?}",
        out.findings
    );
    assert!(out.findings[0].message.contains("Frame::Pong"));

    s.write(
        "ci/lint-waivers.json",
        r#"{
  "schema": "fractal-lint-waivers/1",
  "waivers": [
    {"pass": "codec-test", "key": "Frame::Pong",
     "reason": "fixture: variant exercised via integration harness elsewhere"}
  ]
}
"#,
    );
    let out = lint(&s);
    assert!(out.findings.is_empty(), "{:?}", out.findings);
}

#[test]
fn test_regions_are_exempt_everywhere() {
    let s = clean_tree("golden-testmask");
    s.append(
        "crates/scratch/src/lib.rs",
        r#"#[cfg(test)]
mod more_tests {
    use std::sync::atomic::{AtomicU64, Ordering};
    fn poke(c: &AtomicU64) -> u64 {
        c.load(Ordering::SeqCst)
    }
}
"#,
    );
    let out = lint(&s);
    assert!(out.findings.is_empty(), "{:?}", out.findings);
}

#[test]
fn metrics_json_is_canonical_and_parses() {
    let s = clean_tree("golden-metrics");
    s.append(
        "crates/scratch/src/lib.rs",
        "pub fn untagged(c: &C) -> u64 {\n    c.load(Ordering::Acquire)\n}\n",
    );
    let out = lint(&s);
    let json = metrics_json(&out);
    let v = fractal_lint::json::parse(&json).expect("valid JSON");
    assert_eq!(v.get("schema").unwrap().as_str(), Some("fractal-metrics/1"));
    assert_eq!(v.get("kind").unwrap().as_str(), Some("lint"));
    assert_eq!(v.get("lint_findings").unwrap().as_num(), Some(1.0));
    assert_eq!(v.get("lint_files_scanned").unwrap().as_num(), Some(5.0));
    let passes = v.get("passes").unwrap().as_arr().unwrap();
    assert_eq!(passes.len(), 3);
    let findings = v.get("findings").unwrap().as_arr().unwrap();
    assert_eq!(findings.len(), 1);
    assert_eq!(
        findings[0].get("pass").unwrap().as_str(),
        Some("ordering-tag")
    );
}
