//! `fractal lint --self-test`: the linter proves it still catches what
//! it claims to catch — the repo's established gate pattern (the perf
//! gate injects a fake regression, the chaos gate replants known bugs,
//! the workflow linter breaks a scratch workflow). A clean scratch tree
//! must lint clean, then one violation per pass is planted and the run
//! must report exactly that rule.

use crate::testkit::clean_tree;
use crate::{run, LintConfig};

struct Scenario {
    name: &'static str,
    expect_rule: &'static str,
    plant: fn(&crate::testkit::Scratch),
}

const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "ordering: untagged atomic load",
        expect_rule: crate::RULE_ORDERING,
        plant: |s| {
            s.append(
                "crates/scratch/src/lib.rs",
                "pub fn untagged(c: &C) -> u64 {\n    c.load(Ordering::Acquire)\n}\n",
            )
        },
    },
    Scenario {
        name: "artifacts: counter never serialized / never pinned",
        expect_rule: crate::RULE_ARTIFACT,
        plant: |s| {
            s.write(
                "crates/runtime/src/stats.rs",
                "pub struct CoreStats {\n    pub ec: u64,\n    pub ghost: u64,\n}\npub struct PlannerStats {\n    pub plans_compiled: u64,\n}\npub fn to_json() -> String {\n    \"{\\\"total_ec\\\": 0, \\\"ec\\\": 0, \\\"plans_compiled\\\": 0, \\\"faults_injected\\\": 0}\".to_string()\n}\n",
            )
        },
    },
    Scenario {
        name: "artifacts: enum variant missing from decode",
        expect_rule: crate::RULE_ARTIFACT,
        plant: |s| {
            s.write(
                "crates/net/src/frame.rs",
                "pub enum Frame {\n    Ping { n: u32 },\n    Pong,\n}\npub fn encode_payload(f: &Frame) -> u8 {\n    match f {\n        Frame::Ping { .. } => 1,\n        Frame::Pong => 2,\n    }\n}\npub fn decode_payload(_code: u8) -> Frame {\n    Frame::Ping { n: 0 }\n}\n",
            )
        },
    },
    Scenario {
        name: "waiver: entry without a reason cannot waive",
        expect_rule: crate::RULE_WAIVER,
        plant: |s| {
            s.write(
                "ci/lint-waivers.json",
                "{\n  \"schema\": \"fractal-lint-waivers/1\",\n  \"waivers\": [\n    {\"pass\": \"counter-pin\", \"key\": \"ec\", \"reason\": \"\"}\n  ]\n}\n",
            )
        },
    },
    Scenario {
        name: "waiver: stale entry that waives nothing",
        expect_rule: crate::RULE_WAIVER,
        plant: |s| {
            s.write(
                "ci/lint-waivers.json",
                "{\n  \"schema\": \"fractal-lint-waivers/1\",\n  \"waivers\": [\n    {\"pass\": \"counter-pin\", \"key\": \"ghost_ns\", \"reason\": \"counter was deleted long ago, waiver lingers\"}\n  ]\n}\n",
            )
        },
    },
];

/// Run every scenario; returns a human-readable transcript, or an error
/// describing the first scenario whose planted violation went
/// undetected (or whose clean baseline was noisy).
pub fn self_test() -> Result<String, String> {
    let mut log = String::new();

    // Leg 0: the clean tree really is clean — guards against false
    // positives as much as the scenarios guard against false negatives.
    {
        let s = clean_tree("clean");
        let out = run(&LintConfig::default_for(s.path()))
            .map_err(|e| format!("self-test: clean tree failed to lint: {}", e))?;
        if !out.findings.is_empty() {
            return Err(format!(
                "self-test: clean scratch tree produced {} finding(s) — false positive:\n{}",
                out.findings.len(),
                crate::render_text(&out)
            ));
        }
        log.push_str(&format!(
            "self-test: clean tree OK ({} files, 0 findings)\n",
            out.files_scanned
        ));
    }

    for (i, sc) in SCENARIOS.iter().enumerate() {
        let s = clean_tree(&format!("sc{}", i));
        (sc.plant)(&s);
        let out = run(&LintConfig::default_for(s.path()))
            .map_err(|e| format!("self-test [{}]: lint run failed: {}", sc.name, e))?;
        if !out.findings.iter().any(|f| f.pass == sc.expect_rule) {
            return Err(format!(
                "self-test [{}]: planted violation NOT caught (expected rule `{}`, got {:?})",
                sc.name,
                sc.expect_rule,
                out.findings.iter().map(|f| f.pass).collect::<Vec<_>>()
            ));
        }
        log.push_str(&format!(
            "self-test: caught planted violation [{}] via `{}`\n",
            sc.name, sc.expect_rule
        ));
    }
    log.push_str(&format!(
        "self-test: all {} planted violations caught across both passes and waiver hygiene\n",
        SCENARIOS.len()
    ));
    Ok(log)
}

#[cfg(test)]
mod tests {
    #[test]
    fn self_test_passes() {
        super::self_test().unwrap();
    }
}
