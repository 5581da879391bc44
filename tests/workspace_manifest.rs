//! `cargo test` at the root runs the default members only. Every workspace
//! member must be one, or a new crate's tests silently drop out of the one
//! test command.

/// The quoted entries of the `key = [ ... ]` array in `toml`.
fn string_array(toml: &str, key: &str) -> Vec<String> {
    let start = toml
        .lines()
        .position(|l| l.trim_start().starts_with(&format!("{key} = [")))
        .unwrap_or_else(|| panic!("no `{key} = [` in the workspace manifest"));
    let mut entries = Vec::new();
    for line in toml.lines().skip(start + 1) {
        let line = line.trim();
        if line.starts_with(']') {
            return entries;
        }
        if let Some(entry) = line.split('"').nth(1) {
            entries.push(entry.to_string());
        }
    }
    panic!("`{key}` array is not closed");
}

#[test]
fn every_member_is_a_default_member() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
    let toml = std::fs::read_to_string(path).expect("read the workspace manifest");
    let members = string_array(&toml, "members");
    let defaults = string_array(&toml, "default-members");
    assert!(members.len() > 10, "members not parsed: {members:?}");
    assert!(
        defaults.iter().any(|d| d == "."),
        "the root package is not a default member: {defaults:?}"
    );
    let missing: Vec<&String> = members.iter().filter(|m| !defaults.contains(m)).collect();
    assert!(
        missing.is_empty(),
        "members missing from default-members, so `cargo test` skips them: {missing:?}"
    );
}
