//! Shared helpers for the HomeGuard benches.

#![forbid(unsafe_code)]

pub mod fleet_gen;

use hg_rules::rule::Rule;
use hg_symexec::{extract, ExtractorConfig};

/// Extracts the rules of a named corpus app (panics if absent/broken).
pub fn corpus_rules(name: &str) -> Vec<Rule> {
    let app = hg_corpus::benign_app(name).unwrap_or_else(|| panic!("no corpus app {name}"));
    extract(app.source, app.name, &ExtractorConfig::extended())
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .rules
}

/// The rule population of the device-controlling corpus.
pub fn device_control_rules() -> Vec<Rule> {
    hg_corpus::device_control_apps()
        .iter()
        .flat_map(|app| {
            extract(app.source, app.name, &ExtractorConfig::extended())
                .expect("corpus extracts")
                .rules
        })
        .collect()
}

/// The same population grouped per app, for incremental store audits.
pub fn device_control_rule_sets() -> Vec<Vec<Rule>> {
    hg_corpus::device_control_apps()
        .iter()
        .map(|app| {
            extract(app.source, app.name, &ExtractorConfig::extended())
                .expect("corpus extracts")
                .rules
        })
        .collect()
}
