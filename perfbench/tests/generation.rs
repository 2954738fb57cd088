//! The benchmark's own checks on its inputs: a seed always yields the
//! same config text, and the explicit component tables the benchmark
//! writes (so the traced run can wrap them) compose the same system as
//! the `dilu` preset.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use dilu_core::{Registry, ScenarioConfig};
use dilu_perfbench::{deploy, prime, run, Workload};

/// 64-bit FNV-1a, to pin generated text without storing it.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn a_seed_always_yields_the_same_config_text() {
    // Changing these digests changes every workload's inputs: re-measure
    // the baseline in the same change.
    let pinned = [
        (Workload::FleetOverload, 0xa233_fea8_69f0_8380),
        (Workload::MacroBurst, 0xe27f_f1b4_2f52_bfbe),
        (Workload::ColdstartChurn, 0xb34e_463d_12c2_e55f),
    ];
    for (workload, digest) in pinned {
        let text = workload.config(1);
        assert_eq!(text, workload.config(1), "{}", workload.name());
        assert_ne!(
            text,
            workload.config(2),
            "{}: the seed must change the inputs",
            workload.name()
        );
        assert_eq!(fnv1a(text.as_bytes()), digest, "{}: config text drifted", workload.name());
    }
}

#[test]
fn generated_configs_name_every_component_and_one_thread() {
    for workload in Workload::ALL {
        let config = ScenarioConfig::from_toml_str(&workload.config(3)).expect("config parses");
        let system = &config.system;
        assert_eq!(system.preset, None, "{}: presets bypass the registry", workload.name());
        assert_eq!(system.placement.as_ref().map(|c| c.name.as_str()), Some("dilu"));
        assert_eq!(system.share_policy.as_ref().map(|c| c.name.as_str()), Some("rckm"));
        assert!(system.controller.is_some(), "{}", workload.name());
        assert_eq!(config.sim.as_ref().and_then(|s| s.threads), Some(1), "{}", workload.name());
    }
}

/// The report of `text` as JSON, through the default registry.
fn report_json(text: &str) -> String {
    let config = ScenarioConfig::from_toml_str(text).expect("config parses");
    let mut prepared = deploy(config, &Registry::with_defaults()).expect("scenario deploys");
    prime(&mut prepared);
    let (report, _) = run(prepared);
    serde_json::to_string(&report).expect("report serializes")
}

#[test]
fn explicit_composition_matches_the_dilu_preset() {
    for workload in Workload::ALL {
        let explicit = workload.config_with_horizon(5, 40);
        let preset = explicit
            .replace("[system.placement]\nname = \"dilu\"\n", "[system]\npreset = \"dilu\"\n")
            .replace("[system.share_policy]\nname = \"rckm\"\n", "");
        assert!(preset.contains("preset = \"dilu\"") && !preset.contains("[system.share_policy]"));
        assert_eq!(
            report_json(&explicit),
            report_json(&preset),
            "{}: explicit components must compose the preset's system",
            workload.name()
        );
    }
}
