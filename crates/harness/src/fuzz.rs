//! The fuzz driver: generate → check → shrink → dump.

use std::path::{Path, PathBuf};

use dilu_core::{Registry, ScenarioConfig};

use crate::emit::to_toml;
use crate::gen::{generate_case, SpaceConfig};
use crate::oracle::{default_oracles, Oracle, Verdict};

/// Options of one fuzzing run (the `dilu fuzz` flags).
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Number of generated cases.
    pub cases: usize,
    /// Root seed; case `i` uses case seed `seed + i`, so any failing case
    /// reproduces as `--seed <case_seed> --cases 1`.
    pub seed: u64,
    /// Restrict to oracles with these names (empty = all).
    pub oracles: Vec<String>,
    /// Shrink failures to a minimal reproducer before reporting.
    pub minimize: bool,
    /// Where failing scenarios are dumped as TOML (`None` = no dumps).
    pub dump_dir: Option<PathBuf>,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions { cases: 64, seed: 7, oracles: Vec::new(), minimize: false, dump_dir: None }
    }
}

/// One confirmed oracle violation, with everything needed to reproduce it.
#[derive(Debug)]
pub struct Failure {
    /// The case seed (`dilu fuzz --seed <this> --cases 1` regenerates it).
    pub case_seed: u64,
    /// The violated oracle.
    pub oracle: String,
    /// The oracle's explanation.
    pub detail: String,
    /// The failing scenario as generated.
    pub config: ScenarioConfig,
    /// The shrunk scenario, when `minimize` was on and shrinking helped.
    pub minimized: Option<ScenarioConfig>,
    /// Where the (minimized, if available) scenario TOML was written.
    pub dump: Option<PathBuf>,
    /// Where the oracle's binary reproducer (e.g. the record/replay
    /// oracle's event log) was written, when the oracle produced one.
    pub artifact: Option<PathBuf>,
}

/// Aggregate result of a fuzzing run.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Cases generated.
    pub cases: usize,
    /// `(case, oracle)` checks that passed.
    pub passed: usize,
    /// `(case, oracle)` checks skipped as infeasible compositions.
    pub skipped: usize,
    /// Confirmed violations.
    pub failures: Vec<Failure>,
}

impl FuzzReport {
    /// `true` when no oracle fired.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The fuzzing harness: a sampling space, the registry resolving its
/// component names, and the oracle suite.
pub struct Harness {
    space: SpaceConfig,
    registry: Registry,
    oracles: Vec<Box<dyn Oracle>>,
}

impl Default for Harness {
    fn default() -> Self {
        Self::new()
    }
}

impl Harness {
    /// The default harness: every built-in component, all four oracles.
    pub fn new() -> Self {
        Harness {
            space: SpaceConfig::default(),
            registry: Registry::with_defaults(),
            oracles: default_oracles(),
        }
    }

    /// A harness over a custom space and registry — how tests aim the
    /// fuzzer at deliberately broken components.
    pub fn with_space(space: SpaceConfig, registry: Registry) -> Self {
        Harness { space, registry, oracles: default_oracles() }
    }

    /// Replaces the oracle suite.
    pub fn with_oracles(mut self, oracles: Vec<Box<dyn Oracle>>) -> Self {
        self.oracles = oracles;
        self
    }

    /// Oracle names available for `--oracle` filtering.
    pub fn oracle_names(&self) -> Vec<&'static str> {
        self.oracles.iter().map(|o| o.name()).collect()
    }

    /// Runs the full fuzzing loop. Progress lines go through `progress`
    /// (the CLI prints them; library callers may drop them).
    ///
    /// # Errors
    ///
    /// An unknown name in [`FuzzOptions::oracles`] is an error listing the
    /// known oracles — never a silently empty (vacuously clean) run.
    pub fn run_with_progress(
        &self,
        options: &FuzzOptions,
        mut progress: impl FnMut(&str),
    ) -> Result<FuzzReport, String> {
        let known = self.oracle_names();
        for name in &options.oracles {
            if !known.contains(&name.as_str()) {
                return Err(format!("unknown oracle `{name}` (known: {})", known.join(", ")));
            }
        }
        let selected: Vec<&Box<dyn Oracle>> = self
            .oracles
            .iter()
            .filter(|o| options.oracles.is_empty() || options.oracles.iter().any(|n| n == o.name()))
            .collect();
        // An explicit `--oracle <name>` request always runs; only the
        // full default sweep lets expensive oracles sample their cases.
        let explicit = !options.oracles.is_empty();
        let mut report = FuzzReport { cases: options.cases, ..FuzzReport::default() };
        for index in 0..options.cases {
            let case_seed = options.seed.wrapping_add(index as u64);
            let config = generate_case(&self.space, case_seed);
            for oracle in &selected {
                if !explicit && !oracle.samples(case_seed) {
                    continue;
                }
                match oracle.check(&config, &self.registry) {
                    Verdict::Pass => report.passed += 1,
                    Verdict::Skip(_) => report.skipped += 1,
                    Verdict::Fail(detail) => {
                        progress(&format!(
                            "case {index} (seed {case_seed}): {} violated",
                            oracle.name()
                        ));
                        let minimized = if options.minimize {
                            self.shrink(&config, oracle.as_ref())
                        } else {
                            None
                        };
                        let dump = options.dump_dir.as_deref().and_then(|dir| {
                            dump_config(
                                dir,
                                case_seed,
                                oracle.name(),
                                minimized.as_ref().unwrap_or(&config),
                            )
                        });
                        let artifact = options.dump_dir.as_deref().and_then(|dir| {
                            let (ext, bytes) = oracle.artifact()?;
                            dump_artifact(dir, case_seed, oracle.name(), &ext, &bytes)
                        });
                        report.failures.push(Failure {
                            case_seed,
                            oracle: oracle.name().to_owned(),
                            detail,
                            config: config.clone(),
                            minimized,
                            dump,
                            artifact,
                        });
                    }
                }
            }
            if (index + 1) % 16 == 0 {
                progress(&format!(
                    "{}/{} cases, {} checks passed, {} skipped, {} failures",
                    index + 1,
                    options.cases,
                    report.passed,
                    report.skipped,
                    report.failures.len()
                ));
            }
        }
        Ok(report)
    }

    /// [`run_with_progress`](Self::run_with_progress) without progress
    /// output.
    ///
    /// # Errors
    ///
    /// See [`run_with_progress`](Self::run_with_progress).
    pub fn run(&self, options: &FuzzOptions) -> Result<FuzzReport, String> {
        self.run_with_progress(options, |_| {})
    }

    /// Greedily shrinks a failing scenario: repeatedly applies the first
    /// simplification pass that keeps the oracle failing, until none does
    /// (or the run budget is spent). Returns `None` when no pass helped.
    pub fn shrink(&self, config: &ScenarioConfig, oracle: &dyn Oracle) -> Option<ScenarioConfig> {
        let mut current = config.clone();
        let mut shrunk = false;
        let mut budget = 64usize;
        'outer: while budget > 0 {
            for candidate in shrink_candidates(&current) {
                if budget == 0 {
                    break 'outer;
                }
                budget -= 1;
                if oracle.check(&candidate, &self.registry).is_fail() {
                    current = candidate;
                    shrunk = true;
                    continue 'outer;
                }
            }
            break;
        }
        shrunk.then_some(current)
    }
}

/// Candidate one-step simplifications of a scenario, most aggressive
/// first: fewer functions, a shorter horizon, a smaller fleet, no `[sim]`
/// section, fewer pre-warmed instances, fewer replayed instants.
fn shrink_candidates(config: &ScenarioConfig) -> Vec<ScenarioConfig> {
    let mut out = Vec::new();
    if config.functions.len() > 1 {
        for drop in 0..config.functions.len() {
            let mut c = config.clone();
            c.functions.remove(drop);
            out.push(c);
        }
    }
    if let Some(run) = &config.run {
        let horizon = run.horizon_secs.unwrap_or(60);
        if horizon > 2 {
            let mut c = config.clone();
            c.run.as_mut().expect("checked").horizon_secs = Some((horizon / 2).max(2));
            out.push(c);
        }
    }
    if let Some(cluster) = &config.cluster {
        if cluster.nodes.unwrap_or(1) > 1 {
            let mut c = config.clone();
            c.cluster.as_mut().expect("checked").nodes = Some(1);
            out.push(c);
        }
        let gpus = cluster.gpus_per_node.unwrap_or(4);
        let min_gpus =
            config.functions.iter().filter_map(|f| f.gpus_per_instance).max().unwrap_or(1).max(1);
        if gpus / 2 >= min_gpus && cluster.nodes.unwrap_or(1) == 1 {
            let mut c = config.clone();
            c.cluster.as_mut().expect("checked").gpus_per_node = Some(gpus / 2);
            out.push(c);
        }
    }
    if config.sim.is_some() {
        let mut c = config.clone();
        c.sim = None;
        out.push(c);
    }
    if config.network.is_some() {
        // Dropping the network plane falls back to the legacy constants —
        // if the failure survives, the network was not the culprit.
        let mut c = config.clone();
        c.network = None;
        out.push(c);
    }
    for (i, f) in config.functions.iter().enumerate() {
        if f.initial.unwrap_or(1) > 1 {
            let mut c = config.clone();
            c.functions[i].initial = Some(1);
            out.push(c);
        }
        if let Some(spec) = &f.arrivals {
            if let Some(times) = &spec.times {
                if times.len() > 1 {
                    let mut c = config.clone();
                    let halved = times[..times.len() / 2].to_vec();
                    c.functions[i].arrivals.as_mut().expect("checked").times = Some(halved);
                    out.push(c);
                }
            }
        }
    }
    out
}

fn dump_config(
    dir: &Path,
    case_seed: u64,
    oracle: &str,
    config: &ScenarioConfig,
) -> Option<PathBuf> {
    std::fs::create_dir_all(dir).ok()?;
    let path = dir.join(format!("fuzz-{case_seed}-{oracle}.toml"));
    std::fs::write(&path, to_toml(config)).ok()?;
    Some(path)
}

/// Writes an oracle's binary reproducer (e.g. the record/replay event
/// log) next to the TOML dump, as `fuzz-<seed>-<oracle>.<ext>`.
fn dump_artifact(
    dir: &Path,
    case_seed: u64,
    oracle: &str,
    ext: &str,
    bytes: &[u8],
) -> Option<PathBuf> {
    std::fs::create_dir_all(dir).ok()?;
    let path = dir.join(format!("fuzz-{case_seed}-{oracle}.{ext}"));
    std::fs::write(&path, bytes).ok()?;
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A harness aimed at a single oracle for shrink tests.
    struct AlwaysFails;

    impl Oracle for AlwaysFails {
        fn name(&self) -> &'static str {
            "always-fails"
        }

        fn check(&self, _config: &ScenarioConfig, _registry: &Registry) -> Verdict {
            Verdict::Fail("synthetic".into())
        }
    }

    #[test]
    fn shrinking_reaches_a_fixed_point_minimum() {
        let harness = Harness::new();
        let config = generate_case(&SpaceConfig::default(), 5);
        let min = harness.shrink(&config, &AlwaysFails).expect("anything shrinks");
        assert_eq!(min.functions.len(), 1, "one function survives");
        assert_eq!(min.run.as_ref().unwrap().horizon_secs, Some(2), "horizon floors at 2 s");
        assert!(min.sim.is_none(), "the [sim] section is dropped");
        let cluster = min.cluster.as_ref().unwrap();
        assert_eq!(cluster.nodes, Some(1));
    }

    /// A debug-mode conservation-oracle sweep: a third of generated cases
    /// sample a `[network]` plane, so these runs drive the incremental
    /// re-share under arrival/departure churn with the in-plane debug
    /// oracle armed — any incremental-vs-full divergence panics inside
    /// the run, and any byte-ledger leak fails the conservation oracle.
    #[test]
    fn conservation_oracle_exercises_the_reshare_oracle() {
        let harness = Harness::new();
        let options = FuzzOptions {
            cases: 9,
            seed: 23,
            oracles: vec!["conservation".into()],
            ..FuzzOptions::default()
        };
        let report = harness.run(&options).expect("conservation sweep runs");
        assert!(report.clean(), "conservation violations: {:?}", report.failures);
        assert!(report.passed > 0, "at least one case must be feasible");
    }

    /// An always-failing oracle that samples a third of cases and ships
    /// a binary artifact, mirroring the record/replay oracle's shape.
    struct SampledWithArtifact;

    impl Oracle for SampledWithArtifact {
        fn name(&self) -> &'static str {
            "sampled-artifact"
        }

        fn check(&self, _config: &ScenarioConfig, _registry: &Registry) -> Verdict {
            Verdict::Fail("synthetic".into())
        }

        fn samples(&self, case_seed: u64) -> bool {
            case_seed.is_multiple_of(3)
        }

        fn artifact(&self) -> Option<(String, Vec<u8>)> {
            Some(("dlog".to_owned(), b"synthetic log bytes".to_vec()))
        }
    }

    #[test]
    fn sampled_oracles_run_on_their_share_of_cases_only() {
        let harness = Harness::new().with_oracles(vec![Box::new(SampledWithArtifact)]);
        let options = FuzzOptions { cases: 6, seed: 0, ..FuzzOptions::default() };
        let report = harness.run(&options).expect("sweep runs");
        assert_eq!(report.failures.len(), 2, "seeds 0 and 3 of 0..6 are sampled");
        // An explicit --oracle request bypasses sampling.
        let explicit = FuzzOptions { oracles: vec!["sampled-artifact".into()], ..options.clone() };
        let harness = Harness::new().with_oracles(vec![Box::new(SampledWithArtifact)]);
        let report = harness.run(&explicit).expect("sweep runs");
        assert_eq!(report.failures.len(), 6, "explicitly requested oracles check every case");
    }

    #[test]
    fn failing_oracles_dump_toml_and_binary_reproducers() {
        let dir = std::env::temp_dir().join("dilu-harness-artifact-dump-test");
        let _ = std::fs::remove_dir_all(&dir);
        let harness = Harness::new().with_oracles(vec![Box::new(SampledWithArtifact)]);
        let options = FuzzOptions {
            cases: 1,
            seed: 3,
            dump_dir: Some(dir.clone()),
            ..FuzzOptions::default()
        };
        let report = harness.run(&options).expect("sweep runs");
        let failure = &report.failures[0];
        let dump = failure.dump.as_ref().expect("TOML reproducer dumped");
        assert!(dump.exists(), "{}", dump.display());
        let artifact = failure.artifact.as_ref().expect("binary reproducer dumped");
        assert_eq!(artifact.file_name().unwrap().to_str().unwrap(), "fuzz-3-sampled-artifact.dlog");
        assert_eq!(std::fs::read(artifact).unwrap(), b"synthetic log bytes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oracle_filter_limits_the_suite() {
        let harness = Harness::new();
        let options = FuzzOptions {
            cases: 1,
            seed: 11,
            oracles: vec!["determinism".into()],
            ..FuzzOptions::default()
        };
        let report = harness.run(&options).unwrap();
        assert_eq!(report.passed + report.skipped, 1, "exactly one oracle ran");
        let typo = FuzzOptions { oracles: vec!["capcity".into()], ..options };
        let err = harness.run(&typo).expect_err("a typo'd oracle must not run vacuously");
        assert!(err.contains("capcity") && err.contains("capacity"), "{err}");
    }
}
