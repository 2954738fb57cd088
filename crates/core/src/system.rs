//! System presets: Dilu, its ablations, and the cluster-level baselines of
//! §5.1, expressed as pre-populated [`ScenarioBuilder`]s.
//!
//! [`SystemKind`] is no longer the closed front door of composition — any
//! mix of placement/controller/share policy goes through
//! [`ScenarioBuilder`] directly. Each variant here is a *preset*: a
//! builder with the paper's composition filled in, every knob still
//! swappable before `build()`.

use dilu_baselines::{KeepAliveScaler, QuotaSource, ReactiveScaler};
use dilu_cluster::{ClusterSim, ClusterSpec};
use dilu_rckm::RckmConfig;
use dilu_scaler::{LazyScaler, ScalerConfig};
use dilu_scheduler::{DiluScheduler, ExclusivePlacement, SchedulerConfig};
use serde::{Deserialize, Serialize};

use crate::factories::{FairFactory, FastGsFactory, MpsFactory, RckmFactory};
use crate::ScenarioBuilder;

/// Every preset system of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SystemKind {
    /// The full system: Algorithm 1 scheduling, lazy scaling, RCKM tokens.
    Dilu,
    /// Ablation −RC: first-fit packing, no multi-GPU LLM deployment.
    DiluNoRc,
    /// Ablation −WA: no workload-affinity preference.
    DiluNoWa,
    /// Ablation −VS: Dilu scheduling/scaling over static MPS-l grants.
    DiluNoVs,
    /// Whole-GPU allocation with keep-alive scaling (Kubernetes-style).
    Exclusive,
    /// INFless+ with MPS partitions at the `limit` quota.
    InflessPlusL,
    /// INFless+ with MPS partitions at the `request` quota.
    InflessPlusR,
    /// FaST-GS+ — eager scaling over FaST-GS spatio-temporal sharing.
    FastGsPlus,
}

impl SystemKind {
    /// The systems compared in the end-to-end study (Fig. 15).
    pub const END_TO_END: [SystemKind; 7] = [
        SystemKind::Exclusive,
        SystemKind::InflessPlusL,
        SystemKind::InflessPlusR,
        SystemKind::Dilu,
        SystemKind::DiluNoRc,
        SystemKind::DiluNoWa,
        SystemKind::DiluNoVs,
    ];

    /// Every preset.
    pub const ALL: [SystemKind; 8] = [
        SystemKind::Dilu,
        SystemKind::DiluNoRc,
        SystemKind::DiluNoWa,
        SystemKind::DiluNoVs,
        SystemKind::Exclusive,
        SystemKind::InflessPlusL,
        SystemKind::InflessPlusR,
        SystemKind::FastGsPlus,
    ];

    /// The paper's label for the system.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Dilu => "Dilu",
            SystemKind::DiluNoRc => "-RC",
            SystemKind::DiluNoWa => "-WA",
            SystemKind::DiluNoVs => "-VS",
            SystemKind::Exclusive => "Exclusive",
            SystemKind::InflessPlusL => "INFless+-l",
            SystemKind::InflessPlusR => "INFless+-r",
            SystemKind::FastGsPlus => "FaST-GS+",
        }
    }

    /// The stable kebab-case preset name used by scenario configs.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::Dilu => "dilu",
            SystemKind::DiluNoRc => "dilu-no-rc",
            SystemKind::DiluNoWa => "dilu-no-wa",
            SystemKind::DiluNoVs => "dilu-no-vs",
            SystemKind::Exclusive => "exclusive",
            SystemKind::InflessPlusL => "infless-l",
            SystemKind::InflessPlusR => "infless-r",
            SystemKind::FastGsPlus => "fast-gs",
        }
    }

    /// All preset names, in [`SystemKind::ALL`] order.
    pub fn names() -> [&'static str; 8] {
        SystemKind::ALL.map(SystemKind::name)
    }

    /// Looks a preset up by its config name ([`name`](Self::name)) or the
    /// paper label ([`label`](Self::label)), case-insensitively.
    pub fn from_name(name: &str) -> Option<SystemKind> {
        SystemKind::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(name) || k.label().eq_ignore_ascii_case(name))
    }

    /// `true` if this system deploys LLM inference across multiple GPUs.
    ///
    /// Distributed LLM deployment over GPU fragments belongs to Dilu's
    /// resource complementarity — the −RC ablation removes exactly it, and
    /// the baselines deploy LLMs whole.
    pub fn distributes_llms(self) -> bool {
        matches!(self, SystemKind::Dilu | SystemKind::DiluNoWa | SystemKind::DiluNoVs)
    }

    /// A [`ScenarioBuilder`] pre-populated with this system's composition
    /// and default knobs. Every component can still be swapped before
    /// `build()`.
    pub fn builder(self) -> ScenarioBuilder {
        let rckm = RckmConfig::default();
        let dilu_sched = SchedulerConfig::default();
        let scaler = ScalerConfig::default();
        // INFless-style packers: complementarity scoring without Dilu's
        // affinity pass.
        let packing = SchedulerConfig { workload_affinity: false, ..dilu_sched };
        let builder = ScenarioBuilder::new();
        match self {
            SystemKind::Dilu => builder
                .placement(DiluScheduler::new(dilu_sched))
                .controller(LazyScaler::new(scaler))
                .share_policy(RckmFactory(rckm)),
            SystemKind::DiluNoRc => builder
                .placement(DiluScheduler::new(SchedulerConfig {
                    resource_complementary: false,
                    ..dilu_sched
                }))
                .controller(LazyScaler::new(scaler))
                .share_policy(RckmFactory(rckm)),
            SystemKind::DiluNoWa => builder
                .placement(DiluScheduler::new(SchedulerConfig {
                    workload_affinity: false,
                    ..dilu_sched
                }))
                .controller(LazyScaler::new(scaler))
                .share_policy(RckmFactory(rckm)),
            SystemKind::DiluNoVs => builder
                .placement(DiluScheduler::new(dilu_sched))
                .controller(LazyScaler::new(scaler))
                .share_policy(MpsFactory(QuotaSource::Limit)),
            SystemKind::Exclusive => builder
                .placement(ExclusivePlacement::new())
                .controller(KeepAliveScaler::default())
                .share_policy(FairFactory),
            SystemKind::InflessPlusL => builder
                .placement(DiluScheduler::new(packing))
                .controller(KeepAliveScaler::default())
                .share_policy(MpsFactory(QuotaSource::Limit)),
            SystemKind::InflessPlusR => builder
                .placement(DiluScheduler::new(packing))
                .controller(KeepAliveScaler::default())
                .share_policy(MpsFactory(QuotaSource::Request)),
            SystemKind::FastGsPlus => builder
                .placement(DiluScheduler::new(packing))
                .controller(ReactiveScaler::new())
                .share_policy(FastGsFactory),
        }
    }
}

/// Builds a ready-to-use cluster simulator for `kind` with default knobs.
///
/// Equivalent to `kind.builder().cluster(spec).build_sim()` — the presets
/// populate every component, so this cannot fail.
pub fn build_sim(kind: SystemKind, spec: ClusterSpec) -> ClusterSim {
    kind.builder().cluster(spec).build_sim().expect("presets populate every component")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(SystemKind::Dilu.label(), "Dilu");
        assert_eq!(SystemKind::InflessPlusL.label(), "INFless+-l");
        assert_eq!(SystemKind::DiluNoVs.label(), "-VS");
    }

    #[test]
    fn names_round_trip() {
        for kind in SystemKind::ALL {
            assert_eq!(SystemKind::from_name(kind.name()), Some(kind));
            assert_eq!(SystemKind::from_name(kind.label()), Some(kind));
        }
        assert_eq!(SystemKind::from_name("DILU"), Some(SystemKind::Dilu));
        assert_eq!(SystemKind::from_name("nope"), None);
    }

    #[test]
    fn llm_distribution_matches_rc_semantics() {
        assert!(SystemKind::Dilu.distributes_llms());
        assert!(SystemKind::DiluNoVs.distributes_llms());
        assert!(!SystemKind::DiluNoRc.distributes_llms());
        assert!(!SystemKind::Exclusive.distributes_llms());
        assert!(!SystemKind::InflessPlusL.distributes_llms());
    }

    #[test]
    fn every_system_builds() {
        for kind in SystemKind::END_TO_END {
            let sim = build_sim(kind, ClusterSpec::single_node(2));
            assert_eq!(sim.spec().total_gpus(), 2);
        }
        build_sim(SystemKind::FastGsPlus, ClusterSpec::single_node(1));
    }

    #[test]
    fn presets_expose_component_names() {
        let sim = build_sim(SystemKind::Dilu, ClusterSpec::single_node(1));
        assert_eq!(sim.placement_name(), "dilu-scheduler");
        assert_eq!(sim.controller_name(), "dilu-lazy-scaler");
        assert_eq!(sim.share_policy_name(), "dilu-rckm");
        let excl = build_sim(SystemKind::Exclusive, ClusterSpec::single_node(1));
        assert_eq!(excl.placement_name(), "exclusive");
        assert_eq!(excl.share_policy_name(), "fair-share");
    }
}
