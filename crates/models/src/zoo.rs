//! The seven evaluated models and their calibrated profiles.

use std::fmt;

use dilu_gpu::{SmRate, GB, MB};
use dilu_sim::SimDuration;
use serde::{Deserialize, Serialize};

use crate::{ModelProfile, ParallelKind, TrainingProfile};

/// The models evaluated in the paper (§5.1): parameters range 0.2–12.6 GB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs, reason = "each variant is the model its name spells")]
pub enum ModelId {
    ResNet152,
    Vgg19,
    BertBase,
    RobertaLarge,
    Gpt2Large,
    Llama2_7b,
    ChatGlm3_6b,
}

impl ModelId {
    /// All models, in the paper's size order.
    pub const ALL: [ModelId; 7] = [
        ModelId::ResNet152,
        ModelId::Vgg19,
        ModelId::BertBase,
        ModelId::RobertaLarge,
        ModelId::Gpt2Large,
        ModelId::Llama2_7b,
        ModelId::ChatGlm3_6b,
    ];

    /// The four inference models profiled in Fig. 4 / Table 2 (a–d).
    pub const FIG4: [ModelId; 4] =
        [ModelId::ResNet152, ModelId::RobertaLarge, ModelId::Gpt2Large, ModelId::Llama2_7b];

    /// The stable kebab-case identifier used by scenario configs and
    /// registries (`ModelId::from_name` accepts it back).
    pub fn name(self) -> &'static str {
        match self {
            ModelId::ResNet152 => "resnet152",
            ModelId::Vgg19 => "vgg19",
            ModelId::BertBase => "bert-base",
            ModelId::RobertaLarge => "roberta-large",
            ModelId::Gpt2Large => "gpt2-large",
            ModelId::Llama2_7b => "llama2-7b",
            ModelId::ChatGlm3_6b => "chatglm3-6b",
        }
    }

    /// Looks a model up by name, accepting both the kebab-case identifier
    /// (`"bert-base"`) and the paper's display name (`"BERT-base"`),
    /// case-insensitively.
    pub fn from_name(name: &str) -> Option<ModelId> {
        let wanted = name.to_ascii_lowercase();
        ModelId::ALL
            .into_iter()
            .find(|m| m.name() == wanted || m.profile().name.to_ascii_lowercase() == wanted)
    }

    /// This model's calibrated analytic profile.
    pub fn profile(self) -> ModelProfile {
        match self {
            ModelId::ResNet152 => ModelProfile {
                name: "ResNet152",
                param_bytes: 245 * MB,
                infer_mem_bytes: 2 * GB,
                act_bytes_per_sample: 4 * MB,
                infer_t_fixed: SimDuration::from_millis_f64(4.0),
                infer_t_per_sample: SimDuration::from_millis_f64(2.5),
                infer_sat_base: SmRate::from_percent(25.0),
                infer_sat_per_doubling: SmRate::from_percent(5.0),
                slo: SimDuration::from_millis(100),
                output_tokens: 1,
                is_llm: false,
                training: TrainingProfile {
                    parallelism: ParallelKind::DataParallel,
                    t_compute: SimDuration::from_millis(80),
                    sat: SmRate::from_percent(60.0),
                    t_idle: SimDuration::from_millis(20),
                    mem_bytes: 7 * GB,
                    samples_per_iter: 64,
                    unit: "images/s",
                },
            },
            ModelId::Vgg19 => ModelProfile {
                name: "VGG19",
                param_bytes: 563 * MB,
                infer_mem_bytes: 5 * GB / 2,
                act_bytes_per_sample: 6 * MB,
                infer_t_fixed: SimDuration::from_millis_f64(3.0),
                infer_t_per_sample: SimDuration::from_millis_f64(2.0),
                infer_sat_base: SmRate::from_percent(30.0),
                infer_sat_per_doubling: SmRate::from_percent(5.0),
                slo: SimDuration::from_millis(80),
                output_tokens: 1,
                is_llm: false,
                training: TrainingProfile {
                    parallelism: ParallelKind::DataParallel,
                    t_compute: SimDuration::from_millis(95),
                    sat: SmRate::from_percent(60.0),
                    t_idle: SimDuration::from_millis(35),
                    mem_bytes: 9 * GB,
                    samples_per_iter: 64,
                    unit: "images/s",
                },
            },
            ModelId::BertBase => ModelProfile {
                name: "BERT-base",
                param_bytes: 440 * MB,
                infer_mem_bytes: 2 * GB,
                act_bytes_per_sample: MB,
                infer_t_fixed: SimDuration::from_millis_f64(2.5),
                infer_t_per_sample: SimDuration::from_millis_f64(1.25),
                infer_sat_base: SmRate::from_percent(20.0),
                infer_sat_per_doubling: SmRate::from_percent(5.0),
                slo: SimDuration::from_millis(50),
                output_tokens: 1,
                is_llm: false,
                training: TrainingProfile {
                    parallelism: ParallelKind::DataParallel,
                    t_compute: SimDuration::from_millis(60),
                    sat: SmRate::from_percent(50.0),
                    t_idle: SimDuration::from_millis(25),
                    mem_bytes: 6 * GB,
                    samples_per_iter: 8192,
                    unit: "tokens/s",
                },
            },
            ModelId::RobertaLarge => ModelProfile {
                name: "RoBERTa-large",
                param_bytes: 1_420 * MB,
                infer_mem_bytes: 4 * GB,
                act_bytes_per_sample: 2 * MB,
                // bs4 ≈ 26 ms: the paper's ~25 ms KLC per iteration.
                infer_t_fixed: SimDuration::from_millis_f64(8.0),
                infer_t_per_sample: SimDuration::from_millis_f64(4.5),
                // sat(4) = 50%: the paper's "2% boost doubling 50% → 100%".
                infer_sat_base: SmRate::from_percent(40.0),
                infer_sat_per_doubling: SmRate::from_percent(5.0),
                slo: SimDuration::from_millis(100),
                output_tokens: 1,
                is_llm: false,
                training: TrainingProfile {
                    parallelism: ParallelKind::DataParallel,
                    t_compute: SimDuration::from_millis(110),
                    sat: SmRate::from_percent(60.0),
                    t_idle: SimDuration::from_millis(45),
                    mem_bytes: 11 * GB,
                    samples_per_iter: 8192,
                    unit: "tokens/s",
                },
            },
            ModelId::Gpt2Large => ModelProfile {
                name: "GPT2-large",
                param_bytes: 3_100 * MB,
                infer_mem_bytes: 7 * GB,
                act_bytes_per_sample: 4 * MB,
                infer_t_fixed: SimDuration::from_millis_f64(15.0),
                infer_t_per_sample: SimDuration::from_millis_f64(8.0),
                infer_sat_base: SmRate::from_percent(45.0),
                infer_sat_per_doubling: SmRate::from_percent(6.0),
                slo: SimDuration::from_millis(200),
                output_tokens: 1,
                is_llm: false,
                training: TrainingProfile {
                    parallelism: ParallelKind::DataParallel,
                    // Observation-2: 4-worker DDP GPT2-large idles > 40%.
                    t_compute: SimDuration::from_millis(150),
                    sat: SmRate::from_percent(70.0),
                    t_idle: SimDuration::from_millis(110),
                    mem_bytes: 17 * GB,
                    samples_per_iter: 4096,
                    unit: "tokens/s",
                },
            },
            ModelId::Llama2_7b => ModelProfile {
                name: "LLaMA2-7B",
                param_bytes: 12_600 * MB,
                infer_mem_bytes: 15 * GB,
                act_bytes_per_sample: 8 * MB,
                // One request = prefill + 32 decoded tokens (~15 ms/token
                // saturated); latency is reported per output token (§5.1).
                infer_t_fixed: SimDuration::from_millis(350),
                infer_t_per_sample: SimDuration::from_millis(60),
                infer_sat_base: SmRate::from_percent(55.0),
                infer_sat_per_doubling: SmRate::from_percent(8.0),
                // 64 ms/token × 32 tokens.
                slo: SimDuration::from_millis(2_048),
                output_tokens: 32,
                is_llm: true,
                training: TrainingProfile {
                    parallelism: ParallelKind::Pipeline,
                    // Fig. 2(b): each pipeline worker idles ≈ 20%.
                    t_compute: SimDuration::from_millis(160),
                    sat: SmRate::from_percent(80.0),
                    t_idle: SimDuration::from_millis(40),
                    mem_bytes: 20 * GB,
                    samples_per_iter: 2048,
                    unit: "tokens/s",
                },
            },
            ModelId::ChatGlm3_6b => ModelProfile {
                name: "ChatGLM3-6B",
                param_bytes: 11_500 * MB,
                infer_mem_bytes: 14 * GB,
                act_bytes_per_sample: 8 * MB,
                infer_t_fixed: SimDuration::from_millis(320),
                infer_t_per_sample: SimDuration::from_millis(55),
                infer_sat_base: SmRate::from_percent(50.0),
                infer_sat_per_doubling: SmRate::from_percent(8.0),
                slo: SimDuration::from_millis(1_920),
                output_tokens: 32,
                is_llm: true,
                training: TrainingProfile {
                    parallelism: ParallelKind::Pipeline,
                    t_compute: SimDuration::from_millis(150),
                    sat: SmRate::from_percent(75.0),
                    t_idle: SimDuration::from_millis(38),
                    mem_bytes: 19 * GB,
                    samples_per_iter: 2048,
                    unit: "tokens/s",
                },
            },
        }
    }
}

impl fmt::Display for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.profile().name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for m in ModelId::ALL {
            assert_eq!(ModelId::from_name(m.name()), Some(m));
            assert_eq!(ModelId::from_name(m.profile().name), Some(m));
        }
        assert_eq!(ModelId::from_name("Bert-Base"), Some(ModelId::BertBase));
        assert_eq!(ModelId::from_name("no-such-model"), None);
    }

    #[test]
    fn parameter_sizes_span_paper_range() {
        let sizes: Vec<u64> = ModelId::ALL.iter().map(|m| m.profile().param_bytes).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(min <= 250 * MB, "smallest ~0.2 GB, got {min}");
        assert!(max >= 12 * GB, "largest ~12.6 GB, got {max}");
    }

    #[test]
    fn llms_are_flagged_and_generate_tokens() {
        for id in [ModelId::Llama2_7b, ModelId::ChatGlm3_6b] {
            let p = id.profile();
            assert!(p.is_llm);
            assert!(p.output_tokens > 1);
            assert_eq!(p.training.parallelism, ParallelKind::Pipeline);
        }
        assert!(!ModelId::BertBase.profile().is_llm);
    }

    #[test]
    fn every_model_fits_an_a100() {
        for id in ModelId::ALL {
            let p = id.profile();
            assert!(p.infer_mem_bytes <= 40 * GB, "{id} inference footprint");
            assert!(p.training.mem_bytes <= 40 * GB, "{id} training footprint");
            assert!(p.infer_mem_bytes >= p.param_bytes, "{id} must hold its params");
        }
    }

    #[test]
    fn every_model_can_serve_batch_one_within_slo() {
        for id in ModelId::ALL {
            let p = id.profile();
            assert!(
                p.inference_t_min(1) <= p.slo / 2,
                "{id}: bs1 {} vs budget {}",
                p.inference_t_min(1),
                p.slo / 2
            );
        }
    }

    #[test]
    fn display_matches_paper_names() {
        assert_eq!(ModelId::RobertaLarge.to_string(), "RoBERTa-large");
        assert_eq!(ModelId::Llama2_7b.to_string(), "LLaMA2-7B");
    }

    #[test]
    fn fig4_models_are_the_profiled_four() {
        assert_eq!(ModelId::FIG4.len(), 4);
        assert_eq!(ModelId::FIG4[1], ModelId::RobertaLarge);
    }
}
