//! Pre-running measurement harness: one instance, one GPU, fixed SM rate.

use dilu_gpu::policies::StaticPartitionPolicy;
use dilu_gpu::{GpuEngine, InstanceId, SlotConfig, SmRate, TaskClass, GB, QUANTUM};
use dilu_models::ModelId;
use dilu_sim::{SimDuration, SimTime};

const PROFILING_INSTANCE: InstanceId = InstanceId(1);

fn profiling_gpu(model: ModelId, class: TaskClass, smr: SmRate) -> GpuEngine {
    let mut gpu = GpuEngine::new(48 * GB);
    let profile = model.profile();
    let mem = match class {
        TaskClass::SloSensitive => profile.infer_mem_bytes,
        TaskClass::BestEffort => profile.training.mem_bytes,
    };
    gpu.admit(PROFILING_INSTANCE, SlotConfig { class, request: smr, limit: smr, mem_bytes: mem })
        .expect("profiling GPU is empty");
    gpu
}

/// Measures the mean execution time of one inference batch of `model` at a
/// fixed SM rate, by running `reps` back-to-back batches through the engine
/// under an MPS-style static partition.
///
/// # Panics
///
/// Panics if `batch` is zero.
pub fn measure_inference_exec(model: ModelId, batch: u32, smr: SmRate) -> SimDuration {
    assert!(batch > 0, "batch size must be positive");
    let profile = model.profile();
    let mut gpu = profiling_gpu(model, TaskClass::SloSensitive, smr);
    let reps: u64 = 3;
    for tag in 0..reps {
        gpu.push_work(PROFILING_INSTANCE, profile.inference_item(batch, tag))
            .expect("instance admitted");
    }
    let mut policy = StaticPartitionPolicy::new([(PROFILING_INSTANCE, smr)]);
    let mut now = SimTime::ZERO;
    let mut total = SimDuration::ZERO;
    let mut seen = 0;
    // Generous bound: a starved batch at 1% SMR still finishes within this.
    for _ in 0..4_000_000 {
        if seen == reps {
            break;
        }
        let out = gpu.step(now, &mut policy);
        for c in out.completions {
            total += c.elapsed;
            seen += 1;
        }
        now += QUANTUM;
    }
    if seen == 0 {
        // The grant never let a batch finish (e.g. zero SMR).
        return SimDuration::from_secs(3_600);
    }
    total / seen
}

/// Measures training throughput (samples per second) of one worker of
/// `model` at a fixed SM rate over `iters` iterations (compute + sync).
///
/// # Panics
///
/// Panics if `iters` is zero.
pub fn measure_training_throughput(model: ModelId, smr: SmRate, iters: u64) -> f64 {
    assert!(iters > 0, "need at least one iteration");
    let training = model.profile().training;
    let mut gpu = profiling_gpu(model, TaskClass::BestEffort, smr);
    for i in 0..iters {
        gpu.push_work(PROFILING_INSTANCE, training.compute_item(i * 2)).expect("instance admitted");
        gpu.push_work(PROFILING_INSTANCE, training.idle_item(i * 2 + 1))
            .expect("instance admitted");
    }
    let mut policy = StaticPartitionPolicy::new([(PROFILING_INSTANCE, smr)]);
    let mut now = SimTime::ZERO;
    let mut finished_at = None;
    for _ in 0..40_000_000 {
        if gpu.is_idle() {
            finished_at = Some(now);
            break;
        }
        gpu.step(now, &mut policy);
        now += QUANTUM;
    }
    let Some(end) = finished_at else { return 0.0 };
    let secs = end.as_secs_f64();
    if secs <= 0.0 {
        0.0
    } else {
        (iters * u64::from(training.samples_per_iter)) as f64 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_exec_matches_analytic_model() {
        let model = ModelId::RobertaLarge;
        let smr = SmRate::from_percent(50.0);
        let measured = measure_inference_exec(model, 4, smr);
        let analytic = model.profile().inference_exec_time(4, smr);
        let err = (measured.as_millis_f64() - analytic.as_millis_f64()).abs();
        assert!(err < 1.0, "measured {measured} vs analytic {analytic}");
    }

    #[test]
    fn starved_measurement_reports_sentinel() {
        let t = measure_inference_exec(ModelId::BertBase, 1, SmRate::ZERO);
        assert!(t >= SimDuration::from_secs(3_600));
    }

    #[test]
    fn training_throughput_saturates_with_smr() {
        let model = ModelId::BertBase;
        let half = measure_training_throughput(model, SmRate::from_percent(25.0), 10);
        let sat = measure_training_throughput(model, SmRate::from_percent(50.0), 10);
        let full = measure_training_throughput(model, SmRate::from_percent(100.0), 10);
        assert!(half < sat, "{half} !< {sat}");
        assert!((full - sat) / full < 0.05, "beyond saturation: {sat} vs {full}");
        // Analytic check: 8192 samples / 85 ms ≈ 96k samples/s at saturation.
        let analytic = model.profile().training.throughput(SmRate::from_percent(100.0));
        assert!((full - analytic).abs() / analytic < 0.1, "{full} vs {analytic}");
    }
}
