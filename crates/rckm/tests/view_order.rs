//! RCKM's grants do not depend on the order of its views: two token
//! managers see the same residents, joins, leaves, resizes and per-cycle
//! observations, one in ascending id order (as the engine lists them) and
//! one shuffled on every call, and must agree on every grant, state and
//! idle-history reading.

use dilu_gpu::{Grant, InstanceId, InstanceView, SharePolicy, SmRate, TaskClass};
use dilu_rckm::{RckmConfig, RckmPolicy};
use dilu_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One resident's quotas and the ΔT it last reported.
#[derive(Debug, Clone, Copy)]
struct Resident {
    id: u64,
    class: TaskClass,
    request: f64,
    limit: f64,
    klc: f64,
}

fn join(rng: &mut ChaCha8Rng, residents: &mut Vec<Resident>, seen: &mut Vec<u64>) {
    let id = loop {
        let id = rng.gen_range(1u64..64);
        if residents.iter().all(|r| r.id != id) {
            break id;
        }
    };
    let class = if rng.gen_bool(0.6) { TaskClass::SloSensitive } else { TaskClass::BestEffort };
    let request = rng.gen_range(5.0..60.0);
    let limit = request + rng.gen_range(0.0..40.0);
    let at = residents.partition_point(|r| r.id < id);
    residents.insert(at, Resident { id, class, request, limit, klc: 0.0 });
    if !seen.contains(&id) {
        seen.push(id);
    }
}

/// The pressure RCKM reads from a view (see `RckmPolicy::pressure`).
fn pressure(v: &InstanceView, cfg: &RckmConfig) -> f64 {
    let queue = if v.queue_len >= cfg.queue_pressure {
        v.queue_len as f64 / cfg.queue_pressure as f64
    } else {
        0.0
    };
    v.klc_inflation.max(queue)
}

/// RCKM breaks a tie between two SLO-sensitive candidates for the
/// emergency by view order, which the engine fixes as ascending ids. The
/// twins see different orders, so the generator keeps those pressures
/// distinct.
fn untie(views: &mut [InstanceView], cfg: &RckmConfig) {
    let mut taken: Vec<f64> = Vec::new();
    for v in views.iter_mut().filter(|v| v.class.is_slo_sensitive()) {
        while taken.contains(&pressure(v, cfg)) {
            v.klc_inflation = pressure(v, cfg) + 1.0 / 64.0;
        }
        taken.push(pressure(v, cfg));
    }
}

fn view(r: &mut Resident, rng: &mut ChaCha8Rng, quiet: bool) -> InstanceView {
    let (queue_len, blocks) = if quiet {
        (0, 0)
    } else {
        r.klc = rng.gen_range(0.0..1.2);
        let blocks = if rng.gen_bool(0.5) { 0 } else { rng.gen_range(1u64..1_000) };
        (rng.gen_range(0usize..7), blocks)
    };
    InstanceView {
        id: InstanceId(r.id),
        class: r.class,
        request: SmRate::from_percent(r.request),
        limit: SmRate::from_percent(r.limit),
        demand: if queue_len == 0 { SmRate::ZERO } else { SmRate::from_percent(r.limit) },
        queue_len,
        blocks_last_quantum: blocks,
        klc_inflation: r.klc,
        idle_quanta: 0,
    }
}

fn grant_bits(grants: &[Grant], id: InstanceId) -> Option<u64> {
    grants.iter().find(|g| g.id == id).map(|g| g.smr.as_fraction().to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn grants_do_not_depend_on_view_order(seed in 0u64..u64::MAX, calls in 50usize..400) {
        let cfg = RckmConfig::default();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut sorted = RckmPolicy::new(cfg);
        let mut shuffled = RckmPolicy::new(cfg);
        let mut residents = Vec::new();
        let mut seen = Vec::new();
        for _ in 0..rng.gen_range(1usize..=5) {
            join(&mut rng, &mut residents, &mut seen);
        }
        // Runs of workless cycles, so the rate windows empty and the
        // policies reach (and leave) their fixed points.
        let mut quiet_left = 0u32;
        for call in 0..calls {
            match rng.gen_range(0u32..12) {
                0 if residents.len() < 5 => join(&mut rng, &mut residents, &mut seen),
                1 if residents.len() > 1 => {
                    residents.remove(rng.gen_range(0..residents.len()));
                }
                2 => {
                    // Usually a resident, now and then a departed id.
                    let id = if rng.gen_bool(0.8) {
                        residents[rng.gen_range(0..residents.len())].id
                    } else {
                        seen[rng.gen_range(0..seen.len())]
                    };
                    let request = rng.gen_range(5.0..60.0);
                    let limit = request + rng.gen_range(0.0..40.0);
                    for p in [&mut sorted, &mut shuffled] {
                        p.notify_resize(
                            InstanceId(id),
                            SmRate::from_percent(request),
                            SmRate::from_percent(limit),
                        );
                    }
                    if let Some(r) = residents.iter_mut().find(|r| r.id == id) {
                        r.request = request;
                        r.limit = limit;
                    }
                }
                _ => {}
            }
            if quiet_left == 0 && rng.gen_bool(0.1) {
                quiet_left = rng.gen_range(5u32..40);
            }
            let quiet = quiet_left > 0;
            quiet_left = quiet_left.saturating_sub(1);

            let mut views: Vec<InstanceView> =
                residents.iter_mut().map(|r| view(r, &mut rng, quiet)).collect();
            untie(&mut views, &cfg);
            let mut perm = views.clone();
            for i in (1..perm.len()).rev() {
                perm.swap(i, rng.gen_range(0..=i));
            }
            let now = SimTime::from_millis(5 * call as u64);
            let quantum = SimDuration::from_millis(5);
            let a = sorted.allocate(now, quantum, &views);
            let b = shuffled.allocate(now, quantum, &perm);

            prop_assert_eq!(a.len(), b.len());
            for v in &views {
                prop_assert!(
                    grant_bits(&a, v.id) == grant_bits(&b, v.id),
                    "call {call}: {} granted {:?} from ascending views, {:?} from {:?}",
                    v.id, grant_bits(&a, v.id), grant_bits(&b, v.id),
                    perm.iter().map(|p| p.id.0).collect::<Vec<_>>()
                );
            }
            for &id in &seen {
                prop_assert_eq!(sorted.state_of(InstanceId(id)), shuffled.state_of(InstanceId(id)));
            }
            prop_assert_eq!(sorted.emergency_holder(), shuffled.emergency_holder());
            prop_assert_eq!(sorted.idle_history_cycles(), shuffled.idle_history_cycles());
        }
    }
}
