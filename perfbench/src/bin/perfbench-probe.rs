//! The host-speed probe: a fixed amount of work that shares no code with
//! the simulator, timed in a fresh process between the measured runs.
//!
//! ```text
//! perfbench-probe   print {"probe_s": ..., "checksum": ...}
//! ```
//!
//! The host the benchmark runs on drifts between faster and slower
//! stretches that last minutes, longer than one measurement. `run.py`
//! divides the median run time of a measurement by the median probe time
//! of the same window, so the drift cancels. The work mixes what the
//! simulator's run leans on: dependent loads over a working set larger
//! than the private caches, ordered-map inserts and removals (node
//! allocation and frees), integer and float arithmetic, and the
//! replacement of small heap blocks. It depends only on `std`, so no
//! change to the simulator moves it.

use std::collections::BTreeMap;
use std::time::Instant;

/// Entries of the pointer-chase cycle (`u32`s, so 16 MiB).
const CHASE_LEN: usize = 1 << 22;
/// Dependent loads per probe.
const CHASE_STEPS: usize = 1_000_000;
/// Live keys of the ordered map, and insert/remove pairs per probe.
const MAP_LIVE: u64 = 1 << 17;
const MAP_OPS: u64 = 200_000;
/// Iterations of the arithmetic loop.
const ALU_STEPS: u64 = 50_000_000;
/// Live heap blocks of the allocation churn, and replacements per probe.
const HEAP_LIVE: usize = 1 << 16;
const HEAP_OPS: usize = 500_000;

/// xorshift64*, the probe's only randomness, with a fixed seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// One random cycle through every index (Sattolo's shuffle), built
/// before timing starts.
fn chase_cycle(rng: &mut Rng) -> Vec<u32> {
    let mut next: Vec<u32> = (0..CHASE_LEN as u32).collect();
    for i in (1..CHASE_LEN).rev() {
        let j = (rng.next() % i as u64) as usize;
        next.swap(i, j);
    }
    next
}

fn chase(next: &[u32]) -> u64 {
    let mut at = 0u32;
    let mut sum = 0u64;
    for _ in 0..CHASE_STEPS {
        at = next[at as usize];
        sum = sum.wrapping_add(u64::from(at));
    }
    sum
}

fn map_churn(rng: &mut Rng) -> u64 {
    let mut map = BTreeMap::new();
    let mut keys = Vec::with_capacity(MAP_LIVE as usize);
    for i in 0..MAP_LIVE {
        let key = rng.next();
        map.insert(key, i);
        keys.push(key);
    }
    let mut sum = 0u64;
    for i in 0..MAP_OPS {
        let slot = (rng.next() % MAP_LIVE) as usize;
        sum = sum.wrapping_add(map.remove(&keys[slot]).unwrap_or(0));
        let key = rng.next();
        map.insert(key, i);
        keys[slot] = key;
    }
    sum
}

fn alu() -> u64 {
    let (mut x, mut y) = (0x9E37_79B9_7F4A_7C15u64, 1.0f64);
    for i in 0..ALU_STEPS {
        x = x.rotate_left(7) ^ i.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        y = y * 0.999_999_9 + (x >> 40) as f64 * 1e-9;
    }
    x ^ y.to_bits()
}

fn heap_churn(rng: &mut Rng) -> u64 {
    let mut live: Vec<Vec<u64>> = (0..HEAP_LIVE).map(|i| vec![i as u64; 4]).collect();
    let mut sum = 0u64;
    for _ in 0..HEAP_OPS {
        let r = rng.next();
        let slot = (r % HEAP_LIVE as u64) as usize;
        let len = 1 + (r >> 32) as usize % 24;
        let block = vec![r; len];
        sum = sum.wrapping_add(live[slot].iter().sum::<u64>());
        live[slot] = block;
    }
    sum
}

fn main() {
    let mut rng = Rng(0x5DEE_CE66_D1CE_4E5B);
    let next = chase_cycle(&mut rng);
    let started = Instant::now();
    // The checksum keeps the work from being optimised away.
    let checksum = chase(&next) ^ map_churn(&mut rng) ^ alu() ^ heap_churn(&mut rng);
    let probe_s = started.elapsed().as_secs_f64();
    println!("{{\"probe_s\":{probe_s},\"checksum\":{checksum}}}");
}
