//! Host-speed calibration.
//!
//! The host this benchmark was defined on shares its cores with other
//! tenants, and its speed drifts by a third over minutes: the same `park
//! run` takes 110 ms in one minute and 180 ms in another. A fixed workload
//! of integer arithmetic, hashing, sorting and formatting, timed on both
//! cores between the ops of a run, tracks that drift: measured over 10 s windows, `park
//! run` varied by ±21% and its ratio to this workload by ±8%. End-to-end
//! times are reported scaled by `REFERENCE_MS / median(samples)`, so runs
//! made at different moments agree; each op's time by the samples taken
//! around it, since the speed also swings within a run. Each run prints the
//! host's speed relative to the reference on standard error.

use crate::gen::Rng;
use crate::stats::median;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The calibration time that scaled results are expressed at: about its
/// median on the defining host (2 vCPUs of an Intel Xeon at 2.1 GHz).
pub const REFERENCE_MS: f64 = 10.0;

/// Samples on each side of an op that set its scale.
const WINDOW: usize = 5;

/// The scale for op `op` of a loop: `REFERENCE_MS` over the median of the
/// `2 * WINDOW + 1` samples around the last one taken before it. `samples`
/// holds (ops done before the sample, ms), in order.
pub fn scale(samples: &[(usize, f64)], op: usize) -> f64 {
    let k = samples
        .partition_point(|(at, _)| *at <= op)
        .saturating_sub(1);
    let lo = k.saturating_sub(WINDOW);
    let hi = (k + WINDOW + 1).min(samples.len());
    let local: Vec<f64> = samples[lo..hi].iter().map(|(_, ms)| *ms).collect();
    REFERENCE_MS / median(&local)
}

/// Run the calibration workload on two threads at once, one per core of
/// the reference host, while `park` is idle; returns their mean time in ms.
/// The work being timed may run on either core.
pub fn sample() -> f64 {
    let (mine, other) = std::thread::scope(|s| {
        let other = s.spawn(workload);
        (
            workload(),
            other.join().expect("the calibration thread panicked"),
        )
    });
    (mine + other) / 2.0
}

fn workload() -> f64 {
    let begun = Instant::now();
    let mut rng = Rng::new(7);
    let mut acc = 0u64;
    for _ in 0..2_000_000 {
        let x = black_box(rng.next_u64());
        acc = acc.wrapping_add(x % 7 * (x >> 3));
    }
    let mut map: HashMap<u64, u32> = HashMap::with_capacity(1 << 15);
    for i in 0..30_000 {
        map.insert(rng.next_u64() % 100_000, i);
    }
    let hits = (0..30_000)
        .filter(|_| map.contains_key(&(rng.next_u64() % 100_000)))
        .count();
    let mut v: Vec<u64> = (0..30_000).map(|_| rng.next_u64()).collect();
    v.sort_unstable();
    let text: String = v
        .iter()
        .take(3_000)
        .map(|x| format!("f(n{x}).\n"))
        .collect();
    black_box((acc, hits, text.len()));
    begun.elapsed().as_secs_f64() * 1e3
}
