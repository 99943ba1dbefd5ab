//! The reference kernel that expresses end-to-end timings at a fixed host
//! speed.
//!
//! The benchmark runs on shared 2-vCPU machines whose speed drifts by
//! ±20% within minutes, mostly through memory and allocator contention.
//! On such a host (Intel Xeon, 2 vCPU, 16 GB) five back-to-back 8 s fig11
//! runs read 111–131 ms per test, while each test's wall time over the
//! wall time of this kernel, run right after it, stayed within 4.39–4.53.
//! So every end-to-end timing is measured next to one kernel run and
//! reported as `wall × NOMINAL_MS / kernel wall`: the time the operation
//! takes on a host where the kernel takes [`NOMINAL_MS`]. Raw wall times
//! go to standard error.
//!
//! The kernel uses the standard library only, so no change to the library
//! crates can move it; a change to them moves only the numerator.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

/// The kernel's wall time on the reference host, in milliseconds.
pub const NOMINAL_MS: f64 = 25.0;

/// Allocation-heavy ordered-map churn, like the simulator's own mix of
/// small allocations and pointer chasing: 60,000 inserts of 64–319 byte
/// values into a `BTreeMap` holding at most 4,096 of them, with a range
/// lookup per insert.
fn kernel() -> u64 {
    let mut map: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut fifo: VecDeque<u64> = VecDeque::new();
    let mut x: u64 = 0x1234_5678;
    let mut acc = 0u64;
    for i in 0..60_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let k = x >> 40;
        map.insert(k, vec![(i & 0xff) as u8; 64 + (k as usize & 255)]);
        fifo.push_back(k);
        if fifo.len() > 4096 {
            let old = fifo.pop_front().expect("fifo holds 4097 keys");
            if let Some(v) = map.remove(&old) {
                acc = acc.wrapping_add(v.len() as u64);
            }
        }
        if let Some((kk, v)) = map.range(k / 2..).next() {
            acc = acc.wrapping_add(*kk ^ v[0] as u64);
        }
    }
    acc
}

/// Run the kernel once on each of `threads` threads at the same time, as
/// many as the workload keeps busy, and return the wall time in
/// milliseconds.
pub fn measure_ms(threads: usize) -> f64 {
    let t = Instant::now();
    if threads <= 1 {
        std::hint::black_box(kernel());
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| std::hint::black_box(kernel()));
            }
        });
    }
    t.elapsed().as_secs_f64() * 1e3
}

/// `wall_s` seconds measured next to a kernel run of `kernel_ms`,
/// expressed at reference speed.
pub fn normalize(wall_s: f64, kernel_ms: f64) -> f64 {
    wall_s * NOMINAL_MS / kernel_ms
}
