//! Reference speed.
//!
//! The machines this benchmark runs on are shared, and their speed moves
//! under it: on a 2-vCPU virtual machine a pure integer loop ran between
//! 1.2 and 1.9 times its best time from one second to the next, and its
//! mean over 12- to 24-second windows spread by 14% (quartile distance
//! over median) — more than any program change worth measuring.  So every
//! time the benchmark reports is taken at a reference speed: just before
//! each unit (and each set-up) it times [`kernel`], a fixed piece of its
//! own work shaped like the program's (hashing short integer vectors, a
//! sort, a sweep over memory), and scales that unit's times by [`REFERENCE_S`] over the
//! kernel's time.  No program code runs in the kernel, so a faster program
//! still reads faster; a busier machine, which slows the kernel and the
//! program alike, no longer does.  The factor of every unit is kept, so
//! the raw wall-clock times can be recovered.

use std::collections::HashMap;
use std::time::Instant;

/// The kernel's time at the reference speed: about its time on the
/// 2-vCPU machine above in its usual state.
pub const REFERENCE_S: f64 = 2e-3;

/// The factor that takes times measured now to the reference speed.
pub fn factor() -> f64 {
    REFERENCE_S / kernel().min(kernel())
}

/// One timed run of the kernel, in seconds.  Its working set (a map of a
/// few thousand short vectors, a sort, a sweep over a megabyte) is sized
/// like a unit's, so cache pressure from other tenants slows both alike.
fn kernel() -> f64 {
    const N: i64 = 6000;
    let start = Instant::now();
    let mut map: HashMap<Vec<i64>, f64> = HashMap::new();
    let mut x: i64 = 12345;
    for i in 0..N {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(vec![i, x % 97, x % 13], i as f64);
    }
    let mut sum = 0.0;
    for i in 0..N {
        sum += map.get(&vec![i, 0, 0]).copied().unwrap_or(1.0);
    }
    let mut keys: Vec<i64> = map.keys().map(|k| k[1] * 131 + k[2]).collect();
    keys.sort_unstable();
    let sweep: Vec<f64> = (0..131_072).map(|i| i as f64).collect();
    sum += sweep.iter().step_by(8).sum::<f64>();
    std::hint::black_box((sum, keys));
    start.elapsed().as_secs_f64()
}
