//! The reference computation host times are normalised against.
//!
//! The reference host is a shared 2-core VM whose single-thread speed
//! drifts by up to 30 % over minutes: medians of raw wall time taken ten
//! minutes apart differed by 23–30 % for the same binary, while the same
//! medians divided by the time of a fixed computation run around each body
//! agreed within 3 %. So every round times this computation before and
//! after what it measures and reports host time in *reference seconds*:
//! raw seconds × [`NOMINAL_S`] ÷ the reference's measured seconds. On the
//! quiet reference host the two read the same; when the host slows, the
//! program and the reference slow together and the quotient stays put.
//!
//! The computation uses nothing of the program under test — only `std` —
//! and mixes what the simulator's hot paths mix: pointer chasing through an
//! ordered map, small-vector allocation churn, and a branchy sort.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one [`seconds`] call takes in a round's process on the reference
/// host when it is quiet — the unit reference seconds are scaled to.
pub const NOMINAL_S: f64 = 0.2;

/// Run the reference computation once; returns the host seconds it took.
pub fn seconds() -> f64 {
    let started = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut acc = 0u64;
    for _ in 0..3 {
        let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for i in 0..300_000u64 {
            let key = next() % 50_000;
            match map.get_mut(&key) {
                Some(v) if v.len() > 8 => {
                    acc = acc.wrapping_add(v.iter().sum::<u64>());
                    map.remove(&key);
                }
                Some(v) => v.push(i),
                None => {
                    map.insert(key, vec![i]);
                }
            }
        }
        let mut v: Vec<u64> = (0..400_000).map(|_| next()).collect();
        v.sort_unstable();
        acc = acc.wrapping_add(v[v.len() / 2]);
    }
    black_box(acc);
    started.elapsed().as_secs_f64()
}
