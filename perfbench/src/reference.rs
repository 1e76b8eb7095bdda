//! The reference kernel: fixed work of the benchmark's own, timed right
//! before every batch job so that the host's speed of the moment can be
//! divided out of the job's time.
//!
//! The benchmark runs on a shared virtual machine whose speed drifts in
//! regimes lasting seconds to minutes, with no steal time to show for
//! it: the same pass can take a third longer in one run than in the
//! next. The kernel never changes with the program under test, so a
//! change to the program moves a scaled time one for one, while a change
//! in host speed moves the job and the kernel together and cancels out.
//!
//! The kernel mixes the two kinds of work whose times tracked the batch
//! jobs' drift best when it was chosen: packed bitwise evaluation of a
//! seeded gate network, like the simulators, and a string-keyed hash
//! map, like the front end. A pointer chase through a few megabytes
//! tracked it worst and was left out.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

use crate::common::Rng;
use crate::stats::median;

/// The kernel's median time on the host the benchmark was proved on, in
/// ms. A scaled time is in milliseconds at that host speed.
pub const NOMINAL_MS: f64 = 20.0;

const GATES: usize = 1 << 14;
const INPUTS: usize = 64;
const ROUNDS: u64 = 48;
const KEYS: u64 = 4096;
const FILLS: u64 = 5;

/// Jobs on each side of a job whose slowness [`smooth`] takes in.
const RADIUS: usize = 2;

/// Each job's slowness replaced by the median of those within [`RADIUS`]
/// jobs of it: one kernel call's own jitter then does not reach the job
/// it scales, while drifts that last seconds still do.
pub fn smooth(slowness: &[f64]) -> Vec<f64> {
    (0..slowness.len())
        .map(|i| median(&slowness[i.saturating_sub(RADIUS)..(i + RADIUS + 1).min(slowness.len())]))
        .collect()
}

/// The kernel's buffers, allocated once before the measured loop and
/// refilled by every call, so the kernel adds a constant to the
/// process's peak memory instead of a peak of its own that could hide
/// the jobs'.
pub struct Reference {
    fan: Vec<(u32, u32, u8)>,
    v: Vec<u64>,
    map: HashMap<String, u64, BuildHasherDefault<DefaultHasher>>,
}

impl Reference {
    pub fn new() -> Reference {
        let mut r = Reference {
            fan: Vec::with_capacity(GATES),
            v: vec![0; GATES],
            map: HashMap::default(),
        };
        r.kernel();
        r
    }

    /// How much slower the host runs now than nominal: the kernel's
    /// time over [`NOMINAL_MS`].
    pub fn slowness(&mut self) -> f64 {
        let t0 = Instant::now();
        black_box(self.kernel());
        t0.elapsed().as_secs_f64() * 1e3 / NOMINAL_MS
    }

    /// The fixed work; its result only keeps the optimizer from
    /// dropping it.
    fn kernel(&mut self) -> u64 {
        let mut rng = Rng::new(0x5EED, 0x7265_6600);
        self.fan.clear();
        self.fan.extend((0..GATES).map(|i| match i {
            0..INPUTS => (0, 0, 0),
            _ => (
                rng.below(i) as u32,
                rng.below(i) as u32,
                (rng.next_u64() % 4) as u8,
            ),
        }));
        let v = &mut self.v;
        let mut acc = 0u64;
        for round in 0..ROUNDS {
            for (k, x) in v.iter_mut().take(INPUTS).enumerate() {
                *x = round
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left(k as u32);
            }
            for i in INPUTS..GATES {
                let (a, b, op) = self.fan[i];
                let (x, y) = (v[a as usize], v[b as usize]);
                v[i] = match op {
                    0 => x & y,
                    1 => x | y,
                    2 => x ^ y,
                    _ => !(x & y),
                };
            }
            acc ^= v[GATES - 1];
        }
        for fill in 0..FILLS {
            self.map.clear();
            for i in fill * KEYS..(fill + 1) * KEYS {
                self.map.insert(format!("net_{}_{i}", i % 977), i);
            }
            for i in fill * KEYS..(fill + 1) * KEYS {
                acc = acc.wrapping_add(self.map[&format!("net_{}_{i}", i % 977)]);
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn smoothing_drops_a_lone_outlier_and_follows_a_step() {
        let xs = [1.0, 1.0, 5.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0];
        assert_eq!(
            super::smooth(&xs),
            [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0]
        );
        assert_eq!(super::smooth(&[3.0]), [3.0]);
        assert!(super::smooth(&[]).is_empty());
    }

    #[test]
    fn kernel_does_the_same_work_every_call() {
        let mut r = super::Reference::new();
        assert_eq!(r.kernel(), r.kernel());
        assert_eq!(r.kernel(), super::Reference::new().kernel());
    }
}
