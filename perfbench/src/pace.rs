//! Machine-speed calibration.
//!
//! Shared virtual machines drift in speed: on a 2-vCPU one the median
//! round took up to 46% longer in one 30 s window than in another, in
//! phases lasting seconds to minutes, and CPU time drifts with wall
//! time. A fixed kernel of small allocations, hashing and sorting (the
//! operations the compiler's passes are made of, written here so no
//! change to the repository can alter it) is timed around every
//! measured interval, and the interval is expressed at the speed at
//! which the kernel takes [`REFERENCE_S`]. A compute-only or a
//! memory-latency kernel tracked the drift far worse.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time that defines the reference speed.
pub const REFERENCE_S: f64 = 0.005;

/// Passes per kernel run, and strings hashed and inserted per pass
/// (small passes keep the kernel's memory out of the peak RSS).
const PASSES: u64 = 16;
const ITEMS: u64 = 2_000;

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The fixed kernel; returns a checksum so it cannot be optimized away.
fn kernel() -> u64 {
    let mut sum = 0;
    for pass in 0..PASSES {
        let mut map: HashMap<String, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        let mut keys = Vec::with_capacity(ITEMS as usize);
        for i in 0..ITEMS {
            let k = mix(pass * ITEMS + i);
            *map.entry(format!("k{}", k % (ITEMS * 5 / 6))).or_default() += k;
            keys.push(k);
        }
        keys.sort_unstable();
        sum ^= map.len() as u64 ^ keys[keys.len() / 2];
    }
    sum
}

/// Times the kernel on `threads` threads at once (a round that runs on
/// two probe threads is paced by both CPUs).
pub fn sample(threads: usize) -> f64 {
    let started = Instant::now();
    std::thread::scope(|s| {
        let workers: Vec<_> = (1..threads)
            .map(|_| s.spawn(|| black_box(kernel())))
            .collect();
        black_box(kernel());
        for w in workers {
            black_box(w.join().expect("calibration kernel panicked"));
        }
    });
    started.elapsed().as_secs_f64()
}

/// Wall time of some work, as measured and at reference speed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Spent {
    pub raw: f64,
    pub paced: f64,
}

/// Converts measured intervals to reference-speed seconds, pacing each
/// one by the mean of the kernel samples taken just before and just
/// after it.
pub struct Pace {
    threads: usize,
    last: f64,
    /// Every kernel sample taken, in seconds.
    pub samples: Vec<f64>,
}

impl Pace {
    pub fn new(threads: usize) -> Pace {
        let first = sample(threads);
        Pace {
            threads,
            last: first,
            samples: vec![first],
        }
    }

    /// Takes a fresh "before" sample when other work ran since the last
    /// one.
    pub fn restart(&mut self) {
        self.last = sample(self.threads);
        self.samples.push(self.last);
    }

    /// `secs`, measured since the previous sample, at reference speed.
    pub fn scale(&mut self, secs: f64) -> f64 {
        let next = sample(self.threads);
        self.samples.push(next);
        let around = (self.last + next) / 2.0;
        self.last = next;
        secs * REFERENCE_S / around
    }

    /// Runs `f` and adds its wall time to `spent`.
    pub fn time<T>(&mut self, spent: &mut Spent, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        let secs = started.elapsed().as_secs_f64();
        spent.raw += secs;
        spent.paced += self.scale(secs);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_scaling_is_proportional() {
        assert_eq!(kernel(), kernel());
        let mut p = Pace::new(1);
        let a = p.scale(1.0);
        assert!(a > 0.0 && a.is_finite());
        assert_eq!(p.samples.len(), 2);
    }
}
