//! A clock that reads reference seconds.
//!
//! On a shared box one thread's speed changes by up to 2× from second to
//! second, as other tenants load the cores underneath it, and a run of
//! tens of seconds does not average that out. So every reading of this
//! clock first runs a fixed kernel, and the wall time since the previous
//! reading counts as reference seconds: × [`REFERENCE_S`] ÷ the mean of
//! the two readings' kernel seconds. The kernel's own time does not count.
//! The kernel hashes and looks up keys in a `HashMap`, which the box slows
//! down nearly as much as it slows the pipeline.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's seconds on an unloaded 2-CPU Xeon VM: the reference speed.
pub const REFERENCE_S: f64 = 0.002;

const KEYS: u64 = 40_000;

type Map = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

pub struct RefClock {
    /// Allocated once: the kernel must not time the allocator, whose cost
    /// after the pipeline frees a server depends on what the OS took back.
    map: Map,
    /// Kernel seconds of the last reading, and when that reading ended.
    last_kernel_s: f64,
    last: Instant,
    ref_s: f64,
    wall_s: f64,
}

impl Default for RefClock {
    fn default() -> RefClock {
        let mut clock = RefClock {
            map: Map::with_capacity_and_hasher(KEYS as usize, Default::default()),
            last_kernel_s: 0.0,
            // flock-lint: allow(determinism) the benchmark times the pipeline by the wall clock; no reading reaches a checked output
            last: Instant::now(),
            ref_s: 0.0,
            wall_s: 0.0,
        };
        clock.last_kernel_s = clock.kernel_s();
        // flock-lint: allow(determinism) the benchmark times the pipeline by the wall clock; no reading reaches a checked output
        clock.last = Instant::now();
        clock
    }
}

impl RefClock {
    /// Seconds of the kernel: insert [`KEYS`] keys, then look each up.
    /// Fixed hash keys, so every run does the same work. The faster of two
    /// runs, so that the first one's cache misses on the map do not count.
    fn kernel_s(&mut self) -> f64 {
        let key = |k: u64| k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            // flock-lint: allow(determinism) the benchmark times the pipeline by the wall clock; no reading reaches a checked output
            let t0 = Instant::now();
            self.map.clear();
            for k in 0..KEYS {
                self.map.insert(key(k), k);
            }
            let found: u64 = (0..KEYS).filter_map(|k| self.map.get(&key(k))).sum();
            black_box(found);
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    }

    /// Reference seconds since the clock was made. Subtract two readings
    /// to time what ran between them; a reading in between only tracks the
    /// box's speed more finely.
    pub fn now(&mut self) -> f64 {
        let wall_s = self.last.elapsed().as_secs_f64();
        let kernel_s = self.kernel_s();
        self.ref_s += wall_s * REFERENCE_S / ((self.last_kernel_s + kernel_s) / 2.0);
        self.wall_s += wall_s;
        self.last_kernel_s = kernel_s;
        // flock-lint: allow(determinism) the benchmark times the pipeline by the wall clock; no reading reaches a checked output
        self.last = Instant::now();
        self.ref_s
    }

    /// Reference seconds per wall second so far.
    pub fn ratio(&self) -> f64 {
        self.ref_s / self.wall_s
    }
}
