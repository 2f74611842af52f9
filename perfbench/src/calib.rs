//! Host-speed calibration: a fixed piece of work, independent of the
//! program under test, timed next to every measured chunk so that a
//! chunk's throughput can be scaled to a reference host speed.
//!
//! On shared 2-vCPU virtual machines the host's speed moves between
//! levels about 1.5 times apart, for seconds to minutes at a time, so
//! two runs of identical code can differ by tens of percent. The
//! calibration runs on the same thread right before each chunk and sees
//! the same level. It mixes the kinds of work the simulator does: a
//! priority queue (the event wheel), hash lookups (vSwitch and MAC
//! tables) and a 1 MiB copy (guest memory). Each measurement runs the
//! work twice and times the second, warm run, so the program's own
//! cache footprint moves it as little as possible.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// What one warm calibration run takes on the reference host. Scaled
/// figures read as if every chunk had run on a host this fast.
pub const REFERENCE_S: f64 = 300e-6;

const QUEUED: u64 = 2_000;
const KEYS: u64 = 4_096;

/// The calibration work and its preallocated state (measuring
/// allocates nothing, so it leaves `allocs_per_op` alone).
pub struct Calibration {
    heap: BinaryHeap<u64>,
    // A fixed hasher: the same probe sequence in every process.
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    src: Vec<u8>,
    dst: Vec<u8>,
}

impl Default for Calibration {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibration {
    /// Allocates the calibration state.
    pub fn new() -> Self {
        Calibration {
            heap: BinaryHeap::with_capacity(QUEUED as usize),
            map: HashMap::with_capacity_and_hasher(KEYS as usize, Default::default()),
            src: vec![0x3c; 1 << 20],
            dst: vec![0; 1 << 20],
        }
    }

    fn work(&mut self) {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..QUEUED {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.heap.push(x % 100_000);
            self.map.insert(x % KEYS, x);
        }
        let mut acc = 0u64;
        while let Some(v) = self.heap.pop() {
            acc = acc.wrapping_add(v);
        }
        for k in 0..KEYS {
            acc = acc.wrapping_add(self.map.get(&k).copied().unwrap_or(0));
        }
        self.map.clear();
        self.dst.copy_from_slice(&self.src);
        black_box((acc, &self.dst));
    }

    /// Host seconds of one warm run of the calibration work.
    pub fn measure(&mut self) -> f64 {
        self.work();
        let t = Instant::now();
        self.work();
        t.elapsed().as_secs_f64()
    }

    /// The factor that scales a throughput measured now to the
    /// reference host: above 1 while the host runs slower than it.
    pub fn scale(&mut self) -> f64 {
        self.measure() / REFERENCE_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_takes_time_and_allocates_nothing_new() {
        let mut c = Calibration::new();
        let (heap_cap, map_cap) = (c.heap.capacity(), c.map.capacity());
        assert!(c.measure() > 0.0);
        assert!(c.scale() > 0.0);
        assert_eq!((c.heap.capacity(), c.map.capacity()), (heap_cap, map_cap));
    }
}
