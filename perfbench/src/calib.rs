//! Host-speed calibration.
//!
//! On a shared host the same code runs up to twice as slow while other
//! tenants load the machine, in stretches of seconds to minutes. The
//! benchmark therefore times a fixed kernel (an unstable sort of
//! pseudo-random keys: branchy integer work on an L2-sized array) after
//! every timed repetition, and reports times in *reference seconds*: a
//! repetition's wall time divided by the slowdown the kernel saw around it
//! (mean of the passes before and after, over [`REFERENCE_S`]). The kernel
//! lives here, outside the simulator, so no change to the simulator moves
//! it.
//!
//! A multi-lane workload takes the geometric mean of a one-thread pass and
//! a pass on every lane at once. The all-lanes pass overstates its
//! slowdown: a short pass stays stuck beside a competing thread, while
//! the scheduler spreads a long run's lanes. The one-thread pass
//! understates it. With a busy loop or a memory streamer on the other
//! vCPU of a 2-vCPU host, the 2-lane workload slowed 1.51× and 1.37×; the
//! all-lanes pass alone corrected that to 0.81× and 0.82×, the one-thread
//! pass to 1.12× and 1.19×, and their geometric mean to 1.03× and 1.06×.

use std::hint::black_box;
use std::time::Instant;

/// Kernel time on an unloaded 2.1 GHz Xeon (Sapphire Rapids) vCPU, in
/// seconds: the host speed one reference second stands for.
pub const REFERENCE_S: f64 = 0.004;

/// Keys sorted per kernel pass and thread.
const KEYS: usize = 200_000;

pub struct Calibrator {
    keys: Vec<u32>,
    /// One scratch copy per lane.
    scratch: Vec<Vec<u32>>,
    /// Every pass time measured so far, in order.
    pub samples: Vec<f64>,
}

impl Calibrator {
    pub fn new(lanes: usize) -> Calibrator {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let keys: Vec<u32> = (0..KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u32
            })
            .collect();
        let mut cal = Calibrator {
            scratch: vec![keys.clone(); lanes.max(1)],
            keys,
            samples: Vec::new(),
        };
        // Warm the code and the buffers; the first pass is not kept.
        cal.pass();
        cal
    }

    /// One calibration pass, in seconds: the kernel on one thread, and
    /// for several lanes the geometric mean of that and the kernel on
    /// every lane at once (until all finish).
    fn pass(&mut self) -> f64 {
        let one = self.sort_on(1);
        if self.scratch.len() == 1 {
            return one;
        }
        (one * self.sort_on(self.scratch.len())).sqrt()
    }

    /// Sorts a fresh copy of the keys on each of `threads` threads at once.
    fn sort_on(&mut self, threads: usize) -> f64 {
        let scratch = &mut self.scratch[..threads];
        for s in scratch.iter_mut() {
            s.copy_from_slice(&self.keys);
        }
        let t0 = Instant::now();
        if let [one] = scratch {
            one.sort_unstable();
        } else {
            std::thread::scope(|scope| {
                for s in scratch.iter_mut() {
                    scope.spawn(move || s.sort_unstable());
                }
            });
        }
        black_box(&scratch);
        t0.elapsed().as_secs_f64()
    }

    /// Starts a timed phase with a fresh kernel pass, which the first
    /// [`slowdown`](Calibrator::slowdown) of the phase pairs with.
    pub fn begin(&mut self) {
        let first = self.pass();
        self.samples.push(first);
    }

    /// The host slowdown around the work done since the last pass: the
    /// mean of that pass and a new one, over [`REFERENCE_S`].
    pub fn slowdown(&mut self) -> f64 {
        if self.samples.is_empty() {
            self.begin();
        }
        let before = self.samples[self.samples.len() - 1];
        let now = self.pass();
        self.samples.push(now);
        0.5 * (before + now) / REFERENCE_S
    }

    /// Runs `f` and returns its result, its wall seconds and its reference
    /// seconds. Calls made back to back within a phase share the kernel
    /// pass between them.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64, f64) {
        let t0 = Instant::now();
        let out = f();
        let wall = t0.elapsed().as_secs_f64();
        (out, wall, wall / self.slowdown())
    }
}
