//! Host readings from `/proc`: peak memory, process CPU time, and the
//! noise diagnostics that let a disturbed run be recognised. Each reader
//! returns 0 where the file is missing (non-Linux hosts).

use std::fs;

/// `USER_HZ`: the clock-tick unit of `/proc/stat` and `/proc/self/stat`.
const TICKS_PER_S: f64 = 100.0;

/// `VmHWM` (peak resident set) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU time of the whole process (all threads), in seconds.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|x| x.parse().ok())
        .collect();
    f.iter().sum::<u64>() as f64 / TICKS_PER_S
}

/// A snapshot of the host-noise counters.
#[derive(Clone, Copy)]
pub struct Noise {
    /// Time the main thread spent runnable but waiting for a CPU
    /// (`/proc/self/schedstat`, second field), in seconds.
    runqueue_wait_s: f64,
    /// Host-wide CPU time stolen by the hypervisor (`/proc/stat`, `cpu`
    /// line, eighth value), in seconds.
    steal_s: f64,
}

impl Noise {
    pub fn now() -> Noise {
        let runqueue_wait_s = fs::read_to_string("/proc/self/schedstat")
            .ok()
            .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
            .map_or(0.0, |ns| ns as f64 * 1e-9);
        let steal_s = fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| {
                let cpu = s.lines().next()?;
                cpu.split_whitespace().nth(8)?.parse::<u64>().ok()
            })
            .map_or(0.0, |t| t as f64 / TICKS_PER_S);
        Noise {
            runqueue_wait_s,
            steal_s,
        }
    }

    /// Counter growth since `earlier`: `(runqueue_wait_s, steal_s)`.
    pub fn since(&self, earlier: &Noise) -> (f64, f64) {
        (
            self.runqueue_wait_s - earlier.runqueue_wait_s,
            self.steal_s - earlier.steal_s,
        )
    }
}
