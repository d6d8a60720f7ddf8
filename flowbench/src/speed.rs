//! Host-speed calibration for the flows' CPU times.
//!
//! The measuring machine shares its host with other machines. When they
//! load the shared caches and memory, the same flow takes more CPU
//! seconds: one ~12 s `translate` pass, repeated for seven minutes, ranged
//! from 10.4 to 14.1 CPU s. Steal does not explain it (under 1 %), so
//! measuring CPU time instead of wall time does not remove it.
//!
//! A fixed kernel that does not call limscan is timed before every unit
//! of every pass. It evaluates a random 2-input gate network of 2^18
//! gates over 64-bit words: the same kind of work as the fault
//! simulators, with a working set (about 5 MiB) that does not fit in a
//! core's private caches, so it slows when the host's shared caches are
//! contended. In a seven-minute trial of 26 `translate` passes, each pass
//! divided by the median kernel time of its own pass spread 0.038 of its
//! median (quartiles), against 0.084 unscaled; that trial ran the kernel
//! for 90 rounds per sample, the benchmark runs [`ROUNDS`]. A kernel of
//! 4096 gates, which fits in a core's caches, did not track the passes
//! (0.194).
//!
//! Flow times are reported scaled to [`REFERENCE_S`]: CPU seconds times
//! `REFERENCE_S / kernel seconds`. A change to limscan moves the scaled
//! times exactly as it moves CPU time; only the host's speed is divided
//! out. Raw CPU seconds are printed beside them in every report.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::rss_mb;

/// Kernel seconds the scaled times are expressed at. One
/// [`Calibration::sample`] took 0.064–0.08 s on the 2-vCPU measuring
/// host, so scaled and raw seconds are of similar size there.
pub const REFERENCE_S: f64 = 0.08;

const GATES: usize = 1 << 18;
const INPUTS: usize = 64;
/// Network evaluations per sample.
const ROUNDS: u64 = 24;

/// The calibration kernel: a fixed random gate network and its values.
pub struct Calibration {
    fanin: Vec<(u32, u32, u8)>,
    values: Vec<u64>,
    /// Resident MiB the kernel's buffers added when they were built.
    pub resident_mb: f64,
}

impl Calibration {
    /// Builds the network from a fixed seed (not the workload seed, so
    /// every run times the same kernel) and touches every page of it.
    pub fn new() -> Self {
        let before = rss_mb();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let fanin = (0..GATES)
            .map(|g| {
                let below = g.max(INPUTS) as u64;
                (
                    (next() % below) as u32,
                    (next() % below) as u32,
                    (next() % 4) as u8,
                )
            })
            .collect();
        let mut calibration = Calibration {
            fanin,
            values: vec![0; GATES],
            resident_mb: 0.0,
        };
        calibration.sample();
        calibration.resident_mb = (rss_mb() - before).max(0.0);
        calibration
    }

    /// Seconds the calling thread spends on one run of the kernel: thread
    /// CPU time, or wall time where the kernel does not report it.
    pub fn sample(&mut self) -> f64 {
        let (cpu, wall) = (thread_cpu_ns(), Instant::now());
        for round in 0..ROUNDS {
            for (g, v) in self.values.iter_mut().enumerate().take(INPUTS) {
                *v = round.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ g as u64;
            }
            for g in INPUTS..GATES {
                let (a, b, op) = self.fanin[g];
                let (a, b) = (self.values[a as usize], self.values[b as usize]);
                self.values[g] = match op {
                    0 => a & b,
                    1 => a | b,
                    2 => a ^ b,
                    _ => !(a & b),
                };
            }
        }
        black_box(&self.values);
        match (cpu, thread_cpu_ns()) {
            (Some(start), Some(end)) => end.saturating_sub(start) as f64 / 1e9,
            _ => wall.elapsed().as_secs_f64(),
        }
    }
}

/// CPU nanoseconds the calling thread has run (`/proc/thread-self/schedstat`).
fn thread_cpu_ns() -> Option<u64> {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}
