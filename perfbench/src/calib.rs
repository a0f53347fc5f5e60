//! Host-speed calibration: a fixed floating-point kernel, timed at
//! intervals during a run, that tells how fast the host is running at
//! that moment.
//!
//! On a shared host the speed of a core drifts by a third or more within
//! seconds, as neighbours come and go. Every compute-bound latency follows
//! it. The kernel's code lives here, in the benchmark, so a change to the
//! engine never changes it; its time is a pure measure of the host. A
//! latency scaled by `NOMINAL_MS / kernel_ms` is the latency the engine
//! would show on a host that runs the kernel in [`NOMINAL_MS`].

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::stats::median;

/// Rows of the kernel's matrix.
const ROWS: usize = 64;

/// Columns: about the catalog's benchmark count.
const COLS: usize = 32;

/// Matrix-vector sweeps per timing.
const SWEEPS: usize = 160;

/// The kernel's time on the reference host (one vCPU of a shared 2-vCPU
/// cloud guest, when its neighbours were quiet), in ms.
pub const NOMINAL_MS: f64 = 0.3;

/// Pause between timings when the kernel samples beside a server.
const SAMPLE_EVERY: Duration = Duration::from_millis(25);

/// Half-width, in timings, of the window whose median gauges the host's
/// speed at one timing.
const WINDOW: usize = 8;

/// For each timing of a time-ordered series, the factor that scales a
/// latency measured beside it to the reference host: [`NOMINAL_MS`] over
/// the median of the timings up to [`WINDOW`] either side.
pub fn speed_factors(kernel_ms: &[f64]) -> Vec<f64> {
    (0..kernel_ms.len())
        .map(|i| {
            let window =
                &kernel_ms[i.saturating_sub(WINDOW)..(i + WINDOW + 1).min(kernel_ms.len())];
            NOMINAL_MS / median(window)
        })
        .collect()
}

/// Times the kernel every [`SAMPLE_EVERY`] on the calling thread until
/// `stop` is set. Returns each timing with the instant it started.
pub fn sample_until(stop: &AtomicBool) -> Vec<(Instant, f64)> {
    let mut kernel = Kernel::new();
    let mut timings = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        timings.push((Instant::now(), kernel.time_ms()));
        std::thread::sleep(SAMPLE_EVERY);
    }
    timings
}

/// The median of `values`, each scaled to the reference host by the
/// speed factor of the kernel timing taken just before it.
pub fn host_median(values: &[f64], kernel_ms: &[f64]) -> f64 {
    let scaled: Vec<f64> = values
        .iter()
        .zip(speed_factors(kernel_ms))
        .map(|(v, f)| v * f)
        .collect();
    median(&scaled)
}

/// The speed factor at instant `t`, from a time-ordered series of timings
/// and their [`speed_factors`]: that of the timing nearest `t` (1 for an
/// empty series).
pub fn factor_at(times: &[Instant], factors: &[f64], t: Instant) -> f64 {
    let after = times.partition_point(|&s| s < t);
    let nearest = match (after.checked_sub(1), times.get(after)) {
        (Some(before), Some(&next)) if next - t < t - times[before] => after,
        (Some(before), _) => before,
        (None, _) => after,
    };
    factors.get(nearest).copied().unwrap_or(1.0)
}

/// The kernel: a 64 x 32 matrix multiplied back and forth with a vector,
/// the dense floating-point arithmetic the models spend their time in.
/// At 16 KiB it stays in the core's first-level cache whatever the engine
/// left there, so its time follows the core's speed, not the cache's
/// state.
pub struct Kernel {
    a: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::new()
    }
}

impl Kernel {
    /// The kernel with its fixed inputs.
    pub fn new() -> Self {
        let a = (0..ROWS * COLS)
            .map(|i| 0.5 + ((i * 7919) % 1009) as f64 / 1009.0)
            .collect();
        Kernel {
            a,
            x: vec![1.0; COLS],
            y: vec![0.0; ROWS],
        }
    }

    /// Runs the kernel once; returns its wall time in ms.
    pub fn time_ms(&mut self) -> f64 {
        let started = Instant::now();
        for _ in 0..SWEEPS {
            for (row, y) in self.a.chunks_exact(COLS).zip(self.y.iter_mut()) {
                *y = row.iter().zip(&self.x).map(|(a, x)| a * x).sum();
            }
            let mut next = [0.0; COLS];
            for (row, y) in self.a.chunks_exact(COLS).zip(&self.y) {
                for (n, a) in next.iter_mut().zip(row) {
                    *n += a * y;
                }
            }
            let norm = next.iter().map(|v| v * v).sum::<f64>().sqrt();
            for (x, n) in self.x.iter_mut().zip(next) {
                *x = n / norm;
            }
            black_box(&mut self.x);
        }
        started.elapsed().as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_times_are_positive_and_state_stays_finite() {
        let mut kernel = Kernel::new();
        for _ in 0..3 {
            assert!(kernel.time_ms() > 0.0);
        }
        assert!(kernel.x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn factor_at_takes_the_nearest_timing() {
        let t0 = Instant::now();
        let times: Vec<Instant> = (0..3)
            .map(|k| t0 + Duration::from_millis(100 * k))
            .collect();
        let factors = [1.0, 2.0, 3.0];
        let at = |ms| factor_at(&times, &factors, t0 + Duration::from_millis(ms));
        assert_eq!(at(0), 1.0);
        assert_eq!(at(40), 1.0);
        assert_eq!(at(60), 2.0);
        assert_eq!(at(500), 3.0);
        assert_eq!(factor_at(&times[1..], &factors[1..], t0), 2.0);
        assert_eq!(factor_at(&[], &[], t0), 1.0);
    }

    #[test]
    fn host_median_scales_each_value_by_its_factor() {
        let kernel = [NOMINAL_MS, NOMINAL_MS, NOMINAL_MS];
        assert_eq!(host_median(&[3.0, 1.0, 2.0], &kernel), 2.0);
        let slow = [2.0 * NOMINAL_MS; 3];
        assert_eq!(host_median(&[3.0, 1.0, 2.0], &slow), 1.0);
    }

    #[test]
    fn speed_factors_follow_the_local_median() {
        let mut series = vec![NOMINAL_MS; 20];
        series.extend(vec![2.0 * NOMINAL_MS; 20]);
        let factors = speed_factors(&series);
        assert_eq!(factors.len(), 40);
        assert_eq!(factors[0], 1.0);
        assert_eq!(factors[39], 0.5);
        // One stray timing does not move its neighbours' factors.
        let mut spiked = vec![NOMINAL_MS; 20];
        spiked[10] = 10.0;
        assert!(speed_factors(&spiked).iter().all(|&f| f == 1.0));
    }
}
