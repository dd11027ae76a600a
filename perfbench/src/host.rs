//! What the harness measures about the host itself.
//!
//! A shared host changes speed by tens of percent over minutes, as its
//! neighbours come and go, and that moved the ten-seed spread of run
//! times more than the seeds did. So every timed sample is taken between
//! two runs of [`calibrate`], a fixed kernel that shares no code with
//! the simulator, and is scaled to the reference host:
//! `sample × CAL_REF_S / mean(calibration before, after)`.
//!
//! The kernel has two timed parts: a chain of dependent `ln`/`exp` calls
//! (the arithmetic of the medium's fading draw), and the same chain
//! interleaved with random reads of a 16 MB table. The first slows down
//! when the core is shared, the second also when the caches and memory
//! are; the workloads mix both, and the geometric mean of the two times
//! tracked them best. In 200-second logs of back-to-back runs on a 2-cpu
//! shared host, the quartile spread of 20-second window medians was
//! 10–15 % unscaled, 7–11 % scaled by either part alone, and 2–5 %
//! scaled by their geometric mean. The kernel runs on as many threads as
//! the workload does. The table is a static, not a heap allocation: the
//! engines' set-up time depends on the allocator's state, which the
//! kernel must leave as it found it.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;
use std::time::{Duration, Instant};

/// The reference host's calibration time: a fixed constant, chosen so
/// that scaled samples come out near the run times measured on a quiet
/// 2-cpu x86-64 VM. Only its being fixed matters to a comparison.
const CAL_REF_S: f64 = 0.011;

const CAL_WORDS: usize = 1 << 21;
/// Resident size of the calibration table once filled, in MB.
const CAL_MB: f64 = (CAL_WORDS * 8) as f64 / (1024.0 * 1024.0);

static TABLE: [AtomicU64; CAL_WORDS] = [const { AtomicU64::new(0) }; CAL_WORDS];
static FILLED: Once = Once::new();

/// One thread's run of the kernel: the geometric mean of the seconds
/// taken by its compute part and by its memory part.
fn kernel() -> f64 {
    FILLED.call_once(|| {
        for (i, w) in (0u64..).zip(&TABLE) {
            w.store(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), Ordering::Relaxed);
        }
    });
    let step = |x: f64, i: u32| (x + f64::from(black_box(i)).ln()).exp().ln() * 0.5 + 1.0;

    let t = Instant::now();
    let mut x = 1.0f64;
    for i in 1..300_000u32 {
        x = step(x, i);
    }
    black_box(x);
    let compute = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let (mut x, mut hash, mut at) = (1.0f64, 0u64, 7u64);
    for i in 1..300_000u32 {
        x = step(x, i);
        at = at
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        hash ^= TABLE[(at >> 43) as usize].load(Ordering::Relaxed);
    }
    black_box((x, hash));
    let memory = t.elapsed().as_secs_f64();

    (compute * memory).sqrt()
}

/// Mean seconds of the kernel run on `threads` threads at once.
fn calibrate(threads: usize) -> f64 {
    if threads <= 1 {
        return kernel();
    }
    std::thread::scope(|s| {
        let runs: Vec<_> = (0..threads).map(|_| s.spawn(kernel)).collect();
        let total: f64 = runs
            .into_iter()
            .map(|r| r.join().expect("the calibration kernel does not panic"))
            .sum();
        total / threads as f64
    })
}

/// Host-scaled samples of `sample` (which returns seconds on `threads`
/// threads), taken until there are at least `min_n` of them and `window`
/// has passed, with the mean scale factor applied
/// (`CAL_REF_S / calibration`).
pub fn scaled_samples(
    threads: usize,
    min_n: usize,
    window: Duration,
    mut sample: impl FnMut() -> f64,
) -> (Vec<f64>, f64) {
    let (mut samples, mut scales) = (Vec::new(), Vec::new());
    let mut before = calibrate(threads);
    let t0 = Instant::now();
    while samples.len() < min_n || t0.elapsed() < window {
        let secs = sample();
        let after = calibrate(threads);
        let scale = 2.0 * CAL_REF_S / (before + after);
        samples.push(secs * scale);
        scales.push(scale);
        before = after;
    }
    let mean_scale = scales.iter().sum::<f64>() / scales.len() as f64;
    (samples, mean_scale)
}

/// Peak resident set size of this process (`VmHWM`) in MB, not counting
/// the calibration table.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let hwm = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    let table = if FILLED.is_completed() { CAL_MB } else { 0.0 };
    Ok(hwm / 1024.0 - table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_carry_their_scale() {
        for threads in [1, 2] {
            let (samples, mean_scale) = scaled_samples(threads, 3, Duration::ZERO, || 1.0);
            assert_eq!(samples.len(), 3);
            assert!(samples.iter().all(|&s| s > 0.0 && s.is_finite()));
            let mean = samples.iter().sum::<f64>() / 3.0;
            assert!((mean - mean_scale).abs() < 1e-12);
        }
    }

    #[test]
    fn peak_rss_leaves_out_the_table() {
        let before = peak_rss_mb().expect("VmHWM");
        calibrate(1);
        let after = peak_rss_mb().expect("VmHWM");
        assert!(before > 0.0);
        assert!(after < before + CAL_MB / 2.0, "{before} -> {after}");
    }
}
