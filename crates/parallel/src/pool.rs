//! Order-preserving parallel map on scoped threads.
//!
//! [`parallel_map`] is the single parallel primitive the workspace
//! needs: apply a `Sync` closure to every element of a slice, using all
//! available cores, and return results in input order. Work is
//! distributed by an atomic cursor (dynamic load balancing — trials at
//! large node counts take far longer than small ones, so static
//! chunking would idle half the pool), and each result is written to
//! its own pre-allocated slot, so no ordering coordination is needed.
//!
//! Built entirely on `std` (`std::thread::scope` + `std::sync::Mutex`):
//! the workspace carries no external concurrency dependencies.
//!
//! [`parallel_map_with_workers`] pins the worker count explicitly; the
//! determinism suite uses it to prove results are bit-identical across
//! pool sizes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads to use: all available parallelism, capped
/// so tiny task lists do not spawn idle threads.
///
/// The `FFD2D_WORKERS` environment variable, when set to a positive
/// integer, overrides the detected hardware parallelism — CI pins the
/// pool size with it, and users can rein in a shared machine without
/// code changes. Invalid or zero values are ignored.
pub fn available_workers(tasks: usize) -> usize {
    let hw = std::env::var("FFD2D_WORKERS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&w| w > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    hw.min(tasks).max(1)
}

/// Apply `f` to every element of `inputs` in parallel; results are
/// returned in input order.
///
/// `f` runs on scoped threads, so it may borrow from the caller's
/// stack. Panics in workers propagate to the caller after the scope
/// joins (no result is silently dropped).
///
/// ```
/// let squares = ffd2d_parallel::parallel_map(&[1u64, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, R, F>(inputs: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_with_workers(inputs, None, f)
}

/// [`parallel_map`] with an explicit worker count (`None` = automatic).
///
/// The result is a pure function of `inputs` and `f` — never of the
/// worker count — because each slot is written exactly once and slots
/// are drained in input order.
pub fn parallel_map_with_workers<T, R, F>(inputs: &[T], workers: Option<usize>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers
        .unwrap_or_else(|| available_workers(n))
        .clamp(1, n.max(1));
    if workers == 1 {
        return inputs.iter().map(&f).collect();
    }

    // One slot per task; slots are disjoint, the mutex-per-slot cost is
    // negligible next to a simulation trial and keeps the code safe.
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&inputs[i]);
                *slots[i].lock().expect("slot mutex poisoned") = Some(r);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot mutex poisoned")
                .expect("slot missing result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn empty_input() {
        let out: Vec<u32> = parallel_map(&[] as &[u32], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn preserves_order() {
        let inputs: Vec<u64> = (0..1000).collect();
        let out = parallel_map(&inputs, |&x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let inputs: Vec<usize> = (0..512).collect();
        let counter = AtomicU64::new(0);
        let out = parallel_map(&inputs, |&i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 512);
        assert_eq!(out.len(), 512);
    }

    #[test]
    fn borrows_caller_state() {
        let base = [10u64, 20, 30];
        let inputs = vec![0usize, 1, 2];
        let out = parallel_map(&inputs, |&i| base[i] + 1);
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    fn uneven_task_durations_balance() {
        // Tasks with wildly different costs still all complete and in
        // order — exercises the dynamic cursor.
        let inputs: Vec<u64> = (0..64).collect();
        let out = parallel_map(&inputs, |&x| {
            let mut acc = 0u64;
            let iters = if x % 7 == 0 { 200_000 } else { 10 };
            for i in 0..iters {
                acc = acc.wrapping_add(i ^ x);
            }
            (x, acc).0
        });
        assert_eq!(out, inputs);
    }

    #[test]
    fn worker_count_bounds() {
        assert_eq!(available_workers(0), 1);
        assert!(available_workers(1) >= 1);
        assert!(available_workers(1_000_000) >= 1);
    }

    #[test]
    fn explicit_worker_counts_agree() {
        let inputs: Vec<u64> = (0..257).collect();
        let baseline: Vec<u64> = inputs.iter().map(|&x| x.wrapping_mul(x) ^ 17).collect();
        for workers in [1usize, 2, 3, 8, 64] {
            let out =
                parallel_map_with_workers(&inputs, Some(workers), |&x| x.wrapping_mul(x) ^ 17);
            assert_eq!(out, baseline, "workers={workers}");
        }
    }

    #[test]
    fn env_override_pins_worker_count() {
        // Other tests only assert `>= 1` bounds, so flipping the
        // variable here cannot perturb them.
        std::env::set_var("FFD2D_WORKERS", "3");
        assert_eq!(available_workers(1_000_000), 3);
        assert_eq!(available_workers(2), 2, "task cap still applies");
        std::env::set_var("FFD2D_WORKERS", "0");
        assert!(available_workers(64) >= 1, "zero is ignored");
        std::env::set_var("FFD2D_WORKERS", "not-a-number");
        assert!(available_workers(64) >= 1, "garbage is ignored");
        std::env::remove_var("FFD2D_WORKERS");
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let inputs = vec![0u32, 1, 2, 3, 4, 5, 6, 7];
        let _ = parallel_map(&inputs, |&x| {
            if x == 5 {
                panic!("boom");
            }
            x
        });
    }
}
