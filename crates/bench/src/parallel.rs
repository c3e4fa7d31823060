//! A worker-thread pool for fanning out independent virtual-mode runs.
//!
//! Every figure run owns its own seeded discrete-event engine, so runs
//! are embarrassingly parallel: the pool hands jobs to workers through an
//! atomic cursor and writes each result back into the job's slot, which
//! keeps result order equal to job order regardless of which worker
//! finishes first. That order-preservation is what lets
//! [`fig7`](crate::fig7) emit byte-identical
//! JSON to the serial sweep.

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

use dynprof_obs as obs;

/// Run `f` over every job on `workers` threads, returning results in job
/// order. `workers <= 1` (or a single job) degenerates to a plain serial
/// loop on the calling thread. A pool records its size and time into
/// `metrics`, the registry its jobs' sessions share, if there is one.
///
/// Worker panics propagate to the caller once the pool is joined.
pub fn run<T, R, F>(jobs: &[T], workers: usize, metrics: Option<&obs::Registry>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = jobs.len();
    let workers = workers.max(1).min(n.max(1));
    if workers == 1 {
        return jobs.iter().map(f).collect();
    }
    let _span = metrics.map(|m| m.span("bench.pool.real_ns"));
    if let Some(m) = metrics {
        m.gauge("bench.pool.workers").set(workers as u64);
        m.counter("bench.pool.jobs").add(n as u64);
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&jobs[i]);
                *slots[i].lock() = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("worker filled every claimed slot"))
        .collect()
}

/// A sensible worker count: the host's available parallelism.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_job_order() {
        let jobs: Vec<u64> = (0..100).collect();
        let out = run(&jobs, 8, None, |&j| j * j);
        assert_eq!(out, jobs.iter().map(|j| j * j).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let jobs: Vec<u64> = (0..25).collect();
        let serial = run(&jobs, 1, None, |&j| {
            j.wrapping_mul(0x9E37_79B9).rotate_left(7)
        });
        let par = run(&jobs, 4, None, |&j| {
            j.wrapping_mul(0x9E37_79B9).rotate_left(7)
        });
        assert_eq!(serial, par);
    }

    #[test]
    fn empty_and_single_job_edges() {
        let jobs: Vec<()> = Vec::new();
        assert!(run(&jobs, 4, None, |_| 1u32).is_empty());
        assert_eq!(run(&[7], 4, None, |&j: &u32| j + 1), vec![8]);
    }
}
