//! # dynprof-omp — a simulated OpenMP runtime
//!
//! Fork-join thread teams for simulated processes: parallel regions,
//! worksharing loops (static / dynamic / guided schedules) and barriers —
//! with a Guidetrace-style observation interface ([`RegionHooks`]) through
//! which the Vampirtrace layer logs region events (paper §3.1, Fig 3).
//!
//! All team threads of one process run on that process's node, matching
//! the paper's restriction of OpenMP codes to a single SMP node, and the
//! whole team shares the process's single executable image — the property
//! behind Umt98's flat instrumentation time in Fig 9.
//!
//! A region's body is `'static`: the team shares it, so it owns (or
//! shares through an `Arc`) what it uses.
//!
//! ```
//! use dynprof_omp::{OmpRuntime, Schedule};
//! use dynprof_sim::{Machine, Sim};
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//!
//! let sim = Sim::virtual_time(Machine::test_machine(), 0);
//! sim.spawn("app", 0, |p| {
//!     let rt = OmpRuntime::new(p, "app", 4, vec![]);
//!     let hits = Arc::new(AtomicUsize::new(0));
//!     let counted = Arc::clone(&hits);
//!     rt.parallel_for(p, "loop", 0..1000, Schedule::static_block(), move |chunk, _ctx| {
//!         counted.fetch_add(chunk.len(), Ordering::Relaxed);
//!     });
//!     assert_eq!(hits.load(Ordering::Relaxed), 1000);
//!     rt.shutdown(p);
//! });
//! sim.run();
//! ```

#![warn(missing_docs)]

mod hooks;
mod runtime;
mod schedule;

pub use hooks::{RegionHooks, RegionId};
pub use runtime::{
    OmpRuntime, RegionCtx, DYN_CHUNK_COST, FORK_BASE, FORK_PER_THREAD, TEAM_BARRIER_COST,
};
pub use schedule::Schedule;

#[cfg(test)]
mod tests {
    use super::*;
    use dynprof_sim::{Machine, Proc, Sim, SimTime};
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn run_omp(nthreads: usize, f: impl Fn(&Proc, &OmpRuntime) + Send + 'static) -> SimTime {
        let sim = Sim::virtual_time(Machine::test_machine(), 3);
        sim.spawn("app", 0, move |p| {
            let rt = OmpRuntime::new(p, "app", nthreads, vec![]);
            f(p, &rt);
            rt.shutdown(p);
        });
        sim.run()
    }

    #[test]
    fn parallel_runs_every_thread() {
        let tids = Arc::new(Mutex::new(Vec::new()));
        let t2 = Arc::clone(&tids);
        run_omp(4, move |p, rt| {
            let t3 = Arc::clone(&t2);
            rt.parallel(p, "r", move |ctx| {
                t3.lock().push(ctx.tid);
            });
        });
        let mut v = tids.lock().clone();
        v.sort_unstable();
        assert_eq!(v, vec![0, 1, 2, 3]);
    }

    #[test]
    fn region_body_owns_what_the_team_shares() {
        // The master's data reaches the team through the body, which owns
        // it; the master reads the result back through its own handle.
        run_omp(3, |p, rt| {
            let data: Arc<[u64]> = Arc::new([1, 2, 3, 4, 5, 6]);
            let sum = Arc::new(AtomicUsize::new(0));
            let (d, s) = (Arc::clone(&data), Arc::clone(&sum));
            rt.parallel_for(
                p,
                "sum",
                0..data.len(),
                Schedule::static_block(),
                move |c, _| {
                    let part: u64 = d[c].iter().sum();
                    s.fetch_add(part as usize, Ordering::Relaxed);
                },
            );
            assert_eq!(sum.load(Ordering::Relaxed), 21);
        });
    }

    #[test]
    fn dynamic_schedule_covers_all_iterations() {
        let hits = Arc::new(Mutex::new(vec![0u32; 100]));
        let h2 = Arc::clone(&hits);
        run_omp(4, move |p, rt| {
            let h3 = Arc::clone(&h2);
            rt.parallel_for(
                p,
                "dyn",
                0..100,
                Schedule::Dynamic { chunk: 7 },
                move |c, ctx| {
                    ctx.proc.advance(SimTime::from_micros(1));
                    let mut h = h3.lock();
                    for i in c {
                        h[i] += 1;
                    }
                },
            );
        });
        assert!(hits.lock().iter().all(|&c| c == 1));
    }

    #[test]
    fn guided_schedule_covers_all_iterations() {
        let hits = Arc::new(Mutex::new(vec![0u32; 257]));
        let h2 = Arc::clone(&hits);
        run_omp(3, move |p, rt| {
            let h3 = Arc::clone(&h2);
            rt.parallel_for(
                p,
                "g",
                0..257,
                Schedule::Guided { min_chunk: 4 },
                move |c, _| {
                    let mut h = h3.lock();
                    for i in c {
                        h[i] += 1;
                    }
                },
            );
        });
        assert!(hits.lock().iter().all(|&c| c == 1));
    }

    #[test]
    fn barrier_aligns_thread_times() {
        let after = Arc::new(Mutex::new(Vec::new()));
        let a2 = Arc::clone(&after);
        run_omp(4, move |p, rt| {
            let a3 = Arc::clone(&a2);
            rt.parallel(p, "b", move |ctx| {
                ctx.proc
                    .advance(SimTime::from_micros(10 * (ctx.tid as u64 + 1)));
                ctx.barrier();
                a3.lock().push(ctx.proc.now());
            });
        });
        let ts = after.lock();
        let first = ts[0];
        assert!(ts.iter().all(|&t| t == first), "skew after barrier: {ts:?}");
        assert!(first >= SimTime::from_micros(40));
    }

    #[test]
    fn fork_join_charges_master() {
        let t = run_omp(8, |p, rt| {
            let before = p.now();
            rt.parallel(p, "r", |_| {});
            assert!(p.now() > before);
        });
        assert!(t > SimTime::ZERO);
    }

    #[test]
    fn hooks_observe_fork_join_and_threads() {
        #[derive(Default)]
        struct Rec {
            forks: AtomicUsize,
            joins: AtomicUsize,
            begins: AtomicUsize,
            ends: AtomicUsize,
        }
        impl RegionHooks for Rec {
            fn on_fork(&self, _: &Proc, _: RegionId, _: &str, _: usize) {
                self.forks.fetch_add(1, Ordering::Relaxed);
            }
            fn on_join(&self, _: &Proc, _: RegionId, _: &str, _: usize) {
                self.joins.fetch_add(1, Ordering::Relaxed);
            }
            fn on_thread_begin(&self, _: &Proc, _: RegionId, _: usize) {
                self.begins.fetch_add(1, Ordering::Relaxed);
            }
            fn on_thread_end(&self, _: &Proc, _: RegionId, _: usize) {
                self.ends.fetch_add(1, Ordering::Relaxed);
            }
        }
        let rec = Arc::new(Rec::default());
        let r2 = Arc::clone(&rec);
        let sim = Sim::virtual_time(Machine::test_machine(), 3);
        sim.spawn("app", 0, move |p| {
            let rt = OmpRuntime::new(p, "app", 3, vec![r2]);
            rt.parallel(p, "one", |_| {});
            rt.parallel(p, "two", |_| {});
            assert_eq!(rt.regions_executed(), 2);
            rt.shutdown(p);
        });
        sim.run();
        assert_eq!(rec.forks.load(Ordering::Relaxed), 2);
        assert_eq!(rec.joins.load(Ordering::Relaxed), 2);
        assert_eq!(rec.begins.load(Ordering::Relaxed), 6);
        assert_eq!(rec.ends.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn single_threaded_team_works() {
        run_omp(1, |p, rt| {
            let hits = Arc::new(AtomicUsize::new(0));
            let h2 = Arc::clone(&hits);
            rt.parallel_for(
                p,
                "solo",
                0..10,
                Schedule::Dynamic { chunk: 3 },
                move |c, _| {
                    h2.fetch_add(c.len(), Ordering::Relaxed);
                },
            );
            assert_eq!(hits.load(Ordering::Relaxed), 10);
        });
    }

    #[test]
    fn many_regions_reuse_workers() {
        run_omp(4, |p, rt| {
            let hits = Arc::new(AtomicUsize::new(0));
            for _ in 0..50 {
                let h2 = Arc::clone(&hits);
                rt.parallel(p, "r", move |_| {
                    h2.fetch_add(1, Ordering::Relaxed);
                });
            }
            assert_eq!(hits.load(Ordering::Relaxed), 200);
        });
    }
}
