//! # dynprof-omp — a simulated OpenMP runtime
//!
//! Fork-join thread teams for simulated processes: parallel regions,
//! worksharing loops (static / dynamic / guided schedules), reductions,
//! barriers, `single`, `master`, and `critical` — with a Guidetrace-style
//! observation interface ([`RegionHooks`]) through which the Vampirtrace
//! layer logs region events (paper §3.1, Fig 3).
//!
//! All team threads of one process run on that process's node, matching
//! the paper's restriction of OpenMP codes to a single SMP node, and the
//! whole team shares the process's single executable image — the property
//! behind Umt98's flat instrumentation time in Fig 9.
//!
//! ```
//! use dynprof_omp::{OmpRuntime, Schedule};
//! use dynprof_sim::{Machine, Sim};
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! let sim = Sim::virtual_time(Machine::test_machine(), 0);
//! sim.spawn("app", 0, |p| {
//!     let rt = OmpRuntime::new(p, "app", 4, vec![]);
//!     let hits = AtomicUsize::new(0);
//!     rt.parallel_for(p, "loop", 0..1000, Schedule::static_block(), |chunk, _ctx| {
//!         hits.fetch_add(chunk.len(), Ordering::Relaxed);
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
    LoopShared, OmpRuntime, RegionCtx, TeamShared, CRITICAL_COST, DYN_CHUNK_COST, FORK_BASE,
    FORK_PER_THREAD, TEAM_BARRIER_COST,
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
            rt.parallel(p, "r", |ctx| {
                t2.lock().push(ctx.tid);
            });
        });
        let mut v = tids.lock().clone();
        v.sort_unstable();
        assert_eq!(v, vec![0, 1, 2, 3]);
    }

    #[test]
    fn region_body_may_borrow_stack_data() {
        run_omp(3, |p, rt| {
            let data = [1u64, 2, 3, 4, 5, 6];
            let sum = AtomicUsize::new(0);
            rt.parallel_for(p, "sum", 0..data.len(), Schedule::static_block(), |c, _| {
                let s: u64 = data[c].iter().sum();
                sum.fetch_add(s as usize, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 21);
        });
    }

    #[test]
    fn dynamic_schedule_covers_all_iterations() {
        let hits = Arc::new(Mutex::new(vec![0u32; 100]));
        let h2 = Arc::clone(&hits);
        run_omp(4, move |p, rt| {
            rt.parallel_for(
                p,
                "dyn",
                0..100,
                Schedule::Dynamic { chunk: 7 },
                |c, ctx| {
                    ctx.proc.advance(SimTime::from_micros(1));
                    let mut h = h2.lock();
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
            rt.parallel_for(p, "g", 0..257, Schedule::Guided { min_chunk: 4 }, |c, _| {
                let mut h = h2.lock();
                for i in c {
                    h[i] += 1;
                }
            });
        });
        assert!(hits.lock().iter().all(|&c| c == 1));
    }

    #[test]
    fn reduction_combines_partials() {
        run_omp(4, |p, rt| {
            let total = rt.parallel_for_reduce(
                p,
                "red",
                0..1000,
                Schedule::static_block(),
                || 0u64,
                |c, acc, _| {
                    *acc += c.map(|i| i as u64).sum::<u64>();
                },
                |a, b| a + b,
            );
            assert_eq!(total, 499_500);
        });
    }

    #[test]
    fn single_runs_exactly_once_per_instance() {
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&count);
        run_omp(4, move |p, rt| {
            rt.parallel(p, "s", |ctx| {
                for _ in 0..3 {
                    ctx.single(|| {
                        c2.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn master_runs_on_thread_zero_only() {
        let who = Arc::new(Mutex::new(Vec::new()));
        let w2 = Arc::clone(&who);
        run_omp(4, move |p, rt| {
            rt.parallel(p, "m", |ctx| {
                ctx.master(|| w2.lock().push(ctx.tid));
            });
        });
        assert_eq!(*who.lock(), vec![0]);
    }

    #[test]
    fn critical_serializes() {
        // A non-atomic read-modify-write under critical must not lose
        // updates.
        let sim = Sim::virtual_time(Machine::test_machine(), 1);
        let value = Arc::new(Mutex::new(0u64));
        let v2 = Arc::clone(&value);
        sim.spawn("app", 0, move |p| {
            let rt = OmpRuntime::new(p, "app", 4, vec![]);
            rt.parallel(p, "c", |ctx| {
                for _ in 0..100 {
                    ctx.critical(|| {
                        let mut g = v2.lock();
                        let old = *g;
                        *g = old + 1;
                    });
                }
            });
            rt.shutdown(p);
        });
        sim.run();
        assert_eq!(*value.lock(), 400);
    }

    #[test]
    fn barrier_aligns_thread_times() {
        let after = Arc::new(Mutex::new(Vec::new()));
        let a2 = Arc::clone(&after);
        run_omp(4, move |p, rt| {
            rt.parallel(p, "b", |ctx| {
                ctx.proc
                    .advance(SimTime::from_micros(10 * (ctx.tid as u64 + 1)));
                ctx.barrier();
                a2.lock().push(ctx.proc.now());
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
            let hits = AtomicUsize::new(0);
            rt.parallel_for(p, "solo", 0..10, Schedule::Dynamic { chunk: 3 }, |c, _| {
                hits.fetch_add(c.len(), Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 10);
        });
    }

    #[test]
    fn sections_each_run_once_distributed() {
        let hits = Arc::new(Mutex::new(vec![0u32; 7]));
        let owners = Arc::new(Mutex::new(std::collections::HashSet::new()));
        let (h2, o2) = (Arc::clone(&hits), Arc::clone(&owners));
        run_omp(4, move |p, rt| {
            let mk = |i: usize| {
                let h = Arc::clone(&h2);
                let o = Arc::clone(&o2);
                move |ctx: &RegionCtx<'_>| {
                    ctx.proc.advance(SimTime::from_micros(10));
                    h.lock()[i] += 1;
                    o.lock().insert(ctx.tid);
                }
            };
            let s0 = mk(0);
            let s1 = mk(1);
            let s2 = mk(2);
            let s3 = mk(3);
            let s4 = mk(4);
            let s5 = mk(5);
            let s6 = mk(6);
            rt.parallel_sections(p, "secs", &[&s0, &s1, &s2, &s3, &s4, &s5, &s6]);
        });
        assert!(hits.lock().iter().all(|&c| c == 1), "{:?}", hits.lock());
        // With 7 sections and 4 threads, work spreads across the team.
        assert!(owners.lock().len() >= 2, "sections all ran on one thread");
    }

    #[test]
    fn many_regions_reuse_workers() {
        run_omp(4, |p, rt| {
            let hits = AtomicUsize::new(0);
            for _ in 0..50 {
                rt.parallel(p, "r", |_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
            assert_eq!(hits.load(Ordering::Relaxed), 200);
        });
    }
}
