//! Statistical sampling — the alternative to complete profiling the paper
//! weighs in §2.
//!
//! "Statistical sampling captures the program state at regular time
//! intervals, recording the code location currently executing at the time
//! that the interval expires. [...] the smaller the sampling interval,
//! the higher the accuracy and overhead."
//!
//! VGV itself uses complete profiling (its time-line views need every
//! event), but a sampler is the natural baseline to compare against — the
//! `ablation` harness does exactly that, and is this module's one user. In virtual time the sampler is
//! evaluated as an *ideal interrupt sampler*: the image journals each
//! call's `[enter, exit)` interval (the shadow program counter's history),
//! and [`sample_image`] attributes one tick per interval expiry to the
//! innermost function covering it. Target perturbation is the paper's
//! per-interrupt cost times the tick count, reported alongside the
//! profile rather than injected into the run.

use std::collections::BTreeMap;

use dynprof_image::{FuncId, Image};
use dynprof_sim::SimTime;

/// Cost of one sampling interrupt on the target (signal delivery, handler,
/// return) — used to estimate the perturbation a real sampler would add.
pub const SAMPLE_INTERRUPT_COST: SimTime = SimTime::from_micros(2);

/// Accumulated samples of one process.
#[derive(Clone, Debug, Default)]
pub struct SampleProfile {
    /// Samples per function (by image [`FuncId`] index).
    pub counts: BTreeMap<u32, u64>,
    /// Total ticks evaluated (across threads, including unknown ticks).
    pub ticks: u64,
    /// Ticks that landed outside any manifest function.
    pub unknown: u64,
    /// The sampling interval used.
    pub interval: SimTime,
}

impl SampleProfile {
    /// Fraction of known samples attributed to `fid` (0.0 if none).
    pub fn share(&self, fid: FuncId) -> f64 {
        let known: u64 = self.counts.values().sum();
        if known == 0 {
            return 0.0;
        }
        *self.counts.get(&fid.0).unwrap_or(&0) as f64 / known as f64
    }

    /// Functions by descending sample count.
    pub fn ranked(&self) -> Vec<(FuncId, u64)> {
        let mut v: Vec<_> = self.counts.iter().map(|(&f, &c)| (FuncId(f), c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
        v
    }

    /// Estimated perturbation a real interrupt sampler would have added
    /// to the target (ticks × per-interrupt cost).
    pub fn estimated_overhead(&self) -> SimTime {
        SAMPLE_INTERRUPT_COST * self.ticks
    }
}

/// Evaluate an ideal interrupt sampler over `image`'s PC journal: one tick
/// per `interval` in `[t0, t1]`, attributed to the innermost journaled
/// interval covering it. The image must have had
/// [`Image::enable_pc_log`] set before the run.
pub fn sample_image(image: &Image, interval: SimTime, t0: SimTime, t1: SimTime) -> SampleProfile {
    assert!(
        interval > SimTime::ZERO,
        "sampling interval must be positive"
    );
    let log = image.pc_log_snapshot();
    let mut profile = SampleProfile {
        interval,
        ..SampleProfile::default()
    };
    for (_thread, mut intervals) in log {
        // Innermost = the containing interval with the latest start.
        intervals.sort_by_key(|&(s, _, _)| s);
        let starts: Vec<SimTime> = intervals.iter().map(|&(s, _, _)| s).collect();
        let mut t = t0;
        while t <= t1 {
            profile.ticks += 1;
            // Find the last interval starting at or before t...
            let idx = starts.partition_point(|&s| s <= t);
            // ...then scan backwards for the innermost cover.
            let hit = intervals[..idx]
                .iter()
                .rev()
                .take(64) // nesting depth bound
                .find(|&&(s, e, _)| s <= t && t < e);
            match hit {
                Some(&(_, _, fid)) => *profile.counts.entry(fid).or_insert(0) += 1,
                None => profile.unknown += 1,
            }
            t += interval;
        }
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynprof_image::{CallerCtx, FunctionInfo, ImageBuilder};
    use dynprof_sim::{Machine, Sim};
    use std::sync::Arc;

    fn run_two_phase(
        hot_us: u64,
        cold_us: u64,
        reps: usize,
    ) -> (Arc<dynprof_image::Image>, SimTime) {
        let mut b = ImageBuilder::new("app");
        let _hot = b.add(FunctionInfo::new("hot"));
        let _cold = b.add(FunctionInfo::new("cold"));
        let img = Arc::new(b.build());
        img.enable_pc_log();
        let img2 = Arc::clone(&img);
        let sim = Sim::virtual_time(Machine::test_machine(), 9);
        sim.spawn("app", 0, move |p| {
            let hot = img2.func("hot").unwrap();
            let cold = img2.func("cold").unwrap();
            for _ in 0..reps {
                img2.call(p, CallerCtx::default(), hot, || {
                    p.advance(SimTime::from_micros(hot_us))
                });
                img2.call(p, CallerCtx::default(), cold, || {
                    p.advance(SimTime::from_micros(cold_us))
                });
            }
        });
        let end = sim.run();
        (img, end)
    }

    #[test]
    fn sampler_attributes_time_proportionally() {
        let (img, end) = run_two_phase(90, 10, 50);
        let prof = sample_image(&img, SimTime::from_micros(7), SimTime::ZERO, end);
        let hot = img.func("hot").unwrap();
        let cold = img.func("cold").unwrap();
        assert!(prof.ticks > 400, "too few ticks: {}", prof.ticks);
        let hs = prof.share(hot);
        assert!((hs - 0.9).abs() < 0.05, "hot share {hs}");
        assert_eq!(prof.ranked()[0].0, hot);
        assert!(prof.share(cold) > 0.05);
        assert!(prof.estimated_overhead() > SimTime::ZERO);
    }

    #[test]
    fn coarser_intervals_lose_accuracy_but_cost_less() {
        let (img1, end) = run_two_phase(9, 1, 200);
        let fine = sample_image(&img1, SimTime::from_micros(1), SimTime::ZERO, end);
        let (img2, end2) = run_two_phase(9, 1, 200);
        let coarse = sample_image(&img2, SimTime::from_micros(130), SimTime::ZERO, end2);
        assert!(fine.ticks > 10 * coarse.ticks);
        assert!(fine.estimated_overhead() > coarse.estimated_overhead());
        // The fine profile nails the 90/10 split.
        let hot = img1.func("hot").unwrap();
        assert!((fine.share(hot) - 0.9).abs() < 0.02, "{}", fine.share(hot));
    }

    #[test]
    fn nested_calls_attribute_to_innermost() {
        let mut b = ImageBuilder::new("app");
        let outer = b.add(FunctionInfo::new("outer"));
        let inner = b.add(FunctionInfo::new("inner"));
        let img = Arc::new(b.build());
        img.enable_pc_log();
        let img2 = Arc::clone(&img);
        let sim = Sim::virtual_time(Machine::test_machine(), 9);
        sim.spawn("app", 0, move |p| {
            img2.call(p, CallerCtx::default(), outer, || {
                p.advance(SimTime::from_micros(10));
                img2.call(p, CallerCtx::default(), inner, || {
                    p.advance(SimTime::from_micros(80));
                });
                p.advance(SimTime::from_micros(10));
            });
        });
        let end = sim.run();
        let prof = sample_image(&img, SimTime::from_micros(1), SimTime::ZERO, end);
        assert!(prof.share(inner) > 0.7, "inner {}", prof.share(inner));
        assert!(prof.share(outer) < 0.3, "outer {}", prof.share(outer));
    }

    #[test]
    fn unlogged_image_yields_unknown_ticks() {
        let mut b = ImageBuilder::new("app");
        let f = b.add(FunctionInfo::new("f"));
        let img = Arc::new(b.build()); // pc log NOT enabled
        let img2 = Arc::clone(&img);
        let sim = Sim::virtual_time(Machine::test_machine(), 9);
        sim.spawn("app", 0, move |p| {
            img2.call(p, CallerCtx::default(), f, || {
                p.advance(SimTime::from_micros(100))
            });
        });
        let end = sim.run();
        let prof = sample_image(&img, SimTime::from_micros(10), SimTime::ZERO, end);
        assert_eq!(prof.counts.len(), 0);
        assert_eq!(prof.ticks, 0, "no journaled threads, no ticks");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        let mut b = ImageBuilder::new("app");
        b.add(FunctionInfo::new("f"));
        let img = b.build();
        sample_image(&img, SimTime::ZERO, SimTime::ZERO, SimTime::from_secs(1));
    }
}
