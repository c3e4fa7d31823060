//! The image layer on its own, on the workload's real function manifest:
//! building a process image, patching and unpatching a probe point, and
//! calling through an image with and without instrumentation.

#[path = "../app.rs"]
mod app;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use benchmark::layer::{Counts, Report, Shape};
use dynprof_core::AppSpec;
use dynprof_image::{
    CallerCtx, FuncId, Image, ProbeCtx, ProbePoint, Snippet, StaticHooks, STORE_COST,
};
use dynprof_sim::{Machine, Sim};
use dynprof_vt::Policy;

/// Calls per call-path scenario.
const CALLS: u64 = 1_000_000;
/// Images the patch scenario cycles through.
const PATCH_IMAGES: u64 = 256;

fn no_events(ops: u64) -> Counts {
    Counts {
        ops,
        engine_events: 0,
    }
}

/// A static hook that counts, standing in for Vampirtrace's: the cost
/// measured is the image's dispatch to the hook, not the trace library.
struct CountingHooks(AtomicU64);

impl StaticHooks for CountingHooks {
    fn begin(&self, ctx: &ProbeCtx<'_>) {
        self.0.fetch_add(ctx.reps, Ordering::Relaxed);
    }
    fn end(&self, ctx: &ProbeCtx<'_>) {
        self.0.fetch_add(ctx.reps, Ordering::Relaxed);
    }
}

fn counting_snippet(count: &Arc<AtomicU64>) -> Snippet {
    let count = Arc::clone(count);
    Snippet::new("count", STORE_COST, move |ctx| {
        count.fetch_add(ctx.reps, Ordering::Relaxed);
    })
}

/// The functions the workload's policy instruments.
fn targets(app: &AppSpec, image: &Image, dynamic: bool) -> Vec<FuncId> {
    let names = if dynamic {
        app.subset.clone()
    } else {
        app.function_names()
    };
    names.iter().filter_map(|n| image.func(n)).collect()
}

/// Call the first target `calls` times inside a simulated process.
fn call_loop(image: Arc<Image>, f: FuncId, calls: u64, seed: u64) -> Counts {
    let sim = Sim::virtual_time(Machine::ibm_power3_colony(), seed);
    let stats = sim.stats();
    sim.spawn("caller", 0, move |p| {
        for _ in 0..calls {
            image.call(p, CallerCtx::default(), f, || std::hint::black_box(1));
        }
    });
    sim.run();
    Counts {
        ops: calls,
        engine_events: stats.events_dispatched(),
    }
}

fn main() {
    let shape = Shape::from_args();
    let mut report = Report::new("image");
    let policy = Policy::parse(&shape.policy).expect("the runner passes a known policy");
    let dynamic = policy == Policy::Dynamic;
    let static_instr = policy.static_instrumentation();
    let app = app::build(&shape, shape.cpus);

    // One image per process, as the session builds them.
    let images = shape.processes as u64;
    report.unit_cost("build", images, |n| {
        let built: Vec<Arc<Image>> = (0..n).map(|_| app.build_image(static_instr)).collect();
        std::hint::black_box(&built);
        no_events(n)
    });

    // Patch: entry and exit probe of every subset function, put in, and
    // put in and taken out again. Both sides of the differential build a
    // fresh pool of images, so the pool's cost cancels.
    let count = Arc::new(AtomicU64::new(0));
    let mut targets_per_image = 0;
    for (name, remove) in [("insert", false), ("insert_remove", true)] {
        report.unit_cost(name, PATCH_IMAGES, |n| {
            let pool: Vec<Arc<Image>> = (0..PATCH_IMAGES).map(|_| app.build_image(false)).collect();
            let funcs = targets(&app, &pool[0], true);
            targets_per_image = funcs.len();
            let mut probes = 0;
            for image in &pool[..n as usize] {
                for &f in &funcs {
                    for point in [ProbePoint::entry(f), ProbePoint::exit(f)] {
                        let id = image
                            .try_insert(point, counting_snippet(&count))
                            .expect("patchable subset function");
                        if remove {
                            image.remove(point, id);
                        }
                        probes += 1;
                    }
                }
            }
            no_events(probes)
        });
    }

    // Call path: bare, then instrumented the way the policy does it.
    let bare = app.build_image(false);
    let f = targets(&app, &bare, dynamic)[0];
    report.unit_cost("call_unprobed", CALLS, |n| {
        call_loop(Arc::clone(&bare), f, n, shape.seed)
    });
    let probed = app.build_image(static_instr);
    if static_instr {
        probed.set_static_hooks(Arc::new(CountingHooks(AtomicU64::new(0))));
    } else {
        for point in [ProbePoint::entry(f), ProbePoint::exit(f)] {
            probed
                .try_insert(point, counting_snippet(&count))
                .expect("patchable subset function");
        }
    }
    report.unit_cost("call_probed", CALLS, |n| {
        call_loop(Arc::clone(&probed), f, n, shape.seed)
    });
    report.value("functions", app.functions.len() as f64);
    report.value("targets", targets_per_image as f64);
    report.emit();
}
