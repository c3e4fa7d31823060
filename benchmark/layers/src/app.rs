//! The workload's application as the CLI builds it. `cli::build_app` is
//! private, so this repeats its rule from the public constructors: with
//! `scale=` the paper parameters at that scale, without it the test ones.
//! Included by the drivers that need the real function manifest.

use benchmark::layer::Shape;
use dynprof_apps::{smg98, sweep3d, umt98, Smg98Params, Sweep3dParams, Umt98Params};
use dynprof_core::AppSpec;

/// Build the application of `shape` at `cpus`.
pub fn build(shape: &Shape, cpus: usize) -> AppSpec {
    macro_rules! app {
        ($params:ty, $ctor:path) => {{
            let mut p = match shape.scale {
                Some(_) => <$params>::paper(),
                None => <$params>::test(),
            };
            if let Some(scale) = shape.scale {
                p.scale = scale;
            }
            $ctor(cpus, p)
        }};
    }
    match shape.app.as_str() {
        "smg98" => app!(Smg98Params, smg98),
        "sweep3d" => app!(Sweep3dParams, sweep3d),
        "umt98" => app!(Umt98Params, umt98),
        other => panic!("no workload uses the application {other:?}"),
    }
}
