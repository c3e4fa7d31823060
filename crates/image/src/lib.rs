//! # dynprof-image — program images and runtime code patching
//!
//! The Dyninst/DPCL-probe analogue (paper §2, Fig 1): a process's
//! executable image as a set of functions with entry/exit probe points.
//! Dynamic instrumentation overwrites a probe point with a jump to a
//! **base trampoline**, which saves registers and dispatches a chain of
//! **mini-trampolines**, each holding one instrumentation snippet.
//!
//! The crate models that machinery with real executable snippets (each
//! a verified [`ir::SnippetProgram`]) and an explicit cost model,
//! preserving the property the paper's results hinge on: *an
//! uninstrumented probe point costs zero*.
//!
//! An [`Image`] is two things: the [`Program`] (name, symbol table, and
//! the pool of trampoline chains its images share) that every process of
//! a job shares behind one `Arc`, and a per-process overlay of what
//! patching and running change. A job builds
//! the program once and an `Image::new` per process; [`ImageBuilder`] is
//! the one-image convenience over the same constructor.
//!
//! ```
//! use dynprof_image::{CallerCtx, FunctionInfo, ImageBuilder, ProbePoint, Snippet};
//! use dynprof_sim::{Machine, Sim, SimTime};
//! use std::sync::Arc;
//!
//! let mut b = ImageBuilder::new("demo");
//! let f = b.add(FunctionInfo::new("test"));
//! let img = Arc::new(b.build());
//! img.try_insert(ProbePoint::entry(f), Snippet::new("start_timer",
//!     SimTime::from_nanos(800), |_ctx| { /* e.g. VT_begin(ctx) */ }))
//!     .expect("`test` is large enough to patch");
//!
//! let sim = Sim::virtual_time(Machine::test_machine(), 0);
//! let img2 = Arc::clone(&img);
//! sim.spawn("app", 0, move |p| {
//!     img2.call(p, CallerCtx::default(), f, || { /* body */ });
//! });
//! sim.run();
//! assert_eq!(img.call_count(f), 1);
//! ```

#![warn(missing_docs)]

mod func;
#[allow(clippy::module_inception)]
mod image;
pub mod ir;
mod snippet;
mod trampoline;

pub use func::{BasicBlock, FuncId, FunctionInfo, ProbePoint, ProbePointKind};
pub use image::{
    CallerCtx, Image, ImageBuilder, ImageObserver, PatchError, PcLog, Program, StaticHooks,
};
pub use ir::{
    verify_snippet, ChargeMode, Intrinsic, IntrinsicTable, SnippetProgram, VerifyError, STORE_COST,
};
pub use snippet::{ProbeCtx, Snippet, SnippetId};
pub use trampoline::{
    BaseTrampoline, Chain, ChainPool, MiniTrampoline, BASE_TRAMPOLINE_BYTES, MINI_TRAMPOLINE_BYTES,
    MIN_PATCHABLE_BYTES,
};
