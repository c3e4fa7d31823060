//! Instrumentation snippets — the code a dynamic instrumenter inserts.

use std::fmt;
use std::sync::Arc;

use dynprof_sim::{Proc, SimTime};

use crate::func::{FuncId, ProbePointKind};
use crate::ir::{Intrinsic, IntrinsicTable, SnippetProgram};

/// Unique handle for an inserted snippet (for later removal).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SnippetId(pub u64);

/// Context passed to a snippet when its probe point fires.
pub struct ProbeCtx<'a> {
    /// The simulated process executing the probe.
    pub proc: &'a Proc,
    /// MPI rank (or 0 for non-MPI processes) of the executing process.
    pub rank: usize,
    /// OpenMP thread id within the process (0 for the initial thread).
    pub thread: usize,
    /// The function whose probe fired.
    pub func: FuncId,
    /// The function's symbol name.
    pub name: &'a str,
    /// Entry or exit.
    pub point: ProbePointKind,
    /// Number of aggregated invocations this firing represents. `1` for a
    /// plain call; `> 1` when the application used batched calls for very
    /// hot leaf functions (the probe fires once but accounts `reps` calls;
    /// see `Image::call_batch`).
    pub reps: u64,
}

/// A block of dynamically-insertable instrumentation code: a
/// [`SnippetProgram`] plus the code lowered from it.
///
/// In Dyninst terms this is the *instrumentation primitive* placed in a
/// mini-trampoline (paper Fig 1), e.g. `start_timer()`.
#[derive(Clone)]
pub struct Snippet {
    /// The code lowered from `program`: what a probe fire runs, charges
    /// included.
    pub code: Arc<dyn Fn(&ProbeCtx<'_>) + Send + Sync>,
    /// The program `code` was lowered from. Install-time verification
    /// ([`crate::ir::verify_snippet`]) re-checks it.
    pub program: Arc<SnippetProgram>,
    /// The derived worst-case cost bound for one `reps = 1` firing,
    /// stamped by [`SnippetProgram::compile`]; `None` only from
    /// [`SnippetProgram::compile_unchecked`].
    pub derived_cost: Option<SimTime>,
}

impl Snippet {
    /// A snippet whose body is one call to `code`, charged `cost` per
    /// firing: the one-call program over [`Intrinsic::charged`], so its
    /// derived cost is `cost`.
    pub fn new(
        name: impl Into<String>,
        cost: SimTime,
        code: impl Fn(&ProbeCtx<'_>) + Send + Sync + 'static,
    ) -> Snippet {
        let name = name.into();
        let table = IntrinsicTable::new(vec![Intrinsic::charged(name.as_str(), cost, code)]);
        SnippetProgram::new(name, vec![0], table)
            .compile()
            .expect("a one-call program verifies")
    }

    /// The empty program: does nothing and costs nothing (useful in tests
    /// and as the `configuration_break` body).
    pub fn noop(name: impl Into<String>) -> Snippet {
        SnippetProgram::new(name, Vec::new(), IntrinsicTable::empty())
            .compile()
            .expect("the empty program verifies")
    }

    /// The program's name (diagnostics, [`crate::BaseTrampoline::remove_named`]).
    pub fn name(&self) -> &str {
        &self.program.name
    }
}

impl fmt::Debug for Snippet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Snippet")
            .field("name", &self.name())
            .field("derived_cost", &self.derived_cost)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::verify_snippet;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn snippet_executes_closure() {
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        let s = Snippet::new("count", SimTime::from_nanos(10), move |ctx| {
            h.fetch_add(ctx.reps, Ordering::Relaxed);
        });
        // The declared cost is the one-call program's derived bound.
        assert_eq!(s.derived_cost, Some(SimTime::from_nanos(10)));
        assert_eq!(verify_snippet(&s), Ok(()));
        // Execute outside a simulation by faking a context is not possible
        // (needs a Proc); full execution is covered in image::tests.
        assert_eq!(s.name(), "count");
        assert_eq!(hits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn noop_is_free() {
        let s = Snippet::noop("nop");
        assert_eq!(s.derived_cost, Some(SimTime::ZERO));
        assert!(s.program.calls.is_empty());
        assert_eq!(verify_snippet(&s), Ok(()));
    }
}
