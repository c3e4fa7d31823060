//! Instrumentation snippets — the code a dynamic instrumenter inserts.

use std::fmt;
use std::sync::Arc;

use dynprof_sim::{Proc, SimTime};

use crate::func::{FuncId, ProbePointKind};
use crate::ir::SnippetProgram;

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

/// A block of dynamically-insertable instrumentation code: an executable
/// closure plus the simulated cost of one execution.
///
/// In Dyninst terms this is the *instrumentation primitive* placed in a
/// mini-trampoline (paper Fig 1), e.g. `start_timer()`.
#[derive(Clone)]
pub struct Snippet {
    /// Human-readable snippet name (shows up in diagnostics).
    pub name: Arc<str>,
    /// The instrumentation code itself.
    pub code: Arc<dyn Fn(&ProbeCtx<'_>) + Send + Sync>,
    /// Simulated cost of one execution of the snippet body (what the
    /// closure costs the host is measured separately, by `micro.rs`).
    pub cost: SimTime,
    /// The typed IR this snippet was compiled from, when it was built via
    /// [`SnippetProgram::compile`]. Install-time verification
    /// ([`crate::ir::verify_snippet`]) re-checks this program; opaque
    /// legacy closures carry `None` and pass unverified.
    pub program: Option<Arc<SnippetProgram>>,
    /// The verifier's worst-case cost bound for one `reps = 1` firing,
    /// stamped by [`SnippetProgram::compile`]. Unlike `cost` this is
    /// *derived*, not trusted — the overhead controller prefers it.
    pub derived_cost: Option<SimTime>,
}

impl Snippet {
    /// Create a snippet.
    pub fn new(
        name: impl Into<String>,
        cost: SimTime,
        code: impl Fn(&ProbeCtx<'_>) + Send + Sync + 'static,
    ) -> Snippet {
        Snippet {
            name: Arc::from(name.into()),
            code: Arc::new(code),
            cost,
            program: None,
            derived_cost: None,
        }
    }

    /// A snippet that does nothing and costs nothing (useful in tests and
    /// as the `configuration_break` no-op body).
    pub fn noop(name: impl Into<String>) -> Snippet {
        Snippet::new(name, SimTime::ZERO, |_| {})
    }
}

impl fmt::Debug for Snippet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Snippet")
            .field("name", &self.name)
            .field("cost", &self.cost)
            .field("derived_cost", &self.derived_cost)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn snippet_executes_closure() {
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        let s = Snippet::new("count", SimTime::from_nanos(10), move |ctx| {
            h.fetch_add(ctx.reps, Ordering::Relaxed);
        });
        assert_eq!(s.cost, SimTime::from_nanos(10));
        // Execute outside a simulation by faking a context is not possible
        // (needs a Proc); full execution is covered in image::tests.
        assert_eq!(&*s.name, "count");
        assert_eq!(hits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn noop_is_free() {
        let s = Snippet::noop("nop");
        assert_eq!(s.cost, SimTime::ZERO);
    }
}
