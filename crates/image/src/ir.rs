//! The snippet IR and its install-time check (paper §5 safety story).
//!
//! Every [`crate::Snippet`] is a [`SnippetProgram`]: a name and a list of
//! calls into its [`IntrinsicTable`], the whitelist of runtime calls the
//! program may make, each with a declared cost. dynprof builds two shapes:
//! one call (`VT_begin`, `VT_end`, and every [`crate::Snippet::new`]
//! closure) and none (the `configuration_break` body,
//! [`crate::Snippet::noop`]).
//!
//! * [`SnippetProgram::verify`] checks every call against the table and
//!   sums the called intrinsics' declared costs into the *derived*
//!   worst-case cost, which [`SnippetProgram::compile`] stamps into the
//!   snippet for the analyzer and the overhead controller;
//! * [`SnippetProgram::compile`] lowers the program to the snippet's
//!   executable code: a no-op for no call, a direct call for one, a loop
//!   over more.
//!
//! The DPCL daemons run [`verify_snippet`] on every snippet before
//! `Image::try_insert` and reject programs that fail with a typed error.
//!
//! # Cost model
//!
//! Intrinsics carry a declared cost plus a [`ChargeMode`]: `Charged`
//! intrinsics are charged `cost × reps` by the lowered code; `Internal`
//! intrinsics charge the virtual clock themselves (e.g. `VT_begin`, whose
//! charge depends on the activation table) and their declared cost is
//! only the worst case the derived bound covers.

use std::fmt;
use std::sync::Arc;

use dynprof_sim::SimTime;

use crate::snippet::{ProbeCtx, Snippet};

/// Modelled cost of one counter update (a mini-trampoline register save
/// and a memory write): the charge of a counting probe built with
/// [`crate::Snippet::new`].
pub const STORE_COST: SimTime = SimTime::from_nanos(6);

/// Who charges the virtual clock for an intrinsic's execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChargeMode {
    /// The lowered code charges `cost × reps` before running the body.
    Charged,
    /// The body charges the clock itself (runtime-library calls whose
    /// real charge is data-dependent, e.g. `VT_begin`); the declared
    /// `cost` is used only as the derived worst-case bound.
    Internal,
}

/// One whitelisted runtime call a snippet may make.
#[derive(Clone)]
pub struct Intrinsic {
    /// Name used in diagnostics.
    pub name: Arc<str>,
    /// Worst-case cost of one execution (the derived bound's term; also
    /// the charge when `charge` is [`ChargeMode::Charged`]).
    pub cost: SimTime,
    /// Charging discipline.
    pub charge: ChargeMode,
    /// The executable body.
    pub run: Arc<dyn Fn(&ProbeCtx<'_>) + Send + Sync>,
}

impl Intrinsic {
    /// An intrinsic the lowered code charges.
    pub fn charged(
        name: impl Into<String>,
        cost: SimTime,
        run: impl Fn(&ProbeCtx<'_>) + Send + Sync + 'static,
    ) -> Intrinsic {
        Intrinsic {
            name: Arc::from(name.into()),
            cost,
            charge: ChargeMode::Charged,
            run: Arc::new(run),
        }
    }

    /// A self-charging intrinsic (see [`ChargeMode::Internal`]).
    pub fn internal(
        name: impl Into<String>,
        cost: SimTime,
        run: impl Fn(&ProbeCtx<'_>) + Send + Sync + 'static,
    ) -> Intrinsic {
        Intrinsic {
            charge: ChargeMode::Internal,
            ..Intrinsic::charged(name, cost, run)
        }
    }

    fn fire(&self, ctx: &ProbeCtx<'_>) {
        if self.charge == ChargeMode::Charged {
            ctx.proc.advance(self.cost * ctx.reps);
        }
        (self.run)(ctx);
    }
}

impl fmt::Debug for Intrinsic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Intrinsic")
            .field("name", &self.name)
            .field("cost", &self.cost)
            .field("charge", &self.charge)
            .finish()
    }
}

/// The whitelist of runtime calls available to a program.
#[derive(Debug, Default)]
pub struct IntrinsicTable {
    entries: Vec<Intrinsic>,
}

impl IntrinsicTable {
    /// A table with the given entries.
    pub fn new(entries: Vec<Intrinsic>) -> Arc<IntrinsicTable> {
        Arc::new(IntrinsicTable { entries })
    }

    /// The empty table.
    pub fn empty() -> Arc<IntrinsicTable> {
        Arc::new(IntrinsicTable::default())
    }

    /// Entry `#i`, if present.
    pub fn get(&self, i: usize) -> Option<&Intrinsic> {
        self.entries.get(i)
    }
}

/// An instrumentation program: calls into a table of intrinsics, made in
/// order each time the probe fires.
#[derive(Clone, Debug)]
pub struct SnippetProgram {
    /// Snippet name (shows up in diagnostics; read as `Snippet::name`).
    pub name: String,
    /// The program body: indices into `intrinsics`.
    pub calls: Vec<usize>,
    /// Whitelisted runtime calls.
    pub intrinsics: Arc<IntrinsicTable>,
}

impl SnippetProgram {
    /// Build a program.
    pub fn new(
        name: impl Into<String>,
        calls: Vec<usize>,
        intrinsics: Arc<IntrinsicTable>,
    ) -> Arc<SnippetProgram> {
        Arc::new(SnippetProgram {
            name: name.into(),
            calls,
            intrinsics,
        })
    }

    /// Check every call against the table. Returns the derived
    /// worst-case cost of one `reps = 1` firing, the sum of the called
    /// intrinsics' declared costs (multiply by the firing's `reps` for
    /// batched calls), or the first call outside the table.
    pub fn verify(&self) -> Result<SimTime, VerifyError> {
        self.calls.iter().try_fold(SimTime::ZERO, |sum, &index| {
            match self.intrinsics.get(index) {
                Some(intr) => Ok(sum + intr.cost),
                None => Err(VerifyError::UnknownIntrinsic { index }),
            }
        })
    }

    /// Verify, then lower to an executable [`Snippet`].
    ///
    /// Every charge happens inside the lowered code (`Charged`
    /// intrinsics; `Internal` ones charge themselves), so
    /// [`crate::Image`] charges only the trampoline dispatch. The derived
    /// bound is stamped into `Snippet::derived_cost`.
    pub fn compile(self: &Arc<Self>) -> Result<Snippet, VerifyError> {
        let derived = self.verify()?;
        Ok(self.lower(Some(derived)))
    }

    /// Lower **without verifying** — the snippet still carries the
    /// program, so install-time verification ([`verify_snippet`]) will
    /// reject it at the daemon. Exists so tests and negative fixtures
    /// can exercise that rejection path; `derived_cost` stays unset, and
    /// a call outside the table does nothing.
    pub fn compile_unchecked(self: &Arc<Self>) -> Snippet {
        self.lower(None)
    }

    fn lower(self: &Arc<Self>, derived: Option<SimTime>) -> Snippet {
        let table = &self.intrinsics;
        let code: Arc<dyn Fn(&ProbeCtx<'_>) + Send + Sync> = match self.calls[..] {
            [] => Arc::new(|_| {}),
            // The VT begin/end shape: call straight through.
            [i] => match table.get(i).cloned() {
                Some(intr) => Arc::new(move |ctx| intr.fire(ctx)),
                None => Arc::new(|_| {}),
            },
            ref calls => {
                let intrinsics: Vec<Intrinsic> = calls
                    .iter()
                    .filter_map(|&i| table.get(i).cloned())
                    .collect();
                Arc::new(move |ctx| intrinsics.iter().for_each(|intr| intr.fire(ctx)))
            }
        };
        Snippet {
            code,
            program: Arc::clone(self),
            derived_cost: derived,
        }
    }
}

/// Why a program failed verification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// A call to an intrinsic index not in the table.
    UnknownIntrinsic {
        /// The out-of-table index.
        index: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::UnknownIntrinsic { index } => {
                write!(f, "call to unknown intrinsic #{index}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Install-time verification of a snippet, as run by the DPCL daemons
/// before `Image::try_insert`: its program must verify.
pub fn verify_snippet(s: &Snippet) -> Result<(), VerifyError> {
    s.program.verify().map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{FuncId, ProbePointKind};
    use dynprof_sim::{Machine, Proc, Sim};

    fn in_proc(f: impl FnOnce(&Proc) + Send + 'static) {
        let sim = Sim::virtual_time(Machine::test_machine(), 1);
        sim.spawn("p", 0, f);
        sim.run();
    }

    fn ctx_for<'a>(p: &'a Proc, reps: u64) -> ProbeCtx<'a> {
        ProbeCtx {
            proc: p,
            rank: 0,
            thread: 0,
            func: FuncId(0),
            name: "f",
            point: ProbePointKind::Entry,
            reps,
        }
    }

    #[test]
    fn internal_intrinsic_counts_toward_bound_but_is_not_charged() {
        let cost = SimTime::from_nanos(800);
        let table = IntrinsicTable::new(vec![Intrinsic::internal("vt_begin", cost, |_| {})]);
        let prog = SnippetProgram::new("vt", vec![0], table);
        assert_eq!(prog.verify(), Ok(cost));
        let s = prog.compile().expect("verifies");
        in_proc(move |p| {
            (s.code)(&ctx_for(p, 5));
            assert_eq!(p.now(), SimTime::ZERO, "internal intrinsic self-charges");
        });
    }

    #[test]
    fn charged_intrinsic_charges_cost_times_reps() {
        let cost = SimTime::from_nanos(100);
        let table = IntrinsicTable::new(vec![Intrinsic::charged("tick", cost, |_| {})]);
        let prog = SnippetProgram::new("t", vec![0], table);
        let s = prog.compile().expect("verifies");
        in_proc(move |p| {
            (s.code)(&ctx_for(p, 4));
            assert_eq!(p.now(), cost * 4);
        });
    }

    #[test]
    fn verify_snippet_accepts_legacy_and_rejects_bad_programs() {
        // `Snippet::new`'s closure is the one-call program: it verifies.
        let legacy = Snippet::new("legacy", SimTime::from_nanos(30), |_| {});
        assert_eq!(verify_snippet(&legacy), Ok(()));
        assert_eq!(legacy.program.calls, [0]);
        let bad = SnippetProgram::new("bad", vec![7], IntrinsicTable::empty()).compile_unchecked();
        assert_eq!(bad.derived_cost, None);
        let err = verify_snippet(&bad).unwrap_err();
        assert_eq!(err, VerifyError::UnknownIntrinsic { index: 7 });
        assert_eq!(err.to_string(), "call to unknown intrinsic #7");
    }
}
