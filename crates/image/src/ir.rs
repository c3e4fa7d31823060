//! The typed snippet IR and its static verifier (paper §5 safety story).
//!
//! Every [`crate::Snippet`] is a [`SnippetProgram`], a small
//! Dyninst-style mini-AST: probe-context reads, load/store to a declared
//! per-probe data region, integer arithmetic, start/stop timer, trace
//! emission, bounded loops, conditionals, and calls into a whitelisted
//! [`IntrinsicTable`] with per-intrinsic cost. [`crate::Snippet::new`]
//! wraps a closure as the one-call program over a charged intrinsic.
//!
//! Two consumers share the IR:
//!
//! * [`SnippetProgram::compile`] lowers a program to the snippet's
//!   executable code (a small interpreter, with direct paths for the
//!   counting and one-call shapes), which [`crate::Image::call`] runs;
//! * [`SnippetProgram::verify`] abstractly interprets it **before any
//!   install**, computing a *derived* worst-case cost bound (loop bound ×
//!   body cost, branch maxima), a side-effect summary (stores stay inside
//!   the declared region, timers balance on every path, no emission after
//!   the final stop) and termination (loop trip counts statically
//!   bounded, no recursion through intrinsics).
//!
//! The DPCL daemons run [`verify_snippet`] on every snippet before
//! `Image::try_insert` and reject programs that fail with a typed error.
//!
//! # Cost model
//!
//! Every primitive operation has a fixed modelled cost ([`STORE_COST`],
//! [`EMIT_COST`], [`TIMER_COST`], [`LOOP_ITER_COST`], [`BRANCH_COST`]),
//! charged by the interpreter per executed operation × `ctx.reps`.
//! Intrinsics carry their own cost plus a [`ChargeMode`]: `Charged`
//! intrinsics are charged by the interpreter; `Internal` intrinsics
//! charge the virtual clock themselves (e.g. `VT_begin`, whose charge
//! depends on the activation table) and their declared cost is used only
//! as the verifier's upper bound: `VT_begin`'s library charges itself,
//! while the *derived* bound still covers the worst case.

use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use dynprof_sim::SimTime;

use crate::func::ProbePointKind;
use crate::snippet::{ProbeCtx, Snippet};

/// Modelled cost of one executed `Store` (a mini-trampoline register
/// save + memory write).
pub const STORE_COST: SimTime = SimTime::from_nanos(6);
/// Modelled cost of one executed `Emit` (format + append one trace
/// record to the probe's local buffer).
pub const EMIT_COST: SimTime = SimTime::from_nanos(40);
/// Modelled cost of one `StartTimer`/`StopTimer` (a clock read).
pub const TIMER_COST: SimTime = SimTime::from_nanos(25);
/// Modelled per-iteration loop overhead (decrement + conditional jump).
pub const LOOP_ITER_COST: SimTime = SimTime::from_nanos(2);
/// Modelled cost of one conditional branch.
pub const BRANCH_COST: SimTime = SimTime::from_nanos(2);
/// Largest statically-provable loop trip count the verifier accepts. A
/// snippet that iterates more than this at a probe point has become the
/// application, not its instrumentation.
pub const MAX_LOOP_TRIPS: u64 = 4096;

// ---------------------------------------------------------------------------
// The AST
// ---------------------------------------------------------------------------

/// Probe-context fields a snippet expression may read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CtxField {
    /// MPI rank of the executing process.
    Rank,
    /// OpenMP thread id.
    Thread,
    /// Dense index of the fired function.
    FuncIndex,
    /// Aggregated invocations this firing represents (≥ 1).
    Reps,
    /// 1 at an entry probe point, 0 at an exit point.
    IsEntry,
}

/// Binary integer operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// Saturating addition.
    Add,
    /// Saturating subtraction.
    Sub,
    /// Saturating multiplication.
    Mul,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

/// An integer expression (all values are `i64`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expr {
    /// A constant.
    Const(i64),
    /// A probe-context field.
    Ctx(CtxField),
    /// The value of a data-region slot (index is itself an expression).
    Load(Box<Expr>),
    /// A binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Convenience constructor for a binary operation.
    pub fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Bin(op, Box::new(a), Box::new(b))
    }

    /// Convenience constructor for a slot load with a constant index.
    pub fn load(slot: i64) -> Expr {
        Expr::Load(Box::new(Expr::Const(slot)))
    }
}

/// A statement of the snippet mini-AST.
#[derive(Clone, Debug)]
pub enum Stmt {
    /// `region[slot] = value`.
    Store {
        /// Slot index expression (verified against the declared region).
        slot: Expr,
        /// Value to store.
        value: Expr,
    },
    /// Start the probe timer (push a clock reading).
    StartTimer,
    /// Stop the probe timer (pop and accumulate the elapsed interval).
    StopTimer,
    /// Append a `(tag, value)` trace record to the probe's buffer.
    Emit {
        /// Record tag (event kind).
        tag: u32,
        /// Record payload.
        value: Expr,
    },
    /// Call intrinsic `#n` of the program's [`IntrinsicTable`].
    Call(usize),
    /// Execute `body` `trips` times; the verifier requires a static
    /// upper bound ≤ [`MAX_LOOP_TRIPS`].
    Loop {
        /// Trip-count expression.
        trips: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// Execute `then_body` when `cond ≠ 0`, else `else_body`.
    If {
        /// Condition expression.
        cond: Expr,
        /// Taken when `cond ≠ 0`.
        then_body: Vec<Stmt>,
        /// Taken when `cond = 0`.
        else_body: Vec<Stmt>,
    },
}

// ---------------------------------------------------------------------------
// Intrinsics
// ---------------------------------------------------------------------------

/// Who charges the virtual clock for an intrinsic's execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChargeMode {
    /// The interpreter charges `cost × reps` before running the body.
    Charged,
    /// The body charges the clock itself (runtime-library calls whose
    /// real charge is data-dependent, e.g. `VT_begin`); the declared
    /// `cost` is used only as the verifier's worst-case bound.
    Internal,
}

/// One whitelisted runtime call a snippet may make.
#[derive(Clone)]
pub struct Intrinsic {
    /// Name used in diagnostics and verifier messages.
    pub name: Arc<str>,
    /// Worst-case cost of one execution (the verifier's bound; also the
    /// interpreter's charge when `charge` is [`ChargeMode::Charged`]).
    pub cost: SimTime,
    /// Charging discipline.
    pub charge: ChargeMode,
    /// Indices of table entries this intrinsic may itself invoke — the
    /// verifier rejects programs that can recurse through the table.
    pub may_call: Vec<usize>,
    /// The executable body.
    pub run: Arc<dyn Fn(&ProbeCtx<'_>) + Send + Sync>,
}

impl Intrinsic {
    /// An interpreter-charged intrinsic.
    pub fn charged(
        name: impl Into<String>,
        cost: SimTime,
        run: impl Fn(&ProbeCtx<'_>) + Send + Sync + 'static,
    ) -> Intrinsic {
        Intrinsic {
            name: Arc::from(name.into()),
            cost,
            charge: ChargeMode::Charged,
            may_call: Vec::new(),
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

    /// Declare which table entries this intrinsic may itself call.
    pub fn calls(mut self, deps: Vec<usize>) -> Intrinsic {
        self.may_call = deps;
        self
    }
}

impl fmt::Debug for Intrinsic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Intrinsic")
            .field("name", &self.name)
            .field("cost", &self.cost)
            .field("charge", &self.charge)
            .field("may_call", &self.may_call)
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

    /// The empty table (pure data-region programs).
    pub fn empty() -> Arc<IntrinsicTable> {
        Arc::new(IntrinsicTable::default())
    }

    /// Entry `#i`, if present.
    pub fn get(&self, i: usize) -> Option<&Intrinsic> {
        self.entries.get(i)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Indices on a `may_call` cycle reachable from `start` (empty =
    /// acyclic from there).
    fn cycle_from(&self, start: usize) -> Option<usize> {
        // Iterative DFS with tricolor marking over the may_call graph.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Grey,
            Black,
        }
        let mut color = vec![Color::White; self.entries.len()];
        let mut stack = vec![(start, 0usize)];
        if start >= self.entries.len() {
            return None;
        }
        color[start] = Color::Grey;
        while let Some(&mut (node, ref mut edge)) = stack.last_mut() {
            let deps = &self.entries[node].may_call;
            if *edge < deps.len() {
                let next = deps[*edge];
                *edge += 1;
                if next >= self.entries.len() {
                    continue; // dangling edge: reported as UnknownIntrinsic
                }
                match color[next] {
                    Color::Grey => return Some(next),
                    Color::White => {
                        color[next] = Color::Grey;
                        stack.push((next, 0));
                    }
                    Color::Black => {}
                }
            } else {
                color[node] = Color::Black;
                stack.pop();
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// The program
// ---------------------------------------------------------------------------

/// A typed, statically-verifiable instrumentation program.
#[derive(Clone, Debug)]
pub struct SnippetProgram {
    /// Snippet name (shows up in diagnostics; read as `Snippet::name`).
    pub name: String,
    /// Number of `i64` slots in the per-probe data region. All stores
    /// and loads are verified against this bound.
    pub region_slots: usize,
    /// The program body.
    pub body: Vec<Stmt>,
    /// Whitelisted runtime calls.
    pub intrinsics: Arc<IntrinsicTable>,
}

impl SnippetProgram {
    /// Build a program.
    pub fn new(
        name: impl Into<String>,
        region_slots: usize,
        body: Vec<Stmt>,
        intrinsics: Arc<IntrinsicTable>,
    ) -> Arc<SnippetProgram> {
        Arc::new(SnippetProgram {
            name: name.into(),
            region_slots,
            body,
            intrinsics,
        })
    }

    /// Statically verify the program; see [`verify`].
    pub fn verify(&self) -> VerifyReport {
        verify(self)
    }

    /// Verify, then lower to an executable [`Snippet`].
    ///
    /// Every charge happens inside the lowered code (primitive ops and
    /// `Charged` intrinsics; `Internal` intrinsics charge themselves), so
    /// [`crate::Image`] charges only the trampoline dispatch. The
    /// verifier's worst-case bound is stamped into `Snippet::derived_cost`
    /// for the analyzer and the overhead controller.
    ///
    /// Returns the failing [`VerifyReport`] if verification rejects the
    /// program.
    pub fn compile(self: &Arc<Self>) -> Result<Snippet, VerifyReport> {
        let (s, _) = self.compile_with_state()?;
        Ok(s)
    }

    /// Like [`SnippetProgram::compile`], also returning the runtime
    /// state handle (data region, emitted records, timer totals) for
    /// inspection by tests and tools.
    pub fn compile_with_state(
        self: &Arc<Self>,
    ) -> Result<(Snippet, Arc<ProgramState>), VerifyReport> {
        let report = self.verify();
        if !report.ok() {
            return Err(report);
        }
        Ok(self.lower(Some(report.derived_cost)))
    }

    /// Lower **without verifying** — the snippet still carries the
    /// program, so install-time verification ([`verify_snippet`]) will
    /// reject it at the daemon. Exists so tests and negative fixtures
    /// can exercise that rejection path; `derived_cost` stays unset.
    pub fn compile_unchecked(self: &Arc<Self>) -> Snippet {
        self.lower(None).0
    }

    fn lower(self: &Arc<Self>, derived: Option<SimTime>) -> (Snippet, Arc<ProgramState>) {
        let state = Arc::new(ProgramState {
            data: Mutex::new(vec![0; self.region_slots]),
            emitted: Mutex::new(Vec::new()),
            timer_stack: Mutex::new(Vec::new()),
            timer_total: Mutex::new(SimTime::ZERO),
        });
        let code: Arc<dyn Fn(&ProbeCtx<'_>) + Send + Sync> =
            if let Some(slot) = counter_idiom(&self.body) {
                // Fused counting fast path: one lock, one saturating
                // add — the same machine code a hand-written counting
                // closure compiles to, with the same STORE charge the
                // interpreter would make.
                let st = Arc::clone(&state);
                Arc::new(move |ctx| {
                    ctx.proc.advance(STORE_COST * ctx.reps);
                    let mut d = st.data.lock();
                    if let Some(s) = d.get_mut(slot) {
                        *s = s.saturating_add(ctx.reps as i64);
                    }
                })
            } else if let [Stmt::Call(i)] = self.body.as_slice() {
                // Single-intrinsic body (the VT begin/end shape): call
                // straight through without touching program state.
                match self.intrinsics.get(*i) {
                    Some(intr) => {
                        let intr = intr.clone();
                        Arc::new(move |ctx| {
                            if intr.charge == ChargeMode::Charged {
                                ctx.proc.advance(intr.cost * ctx.reps);
                            }
                            (intr.run)(ctx);
                        })
                    }
                    None => Arc::new(|_| {}),
                }
            } else {
                let prog = Arc::clone(self);
                let st = Arc::clone(&state);
                Arc::new(move |ctx| exec_block(&prog.body, &prog.intrinsics, &st, ctx))
            };
        let snippet = Snippet {
            code,
            program: Arc::clone(self),
            derived_cost: derived,
        };
        (snippet, state)
    }
}

/// Recognize the counting idiom `region[s] = region[s] + reps` (a
/// single-statement body) so [`SnippetProgram::compile`] can lower it to
/// a direct closure instead of the tree-walking interpreter.
fn counter_idiom(body: &[Stmt]) -> Option<usize> {
    let [Stmt::Store {
        slot: Expr::Const(s),
        value: Expr::Bin(BinOp::Add, a, b),
    }] = body
    else {
        return None;
    };
    let (Expr::Load(idx), Expr::Ctx(CtxField::Reps)) = (&**a, &**b) else {
        return None;
    };
    let Expr::Const(s2) = &**idx else {
        return None;
    };
    (s2 == s).then(|| usize::try_from(*s).ok()).flatten()
}

/// Runtime state of one compiled program instance: the per-probe data
/// region plus observability for tests and tools.
pub struct ProgramState {
    data: Mutex<Vec<i64>>,
    emitted: Mutex<Vec<(u32, i64)>>,
    timer_stack: Mutex<Vec<SimTime>>,
    timer_total: Mutex<SimTime>,
}

impl ProgramState {
    /// Value of data-region slot `i` (0 if out of range).
    pub fn slot(&self, i: usize) -> i64 {
        self.data.lock().get(i).copied().unwrap_or(0)
    }

    /// All `(tag, value)` records emitted so far.
    pub fn emitted(&self) -> Vec<(u32, i64)> {
        self.emitted.lock().clone()
    }

    /// Total time accumulated across balanced timer pairs.
    pub fn timer_total(&self) -> SimTime {
        *self.timer_total.lock()
    }
}

// ---------------------------------------------------------------------------
// The interpreter (the compiled fire path)
// ---------------------------------------------------------------------------

fn eval(e: &Expr, data: &[i64], ctx: &ProbeCtx<'_>) -> i64 {
    match e {
        Expr::Const(c) => *c,
        Expr::Ctx(f) => match f {
            CtxField::Rank => ctx.rank as i64,
            CtxField::Thread => ctx.thread as i64,
            CtxField::FuncIndex => ctx.func.index() as i64,
            CtxField::Reps => ctx.reps as i64,
            CtxField::IsEntry => i64::from(ctx.point == ProbePointKind::Entry),
        },
        Expr::Load(idx) => {
            let i = eval(idx, data, ctx);
            usize::try_from(i)
                .ok()
                .and_then(|i| data.get(i).copied())
                .unwrap_or(0)
        }
        Expr::Bin(op, a, b) => {
            let (a, b) = (eval(a, data, ctx), eval(b, data, ctx));
            match op {
                BinOp::Add => a.saturating_add(b),
                BinOp::Sub => a.saturating_sub(b),
                BinOp::Mul => a.saturating_mul(b),
                BinOp::Min => a.min(b),
                BinOp::Max => a.max(b),
            }
        }
    }
}

fn exec_block(body: &[Stmt], intrinsics: &IntrinsicTable, st: &ProgramState, ctx: &ProbeCtx<'_>) {
    let reps = ctx.reps;
    for stmt in body {
        match stmt {
            Stmt::Store { slot, value } => {
                ctx.proc.advance(STORE_COST * reps);
                let mut data = st.data.lock();
                let i = eval(slot, &data, ctx);
                let v = eval(value, &data, ctx);
                if let Ok(i) = usize::try_from(i) {
                    if let Some(s) = data.get_mut(i) {
                        *s = v;
                    }
                }
            }
            Stmt::StartTimer => {
                ctx.proc.advance(TIMER_COST * reps);
                st.timer_stack.lock().push(ctx.proc.now());
            }
            Stmt::StopTimer => {
                ctx.proc.advance(TIMER_COST * reps);
                if let Some(t0) = st.timer_stack.lock().pop() {
                    *st.timer_total.lock() += ctx.proc.now().saturating_sub(t0);
                }
            }
            Stmt::Emit { tag, value } => {
                ctx.proc.advance(EMIT_COST * reps);
                let v = eval(value, &st.data.lock(), ctx);
                st.emitted.lock().push((*tag, v));
            }
            Stmt::Call(i) => {
                if let Some(intr) = intrinsics.get(*i) {
                    if intr.charge == ChargeMode::Charged {
                        ctx.proc.advance(intr.cost * reps);
                    }
                    (intr.run)(ctx);
                }
            }
            Stmt::Loop { trips, body } => {
                let n = eval(trips, &st.data.lock(), ctx).clamp(0, MAX_LOOP_TRIPS as i64);
                for _ in 0..n {
                    ctx.proc.advance(LOOP_ITER_COST * reps);
                    exec_block(body, intrinsics, st, ctx);
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                ctx.proc.advance(BRANCH_COST * reps);
                let taken = eval(cond, &st.data.lock(), ctx) != 0;
                exec_block(
                    if taken { then_body } else { else_body },
                    intrinsics,
                    st,
                    ctx,
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The abstract interpreter (the verifier)
// ---------------------------------------------------------------------------

/// A closed interval over `i64` — the verifier's value domain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Lower bound (inclusive).
    pub lo: i64,
    /// Upper bound (inclusive).
    pub hi: i64,
}

impl Interval {
    /// The unknown value.
    pub const TOP: Interval = Interval {
        lo: i64::MIN,
        hi: i64::MAX,
    };

    /// The singleton interval.
    pub fn exact(c: i64) -> Interval {
        Interval { lo: c, hi: c }
    }

    fn of(lo: i64, hi: i64) -> Interval {
        Interval { lo, hi }
    }

    fn add(self, o: Interval) -> Interval {
        Interval::of(self.lo.saturating_add(o.lo), self.hi.saturating_add(o.hi))
    }

    fn sub(self, o: Interval) -> Interval {
        Interval::of(self.lo.saturating_sub(o.hi), self.hi.saturating_sub(o.lo))
    }

    fn mul(self, o: Interval) -> Interval {
        let ps = [
            self.lo.saturating_mul(o.lo),
            self.lo.saturating_mul(o.hi),
            self.hi.saturating_mul(o.lo),
            self.hi.saturating_mul(o.hi),
        ];
        Interval::of(
            ps.iter().copied().min().expect("4 products"),
            ps.iter().copied().max().expect("4 products"),
        )
    }

    fn min(self, o: Interval) -> Interval {
        Interval::of(self.lo.min(o.lo), self.hi.min(o.hi))
    }

    fn max(self, o: Interval) -> Interval {
        Interval::of(self.lo.max(o.lo), self.hi.max(o.hi))
    }
}

/// One verification failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// A store whose slot interval escapes the declared region.
    OobWrite {
        /// Static slot-index bounds.
        slot: Interval,
        /// Declared region size.
        region_slots: usize,
    },
    /// A load whose slot interval escapes the declared region.
    OobRead {
        /// Static slot-index bounds.
        slot: Interval,
        /// Declared region size.
        region_slots: usize,
    },
    /// Timers do not balance: a stop without a start, a start never
    /// stopped, branch arms leaving different depths, or a loop body
    /// with a net timer effect.
    UnbalancedTimer {
        /// Which invariant failed.
        detail: String,
    },
    /// A trace record emitted after the final timer stop.
    EmitAfterStop,
    /// A loop whose trip count has no static bound ≤ [`MAX_LOOP_TRIPS`].
    UnboundedLoop {
        /// The statically-derived upper bound, if any finite one exists.
        upper: Option<u64>,
    },
    /// The program can recurse through the intrinsic table.
    RecursiveIntrinsic {
        /// Name of an intrinsic on the cycle.
        name: String,
    },
    /// A call to an intrinsic index not in the table.
    UnknownIntrinsic {
        /// The out-of-table index.
        index: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::OobWrite { slot, region_slots } => write!(
                f,
                "store to slot [{}, {}] escapes the {region_slots}-slot data region",
                slot.lo, slot.hi
            ),
            VerifyError::OobRead { slot, region_slots } => write!(
                f,
                "load from slot [{}, {}] escapes the {region_slots}-slot data region",
                slot.lo, slot.hi
            ),
            VerifyError::UnbalancedTimer { detail } => {
                write!(f, "unbalanced timer: {detail}")
            }
            VerifyError::EmitAfterStop => {
                write!(f, "trace emission after the final timer stop")
            }
            VerifyError::UnboundedLoop { upper: Some(n) } => write!(
                f,
                "loop bound {n} exceeds the {MAX_LOOP_TRIPS}-trip verifier limit"
            ),
            VerifyError::UnboundedLoop { upper: None } => {
                write!(f, "loop trip count has no static bound")
            }
            VerifyError::RecursiveIntrinsic { name } => {
                write!(f, "intrinsic {name:?} can recurse through the table")
            }
            VerifyError::UnknownIntrinsic { index } => {
                write!(f, "call to unknown intrinsic #{index}")
            }
        }
    }
}

/// The verifier's result: the derived worst-case cost bound plus every
/// violated invariant (empty = the program is safe to install).
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// Worst-case simulated cost of one firing with `reps = 1` (multiply
    /// by the firing's `reps` for batched calls). Covers `Internal`
    /// intrinsics at their declared bound.
    pub derived_cost: SimTime,
    /// Violations found (empty means the program verified).
    pub errors: Vec<VerifyError>,
    /// Number of `Store` statements (side-effect summary).
    pub stores: usize,
    /// Number of `Emit` statements (side-effect summary).
    pub emits: usize,
    /// Number of `Call` statements (side-effect summary).
    pub calls: usize,
    /// Maximum nested timer depth on any path.
    pub max_timer_depth: u32,
}

impl VerifyReport {
    /// True when no invariant was violated.
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ok() {
            write!(
                f,
                "verified: worst-case {}ns, {} stores, {} emits, {} calls",
                self.derived_cost.as_nanos(),
                self.stores,
                self.emits,
                self.calls
            )
        } else {
            let msgs: Vec<String> = self.errors.iter().map(|e| e.to_string()).collect();
            write!(f, "{}", msgs.join("; "))
        }
    }
}

struct AbsCtx<'a> {
    prog: &'a SnippetProgram,
    errors: Vec<VerifyError>,
    stores: usize,
    emits: usize,
    calls: usize,
    max_depth: u32,
}

#[derive(Clone, Copy)]
struct AbsState {
    /// Open timer count on this path.
    depth: i64,
    /// A stop has returned the depth to zero (the probe's measurement is
    /// over; emitting after it would misattribute the record).
    finished: bool,
}

impl AbsCtx<'_> {
    fn err(&mut self, e: VerifyError) {
        if !self.errors.contains(&e) {
            self.errors.push(e);
        }
    }

    fn eval(&mut self, e: &Expr) -> Interval {
        match e {
            Expr::Const(c) => Interval::exact(*c),
            Expr::Ctx(f) => match f {
                CtxField::Rank | CtxField::Thread | CtxField::FuncIndex => {
                    Interval::of(0, i64::MAX)
                }
                CtxField::Reps => Interval::of(1, i64::MAX),
                CtxField::IsEntry => Interval::of(0, 1),
            },
            Expr::Load(idx) => {
                let i = self.eval(idx);
                if i.lo < 0 || i.hi >= self.prog.region_slots as i64 {
                    self.err(VerifyError::OobRead {
                        slot: i,
                        region_slots: self.prog.region_slots,
                    });
                }
                // Slot contents persist across firings: unknown here.
                Interval::TOP
            }
            Expr::Bin(op, a, b) => {
                let (a, b) = (self.eval(a), self.eval(b));
                match op {
                    BinOp::Add => a.add(b),
                    BinOp::Sub => a.sub(b),
                    BinOp::Mul => a.mul(b),
                    BinOp::Min => a.min(b),
                    BinOp::Max => a.max(b),
                }
            }
        }
    }

    /// Walk a block, returning `(worst-case cost in ns, exit state)`.
    fn walk(&mut self, body: &[Stmt], mut st: AbsState) -> (u64, AbsState) {
        let mut cost: u64 = 0;
        for stmt in body {
            match stmt {
                Stmt::Store { slot, value } => {
                    self.stores += 1;
                    let i = self.eval(slot);
                    self.eval(value);
                    if i.lo < 0 || i.hi >= self.prog.region_slots as i64 {
                        self.err(VerifyError::OobWrite {
                            slot: i,
                            region_slots: self.prog.region_slots,
                        });
                    }
                    cost = cost.saturating_add(STORE_COST.as_nanos());
                }
                Stmt::StartTimer => {
                    st.depth += 1;
                    self.max_depth = self.max_depth.max(st.depth.max(0) as u32);
                    cost = cost.saturating_add(TIMER_COST.as_nanos());
                }
                Stmt::StopTimer => {
                    if st.depth == 0 {
                        self.err(VerifyError::UnbalancedTimer {
                            detail: "stop without a matching start".into(),
                        });
                    } else {
                        st.depth -= 1;
                        if st.depth == 0 {
                            st.finished = true;
                        }
                    }
                    cost = cost.saturating_add(TIMER_COST.as_nanos());
                }
                Stmt::Emit { value, .. } => {
                    self.emits += 1;
                    self.eval(value);
                    if st.finished {
                        self.err(VerifyError::EmitAfterStop);
                    }
                    cost = cost.saturating_add(EMIT_COST.as_nanos());
                }
                Stmt::Call(i) => {
                    self.calls += 1;
                    match self.prog.intrinsics.get(*i) {
                        None => self.err(VerifyError::UnknownIntrinsic { index: *i }),
                        Some(intr) => {
                            if self.prog.intrinsics.cycle_from(*i).is_some() {
                                self.err(VerifyError::RecursiveIntrinsic {
                                    name: intr.name.to_string(),
                                });
                            }
                            cost = cost.saturating_add(intr.cost.as_nanos());
                        }
                    }
                }
                Stmt::Loop { trips, body } => {
                    let t = self.eval(trips);
                    let bound = if t.hi < 0 {
                        0
                    } else if t.hi as u64 > MAX_LOOP_TRIPS {
                        let upper = (t.hi != i64::MAX).then_some(t.hi as u64);
                        self.err(VerifyError::UnboundedLoop { upper });
                        0
                    } else {
                        t.hi as u64
                    };
                    let entry = st;
                    let (body_cost, exit) = self.walk(body, entry);
                    if exit.depth != entry.depth {
                        self.err(VerifyError::UnbalancedTimer {
                            detail: format!(
                                "loop body changes timer depth by {}",
                                exit.depth - entry.depth
                            ),
                        });
                    }
                    // A stop inside one iteration precedes the next
                    // iteration's statements: an emit in the body would
                    // then follow a stop.
                    if exit.finished && !entry.finished && contains_emit(body) {
                        self.err(VerifyError::EmitAfterStop);
                    }
                    st.finished |= exit.finished;
                    cost = cost.saturating_add(
                        bound.saturating_mul(body_cost.saturating_add(LOOP_ITER_COST.as_nanos())),
                    );
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    self.eval(cond);
                    let (tc, ts) = self.walk(then_body, st);
                    let (ec, es) = self.walk(else_body, st);
                    if ts.depth != es.depth {
                        self.err(VerifyError::UnbalancedTimer {
                            detail: format!(
                                "branch arms leave timer depths {} and {}",
                                ts.depth, es.depth
                            ),
                        });
                    }
                    st = AbsState {
                        depth: ts.depth.max(es.depth),
                        finished: ts.finished || es.finished,
                    };
                    cost = cost
                        .saturating_add(BRANCH_COST.as_nanos())
                        .saturating_add(tc.max(ec));
                }
            }
        }
        (cost, st)
    }
}

fn contains_emit(body: &[Stmt]) -> bool {
    body.iter().any(|s| match s {
        Stmt::Emit { .. } => true,
        Stmt::Loop { body, .. } => contains_emit(body),
        Stmt::If {
            then_body,
            else_body,
            ..
        } => contains_emit(then_body) || contains_emit(else_body),
        _ => false,
    })
}

/// Abstractly interpret `prog`: derive its worst-case cost bound, check
/// its side-effect discipline, and prove termination (see module docs).
pub fn verify(prog: &SnippetProgram) -> VerifyReport {
    let mut ctx = AbsCtx {
        prog,
        errors: Vec::new(),
        stores: 0,
        emits: 0,
        calls: 0,
        max_depth: 0,
    };
    let (cost, exit) = ctx.walk(
        &prog.body,
        AbsState {
            depth: 0,
            finished: false,
        },
    );
    if exit.depth != 0 {
        ctx.err(VerifyError::UnbalancedTimer {
            detail: format!("{} timer(s) left running at exit", exit.depth),
        });
    }
    VerifyReport {
        derived_cost: SimTime::from_nanos(cost),
        errors: ctx.errors,
        stores: ctx.stores,
        emits: ctx.emits,
        calls: ctx.calls,
        max_timer_depth: ctx.max_depth,
    }
}

/// Install-time verification of a snippet, as run by the DPCL daemons
/// before `Image::try_insert`: its program must verify.
pub fn verify_snippet(s: &Snippet) -> Result<(), String> {
    let report = s.program.verify();
    if report.ok() {
        Ok(())
    } else {
        Err(format!("snippet {:?} rejected: {report}", s.name()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::FuncId;
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

    fn count_program() -> Arc<SnippetProgram> {
        SnippetProgram::new(
            "count",
            1,
            vec![Stmt::Store {
                slot: Expr::Const(0),
                value: Expr::bin(BinOp::Add, Expr::load(0), Expr::Ctx(CtxField::Reps)),
            }],
            IntrinsicTable::empty(),
        )
    }

    #[test]
    fn count_program_verifies_and_counts() {
        let prog = count_program();
        let report = prog.verify();
        assert!(report.ok(), "{report}");
        assert_eq!(report.derived_cost, STORE_COST);
        assert_eq!(report.stores, 1);
        let (s, state) = prog.compile_with_state().expect("verifies");
        assert_eq!(s.derived_cost, Some(STORE_COST));
        in_proc(move |p| {
            (s.code)(&ctx_for(p, 3));
            (s.code)(&ctx_for(p, 1));
            assert_eq!(state.slot(0), 4);
            assert_eq!(p.now(), STORE_COST * 3 + STORE_COST);
        });
    }

    #[test]
    fn timer_pair_verifies_and_measures() {
        let prog = SnippetProgram::new(
            "timer",
            0,
            vec![
                Stmt::StartTimer,
                Stmt::Emit {
                    tag: 7,
                    value: Expr::Ctx(CtxField::Rank),
                },
                Stmt::StopTimer,
            ],
            IntrinsicTable::empty(),
        );
        let report = prog.verify();
        assert!(report.ok(), "{report}");
        assert_eq!(report.derived_cost, TIMER_COST + EMIT_COST + TIMER_COST);
        assert_eq!(report.max_timer_depth, 1);
        let (s, state) = prog.compile_with_state().expect("verifies");
        in_proc(move |p| {
            (s.code)(&ctx_for(p, 1));
            assert_eq!(state.emitted(), vec![(7, 0)]);
            // Emit happened between start and stop: the pair timed it.
            assert_eq!(state.timer_total(), EMIT_COST + TIMER_COST);
        });
    }

    #[test]
    fn loop_bound_times_body_cost() {
        let prog = SnippetProgram::new(
            "loop",
            2,
            vec![Stmt::Loop {
                trips: Expr::bin(BinOp::Min, Expr::Ctx(CtxField::Reps), Expr::Const(8)),
                body: vec![Stmt::Store {
                    slot: Expr::Const(1),
                    value: Expr::Ctx(CtxField::Thread),
                }],
            }],
            IntrinsicTable::empty(),
        );
        let report = prog.verify();
        assert!(report.ok(), "{report}");
        assert_eq!(
            report.derived_cost.as_nanos(),
            8 * (STORE_COST.as_nanos() + LOOP_ITER_COST.as_nanos())
        );
    }

    #[test]
    fn unbounded_loop_rejected() {
        let prog = SnippetProgram::new(
            "bad",
            0,
            vec![Stmt::Loop {
                trips: Expr::Ctx(CtxField::Reps),
                body: vec![],
            }],
            IntrinsicTable::empty(),
        );
        let report = prog.verify();
        assert!(matches!(
            report.errors[..],
            [VerifyError::UnboundedLoop { upper: None }]
        ));
        assert!(prog.compile().is_err());
    }

    #[test]
    fn oob_write_and_read_rejected() {
        let prog = SnippetProgram::new(
            "bad",
            2,
            vec![Stmt::Store {
                slot: Expr::Const(5),
                value: Expr::load(3),
            }],
            IntrinsicTable::empty(),
        );
        let report = prog.verify();
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, VerifyError::OobWrite { .. })));
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, VerifyError::OobRead { .. })));
    }

    #[test]
    fn unbalanced_timers_rejected() {
        // Stop without start.
        let p1 = SnippetProgram::new("b1", 0, vec![Stmt::StopTimer], IntrinsicTable::empty());
        assert!(!p1.verify().ok());
        // Start never stopped.
        let p2 = SnippetProgram::new("b2", 0, vec![Stmt::StartTimer], IntrinsicTable::empty());
        assert!(!p2.verify().ok());
        // Branch arms disagree.
        let p3 = SnippetProgram::new(
            "b3",
            0,
            vec![
                Stmt::If {
                    cond: Expr::Ctx(CtxField::IsEntry),
                    then_body: vec![Stmt::StartTimer],
                    else_body: vec![],
                },
                Stmt::StopTimer,
            ],
            IntrinsicTable::empty(),
        );
        assert!(!p3.verify().ok());
        // Balanced arms are fine.
        let p4 = SnippetProgram::new(
            "ok",
            0,
            vec![Stmt::If {
                cond: Expr::Ctx(CtxField::IsEntry),
                then_body: vec![Stmt::StartTimer, Stmt::StopTimer],
                else_body: vec![],
            }],
            IntrinsicTable::empty(),
        );
        assert!(p4.verify().ok(), "{}", p4.verify());
    }

    #[test]
    fn emit_after_stop_rejected_including_across_loop_iterations() {
        let p1 = SnippetProgram::new(
            "b",
            0,
            vec![
                Stmt::StartTimer,
                Stmt::StopTimer,
                Stmt::Emit {
                    tag: 0,
                    value: Expr::Const(1),
                },
            ],
            IntrinsicTable::empty(),
        );
        assert!(p1.verify().errors.contains(&VerifyError::EmitAfterStop));
        // Emit before the stop, but inside a loop: iteration 2's emit
        // follows iteration 1's stop.
        let p2 = SnippetProgram::new(
            "b2",
            0,
            vec![Stmt::Loop {
                trips: Expr::Const(2),
                body: vec![
                    Stmt::StartTimer,
                    Stmt::Emit {
                        tag: 0,
                        value: Expr::Const(1),
                    },
                    Stmt::StopTimer,
                ],
            }],
            IntrinsicTable::empty(),
        );
        assert!(p2.verify().errors.contains(&VerifyError::EmitAfterStop));
    }

    #[test]
    fn recursive_and_unknown_intrinsics_rejected() {
        let table = IntrinsicTable::new(vec![
            Intrinsic::charged("a", SimTime::from_nanos(10), |_| {}).calls(vec![1]),
            Intrinsic::charged("b", SimTime::from_nanos(10), |_| {}).calls(vec![0]),
        ]);
        let prog = SnippetProgram::new("r", 0, vec![Stmt::Call(0)], table);
        assert!(prog
            .verify()
            .errors
            .iter()
            .any(|e| matches!(e, VerifyError::RecursiveIntrinsic { .. })));
        let prog2 = SnippetProgram::new("u", 0, vec![Stmt::Call(9)], IntrinsicTable::empty());
        assert!(prog2
            .verify()
            .errors
            .contains(&VerifyError::UnknownIntrinsic { index: 9 }));
    }

    #[test]
    fn internal_intrinsic_counts_toward_bound_but_is_not_charged() {
        let cost = SimTime::from_nanos(800);
        let table = IntrinsicTable::new(vec![Intrinsic::internal("vt_begin", cost, |_| {})]);
        let prog = SnippetProgram::new("vt", 0, vec![Stmt::Call(0)], table);
        let report = prog.verify();
        assert!(report.ok());
        assert_eq!(report.derived_cost, cost);
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
        let prog = SnippetProgram::new("t", 0, vec![Stmt::Call(0)], table);
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
        assert!(verify_snippet(&legacy).is_ok());
        assert!(matches!(legacy.program.body[..], [Stmt::Call(0)]));
        let good = count_program().compile().expect("verifies");
        assert!(verify_snippet(&good).is_ok());
        let bad = SnippetProgram::new("bad", 0, vec![Stmt::StopTimer], IntrinsicTable::empty())
            .compile_unchecked();
        let err = verify_snippet(&bad).unwrap_err();
        assert!(err.contains("unbalanced timer"), "{err}");
    }

    #[test]
    fn derived_bound_dominates_observed_cost_on_branchy_program() {
        // If takes the cheaper arm at runtime; the bound takes the max.
        let prog = SnippetProgram::new(
            "branchy",
            1,
            vec![Stmt::If {
                cond: Expr::Const(0),
                then_body: vec![
                    Stmt::Emit {
                        tag: 1,
                        value: Expr::Const(1),
                    },
                    Stmt::Emit {
                        tag: 2,
                        value: Expr::Const(2),
                    },
                ],
                else_body: vec![Stmt::Store {
                    slot: Expr::Const(0),
                    value: Expr::Const(1),
                }],
            }],
            IntrinsicTable::empty(),
        );
        let report = prog.verify();
        let s = prog.compile().expect("verifies");
        in_proc(move |p| {
            (s.code)(&ctx_for(p, 1));
            assert!(report.derived_cost >= p.now());
        });
    }
}
