//! Trampoline bookkeeping.
//!
//! When instrumentation is inserted at a probe point (paper Fig 1):
//!
//! * a jump overwrites the instruction at the probe point;
//! * a **base trampoline** holds the relocated instruction, register
//!   save/restore sequences, slots for mini-trampoline jumps, and the
//!   jump back into the application;
//! * each snippet lives in its own **mini-trampoline**; multiple requests
//!   at one point are *chained*, the last one jumping back to the base.
//!
//! This module models that structure faithfully enough that (a) inserted
//! snippets really execute, in chain order; (b) dispatch cost is charged
//! once per traversal of an occupied probe point; (c) removing a snippet
//! splices the chain; and (d) allocated trampoline bytes are tracked, as
//! `dynprof` reports in its timefile.

use std::sync::Arc;

use dynprof_sim::SimTime;

use crate::snippet::{Snippet, SnippetId};

/// Bytes occupied by one base trampoline (relocated instruction + register
/// save/restore + slot jumps), matching Dyninst's order of magnitude.
pub const BASE_TRAMPOLINE_BYTES: usize = 128;
/// Bytes occupied by one mini-trampoline (snippet stub + chain jump).
pub const MINI_TRAMPOLINE_BYTES: usize = 64;
/// Smallest function body that can hold the probe-point jump: the
/// displaced long-jump sequence plus the relocated instruction must fit
/// inside the function, or the patch would overwrite the next symbol.
pub const MIN_PATCHABLE_BYTES: usize = 16;

/// A mini-trampoline: one snippet plus its position in the chain.
#[derive(Clone, Debug)]
pub struct MiniTrampoline {
    /// Removal handle.
    pub id: SnippetId,
    /// The instrumentation primitive.
    pub snippet: Snippet,
}

/// A base trampoline with its chain of mini-trampolines.
///
/// The base exists only while at least one mini-trampoline is installed;
/// when the chain empties, the jump at the probe point is removed and the
/// probe costs nothing again.
///
/// **The chain is immutable and shared.** Inserting or removing a snippet
/// builds a new chain and swaps it in; a traversal in flight keeps the one
/// it took ([`BaseTrampoline::snapshot`], one reference-count bump
/// whatever the chain's length) and runs it to the end. That is what lets
/// a snippet insert or remove probes — at its own point included — while
/// it runs: the change shows from the next traversal on.
#[derive(Clone, Debug, Default)]
pub struct BaseTrampoline {
    /// `None` while nothing is installed (no allocation per idle point).
    chain: Option<Arc<[MiniTrampoline]>>,
}

impl BaseTrampoline {
    /// An empty (uninstalled) base trampoline.
    pub fn new() -> BaseTrampoline {
        BaseTrampoline::default()
    }

    fn chain(&self) -> &[MiniTrampoline] {
        self.chain.as_deref().unwrap_or(&[])
    }

    /// Is any instrumentation installed at this point?
    pub fn occupied(&self) -> bool {
        self.chain.is_some()
    }

    /// Number of chained mini-trampolines.
    pub fn chain_len(&self) -> usize {
        self.chain().len()
    }

    /// The chain as installed right now, for a traversal to run outside
    /// whatever lock guards this trampoline; `None` if the point is idle.
    pub fn snapshot(&self) -> Option<Arc<[MiniTrampoline]>> {
        self.chain.clone()
    }

    /// Append a mini-trampoline to the end of the chain (Dyninst appends;
    /// the last trampoline jumps back to the base).
    ///
    /// The new chain is collected straight into its `Arc` — both halves
    /// know their length, so that is the swap's one allocation.
    pub fn push(&mut self, id: SnippetId, snippet: Snippet) {
        let grown = self.iter().cloned().chain([MiniTrampoline { id, snippet }]);
        self.chain = Some(grown.collect());
    }

    /// Remove every mini-trampoline `doomed` picks, splicing the chain;
    /// returns how many went.
    fn remove_where(&mut self, doomed: impl Fn(&MiniTrampoline) -> bool) -> usize {
        let kept: Arc<[_]> = self.iter().filter(|m| !doomed(m)).cloned().collect();
        let gone = self.chain_len() - kept.len();
        if gone > 0 {
            // Empty = uninstall the base.
            self.chain = (!kept.is_empty()).then_some(kept);
        }
        gone
    }

    /// Remove the mini-trampoline with the given id, splicing the chain.
    /// Returns `true` if found.
    pub fn remove(&mut self, id: SnippetId) -> bool {
        self.remove_where(|m| m.id == id) > 0
    }

    /// Remove every mini-trampoline whose snippet name matches.
    pub fn remove_named(&mut self, name: &str) -> usize {
        self.remove_where(|m| &*m.snippet.name == name)
    }

    /// Uninstall the whole chain; returns how many mini-trampolines went.
    pub fn clear(&mut self) -> usize {
        self.chain.take().map_or(0, |c| c.len())
    }

    /// Iterate the chain in execution order.
    pub fn iter(&self) -> impl Iterator<Item = &MiniTrampoline> {
        self.chain().iter()
    }

    /// Total simulated snippet cost of one traversal (sum over the chain),
    /// excluding the base-trampoline dispatch cost which the image charges.
    pub fn chain_cost(&self) -> SimTime {
        self.iter().map(|m| m.snippet.cost).sum()
    }

    /// Bytes of dynamically allocated code this point accounts for.
    pub fn allocated_bytes(&self) -> usize {
        match self.chain_len() {
            0 => 0,
            n => BASE_TRAMPOLINE_BYTES + MINI_TRAMPOLINE_BYTES * n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snip(name: &str, ns: u64) -> Snippet {
        Snippet::new(name, SimTime::from_nanos(ns), |_| {})
    }

    #[test]
    fn empty_base_costs_nothing() {
        let b = BaseTrampoline::new();
        assert!(!b.occupied());
        assert_eq!(b.allocated_bytes(), 0);
        assert_eq!(b.chain_cost(), SimTime::ZERO);
    }

    #[test]
    fn chaining_accumulates_cost_in_order() {
        let mut b = BaseTrampoline::new();
        b.push(SnippetId(1), snip("a", 100));
        b.push(SnippetId(2), snip("b", 50));
        assert!(b.occupied());
        assert_eq!(b.chain_len(), 2);
        assert_eq!(b.chain_cost(), SimTime::from_nanos(150));
        let names: Vec<_> = b.iter().map(|m| m.snippet.name.to_string()).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(
            b.allocated_bytes(),
            BASE_TRAMPOLINE_BYTES + 2 * MINI_TRAMPOLINE_BYTES
        );
    }

    #[test]
    fn remove_splices_chain() {
        let mut b = BaseTrampoline::new();
        b.push(SnippetId(1), snip("a", 100));
        b.push(SnippetId(2), snip("b", 50));
        b.push(SnippetId(3), snip("c", 25));
        assert!(b.remove(SnippetId(2)));
        assert!(!b.remove(SnippetId(2)), "double remove reports absence");
        let names: Vec<_> = b.iter().map(|m| m.snippet.name.to_string()).collect();
        assert_eq!(names, ["a", "c"]);
        assert_eq!(b.chain_cost(), SimTime::from_nanos(125));
    }

    #[test]
    fn base_deallocates_when_chain_empties() {
        let mut b = BaseTrampoline::new();
        b.push(SnippetId(1), snip("a", 100));
        assert!(b.remove(SnippetId(1)));
        assert!(!b.occupied());
        assert_eq!(b.allocated_bytes(), 0);
    }

    #[test]
    fn remove_named_removes_all_matching() {
        let mut b = BaseTrampoline::new();
        b.push(SnippetId(1), snip("vt", 10));
        b.push(SnippetId(2), snip("other", 10));
        b.push(SnippetId(3), snip("vt", 10));
        assert_eq!(b.remove_named("vt"), 2);
        assert_eq!(b.chain_len(), 1);
    }
}
