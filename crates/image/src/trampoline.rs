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

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

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

impl MiniTrampoline {
    /// The snippet's code, by address: a live chain keeps it alive, so no
    /// other code can sit there while the chain does.
    fn code_addr(&self) -> usize {
        Arc::as_ptr(&self.snippet.code) as *const () as usize
    }

    /// Same snippet, same handle: interchangeable in a chain.
    fn same(&self, other: &MiniTrampoline) -> bool {
        let (a, b) = (&self.snippet, &other.snippet);
        self.id == other.id
            && self.code_addr() == other.code_addr()
            && a.derived_cost == b.derived_cost
            && Arc::ptr_eq(&a.program, &b.program)
    }
}

/// An installed chain: immutable, behind a thin (8-byte) pointer so an
/// entry of an image's chain list costs one word.
pub type Chain = Arc<Box<[MiniTrampoline]>>;

/// Every chain built for the images of one program, by content, so that
/// ranks installing the same snippets in the same order share one chain
/// instead of holding one copy each.
///
/// An entry is a `Weak`, used only if it still upgrades: the live chain
/// keeps its snippets alive, so the code addresses it is keyed by cannot
/// have been reused. Dead entries are pruned before the map would grow.
#[derive(Default)]
pub struct ChainPool {
    chains: Mutex<HashMap<u64, Weak<Box<[MiniTrampoline]>>>>,
}

impl ChainPool {
    /// The chain of `links`, shared with an equal live one if the pool
    /// has it; `None` for no links.
    fn intern<'a, I>(&self, links: I) -> Option<Chain>
    where
        I: Iterator<Item = &'a MiniTrampoline> + Clone,
    {
        let mut h = DefaultHasher::new();
        let mut len = 0;
        for m in links.clone() {
            (m.id.0, m.code_addr()).hash(&mut h);
            len += 1;
        }
        if len == 0 {
            return None;
        }
        let key = h.finish();
        let mut chains = self.chains.lock();
        if let Some(hit) = chains.get(&key).and_then(Weak::upgrade) {
            if hit.len() == len && hit.iter().zip(links.clone()).all(|(a, b)| a.same(b)) {
                return Some(hit);
            }
        }
        let chain: Chain = Arc::new(links.cloned().collect());
        if chains.len() == chains.capacity() {
            chains.retain(|_, c| c.strong_count() > 0);
        }
        chains.insert(key, Arc::downgrade(&chain));
        Some(chain)
    }
}

/// A base trampoline with its chain of mini-trampolines.
///
/// The base exists only while at least one mini-trampoline is installed;
/// when the chain empties, the jump at the probe point is removed and the
/// probe costs nothing again.
///
/// **The chain is immutable and shared.** Inserting or removing a snippet
/// obtains the new chain from the program's [`ChainPool`] and swaps it
/// in; a traversal in flight keeps the one it took
/// ([`BaseTrampoline::snapshot`], one reference-count bump whatever the
/// chain's length) and runs it to the end. That is what lets a snippet
/// insert or remove probes — at its own point included — while it runs:
/// the change shows from the next traversal on.
#[derive(Clone, Debug, Default)]
pub struct BaseTrampoline {
    /// `None` while nothing is installed (no allocation per idle point).
    chain: Option<Chain>,
}

impl BaseTrampoline {
    /// An empty (uninstalled) base trampoline.
    pub fn new() -> BaseTrampoline {
        BaseTrampoline::default()
    }

    fn chain(&self) -> &[MiniTrampoline] {
        self.chain.as_ref().map_or(&[], |c| &c[..])
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
    pub fn snapshot(&self) -> Option<Chain> {
        self.chain.clone()
    }

    /// Append a mini-trampoline to the end of the chain (Dyninst appends;
    /// the last trampoline jumps back to the base), taking the grown chain
    /// from `pool`: an image that repeats what another image of the
    /// program installed allocates nothing.
    pub fn push(&mut self, id: SnippetId, snippet: Snippet, pool: &ChainPool) {
        let link = MiniTrampoline { id, snippet };
        self.chain = pool.intern(self.chain().iter().chain([&link]));
    }

    /// Remove every mini-trampoline `doomed` picks, splicing the chain;
    /// returns how many went.
    fn remove_where(
        &mut self,
        pool: &ChainPool,
        doomed: impl Fn(&MiniTrampoline) -> bool,
    ) -> usize {
        let gone = self.iter().filter(|m| doomed(m)).count();
        if gone > 0 {
            // Empty = uninstall the base.
            self.chain = pool.intern(self.chain().iter().filter(|m| !doomed(m)));
        }
        gone
    }

    /// Remove the mini-trampoline with the given id, splicing the chain.
    /// Returns `true` if found.
    pub fn remove(&mut self, id: SnippetId, pool: &ChainPool) -> bool {
        self.remove_where(pool, |m| m.id == id) > 0
    }

    /// Remove every mini-trampoline whose snippet name matches.
    pub fn remove_named(&mut self, name: &str, pool: &ChainPool) -> usize {
        self.remove_where(pool, |m| m.snippet.name() == name)
    }

    /// Uninstall the whole chain; returns how many mini-trampolines went.
    pub fn clear(&mut self) -> usize {
        self.chain.take().map_or(0, |c| c.len())
    }

    /// Iterate the chain in execution order.
    pub fn iter(&self) -> impl Iterator<Item = &MiniTrampoline> {
        self.chain().iter()
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
    use dynprof_sim::SimTime;

    fn snip(name: &str, ns: u64) -> Snippet {
        Snippet::new(name, SimTime::from_nanos(ns), |_| {})
    }

    /// The verifier's bound for one traversal of `b`'s chain.
    fn derived_sum(b: &BaseTrampoline) -> SimTime {
        b.iter().filter_map(|m| m.snippet.derived_cost).sum()
    }

    fn chain_of(b: &BaseTrampoline) -> Chain {
        b.snapshot().expect("an installed chain")
    }

    #[test]
    fn empty_base_costs_nothing() {
        let b = BaseTrampoline::new();
        assert!(!b.occupied());
        assert_eq!(b.allocated_bytes(), 0);
        assert_eq!(b.iter().count(), 0);
    }

    #[test]
    fn chaining_accumulates_cost_in_order() {
        let pool = ChainPool::default();
        let mut b = BaseTrampoline::new();
        b.push(SnippetId(1), snip("a", 100), &pool);
        b.push(SnippetId(2), snip("b", 50), &pool);
        assert!(b.occupied());
        assert_eq!(b.chain_len(), 2);
        assert_eq!(derived_sum(&b), SimTime::from_nanos(150));
        let names: Vec<_> = b.iter().map(|m| m.snippet.name()).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(
            b.allocated_bytes(),
            BASE_TRAMPOLINE_BYTES + 2 * MINI_TRAMPOLINE_BYTES
        );
    }

    #[test]
    fn remove_splices_chain() {
        let pool = ChainPool::default();
        let mut b = BaseTrampoline::new();
        b.push(SnippetId(1), snip("a", 100), &pool);
        b.push(SnippetId(2), snip("b", 50), &pool);
        b.push(SnippetId(3), snip("c", 25), &pool);
        assert!(b.remove(SnippetId(2), &pool));
        assert!(
            !b.remove(SnippetId(2), &pool),
            "double remove reports absence"
        );
        let names: Vec<_> = b.iter().map(|m| m.snippet.name()).collect();
        assert_eq!(names, ["a", "c"]);
        assert_eq!(derived_sum(&b), SimTime::from_nanos(125));
    }

    #[test]
    fn base_deallocates_when_chain_empties() {
        let pool = ChainPool::default();
        let mut b = BaseTrampoline::new();
        b.push(SnippetId(1), snip("a", 100), &pool);
        assert!(b.remove(SnippetId(1), &pool));
        assert!(!b.occupied());
        assert_eq!(b.allocated_bytes(), 0);
    }

    #[test]
    fn remove_named_removes_all_matching() {
        let pool = ChainPool::default();
        let mut b = BaseTrampoline::new();
        b.push(SnippetId(1), snip("vt", 10), &pool);
        b.push(SnippetId(2), snip("other", 10), &pool);
        b.push(SnippetId(3), snip("vt", 10), &pool);
        assert_eq!(b.remove_named("vt", &pool), 2);
        assert_eq!(b.chain_len(), 1);
    }

    #[test]
    fn equal_installs_share_one_chain_and_diverge_on_change() {
        let pool = ChainPool::default();
        let (s, t) = (snip("s", 10), snip("t", 20));
        let (mut a, mut b) = (BaseTrampoline::new(), BaseTrampoline::new());
        for base in [&mut a, &mut b] {
            base.push(SnippetId(1), s.clone(), &pool);
            base.push(SnippetId(2), t.clone(), &pool);
        }
        assert!(Arc::ptr_eq(&chain_of(&a), &chain_of(&b)), "one chain");
        // Changing one point leaves the other's chain as it was.
        let before = chain_of(&b);
        a.push(SnippetId(3), snip("u", 5), &pool);
        assert!(Arc::ptr_eq(&chain_of(&b), &before));
        assert_eq!((a.chain_len(), b.chain_len()), (3, 2));
        assert!(a.remove(SnippetId(3), &pool));
        assert!(
            Arc::ptr_eq(&chain_of(&a), &before),
            "spliced back to the shared chain"
        );
        assert!(b.remove(SnippetId(1), &pool));
        assert_eq!(a.chain_len(), 2, "a removal on one point leaves the other");
        // The same handles over different code are different chains.
        let mut c = BaseTrampoline::new();
        c.push(SnippetId(1), snip("s", 10), &pool);
        c.push(SnippetId(2), t, &pool);
        assert!(!Arc::ptr_eq(&chain_of(&c), &chain_of(&a)));
    }

    #[test]
    fn a_dead_chain_never_comes_back() {
        // Every chain of the pool dies, then a different snippet — maybe at
        // the dead one's address — goes in under the same handle: it runs
        // its own code, never the stale chain's.
        let pool = ChainPool::default();
        for _ in 0..64 {
            let mut b = BaseTrampoline::new();
            let s = snip("s", 10);
            b.push(SnippetId(1), s.clone(), &pool);
            let installed = &chain_of(&b)[0].snippet.code;
            assert!(Arc::ptr_eq(installed, &s.code), "the stale chain came back");
            assert!(b.remove(SnippetId(1), &pool));
        }
        // Dead entries are pruned, not accumulated.
        assert!(
            pool.chains.lock().len() <= 8,
            "{}",
            pool.chains.lock().len()
        );
    }
}
