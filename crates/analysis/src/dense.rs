//! A bounded array-backed map for the streaming builders' per-event state.

use std::collections::BTreeMap;

/// Rank ids below this are array-indexed; the paper's machine has 1152
/// and the ROADMAP ladder tops out at 16384.
pub(crate) const DENSE_RANKS: usize = 1 << 16;
/// Thread ids below this are array-indexed (the paper's nodes are 8-way).
pub(crate) const DENSE_THREADS: usize = 64;

/// A map keyed by small integers that is an array below `limit` and a
/// `BTreeMap` from there on. Rank, thread and function ids are dense and
/// small in every trace this tool records, but they arrive as arbitrary
/// integers from trace *files*, so the array part must stay bounded: a
/// store chunk claiming rank `u32::MAX` costs one tree node, not 4 G
/// slots.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct DenseMap<V> {
    limit: usize,
    dense: Vec<Option<V>>,
    spill: BTreeMap<u32, V>,
}

impl<V> DenseMap<V> {
    pub(crate) fn new(limit: usize) -> DenseMap<V> {
        DenseMap {
            limit,
            dense: Vec::new(),
            spill: BTreeMap::new(),
        }
    }

    /// The value at `key`, inserted as `init()` if absent.
    pub(crate) fn entry(&mut self, key: u32, init: impl FnOnce() -> V) -> &mut V {
        let i = key as usize;
        if i >= self.limit {
            return self.spill.entry(key).or_insert_with(init);
        }
        if i >= self.dense.len() {
            self.dense.resize_with(i + 1, || None);
        }
        self.dense[i].get_or_insert_with(init)
    }

    pub(crate) fn get(&self, key: u32) -> Option<&V> {
        if (key as usize) < self.limit {
            self.dense.get(key as usize)?.as_ref()
        } else {
            self.spill.get(&key)
        }
    }

    pub(crate) fn get_mut(&mut self, key: u32) -> Option<&mut V> {
        if (key as usize) < self.limit {
            self.dense.get_mut(key as usize)?.as_mut()
        } else {
            self.spill.get_mut(&key)
        }
    }

    /// Present entries in ascending key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &V)> {
        let dense = self.dense.iter().enumerate();
        dense
            .filter_map(|(k, v)| Some((k as u32, v.as_ref()?)))
            .chain(self.spill.iter().map(|(&k, v)| (k, v)))
    }

    /// Present entries in ascending key order, mutably.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (u32, &mut V)> {
        let dense = self.dense.iter_mut().enumerate();
        dense
            .filter_map(|(k, v)| Some((k as u32, v.as_mut()?)))
            .chain(self.spill.iter_mut().map(|(&k, v)| (k, v)))
    }

    /// Present entries in ascending key order, by value.
    pub(crate) fn into_sorted(self) -> impl Iterator<Item = (u32, V)> {
        let dense = self.dense.into_iter().enumerate();
        dense
            .filter_map(|(k, v)| Some((k as u32, v?)))
            .chain(self.spill)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_below_the_limit_tree_above_it() {
        let mut m = DenseMap::new(4);
        for key in [3, u32::MAX, 0, 4, 3] {
            *m.entry(key, || 0u32) += 1;
        }
        assert_eq!(m.dense.len(), 4, "a huge key never sizes the array");
        assert_eq!(m.spill.len(), 2);
        assert_eq!(m.get(3), Some(&2));
        assert_eq!(m.get(1), None, "a gap in the array is absent");
        assert_eq!(m.get(5), None);
        *m.get_mut(4).unwrap() += 10;
        let seen: Vec<(u32, u32)> = m.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(seen, [(0, 1), (3, 2), (4, 11), (u32::MAX, 1)]);
        let seen_mut: Vec<(u32, u32)> = m.iter_mut().map(|(k, v)| (k, *v)).collect();
        assert_eq!(seen_mut, seen);
        assert_eq!(m.into_sorted().collect::<Vec<_>>(), seen);
    }
}
