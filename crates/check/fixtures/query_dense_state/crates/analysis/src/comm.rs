// Seeded negative for `dynlint --fixture query-dense-state`. NOT compiled:
// this file exists only to be linted, under a path that ends like the
// real `crates/analysis/src/comm.rs`. It is the comm-matrix builder as it
// was before queries ran at decode speed: per-rank state in a tree keyed
// by rank, and a matrix written one formatted `String` per cell.

use std::collections::BTreeMap;

pub struct CommMatrix {
    cells: BTreeMap<(u32, u32), u64>,
}

impl CommMatrix {
    pub fn write_matrix(&self, out: &mut impl io::Write) -> io::Result<()> {
        for ((from, to), bytes) in &self.cells {
            out.write_all(format!("{from} {to} {bytes}\n").as_bytes())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_test_may_keep_a_tree() {
        let expected: BTreeMap<u32, u64> = BTreeMap::new();
        assert!(expected.is_empty());
    }
}
