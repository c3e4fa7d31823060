//! Shared workload machinery for the ASCI kernels.
//!
//! Each kernel keeps two representations of its problem:
//!
//! * a **real** (small) grid on which genuine numerics run, so that the
//!   mini-apps compute verifiable answers; and
//! * a **modelled** (paper-scale) problem whose work is charged to the
//!   virtual clock via the machine's CPU model.
//!
//! The helpers here cover process-grid decomposition, the real stencil
//! computation, and the leaf-call pattern (`call_batch` + modelled work)
//! that reproduces the kernels' instrumentation-relevant call profiles.

use dynprof_core::AppCtx;
use dynprof_image::FuncId;

/// A 3-D process decomposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decomp3 {
    /// Processes along x.
    pub px: usize,
    /// Processes along y.
    pub py: usize,
    /// Processes along z.
    pub pz: usize,
}

impl Decomp3 {
    /// Factor `p` into a near-cubic grid (px ≥ py ≥ pz, px·py·pz = p):
    /// the first factorisation, taking pz and then py in ascending order,
    /// whose largest and smallest factors are closest.
    pub fn new(p: usize) -> Decomp3 {
        assert!(p > 0);
        let divisors = divisors(p);
        let mut best = [1, 1, p];
        let mut best_spread = usize::MAX;
        for &pz in &divisors {
            let rest = p / pz;
            for &py in divisors.iter().filter(|&&py| rest.is_multiple_of(py)) {
                let mut dims = [rest / py, py, pz];
                dims.sort_unstable();
                let spread = dims[2] - dims[0];
                if spread < best_spread {
                    best_spread = spread;
                    best = dims;
                }
            }
        }
        Decomp3 {
            px: best[2],
            py: best[1],
            pz: best[0],
        }
    }

    /// Coordinates of `rank` in the grid (x fastest).
    pub fn coords(&self, rank: usize) -> (usize, usize, usize) {
        let x = rank % self.px;
        let y = (rank / self.px) % self.py;
        let z = rank / (self.px * self.py);
        (x, y, z)
    }

    /// Rank at coordinates, if in range.
    pub fn rank_at(&self, x: isize, y: isize, z: isize) -> Option<usize> {
        if x < 0
            || y < 0
            || z < 0
            || x >= self.px as isize
            || y >= self.py as isize
            || z >= self.pz as isize
        {
            return None;
        }
        Some(x as usize + (y as usize) * self.px + (z as usize) * self.px * self.py)
    }

    /// The up-to-six face neighbours of `rank`.
    pub fn neighbours(&self, rank: usize) -> Vec<usize> {
        let (x, y, z) = self.coords(rank);
        let (x, y, z) = (x as isize, y as isize, z as isize);
        [
            (x - 1, y, z),
            (x + 1, y, z),
            (x, y - 1, z),
            (x, y + 1, z),
            (x, y, z - 1),
            (x, y, z + 1),
        ]
        .into_iter()
        .filter_map(|(a, b, c)| self.rank_at(a, b, c))
        .collect()
    }
}

/// A 2-D process decomposition (for Sweep3d's KBA sweeps): the most
/// balanced factor pair, larger first.
pub fn decomp2(p: usize) -> (usize, usize) {
    let mut best = (p, 1);
    for a in divisors(p) {
        let b = p / a;
        if a.abs_diff(b) < best.0.abs_diff(best.1) {
            best = (a.max(b), a.min(b));
        }
    }
    best
}

/// The divisors of `n`, ascending: trial division up to √n, so that a
/// rank's decomposition costs O(√P) and a job's O(P √P), not O(P²).
fn divisors(n: usize) -> Vec<usize> {
    let (mut low, mut high) = (Vec::new(), Vec::new());
    for d in (1..).take_while(|&d| d <= n / d) {
        if n.is_multiple_of(d) {
            low.push(d);
            if d != n / d {
                high.push(n / d);
            }
        }
    }
    low.extend(high.into_iter().rev());
    low
}

/// A small real 3-D grid with 7-point Jacobi relaxation — the genuine
/// numerics behind the modelled solvers.
#[derive(Clone, Debug)]
pub struct Grid3 {
    n: usize,
    data: Vec<f64>,
    scratch: Vec<f64>,
    rhs: Vec<f64>,
}

impl Grid3 {
    /// An `n³` grid with a deterministic right-hand side.
    pub fn new(n: usize) -> Grid3 {
        assert!(n >= 3, "grid too small for a stencil");
        let len = n * n * n;
        let rhs = (0..len)
            .map(|i| ((i % 17) as f64 - 8.0) / 17.0)
            .collect::<Vec<_>>();
        Grid3 {
            n,
            data: vec![0.0; len],
            scratch: vec![0.0; len],
            rhs,
        }
    }

    #[inline]
    fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        x + y * self.n + z * self.n * self.n
    }

    /// One weighted-Jacobi step for `-∆u = rhs`; returns the residual
    /// 2-norm after the step.
    pub fn jacobi_step(&mut self) -> f64 {
        let n = self.n;
        for z in 1..n - 1 {
            for y in 1..n - 1 {
                for x in 1..n - 1 {
                    let i = self.idx(x, y, z);
                    let nb = self.data[i - 1]
                        + self.data[i + 1]
                        + self.data[i - n]
                        + self.data[i + n]
                        + self.data[i - n * n]
                        + self.data[i + n * n];
                    self.scratch[i] = (nb + self.rhs[i]) / 6.0;
                }
            }
        }
        std::mem::swap(&mut self.data, &mut self.scratch);
        self.residual_norm()
    }

    /// Residual 2-norm of the interior.
    pub fn residual_norm(&self) -> f64 {
        let n = self.n;
        let mut acc = 0.0;
        for z in 1..n - 1 {
            for y in 1..n - 1 {
                for x in 1..n - 1 {
                    let i = self.idx(x, y, z);
                    let lap = 6.0 * self.data[i]
                        - self.data[i - 1]
                        - self.data[i + 1]
                        - self.data[i - n]
                        - self.data[i + n]
                        - self.data[i - n * n]
                        - self.data[i + n * n];
                    let r = self.rhs[i] - lap;
                    acc += r * r;
                }
            }
        }
        acc.sqrt()
    }

    /// Deterministic checksum of the solution.
    pub fn checksum(&self) -> f64 {
        self.data
            .iter()
            .enumerate()
            .map(|(i, v)| v * ((i % 7) as f64 + 1.0))
            .sum()
    }
}

/// Synthetic basic-block layout for a function of `size` bytes, used by
/// the app manifests so the patch-point CFG analysis has something to
/// chew on. The layout is deliberately hazard-free: a prologue block
/// falling through to a loop head that branches to the tail and back to
/// offset 0 (the patched jump itself — a safe target). Functions too
/// small to hold internal structure get a single straight-line block.
pub fn synthetic_blocks(size: usize) -> Vec<dynprof_image::BasicBlock> {
    use dynprof_image::BasicBlock;
    if size < 32 {
        return vec![BasicBlock::new(0, vec![])];
    }
    vec![
        BasicBlock::new(0, vec![size / 2]),
        BasicBlock::new(size / 2, vec![size / 2, size - 4]),
        BasicBlock::new(size - 4, vec![0]),
    ]
}

/// Execute a hot leaf function `reps` times (batched): the probe machinery
/// fires once with full accounting, and the modelled per-call work is
/// charged to the virtual clock.
pub fn leaf(ctx: &AppCtx<'_>, fid: FuncId, reps: u64, flops_per_call: u64, bytes_per_call: u64) {
    if reps == 0 {
        return;
    }
    ctx.call_batch(fid, reps, |r| {
        let cpu = ctx.p.machine().cpu;
        ctx.p
            .advance(cpu.work(r * flops_per_call, r * bytes_per_call));
    });
}

/// Charge modelled serial work directly.
pub fn work(ctx: &AppCtx<'_>, flops: u64, bytes: u64) {
    let cpu = ctx.p.machine().cpu;
    ctx.p.advance(cpu.work(flops, bytes));
}

/// Generate `count` function names from `stems`, cycling with numeric
/// suffixes once the stems run out (manifest filler for the big kernels).
pub fn generate_names(stems: &[&str], count: usize) -> Vec<String> {
    let mut out = Vec::with_capacity(count);
    let mut round = 0;
    while out.len() < count {
        for stem in stems {
            if out.len() == count {
                break;
            }
            if round == 0 {
                out.push((*stem).to_string());
            } else {
                out.push(format!("{stem}_{round}"));
            }
        }
        round += 1;
    }
    out
}

/// A shared sink for application results (residuals, checksums, fluxes),
/// so tests and examples can verify the kernels' real numerics.
#[derive(Default)]
pub struct Outputs {
    vals: parking_lot::Mutex<std::collections::BTreeMap<String, f64>>,
}

impl Outputs {
    /// A fresh sink.
    pub fn new() -> std::sync::Arc<Outputs> {
        std::sync::Arc::new(Outputs::default())
    }

    /// Record `value` under `key` (last write wins).
    pub fn record(&self, key: impl Into<String>, value: f64) {
        self.vals.lock().insert(key.into(), value);
    }

    /// Read a recorded value.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.vals.lock().get(key).copied()
    }

    /// All recorded values.
    pub fn all(&self) -> std::collections::BTreeMap<String, f64> {
        self.vals.lock().clone()
    }
}

/// Scale a `u64` count by the params' scale factor (min 1).
pub fn scaled(count: u64, scale: f64) -> u64 {
    dynprof_sim::time::round_to_u64(count as f64 * scale).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decomp3_exact_and_near_cubic() {
        for p in [1, 2, 4, 8, 16, 32, 64, 6, 12, 100] {
            let d = Decomp3::new(p);
            assert_eq!(d.px * d.py * d.pz, p, "p={p}");
            assert!(d.px >= d.py && d.py >= d.pz);
        }
        let d = Decomp3::new(64);
        assert_eq!((d.px, d.py, d.pz), (4, 4, 4));
        let d8 = Decomp3::new(8);
        assert_eq!((d8.px, d8.py, d8.pz), (2, 2, 2));
    }

    #[test]
    fn decomp3_coords_round_trip() {
        let d = Decomp3::new(24);
        for r in 0..24 {
            let (x, y, z) = d.coords(r);
            assert_eq!(d.rank_at(x as isize, y as isize, z as isize), Some(r));
        }
    }

    #[test]
    fn neighbours_are_symmetric() {
        let d = Decomp3::new(12);
        for r in 0..12 {
            for n in d.neighbours(r) {
                assert!(d.neighbours(n).contains(&r), "{r} <-> {n}");
            }
        }
    }

    #[test]
    fn interior_rank_has_six_neighbours() {
        let d = Decomp3::new(27);
        let centre = d.rank_at(1, 1, 1).unwrap();
        assert_eq!(d.neighbours(centre).len(), 6);
        assert_eq!(d.neighbours(0).len(), 3, "corner has three");
    }

    /// The decompositions by trial division over every 1..=p, as they
    /// were: the reference the divisor walk must agree with exactly.
    fn by_trial_division(p: usize) -> (Decomp3, (usize, usize)) {
        let mut best = [1, 1, p];
        let mut best_spread = usize::MAX;
        for pz in (1..=p).filter(|pz| p.is_multiple_of(*pz)) {
            let rest = p / pz;
            for py in (1..=rest).filter(|py| rest.is_multiple_of(*py)) {
                let mut dims = [rest / py, py, pz];
                dims.sort_unstable();
                if dims[2] - dims[0] < best_spread {
                    best_spread = dims[2] - dims[0];
                    best = dims;
                }
            }
        }
        let mut two = (p, 1);
        for a in (1..=p).filter(|a| p.is_multiple_of(*a)) {
            let b = p / a;
            if a.abs_diff(b) < two.0.abs_diff(two.1) {
                two = (a.max(b), a.min(b));
            }
        }
        let three = Decomp3 {
            px: best[2],
            py: best[1],
            pz: best[0],
        };
        (three, two)
    }

    #[test]
    fn decompositions_match_trial_division_at_every_size() {
        let sizes = (1..=4096).chain([512, 1152, 16_384, 32_768, 65_536]);
        for p in sizes {
            let (three, two) = by_trial_division(p);
            assert_eq!(Decomp3::new(p), three, "p={p}");
            assert_eq!(decomp2(p), two, "p={p}");
        }
        assert_eq!(divisors(36), [1, 2, 3, 4, 6, 9, 12, 18, 36]);
        assert_eq!(divisors(1), [1]);
    }

    #[test]
    fn decomp2_balanced() {
        assert_eq!(decomp2(8), (4, 2));
        assert_eq!(decomp2(16), (4, 4));
        assert_eq!(decomp2(2), (2, 1));
        assert_eq!(decomp2(1), (1, 1));
        for p in 1..=64 {
            let (a, b) = decomp2(p);
            assert_eq!(a * b, p);
        }
    }

    #[test]
    fn jacobi_reduces_residual() {
        let mut g = Grid3::new(10);
        let r0 = g.residual_norm();
        let mut last = r0;
        for _ in 0..30 {
            last = g.jacobi_step();
        }
        assert!(last < r0 * 0.5, "residual {r0} -> {last} did not converge");
        assert!(g.checksum().is_finite());
    }

    #[test]
    fn jacobi_is_deterministic() {
        let mut a = Grid3::new(8);
        let mut b = Grid3::new(8);
        for _ in 0..5 {
            a.jacobi_step();
            b.jacobi_step();
        }
        assert_eq!(a.checksum(), b.checksum());
    }

    #[test]
    fn generate_names_unique_and_sized() {
        let names = generate_names(&["a", "b", "c"], 10);
        assert_eq!(names.len(), 10);
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), 10, "duplicates in {names:?}");
        assert_eq!(names[0], "a");
        assert_eq!(names[3], "a_1");
    }

    #[test]
    fn scaled_floors_at_one() {
        assert_eq!(scaled(1000, 0.5), 500);
        assert_eq!(scaled(10, 0.0001), 1);
    }

    #[test]
    fn synthetic_blocks_are_hazard_free() {
        use dynprof_image::{FunctionInfo, MIN_PATCHABLE_BYTES};
        for size in [8, 31, 32, 192, 640, 1024, 2048] {
            let f = FunctionInfo::new("f")
                .with_size(size)
                .with_blocks(synthetic_blocks(size));
            assert_eq!(
                f.branch_into_patch(MIN_PATCHABLE_BYTES),
                None,
                "size {size}"
            );
        }
    }
}
