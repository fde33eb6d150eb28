//! The translation-operator cache.
//!
//! All KIFMM translations are dense matrices built from kernel
//! evaluations between equivalent and check surfaces:
//!
//! - `UC2E` — upward check potential → upward equivalent density (the
//!   regularized pseudo-inverse solve of Ying et al. §3)
//! - `U2U(i)` — child-i equivalent density → parent equivalent density
//! - `DC2E` — downward check potential → downward equivalent density.
//!   The downward surfaces are the upward ones swapped, so for a kernel
//!   with `K(x, y) = K(y, x)ᵀ` (Laplace, Stokes, Yukawa) it is `UC2Eᵀ`
//!   and costs no second solve; see [`Ops::dc2e`]
//! - `D2D(i)` — parent downward density → child-i downward density
//! - `M2L(o)` — source equivalent density → target downward *check*
//!   potential, for each of the ≤316 V-list offsets `o`
//!
//! Operators depend only on the tree level (translation invariance), and
//! for homogeneous kernels (`K(ax, ay) = a^h K(x, y)`; Laplace and Stokes
//! have `h = −1`) they are computed once at a reference level and
//! *rescaled* per level — the cache returns `(matrix, scale)` pairs so the
//! caller can fold the scale into the accumulate.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use pfmm_kernels::{assemble, Kernel, Point3};
use pfmm_linalg::{pinv, Matrix};

use crate::par::par_map_n;
use crate::surface::{
    surface_points, surface_points_into, surface_size, surface_template, RAD_INNER, RAD_OUTER,
};
use pfmm_tree::SetupPar;

/// Relative truncation of the check→equivalent pseudo-inverses (UC2E,
/// DC2E): singular values below this fraction of the largest are dropped.
pub const PINV_REL_TOL: f64 = 1e-12;

/// Relative truncation of a check→equivalent pseudo-inverse that is
/// applied in f32 (gpusim's device S2U). At [`PINV_REL_TOL`] the inverse
/// amplifies f32 rounding of the check potentials by up to 1e12, and an
/// order-6 f32 pipeline on 4000 uniform points differs from the f64 FMM
/// by 0.3. Measured on five such point sets (q = 150) at orders 4 and 6,
/// that difference is 2.1e-5–5.3e-5 for any truncation in 3e-5..5e-5,
/// up to 1.8e-4 at 1e-5 and up to 7.7e-5 at 1e-4.
pub const PINV_F32_REL_TOL: f64 = 5e-5;

/// Half-width of a level-`l` octant of the unit cube.
#[inline]
pub fn level_radius(level: u32) -> f64 {
    0.5 / (1u64 << level) as f64
}

/// Center offset of child `i` relative to its parent's center, in units
/// of the child half-width.
#[inline]
fn child_offset(i: usize) -> [f64; 3] {
    [
        if i & 4 != 0 { 1.0 } else { -1.0 },
        if i & 2 != 0 { 1.0 } else { -1.0 },
        if i & 1 != 0 { 1.0 } else { -1.0 },
    ]
}

/// A cached translation operator and the per-level scale to apply with it.
pub type ScaledOp = (Arc<Matrix>, f64);

/// Double-checked cache lookup: probe under the lock, assemble outside it
/// so concurrent first touches (of the same or distinct keys) don't
/// serialize on the matrix build, then re-check insert — a racing
/// duplicate build is dropped in favor of the first inserted value.
fn cached<K, T>(cache: &Mutex<HashMap<K, Arc<T>>>, key: K, build: impl FnOnce() -> T) -> Arc<T>
where
    K: Eq + std::hash::Hash + Copy,
{
    if let Some(m) = cache.lock().get(&key).cloned() {
        return m;
    }
    let built = Arc::new(build());
    cache.lock().entry(key).or_insert(built).clone()
}

/// Whether `a` is `bᵀ` bit for bit.
fn is_transpose(a: &Matrix, b: &Matrix) -> bool {
    let bt = b.transpose();
    a.rows() == bt.rows()
        && a.cols() == bt.cols()
        && a.as_slice()
            .iter()
            .zip(bt.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Cache keyed by (level, V-list offset).
type OffsetCache<T> = Mutex<HashMap<(u32, [i8; 3]), Arc<T>>>;

/// The operator cache for one kernel and surface order.
pub struct Ops {
    kernel: Arc<dyn Kernel>,
    order: usize,
    homogeneity: Option<f64>,
    /// Unit surface node coordinates, stamped per box by the `_into`
    /// surface methods (the executor's per-box hot paths).
    template: Vec<Point3>,
    uc2e: Mutex<HashMap<u32, Arc<Matrix>>>,
    dc2e: Mutex<HashMap<u32, Arc<Matrix>>>,
    u2u: Mutex<HashMap<(u32, usize), Arc<Matrix>>>,
    d2d: Mutex<HashMap<(u32, usize), Arc<Matrix>>>,
    m2l: OffsetCache<Matrix>,
}

impl Ops {
    /// Create a cache for `kernel` at surface order `order`, truncating
    /// pseudo-inverse singular values below [`PINV_REL_TOL`].
    pub fn new(kernel: Arc<dyn Kernel>, order: usize) -> Ops {
        assert!(order >= 2, "surface order must be at least 2");
        let homogeneity = kernel.homogeneity();
        Ops {
            kernel,
            order,
            homogeneity,
            template: surface_template(order),
            uc2e: Mutex::new(HashMap::new()),
            dc2e: Mutex::new(HashMap::new()),
            u2u: Mutex::new(HashMap::new()),
            d2d: Mutex::new(HashMap::new()),
            m2l: Mutex::new(HashMap::new()),
        }
    }

    /// The kernel this cache serves.
    pub fn kernel(&self) -> &dyn Kernel {
        self.kernel.as_ref()
    }

    /// Surface order.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Points on each surface.
    pub fn n_surf(&self) -> usize {
        surface_size(self.order)
    }

    /// Length of an upward/downward equivalent density vector.
    pub fn density_len(&self) -> usize {
        self.n_surf() * self.kernel.source_dim()
    }

    /// Length of a check potential vector.
    pub fn check_len(&self) -> usize {
        self.n_surf() * self.kernel.target_dim()
    }

    /// Upward equivalent surface of an octant (`center`, half-width `r`).
    pub fn up_equiv_surface(&self, center: &Point3, r: f64) -> Vec<Point3> {
        surface_points(self.order, center, r, RAD_INNER)
    }

    /// Upward check surface.
    pub fn up_check_surface(&self, center: &Point3, r: f64) -> Vec<Point3> {
        surface_points(self.order, center, r, RAD_OUTER)
    }

    /// Downward check surface.
    pub fn down_check_surface(&self, center: &Point3, r: f64) -> Vec<Point3> {
        surface_points(self.order, center, r, RAD_INNER)
    }

    /// Downward equivalent surface.
    pub fn down_equiv_surface(&self, center: &Point3, r: f64) -> Vec<Point3> {
        surface_points(self.order, center, r, RAD_OUTER)
    }

    /// Allocation-free [`Ops::up_equiv_surface`] into a scratch buffer
    /// (bitwise-identical points).
    pub fn up_equiv_surface_into(&self, center: &Point3, r: f64, out: &mut Vec<Point3>) {
        surface_points_into(&self.template, center, r, RAD_INNER, out);
    }

    /// Allocation-free [`Ops::up_check_surface`] into a scratch buffer.
    pub fn up_check_surface_into(&self, center: &Point3, r: f64, out: &mut Vec<Point3>) {
        surface_points_into(&self.template, center, r, RAD_OUTER, out);
    }

    /// Allocation-free [`Ops::down_check_surface`] into a scratch buffer.
    pub fn down_check_surface_into(&self, center: &Point3, r: f64, out: &mut Vec<Point3>) {
        surface_points_into(&self.template, center, r, RAD_INNER, out);
    }

    /// Allocation-free [`Ops::down_equiv_surface`] into a scratch buffer.
    pub fn down_equiv_surface_into(&self, center: &Point3, r: f64, out: &mut Vec<Point3>) {
        surface_points_into(&self.template, center, r, RAD_OUTER, out);
    }

    /// The level at which an operator is actually computed, and the
    /// homogeneous rescale factor for use at `level`.
    fn base_level_scale(&self, level: u32, pinv_side: bool) -> (u32, f64) {
        match self.homogeneity {
            Some(h) => {
                // Computed at level 0; K scales by (r_l / r_0)^h, its
                // pseudo-inverse by the reciprocal power.
                let ratio = level_radius(level) / level_radius(0);
                let e = if pinv_side { -h } else { h };
                (0, ratio.powf(e))
            }
            None => (level, 1.0),
        }
    }

    /// The upward check matrix `K(up check, up equivalent)` of a
    /// level-`level` octant centered at the origin.
    fn up_check_matrix(&self, level: u32) -> Matrix {
        let (r, c) = (level_radius(level), [0.0; 3]);
        assemble(
            self.kernel.as_ref(),
            &self.up_check_surface(&c, r),
            &self.up_equiv_surface(&c, r),
        )
    }

    /// Upward check-to-equivalent solve operator at `level`.
    pub fn uc2e(&self, level: u32) -> ScaledOp {
        let (base, scale) = self.base_level_scale(level, true);
        let m = cached(&self.uc2e, base, || {
            pinv(&self.up_check_matrix(base), PINV_REL_TOL)
        });
        (m, scale)
    }

    /// [`Ops::uc2e`] truncated at `rel_tol` instead of [`PINV_REL_TOL`],
    /// solved afresh on every call (not cached).
    pub fn uc2e_truncated(&self, level: u32, rel_tol: f64) -> (Matrix, f64) {
        let (base, scale) = self.base_level_scale(level, true);
        (pinv(&self.up_check_matrix(base), rel_tol), scale)
    }

    /// Downward check-to-equivalent solve operator at `level`.
    ///
    /// The downward check surface is the upward equivalent surface and
    /// the downward equivalent surface the upward check surface, so for a
    /// kernel with `K(x, y) = K(y, x)ᵀ` the downward check matrix is the
    /// upward one transposed, and its pseudo-inverse is `uc2eᵀ`. That is
    /// checked, not assumed: the cached `uc2e` is transposed only when
    /// the assembled matrix equals the upward one's transpose bit for bit.
    /// Any other kernel (the dipole, whose matrix is `n × 3n`) is solved.
    pub fn dc2e(&self, level: u32) -> ScaledOp {
        let (base, scale) = self.base_level_scale(level, true);
        let m = cached(&self.dc2e, base, || {
            let (r, c) = (level_radius(base), [0.0; 3]);
            let k = assemble(
                self.kernel.as_ref(),
                &self.down_check_surface(&c, r),
                &self.down_equiv_surface(&c, r),
            );
            if is_transpose(&k, &self.up_check_matrix(base)) {
                self.uc2e(base).0.transpose()
            } else {
                pinv(&k, PINV_REL_TOL)
            }
        });
        (m, scale)
    }

    /// Child-to-parent multipole translation; `child_level >= 1`,
    /// `child_index` in 0..8. Maps the child's equivalent density directly
    /// to a parent equivalent-density contribution (UC2E folded in), so it
    /// is scale-invariant for homogeneous kernels.
    pub fn u2u(&self, child_level: u32, child_index: usize) -> ScaledOp {
        assert!(child_level >= 1 && child_index < 8);
        let base = if self.homogeneity.is_some() {
            1
        } else {
            child_level
        };
        let m = cached(&self.u2u, (base, child_index), || {
            let rc = level_radius(base);
            let rp = 2.0 * rc;
            let off = child_offset(child_index);
            let cc = [off[0] * rc, off[1] * rc, off[2] * rc];
            let k = assemble(
                self.kernel.as_ref(),
                &self.up_check_surface(&[0.0; 3], rp),
                &self.up_equiv_surface(&cc, rc),
            );
            let (uc2e_par, s) = self.uc2e(base - 1);
            debug_assert_eq!(s, 1.0, "base-level uc2e is unscaled at level 0");
            let mut folded = uc2e_par.matmul(&k);
            folded.scale(s);
            folded
        });
        (m, 1.0)
    }

    /// Parent-to-child local translation (DC2E folded in); scale-invariant
    /// for homogeneous kernels.
    pub fn d2d(&self, child_level: u32, child_index: usize) -> ScaledOp {
        assert!(child_level >= 1 && child_index < 8);
        let base = if self.homogeneity.is_some() {
            1
        } else {
            child_level
        };
        let m = cached(&self.d2d, (base, child_index), || {
            let rc = level_radius(base);
            let rp = 2.0 * rc;
            let off = child_offset(child_index);
            let cc = [off[0] * rc, off[1] * rc, off[2] * rc];
            let k = assemble(
                self.kernel.as_ref(),
                &self.down_check_surface(&cc, rc),
                &self.down_equiv_surface(&[0.0; 3], rp),
            );
            let (dc2e_child, s) = self.dc2e(base);
            let mut folded = dc2e_child.matmul(&k);
            folded.scale(s);
            folded
        });
        (m, 1.0)
    }

    /// Dense M2L: source upward-equivalent density → target downward
    /// *check* potential, for a V-list offset (in units of the octant
    /// side, each component in −3..=3, ∞-norm ≥ 2).
    pub fn m2l(&self, level: u32, offset: [i8; 3]) -> ScaledOp {
        debug_assert!(
            offset.iter().any(|o| o.abs() >= 2),
            "V-list offsets are non-adjacent"
        );
        let (base, scale) = self.base_level_scale(level, false);
        let m = cached(&self.m2l, (base, offset), || {
            let r = level_radius(base);
            let tc = [
                offset[0] as f64 * 2.0 * r,
                offset[1] as f64 * 2.0 * r,
                offset[2] as f64 * 2.0 * r,
            ];
            assemble(
                self.kernel.as_ref(),
                &self.down_check_surface(&tc, r),
                &self.up_equiv_surface(&[0.0; 3], r),
            )
        });
        (m, scale)
    }

    /// Precompute every up/down-pass operator the tree will touch
    /// (uc2e/dc2e at each level, the eight U2U/D2D child classes) so the
    /// first evaluation doesn't pay the pseudo-inverse solves inside the
    /// timed phases (M2L assembly stays lazy — the offset set depends on
    /// the V-lists, not just `max_level`).
    ///
    /// Tasks enumerate *distinct cache keys* — for homogeneous kernels
    /// every level collapses onto the base level, so naively warming per
    /// level would race concurrent builds of the same matrix (harmless
    /// but wasteful; [`cached`] drops the losers). Three waves, each
    /// consuming the last one's operators as cache hits: the uc2e solves
    /// (one per base level); the dc2e operators (a transpose of uc2e for
    /// symmetric kernels, a solve otherwise); the folded U2U/D2D
    /// operators.
    pub fn warm(&self, max_level: u32, par: SetupPar) {
        let hom = self.homogeneity.is_some();
        let solve_levels: Vec<u32> = if hom {
            vec![0]
        } else {
            (0..=max_level).collect()
        };
        par_map_n(par.threads(), solve_levels.len(), |k| {
            drop(self.uc2e(solve_levels[k]));
        });
        par_map_n(par.threads(), solve_levels.len(), |k| {
            drop(self.dc2e(solve_levels[k]));
        });
        if max_level == 0 {
            return;
        }
        let child_levels: Vec<u32> = if hom {
            vec![1]
        } else {
            (1..=max_level).collect()
        };
        par_map_n(par.threads(), 16 * child_levels.len(), |k| {
            let lev = child_levels[k / 16];
            let ci = (k / 2) % 8;
            if k % 2 == 0 {
                drop(self.u2u(lev, ci));
            } else {
                drop(self.d2d(lev, ci));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfmm_kernels::{direct_eval, Laplace, LaplaceDipole, Stokes, Yukawa};

    /// Laplace that pretends to be non-homogeneous, to exercise the
    /// per-level cache path against the scaled path.
    #[derive(Clone, Copy)]
    struct LaplaceNoHom;
    impl Kernel for LaplaceNoHom {
        fn source_dim(&self) -> usize {
            1
        }
        fn target_dim(&self) -> usize {
            1
        }
        fn eval_block(&self, x: &Point3, y: &Point3, block: &mut [f64]) {
            Laplace.eval_block(x, y, block)
        }
        fn homogeneity(&self) -> Option<f64> {
            None
        }
        fn flops_per_pair(&self) -> u64 {
            20
        }
        fn name(&self) -> &'static str {
            "laplace-nohom"
        }
    }

    fn ops(order: usize) -> Ops {
        Ops::new(Arc::new(Laplace), order)
    }

    /// Far-field accuracy of the S2U compression: the equivalent density
    /// built from the check-surface potential must reproduce the true
    /// potential far away.
    #[test]
    fn equivalent_density_reproduces_far_field() {
        let o = ops(6);
        let level = 3u32;
        let r = level_radius(level);
        let c = [0.3125, 0.4375, 0.5625]; // a level-3 octant center
                                          // A few sources inside the octant.
        let srcs = vec![
            [c[0] - 0.5 * r, c[1] + 0.3 * r, c[2]],
            [c[0] + 0.4 * r, c[1] - 0.2 * r, c[2] + 0.6 * r],
            [c[0], c[1], c[2] - 0.7 * r],
        ];
        let dens = vec![1.0, -2.0, 0.5];

        // ucheck = K(uc, src) s ; u = UC2E ucheck.
        let uc = o.up_check_surface(&c, r);
        let kcs = assemble(&Laplace, &uc, &srcs);
        let ucheck = kcs.matvec(&dens);
        let (uc2e, s) = o.uc2e(level);
        let mut u = uc2e.matvec(&ucheck);
        for v in &mut u {
            *v *= s;
        }

        // Evaluate at a distant point via the equivalent surface vs direct.
        let far = [c[0] + 20.0 * r, c[1] - 15.0 * r, c[2] + 10.0 * r];
        let ue = o.up_equiv_surface(&c, r);
        let mut via_equiv = vec![0.0];
        direct_eval(&Laplace, &[far], &ue, &u, &mut via_equiv);
        let mut direct = vec![0.0];
        direct_eval(&Laplace, &[far], &srcs, &dens, &mut direct);
        let rel = (via_equiv[0] - direct[0]).abs() / direct[0].abs();
        assert!(rel < 1e-6, "far-field relative error {rel}");
    }

    #[test]
    fn u2u_preserves_far_field() {
        let o = ops(6);
        let child_level = 2u32;
        let rc = level_radius(child_level);
        let rp = 2.0 * rc;
        // Parent centered at a valid level-1 position.
        let pc = [0.25, 0.25, 0.75];
        let idx = 5usize; // child (+x, -y, +z)
        let off = child_offset(idx);
        let cc = [
            pc[0] + off[0] * rc,
            pc[1] + off[1] * rc,
            pc[2] + off[2] * rc,
        ];

        // Source inside the child.
        let srcs = vec![[cc[0] + 0.2 * rc, cc[1], cc[2] - 0.3 * rc]];
        let dens = vec![1.0];

        // Child equivalent density.
        let kcs = assemble(&Laplace, &o.up_check_surface(&cc, rc), &srcs);
        let (uc2e_c, sc) = o.uc2e(child_level);
        let mut u_child = uc2e_c.matvec(&kcs.matvec(&dens));
        for v in &mut u_child {
            *v *= sc;
        }

        // Parent equivalent density via U2U.
        let (m, s) = o.u2u(child_level, idx);
        let mut u_par = m.matvec(&u_child);
        for v in &mut u_par {
            *v *= s;
        }

        let far = [pc[0] + 18.0 * rp, pc[1] + 9.0 * rp, pc[2] - 11.0 * rp];
        let mut via = vec![0.0];
        direct_eval(
            &Laplace,
            &[far],
            &o.up_equiv_surface(&pc, rp),
            &u_par,
            &mut via,
        );
        let mut want = vec![0.0];
        direct_eval(&Laplace, &[far], &srcs, &dens, &mut want);
        let rel = (via[0] - want[0]).abs() / want[0].abs();
        assert!(rel < 1e-6, "U2U far-field relative error {rel}");
    }

    /// The M2L + DC2E + D2T chain must reproduce the potential of a far
    /// octant's equivalent density inside the target octant.
    #[test]
    fn m2l_chain_accuracy() {
        let o = ops(6);
        let level = 3u32;
        let r = level_radius(level);
        let sc = [0.0625, 0.0625, 0.0625];
        let offset = [3i8, 0, -2];
        let tc = [
            sc[0] + offset[0] as f64 * 2.0 * r,
            sc[1] + offset[1] as f64 * 2.0 * r,
            sc[2] + offset[2] as f64 * 2.0 * r,
        ];

        // A made-up but smooth source equivalent density.
        let n = o.density_len();
        let u: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.1).sin()).collect();

        // dcheck = M2L u ; d = DC2E dcheck.
        let (m, ms) = o.m2l(level, offset);
        let mut dcheck = m.matvec(&u);
        for v in &mut dcheck {
            *v *= ms;
        }
        let (dc2e, ds) = o.dc2e(level);
        let mut d = dc2e.matvec(&dcheck);
        for v in &mut d {
            *v *= ds;
        }

        // Inside the target, the downward density must reproduce the
        // source equivalent field.
        let probe = [tc[0] + 0.4 * r, tc[1] - 0.3 * r, tc[2] + 0.2 * r];
        let mut via = vec![0.0];
        direct_eval(
            &Laplace,
            &[probe],
            &o.down_equiv_surface(&tc, r),
            &d,
            &mut via,
        );
        let mut want = vec![0.0];
        direct_eval(
            &Laplace,
            &[probe],
            &o.up_equiv_surface(&sc, r),
            &u,
            &mut want,
        );
        let rel = (via[0] - want[0]).abs() / want[0].abs().max(1e-30);
        assert!(rel < 1e-5, "M2L chain relative error {rel}");
    }

    /// The D2D chain: a parent's downward density must reproduce the
    /// same interior field after translation to a child.
    #[test]
    fn d2d_preserves_interior_field() {
        let o = ops(6);
        let parent_level = 2u32;
        let rp = level_radius(parent_level);
        let pc = [0.375, 0.625, 0.125]; // a level-2 octant center
                                        // A synthetic but smooth parent downward density.
        let nd = o.density_len();
        let d_par: Vec<f64> = (0..nd).map(|i| (i as f64 * 0.17).cos()).collect();

        let idx = 6usize; // child (+x, +y, -z)
        let off = child_offset(idx);
        let rc = rp / 2.0;
        let cc = [
            pc[0] + off[0] * rc,
            pc[1] + off[1] * rc,
            pc[2] + off[2] * rc,
        ];

        let (m, s) = o.d2d(parent_level + 1, idx);
        let mut d_child = vec![0.0; nd];
        m.matvec_acc_scaled(&d_par, &mut d_child, s);

        // Probe inside the child: both representations must agree.
        let probe = [cc[0] - 0.3 * rc, cc[1] + 0.1 * rc, cc[2] + 0.45 * rc];
        let mut via_child = vec![0.0];
        direct_eval(
            &Laplace,
            &[probe],
            &o.down_equiv_surface(&cc, rc),
            &d_child,
            &mut via_child,
        );
        let mut via_parent = vec![0.0];
        direct_eval(
            &Laplace,
            &[probe],
            &o.down_equiv_surface(&pc, rp),
            &d_par,
            &mut via_parent,
        );
        let rel = (via_child[0] - via_parent[0]).abs() / via_parent[0].abs().max(1e-30);
        assert!(rel < 1e-6, "D2D interior-field relative error {rel}");
    }

    /// Homogeneous rescaling must agree with direct per-level computation.
    #[test]
    fn homogeneous_scaling_matches_per_level() {
        let hom = Ops::new(Arc::new(Laplace), 4);
        let noh = Ops::new(Arc::new(LaplaceNoHom), 4);
        for level in [1u32, 2, 5] {
            let (mh, sh) = hom.m2l(level, [2, -2, 1]);
            let (mn, sn) = noh.m2l(level, [2, -2, 1]);
            assert_eq!(sn, 1.0);
            for i in 0..mh.rows() {
                for j in 0..mh.cols() {
                    let a = mh[(i, j)] * sh;
                    let b = mn[(i, j)];
                    assert!((a - b).abs() < 1e-12 * b.abs().max(1.0), "level {level}");
                }
            }
            let (uh, ush) = hom.uc2e(level);
            let (un, usn) = noh.uc2e(level);
            assert_eq!(usn, 1.0);
            let scale_err = (0..uh.rows())
                .flat_map(|i| (0..uh.cols()).map(move |j| (i, j)))
                .map(|(i, j)| (uh[(i, j)] * ush - un[(i, j)]).abs())
                .fold(0.0f64, f64::max);
            assert!(
                scale_err < 1e-7 * un.max_abs(),
                "uc2e level {level}: {scale_err}"
            );
        }
    }

    #[test]
    fn stokes_operator_shapes() {
        let o = Ops::new(Arc::new(Stokes::default()), 4);
        let n = surface_size(4);
        assert_eq!(o.density_len(), 3 * n);
        let (uc2e, _) = o.uc2e(2);
        assert_eq!(uc2e.rows(), 3 * n);
        assert_eq!(uc2e.cols(), 3 * n);
        let (m, _) = o.m2l(2, [0, 2, 0]);
        assert_eq!(m.rows(), 3 * n);
        assert_eq!(m.cols(), 3 * n);
    }

    /// A deterministic, non-smooth probe vector of length `n`.
    fn probe_vec(n: usize, seed: u64) -> Vec<f64> {
        (0..n as u64)
            .map(|i| {
                let h = (i ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 11;
                h as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    /// ‖a − b‖₂ / ‖b‖₂.
    fn rel_diff(a: &[f64], b: &[f64]) -> f64 {
        let num: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
        let den: f64 = b.iter().map(|y| y * y).sum();
        (num / den).sqrt()
    }

    /// For the symmetric kernels `dc2e` is the cached `uc2e` transposed,
    /// and it agrees on applied vectors with a pseudo-inverse solved from
    /// the assembled downward check matrix. Yukawa is not homogeneous, so
    /// its two levels are two distinct solves. Measured relative ℓ²
    /// differences: Laplace ≤ 1.2e-9, Stokes ≤ 3.7e-12, Yukawa ≤ 5.5e-13
    /// (the truncated inverse's conditioning, not a loss of accuracy).
    #[test]
    fn transposed_dc2e_matches_solved_dc2e() {
        let cases: [(Arc<dyn Kernel>, usize); 3] = [
            (Arc::new(Laplace), 6),
            (Arc::new(Stokes::default()), 4),
            (Arc::new(Yukawa::default()), 4),
        ];
        for (kernel, order) in cases {
            let o = Ops::new(kernel.clone(), order);
            for level in [2u32, 3] {
                let (base, _) = o.base_level_scale(level, true);
                let (dc2e, ds) = o.dc2e(level);
                let (uc2e, us) = o.uc2e(level);
                assert_eq!(ds.to_bits(), us.to_bits());
                let uct = uc2e.transpose();
                assert!(
                    is_transpose(&dc2e, &uc2e),
                    "{} takes the transpose",
                    kernel.name()
                );
                let (r, c) = (level_radius(base), [0.0; 3]);
                let k = assemble(
                    kernel.as_ref(),
                    &o.down_check_surface(&c, r),
                    &o.down_equiv_surface(&c, r),
                );
                let solved = pinv(&k, PINV_REL_TOL);
                for seed in 0..3 {
                    let v = probe_vec(o.check_len(), seed);
                    let rel = rel_diff(&uct.matvec(&v), &solved.matvec(&v));
                    assert!(rel <= 1e-8, "{} level {level}: {rel}", kernel.name());
                }
            }
        }
    }

    /// The dipole's check matrix is `n × 3n`, not the transpose of
    /// anything square, so its `dc2e` is solved: `3n × n`, and accurate
    /// through the M2L + DC2E chain (1.3e-5, as before `dc2e` could be a
    /// transpose).
    #[test]
    fn dipole_dc2e_takes_the_solve_path() {
        let o = Ops::new(Arc::new(LaplaceDipole), 4);
        let n = o.n_surf();
        let level = 3u32;
        let (dc2e, ds) = o.dc2e(level);
        let (uc2e, _) = o.uc2e(level);
        assert_eq!((dc2e.rows(), dc2e.cols()), (3 * n, n));
        assert!(!is_transpose(&dc2e, &uc2e));

        let r = level_radius(level);
        let sc = [0.0625, 0.0625, 0.0625];
        let offset = [3i8, 0, -2];
        let tc = [
            sc[0] + offset[0] as f64 * 2.0 * r,
            sc[1] + offset[1] as f64 * 2.0 * r,
            sc[2] + offset[2] as f64 * 2.0 * r,
        ];
        let u: Vec<f64> = (0..o.density_len())
            .map(|i| ((i as f64) * 0.1).sin())
            .collect();
        let (m, ms) = o.m2l(level, offset);
        let mut d = vec![0.0; o.density_len()];
        dc2e.matvec_acc_scaled(&m.matvec(&u), &mut d, ds * ms);
        let probe = [tc[0] + 0.4 * r, tc[1] - 0.3 * r, tc[2] + 0.2 * r];
        let mut via = vec![0.0];
        direct_eval(
            &LaplaceDipole,
            &[probe],
            &o.down_equiv_surface(&tc, r),
            &d,
            &mut via,
        );
        let mut want = vec![0.0];
        direct_eval(
            &LaplaceDipole,
            &[probe],
            &o.up_equiv_surface(&sc, r),
            &u,
            &mut want,
        );
        let rel = (via[0] - want[0]).abs() / want[0].abs().max(1e-30);
        assert!(rel < 1e-4, "dipole M2L chain relative error {rel}");
    }

    /// `pinv` of the real check matrices (Laplace order 6, 152²; Stokes
    /// order 4, 168²) meets the four Moore–Penrose conditions, each
    /// residual as a max-entry difference relative to the largest entry
    /// of the matrix it is compared with. Measured (APA, PAP, (AP)ᵀ,
    /// (PA)ᵀ): Laplace 1.3e-9, 1.3e-9, 2.0e-8, 3.1e-8 (|P| up to 1.8e7);
    /// Stokes 9.1e-13, 2.9e-12, 2.5e-11, 3.2e-11. The strided Jacobi this
    /// replaced measured the same orders. Bounds leave about 3× headroom.
    #[test]
    fn check_matrix_pinv_moore_penrose_conditions() {
        let cases: [(Arc<dyn Kernel>, usize, [f64; 4]); 2] = [
            (Arc::new(Laplace), 6, [5e-9, 5e-9, 1e-7, 1e-7]),
            (Arc::new(Stokes::default()), 4, [3e-12, 1e-11, 1e-10, 1e-10]),
        ];
        let resid = |x: &Matrix, y: &Matrix| {
            let d = x
                .as_slice()
                .iter()
                .zip(y.as_slice())
                .map(|(u, v)| (u - v).abs())
                .fold(0.0f64, f64::max);
            d / y.max_abs()
        };
        for (kernel, order, bounds) in cases {
            let o = Ops::new(kernel.clone(), order);
            let a = o.up_check_matrix(0);
            let p = o.uc2e(0).0;
            let (ap, pa) = (a.matmul(&p), p.matmul(&a));
            let conds = [
                resid(&ap.matmul(&a), &a),
                resid(&pa.matmul(&p), &p),
                resid(&ap.transpose(), &ap),
                resid(&pa.transpose(), &pa),
            ];
            for (i, (got, bound)) in conds.iter().zip(bounds).enumerate() {
                assert!(
                    *got <= bound,
                    "{} order {order}: condition {i} residual {got:e} > {bound:e}",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn level_radius_halves() {
        assert_eq!(level_radius(0), 0.5);
        assert_eq!(level_radius(1), 0.25);
        assert_eq!(level_radius(10), 0.5 / 1024.0);
    }
}
