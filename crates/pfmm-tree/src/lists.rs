//! U-, V-, W- and X-list construction (Table I of the paper).
//!
//! For every *local* octant β (owned leaf or ancestor of one) the lists
//! collect the octants coupled to β in Algorithm 1:
//!
//! - `U(β)` (leaves only): leaf octants adjacent to β, including β —
//!   direct near-field interactions.
//! - `V(β)`: children of the colleagues of `P(β)` not adjacent to β — the
//!   far-field multipole-to-local translations.
//! - `W(β)` (leaves only): descendants α of colleagues of β with `P(α)`
//!   adjacent to β but α not adjacent — their multipole expansions are
//!   valid at β's targets.
//! - `X(β)`: the duals of W (α with β ∈ W(α)) — their sources are
//!   evaluated directly onto β's downward check surface.
//!
//! Construction is search-free on the hot path: a one-pass scaffold over
//! the Morton-sorted LET array (subtree extents, present parents, and
//! per-level colleague rows built top-down) turns every list into child
//! walks and colleague-row scans, so no box re-derives Morton ranks or
//! binary-searches the LET per candidate. No communication is needed
//! (everything required is already in the LET, per Algorithm 2).

use crate::lett::Let;
use crate::par::{par_map_n, SetupPar};
use pfmm_morton::{MortonKey, MAX_DEPTH};

/// Sort a collected row and drop duplicates in place — the closing step
/// of every list/LET row assembly (the U/X descents and the LET's
/// ancestor and user-rank collections can visit an octant through more
/// than one path; V/W rows are duplicate-free and pay only the no-op
/// scan).
pub fn sorted_dedup<T: Ord>(out: &mut Vec<T>) {
    out.sort_unstable();
    out.dedup();
}

/// Compressed sparse rows of `u32` octant indices.
#[derive(Clone, Debug, Default)]
pub struct Csr {
    off: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    /// Build from per-row item vectors.
    pub fn from_rows(rows: Vec<Vec<u32>>) -> Csr {
        let mut off = Vec::with_capacity(rows.len() + 1);
        off.push(0u32);
        let mut items = Vec::new();
        for r in rows {
            items.extend(r);
            off.push(items.len() as u32);
        }
        Csr { off, items }
    }

    /// Items of row `i`.
    pub fn row(&self, i: usize) -> &[u32] {
        &self.items[self.off[i] as usize..self.off[i + 1] as usize]
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.off.len() - 1
    }

    /// Total number of stored items.
    pub fn total(&self) -> usize {
        self.items.len()
    }

    /// Heap bytes held by the offsets and items.
    pub fn memory_bytes(&self) -> usize {
        (self.off.len() + self.items.len()) * std::mem::size_of::<u32>()
    }

    /// An empty CSR with room for `rows` rows and `items` items.
    fn with_capacity(rows: usize, items: usize) -> Csr {
        let mut off = Vec::with_capacity(rows + 1);
        off.push(0);
        Csr {
            off,
            items: Vec::with_capacity(items),
        }
    }

    /// Close the row holding every item pushed since the previous one.
    fn end_row(&mut self) {
        self.off.push(self.items.len() as u32);
    }
}

/// The four interaction lists, rows aligned with `Let::octs`.
///
/// Rows are populated only for local octants (U/W additionally only for
/// owned leaves); other rows are empty.
#[derive(Clone, Debug)]
pub struct Lists {
    /// Direct-interaction sources (includes β itself), sorted; after
    /// [`Lists::demote_small_wx`] also the W/X sources it moved here.
    pub u: Csr,
    /// Multipole-to-local sources.
    pub v: Csr,
    /// Multipole-to-target sources.
    pub w: Csr,
    /// Source-to-local sources.
    pub x: Csr,
}

impl Lists {
    /// Heap bytes held by the four CSRs.
    pub fn memory_bytes(&self) -> usize {
        self.u.memory_bytes()
            + self.v.memory_bytes()
            + self.w.memory_bytes()
            + self.x.memory_bytes()
    }

    /// Move every W/X pair that costs fewer kernel evaluations directly
    /// than through an `n_surf`-point surface into the direct rows — the
    /// standard KIFMM shortcut:
    ///
    /// - a W pair (β, α) moves when α is a leaf with fewer than `n_surf`
    ///   points: α's sources act on β's targets instead of its upward
    ///   equivalent surface;
    /// - an X pair (β, α) moves when β is an owned leaf with fewer than
    ///   `n_surf` points: α's sources act on β's targets instead of its
    ///   downward check surface.
    ///
    /// A moved pair becomes an exact direct interaction, so the move
    /// drops an approximation and adds none, and every LET leaf carries
    /// its points, so no new communication is needed. The two rules are
    /// duals: a W pair (β, α) moves exactly when the mirror X pair (α, β),
    /// held by α's owner, does. U rows stay sorted, and a moved pair never
    /// duplicates a U entry (each leaf pair is coupled once, see Table I).
    /// One O(U + W + X) pass; returns the number of moved W and X pairs.
    pub fn demote_small_wx(&mut self, l: &Let, n_surf: usize) -> (usize, usize) {
        if self.w.total() + self.x.total() == 0 {
            // Uniform trees: nothing to move, so leave the CSRs as built.
            return (0, 0);
        }
        let small = |i: usize| l.points_of(i).len() < n_surf;
        let n = self.u.rows();
        let (nu, nw, nx) = (self.u.total(), self.w.total(), self.x.total());
        let mut u = Csr::with_capacity(n, nu + nw + nx);
        let mut w = Csr::with_capacity(n, nw);
        let mut x = Csr::with_capacity(n, nx);
        let (mut moved_w, mut moved) = (Vec::new(), Vec::new());
        let mut counts = (0, 0);
        for bi in 0..n {
            moved_w.clear();
            for &ai in self.w.row(bi) {
                if l.is_leaf[ai as usize] && small(ai as usize) {
                    moved_w.push(ai);
                } else {
                    w.items.push(ai);
                }
            }
            let xs = self.x.row(bi);
            let moved_x = if l.owned[bi] && small(bi) {
                xs
            } else {
                x.items.extend_from_slice(xs);
                &[]
            };
            counts.0 += moved_w.len();
            counts.1 += moved_x.len();
            moved.clear();
            merge_sorted(&mut moved, &moved_w, moved_x);
            let start = u.items.len();
            merge_sorted(&mut u.items, self.u.row(bi), &moved);
            debug_assert!(
                u.items[start..].windows(2).all(|p| p[0] < p[1]),
                "moved pair already in U"
            );
            u.end_row();
            w.end_row();
            x.end_row();
        }
        for csr in [&mut u, &mut w, &mut x] {
            // Exact capacities keep `memory_bytes` equal to the heap the
            // plan holds.
            csr.items.shrink_to_fit();
        }
        (self.u, self.w, self.x) = (u, w, x);
        counts
    }
}

/// Append the merge of two ascending rows to `out`. The select is
/// branch-free: the rows interleave unpredictably, and a mispredicted
/// branch per item would cost more than the rest of
/// [`Lists::demote_small_wx`].
fn merge_sorted(out: &mut Vec<u32>, a: &[u32], b: &[u32]) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let take_a = a[i] < b[j];
        out.push(if take_a { a[i] } else { b[j] });
        i += usize::from(take_a);
        j += usize::from(!take_a);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Minimum level present in the LET (bounds the X-list ancestor walk).
fn min_level(l: &Let) -> u32 {
    l.keys.iter().map(|&k| (k & 31) as u32).min().unwrap_or(0)
}

/// Level of octant `i`, read off the packed LET key.
#[inline]
fn level_of(l: &Let, i: usize) -> u32 {
    (l.keys[i] & 31) as u32
}

/// Last finest-grid rank covered by octant `i` (inclusive).
#[inline]
fn rank_end_of(l: &Let, i: usize) -> u128 {
    (l.keys[i] >> 5) + ((1u128 << (3 * (MAX_DEPTH - level_of(l, i)))) - 1)
}

/// Construction scaffold over the LET's linear octree, built in one
/// ascending pass plus a top-down level sweep. With it, every list row
/// reduces to child walks (`end` hops) and colleague-row scans — no
/// per-candidate binary search, no rank re-derivation.
///
/// The LET is ancestor-closed: an octant's user area (the colleagues of
/// its parent, see `user_ranks`) nests inside its parent's, so every
/// rank that receives an octant also receives all its ancestors, and the
/// local set contains its own ancestors by construction. Hence every
/// non-root octant's parent is present and `parent` chains reach the
/// root.
struct Scaffold {
    /// First index past octant `i`'s descendants (subtree end).
    end: Vec<u32>,
    /// Index of the present parent; `u32::MAX` at the root.
    parent: Vec<u32>,
    /// Colleague rows — same-level present octants touching `i`,
    /// ascending — populated for local octants (the only ones whose rows
    /// the lists read).
    coll: Csr,
}

impl Scaffold {
    /// Exact-level children of octant `i`: hop subtree extents, keeping
    /// entries one level below `i` (skipping would-be orphan tops, which
    /// an ancestor-closed LET does not contain).
    #[inline]
    fn children<F: FnMut(usize)>(&self, l: &Let, i: usize, mut f: F) {
        let lev = level_of(l, i) + 1;
        let mut c = i + 1;
        let e = self.end[i] as usize;
        while c < e {
            if level_of(l, c) == lev {
                f(c);
            }
            c = self.end[c] as usize;
        }
    }
}

/// Per-level batches below this size stay on the calling thread — the
/// scoped-spawn overhead would exceed the row work.
const COLL_PAR_MIN: usize = 512;

fn build_scaffold(l: &Let, par: SetupPar) -> Scaffold {
    let n = l.len();
    let mut end = vec![n as u32; n];
    let mut parent = vec![u32::MAX; n];
    let mut stack: Vec<u32> = Vec::new();
    for (i, par_slot) in parent.iter_mut().enumerate() {
        let rk = l.keys[i] >> 5;
        while let Some(&t) = stack.last() {
            if rank_end_of(l, t as usize) < rk {
                end[t as usize] = i as u32;
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&t) = stack.last() {
            // The deepest still-open octant is the nearest present
            // ancestor; ancestor-closure makes it the direct parent.
            if level_of(l, t as usize) + 1 == level_of(l, i) {
                *par_slot = t;
            }
        }
        debug_assert!(
            *par_slot != u32::MAX || level_of(l, i) == 0,
            "LET not ancestor-closed at octant {i}"
        );
        stack.push(i as u32);
    }

    // Colleague rows, top-down: the colleagues of β are among the
    // children of the colleagues of P(β) and β's own siblings, so each
    // level's rows come from the previous level's with child walks and
    // `touches` filters only. Levels are swept in order; rows within a
    // level are independent and mapped in parallel.
    let mut by_level: Vec<Vec<u32>> = vec![Vec::new(); MAX_DEPTH as usize + 1];
    for i in 0..n {
        if l.local[i] {
            by_level[level_of(l, i) as usize].push(i as u32);
        }
    }
    let mut rows: Vec<Vec<u32>> = vec![Vec::new(); n];
    let build_row = |rows: &[Vec<u32>], end: &[u32], i: usize| -> Vec<u32> {
        let beta = l.octs[i];
        let lev = level_of(l, i);
        let mut row = Vec::new();
        let pi = parent[i];
        if pi == u32::MAX {
            // A top octant inherits nothing. The root has no colleagues;
            // a non-root top cannot occur in an ancestor-closed LET.
            debug_assert_eq!(lev, 0);
            return row;
        }
        for &j in rows[pi as usize].iter().chain(std::iter::once(&pi)) {
            let j = j as usize;
            let mut c = j + 1;
            let e = end[j] as usize;
            while c < e {
                if c != i && level_of(l, c) == lev && l.octs[c].touches(&beta) {
                    row.push(c as u32);
                }
                c = end[c] as usize;
            }
        }
        row.sort_unstable();
        row
    };
    for bucket in by_level.iter_mut() {
        let idxs = std::mem::take(bucket);
        if idxs.is_empty() {
            continue;
        }
        let built: Vec<Vec<u32>> = if par.threads() > 1 && idxs.len() >= COLL_PAR_MIN {
            par_map_n(par.threads(), idxs.len(), |k| {
                build_row(&rows, &end, idxs[k] as usize)
            })
        } else {
            idxs.iter()
                .map(|&i| build_row(&rows, &end, i as usize))
                .collect()
        };
        for (&i, row) in idxs.iter().zip(built) {
            rows[i as usize] = row;
        }
    }

    Scaffold {
        end,
        parent,
        coll: Csr::from_rows(rows),
    }
}

/// Build all four lists for the local octants of the LET.
pub fn build_lists(l: &Let) -> Lists {
    build_lists_with(l, SetupPar::Serial)
}

/// [`build_lists`] with a parallelism budget: each octant's four rows
/// depend only on the (read-only) LET and scaffold, so rows are mapped
/// in parallel and reassembled in octant order — the CSRs are identical
/// to the serial build's, byte for byte.
pub fn build_lists_with(l: &Let, par: SetupPar) -> Lists {
    let n = l.len();
    let lmin = min_level(l);
    let sc = build_scaffold(l, par);

    type Rows = (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>);
    let rows: Vec<Rows> = par_map_n(par.threads(), n, |bi| {
        if !l.local[bi] {
            return Default::default();
        }
        let v = v_list(l, &sc, bi);
        let x = x_list(l, &sc, bi, lmin);
        let (u, w) = if l.owned[bi] {
            debug_assert!(l.is_leaf[bi]);
            (u_list(l, &sc, bi), w_list(l, &sc, bi))
        } else {
            (Vec::new(), Vec::new())
        };
        (u, v, w, x)
    });

    let mut u_rows = Vec::with_capacity(n);
    let mut v_rows = Vec::with_capacity(n);
    let mut w_rows = Vec::with_capacity(n);
    let mut x_rows = Vec::with_capacity(n);
    for (u, v, w, x) in rows {
        u_rows.push(u);
        v_rows.push(v);
        w_rows.push(w);
        x_rows.push(x);
    }
    Lists {
        u: Csr::from_rows(u_rows),
        v: Csr::from_rows(v_rows),
        w: Csr::from_rows(w_rows),
        x: Csr::from_rows(x_rows),
    }
}

/// Is `k` among the row's octants? Rows are index-ascending, hence
/// key-ascending: a short binary search on the packed keys.
#[inline]
fn row_contains(l: &Let, row: &[u32], k: &MortonKey) -> bool {
    let sk = k.sort_key();
    row.binary_search_by(|&i| l.keys[i as usize].cmp(&sk))
        .is_ok()
}

/// U(β): all leaves adjacent to β, plus β itself. β's colleague row
/// covers every direction with a same-level octant (leaf colleagues join
/// directly, finer ones by descent); directions without one are covered
/// by a coarser leaf found by the ancestor walk.
fn u_list(l: &Let, sc: &Scaffold, bi: usize) -> Vec<u32> {
    let beta = l.octs[bi];
    let mut out = vec![bi as u32];
    let row = sc.coll.row(bi);
    for &ci in row {
        let c = ci as usize;
        if l.is_leaf[c] {
            if l.octs[c].is_adjacent(&beta) {
                out.push(ci);
            }
        } else {
            descend_adjacent_leaves(l, sc, &beta, c, &mut out);
        }
    }
    let cols = beta.colleagues();
    if row.len() != cols.len() {
        for nb in &cols {
            if row_contains(l, row, nb) {
                continue;
            }
            let (s, e) = l.subtree_range(nb);
            if s < e {
                // Finer structure under an absent neighbor — walk its
                // present tops (defensive; an ancestor-closed LET never
                // produces this shape).
                let mut t = s;
                while t < e {
                    descend_adjacent_leaves(l, sc, &beta, t, &mut out);
                    t = sc.end[t] as usize;
                }
            } else {
                // Neighbor volume covered by a coarser leaf.
                let mut a = *nb;
                while let Some(par) = a.parent() {
                    if let Some(i) = l.find(&par) {
                        if l.is_leaf[i] {
                            out.push(i as u32);
                        }
                        break;
                    }
                    a = par;
                }
            }
        }
    }
    sorted_dedup(&mut out);
    out
}

/// Collect leaves within the subtree of present octant `i` that are
/// adjacent to β, pruning branches whose closure misses β.
fn descend_adjacent_leaves(l: &Let, sc: &Scaffold, beta: &MortonKey, i: usize, out: &mut Vec<u32>) {
    if !l.octs[i].touches(beta) {
        return;
    }
    if l.is_leaf[i] {
        if l.octs[i].is_adjacent(beta) {
            out.push(i as u32);
        }
        return;
    }
    let mut c = i + 1;
    let e = sc.end[i] as usize;
    while c < e {
        descend_adjacent_leaves(l, sc, beta, c, out);
        c = sc.end[c] as usize;
    }
}

/// V(β): children of colleagues of P(β) that are present and not adjacent
/// to β.
fn v_list(l: &Let, sc: &Scaffold, bi: usize) -> Vec<u32> {
    let beta = l.octs[bi];
    if sc.parent[bi] == u32::MAX {
        return Vec::new();
    }
    let lev = level_of(l, bi);
    let mut out = Vec::new();
    for &j in sc.coll.row(sc.parent[bi] as usize) {
        let j = j as usize;
        let mut c = j + 1;
        let e = sc.end[j] as usize;
        while c < e {
            if level_of(l, c) == lev && !l.octs[c].is_adjacent(&beta) {
                out.push(c as u32);
            }
            c = sc.end[c] as usize;
        }
    }
    sorted_dedup(&mut out);
    out
}

/// W(β): descend through β's colleagues; emit children that lose
/// adjacency while their parent keeps it.
fn w_list(l: &Let, sc: &Scaffold, bi: usize) -> Vec<u32> {
    let beta = l.octs[bi];
    let mut out = Vec::new();
    for &ci in sc.coll.row(bi) {
        if !l.is_leaf[ci as usize] {
            w_descend(l, sc, &beta, ci as usize, &mut out);
        }
    }
    sorted_dedup(&mut out);
    out
}

/// Invariant: `o` is adjacent to β and is a non-leaf present in the LET.
fn w_descend(l: &Let, sc: &Scaffold, beta: &MortonKey, o: usize, out: &mut Vec<u32>) {
    sc.children(l, o, |i| {
        if l.octs[i].is_adjacent(beta) {
            if !l.is_leaf[i] {
                w_descend(l, sc, beta, i, out);
            }
        } else {
            // P(ch) = o is adjacent, ch is not: a W member (leaf or not).
            out.push(i as u32);
        }
    });
}

/// X(β): leaves α coarser than β with β inside a colleague of α, `P(β)`
/// adjacent to α, and β not adjacent to α (the dual of W). β's present
/// ancestors are exactly its `parent` chain, and the same-level octants
/// adjacent to each ancestor are its colleague row.
fn x_list(l: &Let, sc: &Scaffold, bi: usize, lmin: u32) -> Vec<u32> {
    let beta = l.octs[bi];
    let Some(par) = beta.parent() else {
        return Vec::new();
    };
    let floor = lmin.max(1);
    let mut out = Vec::new();
    let mut a = bi;
    while sc.parent[a] != u32::MAX {
        let pi = sc.parent[a] as usize;
        if level_of(l, pi) < floor {
            break;
        }
        for &ai in sc.coll.row(pi) {
            if !l.is_leaf[ai as usize] {
                continue;
            }
            let alpha = l.octs[ai as usize];
            if par.is_adjacent(&alpha) && !beta.is_adjacent(&alpha) {
                out.push(ai);
            }
        }
        a = pi;
    }
    sorted_dedup(&mut out);
    out
}

/// Work estimate per owned leaf for the load balancer (§III-B): direct
/// U-list pair counts plus weighted list degrees for the translation work.
///
/// Rows of `weights` align with `Let::owned_indices()` (i.e. with the
/// owning `DistTree::leaves`). The balancer prices the lists as built,
/// before [`Lists::demote_small_wx`], so `C_WX` overcharges the pairs
/// that are later evaluated directly.
pub fn leaf_weights(l: &Let, lists: &Lists) -> Vec<f64> {
    // Relative per-item costs, calibrated loosely against the paper's
    // per-phase flop shares (Table II): direct pairs dominate, V-list
    // translations cost a grid convolution each, W/X a dense matvec each.
    const C_V: f64 = 200.0;
    const C_WX: f64 = 100.0;
    let mut out = Vec::new();
    for bi in l.owned_indices() {
        let n_beta = l.points_of(bi).len() as f64;
        let mut w = 0.0;
        for &ai in lists.u.row(bi) {
            w += n_beta * l.points_of(ai as usize).len() as f64;
        }
        w += C_V * lists.v.row(bi).len() as f64;
        w += C_WX * (lists.w.row(bi).len() + lists.x.row(bi).len()) as f64;
        out.push(w);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtree::points_to_octree;
    use crate::point::PointRec;
    use pfmm_mpisim::run;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<PointRec> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                PointRec::scalar(
                    [
                        rng.random::<f64>(),
                        rng.random::<f64>(),
                        rng.random::<f64>(),
                    ],
                    1.0,
                    i as u64,
                )
            })
            .collect()
    }

    fn ellipsoid_points(n: usize, seed: u64) -> Vec<PointRec> {
        // Nonuniform: points on a 1:1:4-ish ellipsoid surface (the paper's
        // nonuniform distribution), scaled into the unit cube.
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let theta = rng.random::<f64>() * std::f64::consts::PI;
                let phi = rng.random::<f64>() * 2.0 * std::f64::consts::PI;
                let x = 0.5 + 0.12 * theta.sin() * phi.cos();
                let y = 0.5 + 0.12 * theta.sin() * phi.sin();
                let z = 0.5 + 0.48 * theta.cos();
                PointRec::scalar([x, y, z.clamp(0.0, 0.999)], 1.0, i as u64)
            })
            .collect()
    }

    fn seq_let(pts: Vec<PointRec>, q: usize) -> Let {
        run(1, |c| {
            crate::lett::build_let(c, &points_to_octree(c, pts.clone(), q))
        })
        .pop()
        .expect("one rank")
    }

    /// Quantifier-level reference implementation of Table I.
    struct Brute<'a> {
        l: &'a Let,
    }

    impl<'a> Brute<'a> {
        fn u(&self, bi: usize) -> Vec<u32> {
            let beta = self.l.octs[bi];
            let mut out: Vec<u32> = (0..self.l.len())
                .filter(|&ai| {
                    self.l.is_leaf[ai] && (ai == bi || self.l.octs[ai].is_adjacent(&beta))
                })
                .map(|ai| ai as u32)
                .collect();
            out.sort_unstable();
            out
        }

        fn v(&self, bi: usize) -> Vec<u32> {
            let beta = self.l.octs[bi];
            let Some(pb) = beta.parent() else {
                return Vec::new();
            };
            (0..self.l.len())
                .filter(|&ai| {
                    let a = self.l.octs[ai];
                    a.level() == beta.level()
                        && a != beta
                        && a.parent()
                            .map(|pa| pa != pb && pa.is_adjacent(&pb))
                            .unwrap_or(false)
                        && !a.is_adjacent(&beta)
                })
                .map(|ai| ai as u32)
                .collect()
        }

        fn w(&self, bi: usize) -> Vec<u32> {
            let beta = self.l.octs[bi];
            let colleagues = beta.colleagues();
            (0..self.l.len())
                .filter(|&ai| {
                    let a = self.l.octs[ai];
                    colleagues.iter().any(|c| c.is_ancestor_of(&a))
                        && !a.is_adjacent(&beta)
                        && a.parent().map(|pa| pa.is_adjacent(&beta)).unwrap_or(false)
                })
                .map(|ai| ai as u32)
                .collect()
        }

        fn x(&self, bi: usize) -> Vec<u32> {
            // α ∈ X(β) iff β ∈ W(α), α a leaf.
            let beta_key = self.l.octs[bi];
            (0..self.l.len())
                .filter(|&ai| {
                    if !self.l.is_leaf[ai] {
                        return false;
                    }
                    let alpha = self.l.octs[ai];
                    let in_w_of_alpha = alpha
                        .colleagues()
                        .iter()
                        .any(|c| c.is_ancestor_of(&beta_key))
                        && !beta_key.is_adjacent(&alpha)
                        && beta_key
                            .parent()
                            .map(|pb| pb.is_adjacent(&alpha))
                            .unwrap_or(false);
                    in_w_of_alpha
                })
                .map(|ai| ai as u32)
                .collect()
        }
    }

    fn check_against_brute(l: &Let) {
        let lists = build_lists(l);
        let brute = Brute { l };
        for bi in 0..l.len() {
            if !l.local[bi] {
                continue;
            }
            assert_eq!(
                lists.v.row(bi),
                brute.v(bi).as_slice(),
                "V({:?})",
                l.octs[bi]
            );
            assert_eq!(
                lists.x.row(bi),
                brute.x(bi).as_slice(),
                "X({:?})",
                l.octs[bi]
            );
            if l.owned[bi] {
                assert_eq!(
                    lists.u.row(bi),
                    brute.u(bi).as_slice(),
                    "U({:?})",
                    l.octs[bi]
                );
                assert_eq!(
                    lists.w.row(bi),
                    brute.w(bi).as_slice(),
                    "W({:?})",
                    l.octs[bi]
                );
            }
        }
    }

    #[test]
    fn lists_match_brute_force_uniform() {
        check_against_brute(&seq_let(random_points(300, 17), 8));
    }

    #[test]
    fn lists_match_brute_force_small_q() {
        check_against_brute(&seq_let(random_points(150, 23), 1));
    }

    #[test]
    fn lists_match_brute_force_nonuniform() {
        check_against_brute(&seq_let(ellipsoid_points(300, 5), 6));
    }

    #[test]
    fn u_and_v_are_symmetric() {
        let l = seq_let(random_points(250, 29), 4);
        let lists = build_lists(&l);
        for bi in 0..l.len() {
            for &ai in lists.u.row(bi) {
                assert!(
                    lists.u.row(ai as usize).contains(&(bi as u32)),
                    "U symmetry violated"
                );
            }
            for &ai in lists.v.row(bi) {
                assert!(
                    lists.v.row(ai as usize).contains(&(bi as u32)),
                    "V symmetry violated"
                );
            }
        }
    }

    #[test]
    fn w_and_x_are_dual() {
        let l = seq_let(random_points(250, 37), 4);
        let lists = build_lists(&l);
        for bi in 0..l.len() {
            for &ai in lists.w.row(bi) {
                assert!(
                    lists.x.row(ai as usize).contains(&(bi as u32)),
                    "β ∈ W ⇒ dual X missing"
                );
            }
            for &ai in lists.x.row(bi) {
                assert!(
                    lists.w.row(ai as usize).contains(&(bi as u32)),
                    "β ∈ X ⇒ dual W missing"
                );
            }
        }
    }

    /// Every pair of leaves must interact exactly once: either directly
    /// (U) or through exactly one V/W/X coupling on the paths to their
    /// ancestors. This is the FMM's partition-of-unity over the far field.
    #[test]
    fn interaction_partition_of_unity() {
        let l = seq_let(random_points(120, 41), 3);
        let lists = build_lists(&l);
        let leaf_idx: Vec<usize> = (0..l.len()).filter(|&i| l.is_leaf[i]).collect();
        for &ti in &leaf_idx {
            for &si in &leaf_idx {
                let mut count = 0usize;
                // U: direct.
                if lists.u.row(ti).contains(&(si as u32)) {
                    count += 1;
                }
                // V: some ancestor-or-self of target has in its V-list
                // some ancestor-or-self of source.
                let t_chain: Vec<u32> = {
                    let mut v = vec![ti as u32];
                    v.extend(
                        l.octs[ti]
                            .ancestors()
                            .iter()
                            .filter_map(|a| l.find(a))
                            .map(|i| i as u32),
                    );
                    v
                };
                let s_chain: Vec<u32> = {
                    let mut v = vec![si as u32];
                    v.extend(
                        l.octs[si]
                            .ancestors()
                            .iter()
                            .filter_map(|a| l.find(a))
                            .map(|i| i as u32),
                    );
                    v
                };
                for &tc in &t_chain {
                    for &sc in &s_chain {
                        if lists.v.row(tc as usize).contains(&sc) {
                            count += 1;
                        }
                    }
                }
                // W: target leaf's W contains an ancestor-or-self of source.
                for &sc in &s_chain {
                    if lists.w.row(ti).contains(&sc) {
                        count += 1;
                    }
                }
                // X: some ancestor-or-self of target has source leaf in X.
                for &tc in &t_chain {
                    if lists.x.row(tc as usize).contains(&(si as u32)) {
                        count += 1;
                    }
                }
                assert_eq!(
                    count, 1,
                    "leaf pair ({:?} ← {:?}) covered {count} times",
                    l.octs[ti], l.octs[si]
                );
            }
        }
    }

    #[test]
    fn distributed_lists_cover_owned_leaves() {
        let p = 4;
        let outs = run(p, |c| {
            let t = points_to_octree(c, random_points(400, 47), 6);
            let l = crate::lett::build_let(c, &t);
            let lists = build_lists(&l);
            // Every owned leaf must have itself in U.
            for bi in l.owned_indices() {
                assert!(lists.u.row(bi).contains(&(bi as u32)));
            }
            (l.owned_indices().len(), lists.u.total())
        });
        let total_owned: usize = outs.iter().map(|(o, _)| o).sum();
        assert!(total_owned > 0);
    }

    #[test]
    fn parallel_rows_match_serial() {
        for (pts, q) in [
            (random_points(300, 61), 6usize),
            (ellipsoid_points(300, 8), 4),
        ] {
            let l = seq_let(pts, q);
            let serial = build_lists(&l);
            for t in [1usize, 2, 8] {
                let par = build_lists_with(&l, SetupPar::Threads(t));
                for bi in 0..l.len() {
                    assert_eq!(par.u.row(bi), serial.u.row(bi), "U row {bi} t={t}");
                    assert_eq!(par.v.row(bi), serial.v.row(bi), "V row {bi} t={t}");
                    assert_eq!(par.w.row(bi), serial.w.row(bi), "W row {bi} t={t}");
                    assert_eq!(par.x.row(bi), serial.x.row(bi), "X row {bi} t={t}");
                }
            }
        }
    }

    /// Demotion conserves pairs: every W/X pair is kept or moved exactly
    /// once, moves exactly the pairs the size test selects, never
    /// duplicates a U entry, and leaves every row sorted — on each rank
    /// of a distributed adaptive tree, ghosts included.
    #[test]
    fn demotion_moves_each_small_pair_exactly_once() {
        let (q, n_surf) = (12, 8);
        let outs = run(2, |c| {
            let mine: Vec<PointRec> = ellipsoid_points(1200, 13)
                .into_iter()
                .skip(c.rank())
                .step_by(2)
                .collect();
            let l = crate::lett::build_let(c, &points_to_octree(c, mine, q));
            let before = build_lists(&l);
            let mut after = before.clone();
            let moved = after.demote_small_wx(&l, n_surf);
            let small = |i: usize| l.is_leaf[i] && l.points_of(i).len() < n_surf;
            let sorted = |r: &[u32]| r.windows(2).all(|p| p[0] < p[1]);
            let mut mix = [0usize; 4];
            for bi in 0..l.len() {
                let (u0, u1) = (before.u.row(bi), after.u.row(bi));
                let (w1, x1) = (after.w.row(bi), after.x.row(bi));
                assert!(sorted(u1) && sorted(w1) && sorted(x1), "row {bi} sorted");
                assert_eq!(after.v.row(bi), before.v.row(bi));
                let mut want_u = u0.to_vec();
                for &ai in before.w.row(bi) {
                    let go = small(ai as usize);
                    assert!(!u0.contains(&ai), "W pair already direct");
                    assert_eq!(u1.contains(&ai), go, "W ({bi}, {ai}) moved iff small");
                    assert_eq!(w1.contains(&ai), !go, "W ({bi}, {ai}) kept iff not");
                    mix[usize::from(!go)] += 1;
                    want_u.extend(go.then_some(ai));
                }
                let go = l.owned[bi] && small(bi);
                for &ai in before.x.row(bi) {
                    assert!(!u0.contains(&ai), "X pair already direct");
                    assert_eq!(u1.contains(&ai), go, "X ({bi}, {ai}) moved iff small");
                    assert_eq!(x1.contains(&ai), !go, "X ({bi}, {ai}) kept iff not");
                    if l.owned[bi] {
                        mix[2 + usize::from(!go)] += 1;
                    }
                    want_u.extend(go.then_some(ai));
                }
                want_u.sort_unstable();
                assert_eq!(u1, want_u.as_slice(), "U row {bi} = U ∪ moved W ∪ moved X");
            }
            assert_eq!(after.w.total() + moved.0, before.w.total());
            assert_eq!(after.x.total() + moved.1, before.x.total());
            assert_eq!(after.u.total(), before.u.total() + moved.0 + moved.1);
            mix
        });
        for mix in outs {
            assert!(
                mix.iter().all(|&k| k > 0),
                "[W moved, W kept, X moved, X kept] = {mix:?}"
            );
        }
    }

    #[test]
    fn weights_are_positive_for_occupied_leaves() {
        let l = seq_let(random_points(200, 53), 5);
        let lists = build_lists(&l);
        let w = leaf_weights(&l, &lists);
        assert_eq!(w.len(), l.owned_indices().len());
        for (bi, wi) in l.owned_indices().into_iter().zip(&w) {
            if !l.points_of(bi).is_empty() {
                assert!(*wi > 0.0);
            }
        }
    }
}
