//! Reusable evaluation plans: build the tree, LET and lists once, then
//! evaluate repeatedly with new densities.
//!
//! This is how FMMs are actually consumed by applications — as the
//! matrix-vector product inside an iterative solver (the paper's target
//! application is Stokes flow, where each solver iteration re-evaluates
//! the same geometry with updated force densities). A [`FmmPlan`] caches
//! everything that depends only on the point positions; [`Fmm::apply`]
//! refreshes the ghost copies of the densities with a deterministic
//! point-to-point exchange (both sides derive the same schedule from the
//! region fence — no negotiation round) and reruns the evaluation phases.
//!
//! This module holds the only setup pipeline (Morton sort → octree → LET
//! → lists → optional work-weighted repartition and rebuild → small W/X
//! pairs demoted to direct → plan precompute) and the only apply body;
//! the one-shot [`Fmm::evaluate`] is a plan followed by one apply.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use pfmm_mpisim::{Comm, CommStats};
use pfmm_trace::{Tracer, TID_MAIN};
use pfmm_tree::{
    bitonic_sort_points_with, build_let_with, build_lists_with, lists::leaf_weights,
    octree_from_sorted_with, repartition_by_weight, sample_sort_points_with, user_ranks, Let,
    Lists, PointRec,
};

use crate::driver::{Fmm, FmmConfig, SortKind};
use crate::exec::{run_phases, EvalData};
use crate::profile::Profile;
use crate::workspace::EvalWorkspace;

/// Monotone plan generation counter: every plan gets a process-unique
/// uid, and workspaces carry the uid of the plan they were sized for —
/// the tag a workspace pool checks before reusing buffers.
static NEXT_PLAN_UID: AtomicU64 = AtomicU64::new(1);

/// A 128-bit content fingerprint of (kernel, config, communicator size,
/// point geometry) — everything [`Fmm::plan`] depends on. Two calls with
/// equal fingerprints build byte-identical plans, so the serve layer can
/// key its plan cache on this value alone.
///
/// The fingerprint covers point *positions and gids* but not densities
/// (a plan is density-independent by construction), and it is sensitive
/// to input point order: a permuted geometry hashes differently and is
/// treated as a distinct — equally valid — cache entry.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlanFingerprint(pub u128);

impl std::fmt::Display for PlanFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// FNV-1a, 128-bit: deterministic across platforms, fast enough to hash
/// a 100k-point geometry in well under a millisecond, and with a 2⁻¹²⁸
/// accidental-collision probability on non-adversarial inputs.
struct Fnv128(u128);

impl Fnv128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;

    fn new() -> Fnv128 {
        Fnv128(Self::OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

/// Fingerprint the plan inputs for this rank: kernel identity, the
/// semantically relevant [`FmmConfig`] fields, the communicator size, and
/// the point records (gid + exact position bits, densities excluded).
pub fn plan_fingerprint(
    kernel_name: &str,
    cfg: &FmmConfig,
    comm_size: usize,
    points: &[PointRec],
) -> PlanFingerprint {
    let mut h = Fnv128::new();
    h.write(kernel_name.as_bytes());
    h.write_u64(cfg.order as u64);
    h.write_u64(cfg.q as u64);
    h.write_u64(cfg.m2l as u64);
    h.write_u64(cfg.balance as u64);
    h.write_u64(cfg.reduction as u64);
    h.write_u64(cfg.sort as u64);
    h.write_u64(comm_size as u64);
    h.write_u64(points.len() as u64);
    for p in points {
        h.write_u64(p.gid);
        h.write_u64(p.pos[0].to_bits());
        h.write_u64(p.pos[1].to_bits());
        h.write_u64(p.pos[2].to_bits());
    }
    PlanFingerprint(h.0)
}

/// A frozen FMM setup for one point geometry.
pub struct FmmPlan {
    pub(crate) l: Let,
    pub(crate) lists: Lists,
    data: EvalData,
    /// Per destination rank: owned point-carrying leaf indices whose
    /// densities that rank needs (Morton order).
    send_plan: Vec<(usize, Vec<usize>)>,
    /// Per source rank: ghost point-carrying leaf indices this rank will
    /// receive (Morton order, mirror of the sender's list).
    recv_plan: Vec<(usize, Vec<usize>)>,
    /// Gids of the points this rank owns, in storage order.
    pub(crate) owned_gids: Vec<u64>,
    /// Density components per point.
    sd: usize,
    /// Potential components per point.
    td: usize,
    /// Process-unique generation tag (see [`EvalWorkspace::plan_uid`]).
    uid: u64,
    /// The plan-owned evaluation workspace, created lazily on the first
    /// apply so a freshly built plan stays cheap to inspect; external
    /// workspaces (serve-layer pools) go through [`Fmm::apply_ws`] and
    /// leave this slot empty. The one-shot evaluation builds it inside
    /// the timed setup and takes it out for its single apply.
    pub(crate) ws: Option<EvalWorkspace>,
    /// Seconds of the setup stages that built this plan (`sort_secs`,
    /// `tree_secs`, `lists_secs`, `plan_secs`, `setup_secs`; every other
    /// field zero).
    pub(crate) setup: Profile,
}

impl FmmPlan {
    /// Gids of the owned points; [`Fmm::apply`] expects densities in this
    /// order (packed `source_dim` per point).
    pub fn owned_gids(&self) -> &[u64] {
        &self.owned_gids
    }

    /// Process-unique generation tag; workspaces built for this plan
    /// carry it, and every external-workspace entry point rebuilds on a
    /// mismatch.
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Number of points this rank owns.
    pub fn num_owned(&self) -> usize {
        self.owned_gids.len()
    }

    /// Octants in this rank's LET.
    pub fn num_octants(&self) -> usize {
        self.l.len()
    }

    /// The densities of the owned point records, packed in
    /// [`FmmPlan::owned_gids`] order.
    pub(crate) fn owned_densities(&self) -> Vec<f64> {
        (0..self.l.len())
            .filter(|&i| self.l.owned[i])
            .flat_map(|i| self.data.leaf_den[i].iter().copied())
            .collect()
    }

    /// Heap bytes held by the plan (LET + lists + evaluation workspace +
    /// exchange schedules), computed as element counts × element sizes.
    /// This is what the serve-layer plan cache charges against its byte
    /// budget, so eviction pressure tracks the real footprint of the
    /// cached geometry. The batched M2L's kernel-spectrum table belongs
    /// to the `Fmm` and is shared by all its plans, so it is not counted
    /// here (see `FftBatchedM2l::table`).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let sched = |plan: &Vec<(usize, Vec<usize>)>| {
            plan.iter()
                .map(|(_, v)| v.len() * size_of::<usize>())
                .sum::<usize>()
                + plan.len() * size_of::<(usize, Vec<usize>)>()
        };
        self.l.memory_bytes()
            + self.lists.memory_bytes()
            + self.data.memory_bytes()
            + sched(&self.send_plan)
            + sched(&self.recv_plan)
            + self.owned_gids.len() * size_of::<u64>()
            + self.ws.as_ref().map_or(0, |w| w.memory_bytes())
            + size_of::<FmmPlan>()
    }
}

const TAG_DEN: u32 = 0x20;

/// Dispatch to the configured sort backend (bitonic degrades to sample
/// sort on non-power-of-two communicators).
pub(crate) fn sort_points(
    fmm: &Fmm,
    c: &Comm,
    points: Vec<PointRec>,
) -> (Vec<PointRec>, Vec<u128>) {
    let par = fmm.setup_par();
    match fmm.config().sort {
        SortKind::Bitonic if c.size().is_power_of_two() => bitonic_sort_points_with(c, points, par),
        _ => sample_sort_points_with(c, points, par),
    }
}

impl Fmm {
    /// Build a reusable plan: sort, tree, LET, lists, load balancing —
    /// everything except the density-dependent evaluation.
    pub fn plan(&self, c: &Comm, points: Vec<PointRec>) -> FmmPlan {
        self.plan_traced(c, points, &Tracer::off(), false)
    }

    /// The one setup pipeline, behind both [`Fmm::plan`] and
    /// [`Fmm::evaluate`]. Each stage is timed on the tracer's clock into
    /// [`FmmPlan::setup`] and traced as a *disjoint* sibling span on the
    /// driver lane ("Sort", then "Setup:Tree" / "Setup:Lists" /
    /// "Setup:Plan", with the balance rebuild emitting a second
    /// tree/lists pair) — never nested, so the Chrome per-lane nesting
    /// invariant holds at any clock resolution. `eager_ws` builds the
    /// evaluation workspace inside the plan stage, so a one-shot
    /// evaluation's setup covers everything before its first phase.
    pub(crate) fn plan_traced(
        &self,
        c: &Comm,
        points: Vec<PointRec>,
        tracer: &Tracer,
        eager_ws: bool,
    ) -> FmmPlan {
        crate::obs::record_plan_build(self.kernel().name());
        let sd = self.kernel().source_dim();
        let td = self.kernel().target_dim();
        let par = self.setup_par();
        let uid = NEXT_PLAN_UID.fetch_add(1, Ordering::Relaxed);
        let rank = c.rank() as u32;
        let mut setup = Profile::default();
        let start = tracer.now_us();
        let mut mark = start;
        // Close the stage that began at `mark`: charge its seconds and
        // emit its span.
        let mut stage = |name: &'static str, secs: &mut f64| {
            let now = tracer.now_us();
            *secs += (now - mark) * 1e-6;
            tracer.record_span(rank, TID_MAIN, name, "phase", mark, now, &[]);
            mark = now;
        };

        let (sorted, region) = sort_points(self, c, points);
        stage("Sort", &mut setup.sort_secs);
        let mut tree = octree_from_sorted_with(c, sorted, region, self.config().q, par);
        let mut rebalance = self.config().balance && c.size() > 1;
        let (l, mut lists) = loop {
            let l = build_let_with(c, &tree, par);
            stage("Setup:Tree", &mut setup.tree_secs);
            let lists = build_lists_with(&l, par);
            stage("Setup:Lists", &mut setup.lists_secs);
            if !std::mem::take(&mut rebalance) {
                break (l, lists);
            }
            // Work-weighted repartition (§III-B), then one rebuild.
            tree = repartition_by_weight(c, tree, &leaf_weights(&l, &lists));
        };
        drop(tree);
        // Small W/X pairs run as direct interactions; decided after the
        // final repartition, whose weights price the lists as built.
        lists.demote_small_wx(&l, self.ops().n_surf());
        let data = EvalData::new_with(&l, sd, par);
        self.ops().warm(data.max_level, par);
        let ws = eager_ws.then(|| EvalWorkspace::new(self, &l, &lists, uid));

        // Deterministic ghost-density exchange schedule. Sender side: my
        // owned point-carrying leaves, routed by the same user test as
        // the LET exchange. Receiver side: my point-carrying ghost
        // leaves, grouped by owner. Both sides enumerate octants in
        // Morton order against the same region fence, so the k-th record
        // sent matches the k-th expected.
        let p = c.size();
        let my = c.rank();
        let mut send_plan: Vec<Vec<usize>> = vec![Vec::new(); p];
        let mut recv_plan: Vec<Vec<usize>> = vec![Vec::new(); p];
        let mut users = Vec::new();
        let owner_of = |rk: u128| l.region[1..p].partition_point(|&s| s <= rk);
        for i in 0..l.len() {
            if !l.is_leaf[i] || l.points_of(i).is_empty() {
                continue;
            }
            if l.owned[i] {
                user_ranks(&l.octs[i], &l.region, &mut users);
                for &k in &users {
                    if k != my {
                        send_plan[k].push(i);
                    }
                }
            } else {
                recv_plan[owner_of(l.octs[i].rank())].push(i);
            }
        }

        let mut owned_gids = Vec::new();
        for i in 0..l.len() {
            if l.owned[i] {
                owned_gids.extend(l.points_of(i).iter().map(|pt| pt.gid));
            }
        }
        stage("Setup:Plan", &mut setup.plan_secs);
        setup.setup_secs = (mark - start) * 1e-6;

        FmmPlan {
            l,
            lists,
            data,
            send_plan: send_plan
                .into_iter()
                .enumerate()
                .filter(|(_, v)| !v.is_empty())
                .collect(),
            recv_plan: recv_plan
                .into_iter()
                .enumerate()
                .filter(|(_, v)| !v.is_empty())
                .collect(),
            owned_gids,
            sd,
            td,
            uid,
            ws,
            setup,
        }
    }

    /// Re-evaluate a plan with new densities (packed `source_dim` per
    /// owned point, aligned with [`FmmPlan::owned_gids`]). Returns the
    /// potentials in the same order plus the evaluation profile.
    ///
    /// # Panics
    /// Panics if `densities.len() != plan.num_owned() * source_dim`.
    pub fn apply(&self, c: &Comm, plan: &mut FmmPlan, densities: &[f64]) -> (Vec<f64>, Profile) {
        let mut pot = Vec::with_capacity(plan.num_owned() * plan.td);
        let prof = self.apply_into(c, plan, densities, &mut pot);
        (pot, prof)
    }

    /// [`Fmm::apply`] writing into a caller-provided output vector. The
    /// plan's own workspace is created on the first call and reused
    /// afterwards, so a warm call — same plan, same `out` — performs no
    /// steady-state heap allocations (`tests/alloc_gate.rs`).
    ///
    /// # Panics
    /// Panics if `densities.len() != plan.num_owned() * source_dim`.
    pub fn apply_into(
        &self,
        c: &Comm,
        plan: &mut FmmPlan,
        densities: &[f64],
        out: &mut Vec<f64>,
    ) -> Profile {
        let mut ws = plan.ws.take().unwrap_or_else(|| self.workspace(plan));
        let prof = self.apply_ws(c, plan, &mut ws, densities, out);
        plan.ws = Some(ws);
        prof
    }

    /// [`Fmm::apply_into`] with an external (pooled) workspace instead of
    /// the plan-owned one — the serve layer's path. A workspace tagged
    /// for a different plan is rebuilt in place first, so stale buffers
    /// can never leak across plan generations; a matching workspace is
    /// reused as-is.
    ///
    /// # Panics
    /// Panics if `densities.len() != plan.num_owned() * source_dim`.
    pub fn apply_ws(
        &self,
        c: &Comm,
        plan: &mut FmmPlan,
        ws: &mut EvalWorkspace,
        densities: &[f64],
        out: &mut Vec<f64>,
    ) -> Profile {
        assert_eq!(
            densities.len(),
            plan.num_owned() * plan.sd,
            "densities must align with owned_gids"
        );
        if ws.plan_uid() != plan.uid {
            *ws = self.workspace(plan);
        }
        let tracer = Tracer::off();
        self.apply_core(c, plan, ws, densities, out, &tracer, Profile::default())
            .0
    }

    /// Build a fresh evaluation workspace for `plan`, sized from its LET
    /// and lists. This is how a serve-layer pool materializes entries on
    /// a miss.
    pub fn workspace(&self, plan: &FmmPlan) -> EvalWorkspace {
        EvalWorkspace::new(self, &plan.l, &plan.lists, plan.uid)
    }

    /// The one apply body: scatter densities, refresh ghosts, run the
    /// phases out of the workspace under `tracer`, collect the owned
    /// potentials. Phase seconds and flops accumulate into `prof`, which
    /// is returned with the Comm-phase traffic.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn apply_core(
        &self,
        c: &Comm,
        plan: &mut FmmPlan,
        ws: &mut EvalWorkspace,
        densities: &[f64],
        out: &mut Vec<f64>,
        tracer: &Tracer,
        mut prof: Profile,
    ) -> (Profile, CommStats) {
        let (sd, td) = (plan.sd, plan.td);
        let FmmPlan {
            l,
            lists,
            data,
            send_plan,
            recv_plan,
            ..
        } = plan;
        ws.record_apply();
        // Scatter the new densities into the owned leaves.
        let mut cursor = 0usize;
        for i in 0..l.len() {
            if !l.owned[i] {
                continue;
            }
            let npts = data.leaf_pos[i].len();
            data.leaf_den[i].clear();
            data.leaf_den[i].extend_from_slice(&densities[cursor * sd..(cursor + npts) * sd]);
            cursor += npts;
        }
        debug_assert_eq!(densities.len(), cursor * sd, "aligned with owned_gids");

        // Refresh ghost copies (U- and X-list sources on other ranks).
        for (dest, leaves) in send_plan.iter() {
            let mut buf = Vec::new();
            for &i in leaves {
                buf.extend_from_slice(&data.leaf_den[i]);
            }
            c.send_vec(*dest, TAG_DEN, buf);
        }
        for (src, leaves) in recv_plan.iter() {
            let buf = c.recv::<f64>(*src, TAG_DEN);
            let mut off = 0usize;
            for &i in leaves {
                let n = data.leaf_pos[i].len() * sd;
                data.leaf_den[i].clear();
                data.leaf_den[i].extend_from_slice(&buf[off..off + n]);
                off += n;
            }
            debug_assert_eq!(off, buf.len(), "ghost density schedule agreed");
        }

        // Run the evaluation phases and collect the owned potentials.
        let t0 = Instant::now();
        let comm_reduce = run_phases(self, c, l, lists, data, ws, &mut prof, tracer);
        prof.total_secs = t0.elapsed().as_secs_f64();
        out.clear();
        for i in 0..l.len() {
            if !l.owned[i] {
                continue;
            }
            let off = l.pt_off[i];
            let n = data.leaf_pos[i].len();
            out.extend_from_slice(&ws.f[off * td..(off + n) * td]);
        }
        (prof, comm_reduce)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distrib::{randomize_densities, uniform_cube};
    use crate::driver::{gather_potentials, FmmConfig};
    use pfmm_kernels::Laplace;
    use pfmm_mpisim::run;
    use std::collections::HashMap;
    use std::sync::Arc;

    fn fmm() -> Fmm {
        Fmm::new(
            Arc::new(Laplace),
            FmmConfig {
                order: 4,
                q: 30,
                ..Default::default()
            },
        )
    }

    /// plan + apply_into with the original densities reproduces
    /// evaluate() bitwise — the one-shot path is a plan followed by one
    /// apply.
    #[test]
    fn apply_matches_evaluate() {
        let mut pts = uniform_cube(1200, 401, 0);
        randomize_densities(&mut pts, 1, 3);
        let f = fmm();
        for p in [1usize, 2, 4] {
            let via_eval: HashMap<u64, f64> = run(p, |c| {
                let mine: Vec<_> = pts.iter().skip(c.rank()).step_by(p).copied().collect();
                let res = f.evaluate(c, mine);
                gather_potentials(c, &res, 1)
            })
            .pop()
            .expect("rank 0")
            .into_iter()
            .map(|(g, v)| (g, v[0]))
            .collect();

            let via_plan: HashMap<u64, f64> = run(p, |c| {
                let mine: Vec<_> = pts.iter().skip(c.rank()).step_by(p).copied().collect();
                let mut plan = f.plan(c, mine);
                let den: Vec<f64> = plan
                    .owned_gids()
                    .iter()
                    .map(|g| pts[*g as usize].den[0])
                    .collect();
                let mut pot = Vec::new();
                f.apply_into(c, &mut plan, &den, &mut pot);
                let pairs: Vec<(u64, f64)> = plan.owned_gids().iter().copied().zip(pot).collect();
                pfmm_mpisim::collectives::allgatherv(c, &pairs)
            })
            .pop()
            .expect("rank 0")
            .into_iter()
            .collect();

            assert_eq!(via_eval.len(), via_plan.len());
            for (gid, want) in &via_eval {
                let got = via_plan[gid];
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "p={p} gid={gid}: {got} vs {want}"
                );
            }
        }
    }

    /// Re-applying with new densities must match a fresh evaluation with
    /// those densities — the ghost refresh really works.
    #[test]
    fn apply_with_new_densities() {
        let p = 4;
        let mut pts = uniform_cube(1500, 409, 0);
        randomize_densities(&mut pts, 1, 5);
        let mut pts2 = pts.clone();
        randomize_densities(&mut pts2, 1, 99);
        let f = fmm();

        let fresh: HashMap<u64, f64> = run(p, |c| {
            let mine: Vec<_> = pts2.iter().skip(c.rank()).step_by(p).copied().collect();
            let res = f.evaluate(c, mine);
            gather_potentials(c, &res, 1)
        })
        .pop()
        .expect("rank 0")
        .into_iter()
        .map(|(g, v)| (g, v[0]))
        .collect();

        let planned: HashMap<u64, f64> = run(p, |c| {
            // Plan with the OLD densities, apply with the NEW ones.
            let mine: Vec<_> = pts.iter().skip(c.rank()).step_by(p).copied().collect();
            let mut plan = f.plan(c, mine);
            let den: Vec<f64> = plan
                .owned_gids()
                .iter()
                .map(|g| pts2[*g as usize].den[0])
                .collect();
            let (pot, _) = f.apply(c, &mut plan, &den);
            let pairs: Vec<(u64, f64)> = plan
                .owned_gids()
                .iter()
                .zip(&pot)
                .map(|(g, v)| (*g, *v))
                .collect();
            pfmm_mpisim::collectives::allgatherv(c, &pairs)
        })
        .pop()
        .expect("rank 0")
        .into_iter()
        .collect();

        for (gid, want) in &fresh {
            let got = planned[gid];
            assert!(
                (got - want).abs() < 1e-11 * want.abs().max(1.0),
                "gid={gid}: {got} vs {want}"
            );
        }
    }

    /// The fingerprint is a pure function of its inputs and reacts to
    /// every semantic field.
    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let pts = uniform_cube(300, 7, 0);
        let cfg = FmmConfig::default();
        let a = plan_fingerprint("laplace", &cfg, 1, &pts);
        let b = plan_fingerprint("laplace", &cfg, 1, &pts);
        assert_eq!(a, b, "deterministic");
        assert_ne!(a, plan_fingerprint("stokes", &cfg, 1, &pts), "kernel");
        assert_ne!(a, plan_fingerprint("laplace", &cfg, 2, &pts), "comm size");
        let cfg2 = FmmConfig {
            order: cfg.order + 2,
            ..cfg
        };
        assert_ne!(a, plan_fingerprint("laplace", &cfg2, 1, &pts), "order");
        let cfg3 = FmmConfig {
            m2l: crate::driver::M2lMode::Dense,
            ..cfg
        };
        assert_ne!(a, plan_fingerprint("laplace", &cfg3, 1, &pts), "m2l");
        let mut moved = pts.clone();
        moved[17].pos[1] += 1e-12;
        assert_ne!(a, plan_fingerprint("laplace", &cfg, 1, &moved), "position");
        // Densities deliberately do NOT participate: a plan is reusable
        // across density updates.
        let mut dense = pts.clone();
        randomize_densities(&mut dense, 3, 999);
        assert_eq!(a, plan_fingerprint("laplace", &cfg, 1, &dense));
    }

    /// The fingerprint sees the resolved `q`: an evaluator built from
    /// the default (model-chosen) configuration keys its plans exactly
    /// as one built with that `q` spelled out, and unlike a different
    /// explicit `q`.
    #[test]
    fn fingerprint_sees_the_resolved_q() {
        let pts = uniform_cube(300, 7, 0);
        let auto = Fmm::new(Arc::new(Laplace), FmmConfig::default());
        let q = auto.config().q;
        let explicit = Fmm::new(
            Arc::new(Laplace),
            FmmConfig {
                q,
                ..Default::default()
            },
        );
        let key = |f: &Fmm| plan_fingerprint("laplace", f.config(), 1, &pts);
        assert_eq!(key(&auto), key(&explicit));
        let other = Fmm::new(
            Arc::new(Laplace),
            FmmConfig {
                q: q + 1,
                ..Default::default()
            },
        );
        assert_ne!(key(&auto), key(&other), "q");
    }

    /// Plan memory accounting scales with the geometry and is nonzero.
    #[test]
    fn memory_bytes_tracks_geometry_size() {
        let f = fmm();
        let small = run(1, |c| f.plan(c, uniform_cube(200, 11, 0)).memory_bytes());
        let large = run(1, |c| f.plan(c, uniform_cube(2000, 11, 0)).memory_bytes());
        assert!(small[0] > 0);
        assert!(
            large[0] > 2 * small[0],
            "10x points should dominate fixed overhead: {} vs {}",
            large[0],
            small[0]
        );
    }

    /// Plan-reuse purity of the translate grouping: the cached plan's
    /// (level, operator-class) groups are a pure function of the geometry
    /// — replaying the plan with fresh densities leaves them untouched,
    /// matches a fresh plan of the same geometry structurally, and
    /// reproduces that fresh plan's potentials bitwise.
    #[test]
    fn translate_groups_replay_identically_with_fresh_densities() {
        let mut pts = uniform_cube(900, 431, 0);
        randomize_densities(&mut pts, 1, 7);
        let mut pts2 = pts.clone();
        randomize_densities(&mut pts2, 1, 55);
        let f = fmm();
        run(1, |c| {
            let mut plan = f.plan(c, pts.clone());
            let groups = plan.data.translate.clone();
            assert!(groups.s2u.iter().any(|g| !g.is_empty()));
            assert!(groups.u2u.iter().flatten().any(|g| !g.is_empty()));
            let den: Vec<f64> = plan
                .owned_gids()
                .iter()
                .map(|g| pts[*g as usize].den[0])
                .collect();
            let den2: Vec<f64> = plan
                .owned_gids()
                .iter()
                .map(|g| pts2[*g as usize].den[0])
                .collect();
            let (_, _) = f.apply(c, &mut plan, &den);
            let (pot2, _) = f.apply(c, &mut plan, &den2);
            assert_eq!(plan.data.translate, groups, "groups untouched by applies");

            let mut fresh = f.plan(c, pts2.clone());
            assert_eq!(fresh.data.translate, groups, "pure function of geometry");
            let (want, _) = f.apply(c, &mut fresh, &den2);
            for (a, b) in pot2.iter().zip(&want) {
                assert_eq!(a.to_bits(), b.to_bits(), "cached plan replays bitwise");
            }
        });
    }

    /// Repeated applies are deterministic and independent.
    #[test]
    fn apply_is_repeatable_and_linear() {
        let mut pts = uniform_cube(800, 419, 0);
        randomize_densities(&mut pts, 1, 7);
        let f = fmm();
        run(2, |c| {
            let mine: Vec<_> = pts.iter().skip(c.rank()).step_by(2).copied().collect();
            let mut plan = f.plan(c, mine);
            let den: Vec<f64> = plan
                .owned_gids()
                .iter()
                .map(|g| pts[*g as usize].den[0])
                .collect();
            let (a, _) = f.apply(c, &mut plan, &den);
            let doubled: Vec<f64> = den.iter().map(|v| 2.0 * v).collect();
            let (b, _) = f.apply(c, &mut plan, &doubled);
            let (a2, _) = f.apply(c, &mut plan, &den);
            for ((x, y), z) in a.iter().zip(&b).zip(&a2) {
                assert!((2.0 * x - y).abs() < 1e-10 * y.abs().max(1.0), "linear");
                assert_eq!(x, z, "deterministic rerun");
            }
        });
    }
}
