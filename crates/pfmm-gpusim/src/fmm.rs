//! The GPU-accelerated FMM pipeline of §IV: S2U, ULI, VLI (Hadamard) and
//! D2T run as gpusim kernels; U2U, D2D, the per-octant FFTs, and the W/X
//! lists stay on the (2009-modeled) CPU, exactly the split the paper
//! describes.
//!
//! Two time columns come out of a run:
//!
//! - **GPU/CPU**: modeled device time for the accelerated kernels (from
//!   their traffic tallies) plus modeled 2009-CPU time for the phases the
//!   paper leaves on the host;
//! - **CPU-only**: every phase on the modeled 2009 CPU (500 Mflop/s
//!   sustained, the paper's §VI figure).
//!
//! Both columns derive from *measured* flop/byte tallies of the real
//! computation, so their ratio — the paper's 25–30× claim — is a model
//! statement only about 2009 hardware throughput, not about this host.
//!
//! The V list's host transforms are those of the CPU path's one spectral
//! engine, [`FftBatchedM2l`]: its half spectra are Hermitian-completed to
//! the full `(2p)³` f32 grids the device Hadamard ([`vli_hadamard`])
//! streams, and its pruned inverse reads the `kz ≤ p` half of each device
//! accumulator back. The model charges what the paper ran: the
//! full-spectrum Hadamard traffic and one `5·g·log2 g` FFT per source and
//! per target at the 2009 FFT rate.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use pfmm_core::driver::{gather_potentials, Fmm, FmmConfig};
use pfmm_core::m2l_batched::{offset_index, FftBatchedM2l};
use pfmm_core::ops::{Ops, PINV_F32_REL_TOL};
use pfmm_core::small_dft::DftScratch;
use pfmm_core::surface::{surface_points, RAD_INNER, RAD_OUTER};
use pfmm_kernels::{direct_eval, Laplace};
use pfmm_mpisim::run;
use pfmm_tree::{build_let, build_lists, points_to_octree, Let, Lists, PointRec};

use crate::device::{DeviceSpec, KernelStats};
use crate::kernels::{d2t, s2u, uli, vli_hadamard, SurfBox};
use crate::layout::GpuLayout;

/// The evaluation phases of the GPU run (Table III rows).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum GpuPhase {
    /// S2U (GPU) + U2U (CPU).
    Upward,
    /// Direct interactions (GPU).
    UList,
    /// FFTs (CPU) + Hadamard (GPU) + inverse FFTs (CPU).
    VList,
    /// W- and X-lists (CPU, not accelerated — §IV).
    WXList,
    /// D2D (CPU) + D2T (GPU).
    Downward,
}

impl GpuPhase {
    /// All phases in reporting order.
    pub const ALL: [GpuPhase; 5] = [
        GpuPhase::Upward,
        GpuPhase::UList,
        GpuPhase::VList,
        GpuPhase::WXList,
        GpuPhase::Downward,
    ];

    /// Row label as in Table III.
    pub fn label(&self) -> &'static str {
        match self {
            GpuPhase::Upward => "Upward Pass",
            GpuPhase::UList => "U list",
            GpuPhase::VList => "V list",
            GpuPhase::WXList => "W/X lists",
            GpuPhase::Downward => "Downward Pass",
        }
    }
}

/// Timing and accuracy report of one GPU FMM evaluation.
#[derive(Clone, Debug)]
pub struct GpuFmmReport {
    /// Points evaluated.
    pub n: usize,
    /// Points-per-box bound used.
    pub q: usize,
    /// Surface order used.
    pub order: usize,
    /// Modeled GPU/CPU hybrid seconds per phase.
    pub gpu_secs: [f64; 5],
    /// Modeled 2009 CPU-only seconds per phase.
    pub cpu2009_secs: [f64; 5],
    /// Measured wall seconds of this host executing the simulation.
    pub wall_secs: [f64; 5],
    /// Measured wall seconds of the up-density reduce-and-scatter
    /// (zero for single-rank runs).
    pub comm_wall_secs: f64,
    /// Host-side layout translation seconds (measured).
    pub translate_secs: f64,
    /// Modeled PCIe transfer seconds.
    pub transfer_secs: f64,
    /// Relative ℓ² error of the f32 GPU pipeline vs the f64 CPU FMM.
    pub rel_err_vs_f64: f64,
    /// Global tree leaves.
    pub leaves: u64,
}

impl GpuFmmReport {
    /// Total modeled GPU/CPU evaluation time (including transfers).
    pub fn total_gpu(&self) -> f64 {
        self.gpu_secs.iter().sum::<f64>() + self.transfer_secs
    }

    /// Total modeled 2009 CPU-only evaluation time.
    pub fn total_cpu2009(&self) -> f64 {
        self.cpu2009_secs.iter().sum()
    }

    /// Modeled speedup of the GPU/CPU configuration over CPU-only.
    pub fn speedup(&self) -> f64 {
        self.total_cpu2009() / self.total_gpu()
    }

    /// Synthesize Chrome-trace spans for the modeled GPU pipeline: the
    /// host-side layout translation, the five Table III stages, and the
    /// PCIe transfer, laid out back-to-back on the [`TID_GPU`] lane of
    /// `rank` starting at `t0_us`. The spans render the *modeled* GPU
    /// timeline (what the device would have done), not this host's wall
    /// clock — each span carries a `modeled_us` arg so downstream tools
    /// can tell.
    pub fn trace_events(&self, rank: u32, t0_us: f64) -> Vec<pfmm_trace::Event> {
        use pfmm_trace::{Event, EventKind, TID_GPU};
        let mut evs = Vec::new();
        let mut t = t0_us;
        let mut push = |name: &'static str, secs: f64, t: &mut f64| {
            if secs <= 0.0 {
                return;
            }
            let us = secs * 1e6;
            let mk = |kind, ts_us, args| Event {
                kind,
                name: std::borrow::Cow::Borrowed(name),
                cat: std::borrow::Cow::Borrowed("gpu"),
                rank,
                tid: TID_GPU,
                ts_us,
                flow: 0,
                args,
            };
            evs.push(mk(
                EventKind::Begin,
                *t,
                vec![(std::borrow::Cow::Borrowed("modeled_us"), us as u64)],
            ));
            evs.push(mk(EventKind::End, *t + us, Vec::new()));
            *t += us;
        };
        push("Translate", self.translate_secs, &mut t);
        for (i, ph) in GpuPhase::ALL.iter().enumerate() {
            push(ph.label(), self.gpu_secs[i], &mut t);
        }
        push("PCIe transfer", self.transfer_secs, &mut t);
        evs
    }
}

const CPU09: f64 = 0.5e9; // 2009 sustained CPU rate for FMM kernels (paper §VI)
/// 2009 CPU rate for the per-octant FFTs: FFTW-class transforms ran at a
/// few Gflop/s on Harpertown, well above the irregular FMM kernels.
const CPU09_FFT: f64 = 2.0e9;

/// Run the GPU FMM pipeline on one device for a single-rank problem
/// (Laplace kernel, single precision on the device, like the paper's
/// Lincoln runs). `check_accuracy` additionally runs the f64 CPU FMM for
/// the error column (skip for large benchmark sweeps). W/X stay on the
/// host, like the paper's implementation; see [`run_gpu_fmm_wx`] for the
/// paper's stated future work.
pub fn run_gpu_fmm(
    points: Vec<PointRec>,
    q: usize,
    order: usize,
    device: &DeviceSpec,
    check_accuracy: bool,
) -> GpuFmmReport {
    run_gpu_fmm_impl(points, q, order, device, check_accuracy, false)
}

/// [`run_gpu_fmm`] with the W- and X-lists also executed on the device —
/// the extension §IV announces as ongoing work ("transferring the
/// W,X-lists on the GPU").
pub fn run_gpu_fmm_wx(
    points: Vec<PointRec>,
    q: usize,
    order: usize,
    device: &DeviceSpec,
    check_accuracy: bool,
) -> GpuFmmReport {
    run_gpu_fmm_impl(points, q, order, device, check_accuracy, true)
}

fn run_gpu_fmm_impl(
    points: Vec<PointRec>,
    q: usize,
    order: usize,
    device: &DeviceSpec,
    check_accuracy: bool,
    wx_on_gpu: bool,
) -> GpuFmmReport {
    let dev = *device;
    let pts2 = points.clone();
    let (mut report, pairs) = run(1, move |c| {
        gpu_pipeline(c, pts2.clone(), q, order, &dev, wx_on_gpu)
    })
    .pop()
    .expect("one rank");
    if check_accuracy {
        report.rel_err_vs_f64 = accuracy_vs_f64(&points, q, order, &[pairs]);
    }
    report
}

/// Run the GPU pipeline distributed: `p` ranks, each with its own
/// simulated device (the paper's "each MPI process is assumed to have
/// private access to an accelerator"), real LET construction and a real
/// hypercube reduce-and-scatter of the up-densities between the device
/// phases. Returns one report per rank.
pub fn run_gpu_fmm_distributed(
    p: usize,
    points: Vec<PointRec>,
    q: usize,
    order: usize,
    device: &DeviceSpec,
    check_accuracy: bool,
) -> Vec<GpuFmmReport> {
    let dev = *device;
    let pts2 = points.clone();
    let out = run(p, move |c| {
        let mine: Vec<PointRec> = pts2.iter().skip(c.rank()).step_by(p).copied().collect();
        gpu_pipeline(c, mine, q, order, &dev, false)
    });
    let mut reports: Vec<GpuFmmReport> = Vec::with_capacity(p);
    let mut all_pairs = Vec::with_capacity(p);
    for (r, pairs) in out {
        reports.push(r);
        all_pairs.push(pairs);
    }
    if check_accuracy {
        let err = accuracy_vs_f64(&points, q, order, &all_pairs);
        for r in &mut reports {
            r.rel_err_vs_f64 = err;
        }
    }
    reports
}

/// Relative ℓ² error of gathered (gid, potential) pairs against the f64
/// CPU FMM (default configuration) on the full cloud.
fn accuracy_vs_f64(points: &[PointRec], q: usize, order: usize, pairs: &[Vec<(u64, f64)>]) -> f64 {
    let fmm = Fmm::new(
        Arc::new(Laplace),
        FmmConfig {
            order,
            q,
            ..Default::default()
        },
    );
    let pts2 = points.to_vec();
    let reference = run(1, move |c| {
        let res = fmm.evaluate(c, pts2.clone());
        gather_potentials(c, &res, 1)
    })
    .pop()
    .expect("one rank");
    let by_gid: std::collections::HashMap<u64, f64> =
        reference.into_iter().map(|(g, v)| (g, v[0])).collect();
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for chunk in pairs {
        for (gid, got) in chunk {
            let want = by_gid[gid];
            num += (got - want) * (got - want);
            den += want * want;
        }
    }
    (num / den).sqrt()
}

/// One rank's GPU FMM pipeline (sequential when `c.size() == 1`).
fn gpu_pipeline(
    c: &pfmm_mpisim::Comm,
    points: Vec<PointRec>,
    q: usize,
    order: usize,
    device: &DeviceSpec,
    wx_on_gpu: bool,
) -> (GpuFmmReport, Vec<(u64, f64)>) {
    let kernel = Arc::new(Laplace);
    let ops = Ops::new(kernel.clone(), order);
    let m2l = FftBatchedM2l::new(kernel.clone(), order);
    let nsurf = ops.n_surf();
    let g = m2l.grid_len();

    // ---- Setup: tree, LET, lists (host side, shared with the CPU path),
    // including the paper's work-weighted repartition.
    let mut t = points_to_octree(c, points, q);
    let mut l: Let = build_let(c, &t);
    let mut lists: Lists = build_lists(&l);
    if c.size() > 1 {
        let w = pfmm_tree::lists::leaf_weights(&l, &lists);
        t = pfmm_tree::repartition_by_weight(c, t, &w);
        l = build_let(c, &t);
        lists = build_lists(&l);
    }
    drop(t);
    let noct = l.len();
    let n = (0..noct)
        .filter(|&i| l.owned[i])
        .map(|i| l.points_of(i).len())
        .sum::<usize>();

    // ---- Data-structure translation (measured; paper claims it is minor).
    let lay = GpuLayout::build(&l, &lists, 64);

    let mut gpu_secs = [0.0f64; 5];
    let mut cpu_secs = [0.0f64; 5];
    let mut wall_secs = [0.0f64; 5];
    let mut comm_wall_secs = 0.0f64;

    // ---------------- Upward: S2U on GPU, U2U on CPU ----------------
    let t0 = Instant::now();
    let check_rel: Vec<[f32; 3]> = surface_points(order, &[0.0; 3], 1.0, RAD_OUTER)
        .iter()
        .map(|p| p.map(|v| v as f32))
        .collect();
    // The device applies uc2e in f32, so it gets the f32 truncation.
    let (uc2e0, _) = ops.uc2e_truncated(0, PINV_F32_REL_TOL);
    let uc2e32: Vec<f32> = uc2e0.as_slice().iter().map(|&v| v as f32).collect();
    let mut sboxes = Vec::with_capacity(lay.num_src_boxes());
    let mut sbox_oct = Vec::with_capacity(lay.num_src_boxes());
    for (oct, &sb) in lay.src_box_of_oct.iter().enumerate() {
        if sb < 0 || !l.owned[oct] {
            continue;
        }
        let key = l.octs[oct];
        let r = lay.src_range(sb as usize);
        // Homogeneous Laplace: uc2e scale = (r_l / r_0)^{+1}.
        let scale = (key.radius() / 0.5) as f32;
        sboxes.push(SurfBox {
            center: key.center().map(|v| v as f32),
            radius: key.radius() as f32,
            pt_off: r.start as u32,
            pt_len: r.len() as u32,
            scale,
        });
        sbox_oct.push(oct);
    }
    let (u32s, s2u_stats) = s2u(&sboxes, &lay.src, &check_rel, &uc2e32);

    // Scatter into the f64 per-octant density array and run U2U on the
    // host.
    let mut u = vec![0.0f64; noct * nsurf];
    let mut has_up = vec![false; noct];
    for (b, &oct) in sbox_oct.iter().enumerate() {
        for j in 0..nsurf {
            u[oct * nsurf + j] = u32s[b * nsurf + j] as f64;
        }
        has_up[oct] = true;
    }
    let max_level = l.octs.iter().map(|o| o.level()).max().unwrap_or(0);
    let mut by_level: Vec<Vec<u32>> = vec![Vec::new(); max_level as usize + 1];
    for i in 0..noct {
        if l.local[i] {
            by_level[l.octs[i].level() as usize].push(i as u32);
        }
    }
    let mut u2u_flops = 0u64;
    {
        let mut tmp = vec![0.0f64; nsurf];
        for level in (1..=max_level).rev() {
            for &iu in &by_level[level as usize] {
                let i = iu as usize;
                if !has_up[i] {
                    continue;
                }
                let key = l.octs[i];
                let Some(pi) = key.parent().and_then(|p| l.find(&p)) else {
                    continue;
                };
                let (m, s) = ops.u2u(level, key.child_index());
                tmp.copy_from_slice(&u[i * nsurf..(i + 1) * nsurf]);
                m.matvec_acc_scaled(&tmp, &mut u[pi * nsurf..(pi + 1) * nsurf], s);
                has_up[pi] = true;
                u2u_flops += 2 * (nsurf * nsurf) as u64;
            }
        }
    }
    wall_secs[0] = t0.elapsed().as_secs_f64();
    gpu_secs[0] = device.kernel_time(&s2u_stats) + u2u_flops as f64 / CPU09;
    cpu_secs[0] = (s2u_stats.tally.flops + u2u_flops) as f64 / CPU09;

    // ---------------- Up-density reduce-and-scatter (Algorithm 3) -----
    if c.size() > 1 {
        let t_comm = Instant::now();
        pfmm_core::reduce::reduce_scatter_hypercube(c, &l, nsurf, &mut u);
        comm_wall_secs = t_comm.elapsed().as_secs_f64();
        for i in 0..noct {
            if !has_up[i] {
                has_up[i] = u[i * nsurf..(i + 1) * nsurf].iter().any(|&v| v != 0.0);
            }
        }
    }

    // ---------------- V-list: CPU FFTs + GPU Hadamard ----------------
    let t0 = Instant::now();
    let mut dcheck = vec![0.0f64; noct * nsurf];
    let mut vli = VliPairs::new(noct);
    for bi in 0..noct {
        if !l.local[bi] {
            continue;
        }
        let beta = l.octs[bi];
        let cu = beta.cell_units() as i64;
        for &ai in lists.v.row(bi) {
            let ai = ai as usize;
            if !has_up[ai] {
                continue;
            }
            let alpha = l.octs[ai];
            let off = [0, 1, 2]
                .map(|a| ((beta.anchor()[a] as i64 - alpha.anchor()[a] as i64) / cu) as i8);
            vli.push(beta.level(), off, ai);
        }
        vli.end_target(bi);
    }
    // The model charges one 2009-CPU FFT of the full torus per source
    // transform and per target inverse.
    let fft_cost = (5 * g * g.ilog2() as usize) as u64;
    let fft_flops = (vli.sources.len() + vli.targets.len()) as u64 * fft_cost;
    let mut hadamard_flops = 0u64;
    if let Some(had_stats) = vli_on_device(&m2l, 2 * order, &vli, &u, nsurf, &mut dcheck) {
        hadamard_flops = had_stats.tally.flops;
        gpu_secs[2] = device.kernel_time(&had_stats) + fft_flops as f64 / CPU09_FFT;
    }
    cpu_secs[2] = hadamard_flops as f64 / CPU09 + fft_flops as f64 / CPU09_FFT;
    wall_secs[2] = t0.elapsed().as_secs_f64();

    // ---------------- W/X lists ----------------
    // CPU in the paper's GPU code; optionally on the device (the paper's
    // stated future work) via `wx_on_gpu`.
    let t0 = Instant::now();
    let mut f_host = vec![0.0f64; l.pts.len().max(1)];
    let mut wx_flops = 0u64;
    if wx_on_gpu {
        let equiv_rel: Vec<[f32; 3]> = surface_points(order, &[0.0; 3], 1.0, RAD_INNER)
            .iter()
            .map(|p| p.map(|v| v as f32))
            .collect();
        let check_rel = equiv_rel.clone(); // downward check shares the template

        // W on the GPU: per layout target box, its W sources as SurfBox +
        // f32 equivalent-density blocks.
        let mut wsrc_id = vec![-1i32; noct];
        let mut wsrc_boxes = Vec::new();
        let mut wsrc_u = Vec::new();
        let mut wlist_off = vec![0u32];
        let mut wlist = Vec::new();
        let mut tgt_boxes = Vec::with_capacity(lay.num_tgt_boxes());
        for tb in 0..lay.num_tgt_boxes() {
            let oct = lay.tgt_oct[tb] as usize;
            let key = l.octs[oct];
            let start = lay.tgt_off[tb] as usize;
            let end = if tb + 1 < lay.num_tgt_boxes() {
                lay.tgt_off[tb + 1] as usize
            } else {
                lay.tgt.len()
            };
            tgt_boxes.push(SurfBox {
                center: key.center().map(|v| v as f32),
                radius: key.radius() as f32,
                pt_off: start as u32,
                pt_len: (end - start) as u32,
                scale: 1.0,
            });
            for &ai in lists.w.row(oct) {
                let ai = ai as usize;
                if !has_up[ai] {
                    continue;
                }
                if wsrc_id[ai] < 0 {
                    wsrc_id[ai] = wsrc_boxes.len() as i32;
                    let akey = l.octs[ai];
                    wsrc_boxes.push(SurfBox {
                        center: akey.center().map(|v| v as f32),
                        radius: akey.radius() as f32,
                        pt_off: 0,
                        pt_len: 0,
                        scale: 1.0,
                    });
                    wsrc_u.extend(u[ai * nsurf..(ai + 1) * nsurf].iter().map(|&v| v as f32));
                }
                wlist.push(wsrc_id[ai] as u32);
            }
            wlist_off.push(wlist.len() as u32);
        }
        let (wout, wstats) = crate::kernels::wli(
            &tgt_boxes,
            &lay.tgt,
            &wlist_off,
            &wlist,
            &wsrc_boxes,
            &equiv_rel,
            &wsrc_u,
        );
        let mut cursor = 0usize;
        for (tb, bx) in tgt_boxes.iter().enumerate() {
            let oct = lay.tgt_oct[tb] as usize;
            let off = l.pt_off[oct];
            for j in 0..lay.tgt_cnt[tb] as usize {
                f_host[off + j] += wout[cursor + j] as f64;
            }
            cursor += bx.pt_len as usize;
        }

        // X on the GPU: per local octant with a nonempty X row, its
        // source leaves as layout source-box ids.
        let mut xtgt_boxes = Vec::new();
        let mut xtgt_oct = Vec::new();
        let mut xlist_off = vec![0u32];
        let mut xlist = Vec::new();
        for bi in 0..noct {
            if !l.local[bi] || lists.x.row(bi).is_empty() {
                continue;
            }
            let mut any = false;
            for &ai in lists.x.row(bi) {
                let sb = lay.src_box_of_oct[ai as usize];
                if sb >= 0 {
                    xlist.push(sb as u32);
                    any = true;
                }
            }
            if any {
                let key = l.octs[bi];
                xtgt_boxes.push(SurfBox {
                    center: key.center().map(|v| v as f32),
                    radius: key.radius() as f32,
                    pt_off: 0,
                    pt_len: 0,
                    scale: 1.0,
                });
                xtgt_oct.push(bi);
                xlist_off.push(xlist.len() as u32);
            } else {
                // No point-carrying sources after all: drop the row.
            }
        }
        let (xout, xstats) = crate::kernels::xli(
            &xtgt_boxes,
            &xlist_off,
            &xlist,
            &lay.src,
            &|b| lay.src_range(b),
            &check_rel,
        );
        for (t, &bi) in xtgt_oct.iter().enumerate() {
            for j in 0..nsurf {
                dcheck[bi * nsurf + j] += xout[t * nsurf + j] as f64;
            }
        }
        wx_flops = wstats.tally.flops + xstats.tally.flops;
        gpu_secs[3] = device.kernel_time(&wstats) + device.kernel_time(&xstats);
    } else {
        // X: sources of coarse leaves onto downward check surfaces.
        for bi in 0..noct {
            if !l.local[bi] || lists.x.row(bi).is_empty() {
                continue;
            }
            let key = l.octs[bi];
            let dc = ops.down_check_surface(&key.center(), key.radius());
            for &ai in lists.x.row(bi) {
                let ai = ai as usize;
                let pts = l.points_of(ai);
                if pts.is_empty() {
                    continue;
                }
                let pos: Vec<[f64; 3]> = pts.iter().map(|p| p.pos).collect();
                let den: Vec<f64> = pts.iter().map(|p| p.den[0]).collect();
                direct_eval(
                    &Laplace,
                    &dc,
                    &pos,
                    &den,
                    &mut dcheck[bi * nsurf..(bi + 1) * nsurf],
                );
                wx_flops += (pos.len() * nsurf) as u64 * 20;
            }
        }
        // W is evaluated into the host-side potential buffer.
        for bi in 0..noct {
            if !l.owned[bi] || lists.w.row(bi).is_empty() {
                continue;
            }
            let pts = l.points_of(bi);
            if pts.is_empty() {
                continue;
            }
            let pos: Vec<[f64; 3]> = pts.iter().map(|p| p.pos).collect();
            let off = l.pt_off[bi];
            for &ai in lists.w.row(bi) {
                let ai = ai as usize;
                if !has_up[ai] {
                    continue;
                }
                let alpha = l.octs[ai];
                let ue = ops.up_equiv_surface(&alpha.center(), alpha.radius());
                direct_eval(
                    &Laplace,
                    &pos,
                    &ue,
                    &u[ai * nsurf..(ai + 1) * nsurf],
                    &mut f_host[off..off + pos.len()],
                );
                wx_flops += (pos.len() * nsurf) as u64 * 20;
            }
        }
        gpu_secs[3] = wx_flops as f64 / CPU09;
    }
    wall_secs[3] = t0.elapsed().as_secs_f64();
    cpu_secs[3] = wx_flops as f64 / CPU09;

    // ---------------- Downward: D2D on CPU, D2T on GPU ----------------
    let t0 = Instant::now();
    let mut d = vec![0.0f64; noct * nsurf];
    let mut d2d_flops = 0u64;
    {
        let mut tmp = vec![0.0f64; nsurf];
        for level in 0..=max_level {
            for &iu in &by_level[level as usize] {
                let i = iu as usize;
                let key = l.octs[i];
                let (dc2e, s) = ops.dc2e(level);
                dc2e.matvec_acc_scaled(
                    &dcheck[i * nsurf..(i + 1) * nsurf],
                    &mut d[i * nsurf..(i + 1) * nsurf],
                    s,
                );
                d2d_flops += 2 * (nsurf * nsurf) as u64;
                if level > 0 {
                    if let Some(pi) = key.parent().and_then(|p| l.find(&p)) {
                        let (m, s) = ops.d2d(level, key.child_index());
                        tmp.copy_from_slice(&d[pi * nsurf..(pi + 1) * nsurf]);
                        m.matvec_acc_scaled(&tmp, &mut d[i * nsurf..(i + 1) * nsurf], s);
                        d2d_flops += 2 * (nsurf * nsurf) as u64;
                    }
                }
            }
        }
    }
    // GPU D2T over the layout's target boxes.
    let equiv_rel: Vec<[f32; 3]> = surface_points(order, &[0.0; 3], 1.0, RAD_OUTER)
        .iter()
        .map(|p| p.map(|v| v as f32))
        .collect();
    let mut tboxes = Vec::with_capacity(lay.num_tgt_boxes());
    let mut d32 = Vec::with_capacity(lay.num_tgt_boxes() * nsurf);
    for tb in 0..lay.num_tgt_boxes() {
        let oct = lay.tgt_oct[tb] as usize;
        let key = l.octs[oct];
        let start = lay.tgt_off[tb] as usize;
        let end = if tb + 1 < lay.num_tgt_boxes() {
            lay.tgt_off[tb + 1] as usize
        } else {
            lay.tgt.len()
        };
        tboxes.push(SurfBox {
            center: key.center().map(|v| v as f32),
            radius: key.radius() as f32,
            pt_off: start as u32,
            pt_len: (end - start) as u32,
            scale: 1.0,
        });
        for j in 0..nsurf {
            d32.push(d[oct * nsurf + j] as f32);
        }
    }
    let (d2t_out, d2t_stats) = d2t(&tboxes, &lay.tgt, &equiv_rel, &d32);
    wall_secs[4] = t0.elapsed().as_secs_f64();
    gpu_secs[4] = device.kernel_time(&d2t_stats) + d2d_flops as f64 / CPU09;
    cpu_secs[4] = (d2t_stats.tally.flops + d2d_flops) as f64 / CPU09;

    // ---------------- U-list on GPU ----------------
    let t0 = Instant::now();
    let (uli_out, uli_stats) = uli(&lay);
    wall_secs[1] = t0.elapsed().as_secs_f64();
    gpu_secs[1] = device.kernel_time(&uli_stats);
    cpu_secs[1] = uli_stats.tally.flops as f64 / CPU09;

    // ---------------- Combine potentials ----------------
    // f(point) = ULI + D2T (both f32, padded layout) + W (host f64).
    let mut f = vec![0.0f64; l.pts.len().max(1)];
    let mut d2t_cursor = 0usize;
    for tb in 0..lay.num_tgt_boxes() {
        let oct = lay.tgt_oct[tb] as usize;
        let off = l.pt_off[oct];
        let cnt = lay.tgt_cnt[tb] as usize;
        let pad_len = tboxes[tb].pt_len as usize;
        for j in 0..cnt {
            f[off + j] = uli_out[lay.tgt_off[tb] as usize + j] as f64
                + d2t_out[d2t_cursor + j] as f64
                + f_host[off + j];
        }
        d2t_cursor += pad_len;
    }

    // Owned (gid, potential) pairs for verification by the caller.
    let mut pairs = Vec::with_capacity(n);
    for i in 0..noct {
        if !l.owned[i] {
            continue;
        }
        let off = l.pt_off[i];
        for (j, p) in l.points_of(i).iter().enumerate() {
            pairs.push((p.gid, f[off + j]));
        }
    }

    let leaves = l.is_leaf.iter().filter(|&&b| b).count() as u64;
    let transfer_bytes = lay.bytes_to_device + (u.len() + d.len()) as u64 * 4;
    let report = GpuFmmReport {
        n,
        q,
        order,
        gpu_secs,
        cpu2009_secs: cpu_secs,
        wall_secs,
        comm_wall_secs,
        translate_secs: lay.translate_secs,
        transfer_secs: device.transfer_time(transfer_bytes),
        rel_err_vs_f64: f64::NAN,
        leaves,
    };
    (report, pairs)
}

/// The device V-list pair list, grouped by target: one device source
/// spectrum per V source octant and one device kernel spectrum per
/// (level, transfer vector), each numbered in order of first use.
struct VliPairs {
    /// Pair-range start per target, plus the end.
    pairs_off: Vec<u32>,
    pair_khat: Vec<u32>,
    pair_uhat: Vec<u32>,
    /// Target octant per closed target.
    targets: Vec<usize>,
    /// Source octant per source spectrum.
    sources: Vec<usize>,
    /// (level, transfer vector) per kernel spectrum.
    kernels: Vec<(u32, [i8; 3])>,
    uhat_id: Vec<u32>,
    khat_id: HashMap<(u32, [i8; 3]), u32>,
}

impl VliPairs {
    /// An empty list over `noct` octants.
    fn new(noct: usize) -> VliPairs {
        VliPairs {
            pairs_off: vec![0],
            pair_khat: Vec::new(),
            pair_uhat: Vec::new(),
            targets: Vec::new(),
            sources: Vec::new(),
            kernels: Vec::new(),
            uhat_id: vec![u32::MAX; noct],
            khat_id: HashMap::new(),
        }
    }

    /// Add the edge from source octant `src` along transfer vector `off`
    /// to the open target at `level`.
    fn push(&mut self, level: u32, off: [i8; 3], src: usize) {
        if self.uhat_id[src] == u32::MAX {
            self.uhat_id[src] = self.sources.len() as u32;
            self.sources.push(src);
        }
        let kernels = &mut self.kernels;
        let kid = *self.khat_id.entry((level, off)).or_insert_with(|| {
            kernels.push((level, off));
            kernels.len() as u32 - 1
        });
        self.pair_khat.push(kid);
        self.pair_uhat.push(self.uhat_id[src]);
    }

    /// Close the open target as octant `oct`; dropped without edges.
    fn end_target(&mut self, oct: usize) {
        if self.pair_khat.len() as u32 > *self.pairs_off.last().expect("starts at 0") {
            self.targets.push(oct);
            self.pairs_off.push(self.pair_khat.len() as u32);
        }
    }
}

/// Append the full `n³` spectrum of a real grid, interleaved f32
/// `[(kx·n + ky)·n + kz]` as the device Hadamard reads it, given its half
/// spectrum `[(kx·n + ky)·h + kz]` (`h = n/2 + 1`): the dropped
/// `kz > n/2` half is `X(k) = conj X(−k mod n)`.
fn complete_half_spectrum(half: impl Iterator<Item = (f64, f64)>, n: usize, out: &mut Vec<f32>) {
    let h = n / 2 + 1;
    let half: Vec<(f64, f64)> = half.collect();
    assert_eq!(half.len(), n * n * h, "half spectrum length");
    for kx in 0..n {
        for ky in 0..n {
            for kz in 0..n {
                let (re, im) = if kz < h {
                    half[(kx * n + ky) * h + kz]
                } else {
                    let (re, im) = half[(((n - kx) % n) * n + (n - ky) % n) * h + n - kz];
                    (re, -im)
                };
                out.push(re as f32);
                out.push(im as f32);
            }
        }
    }
}

/// The V list of §IV on the device: the host transforms of the batched
/// engine `m2l` (torus side `n`) completed to the full f32 spectra the
/// device Hadamard [`vli_hadamard`] streams, then the engine's pruned
/// inverse of the `kz ≤ n/2` half of each target accumulator on the host,
/// added into `dcheck` (`nsurf` values per octant, like the densities
/// `u`). Returns the Hadamard's stats; `None` when no target has an edge.
fn vli_on_device(
    m2l: &FftBatchedM2l,
    n: usize,
    vli: &VliPairs,
    u: &[f64],
    nsurf: usize,
    dcheck: &mut [f64],
) -> Option<KernelStats> {
    if vli.targets.is_empty() {
        return None;
    }
    let (g, h) = (n * n * n, n / 2 + 1);
    let src = m2l.source_spectra(&vli.sources, u.len() / nsurf, u, nsurf, 1);
    let mut uhats = Vec::with_capacity(vli.sources.len() * 2 * g);
    for s in 0..vli.sources.len() as u32 {
        complete_half_spectrum(src.spectrum(s, 0), n, &mut uhats);
    }
    let mut khats = Vec::with_capacity(vli.kernels.len() * 2 * g);
    let mut kscale = Vec::with_capacity(vli.kernels.len());
    for &(level, off) in &vli.kernels {
        m2l.ensure_levels(&[level], 1);
        let (spec, scale) = m2l.table().spectrum(level, offset_index(off), 0);
        complete_half_spectrum(spec, n, &mut khats);
        kscale.push(scale as f32);
    }
    let pair_scale: Vec<f32> = vli.pair_khat.iter().map(|&k| kscale[k as usize]).collect();
    let (acc, stats) = vli_hadamard(
        g,
        &vli.pairs_off,
        &vli.pair_khat,
        &vli.pair_uhat,
        &pair_scale,
        &khats,
        &uhats,
    );
    let (mut re, mut im) = (vec![0.0f64; n * n * h], vec![0.0f64; n * n * h]);
    let mut sc = DftScratch::default();
    for (t, &bi) in vli.targets.iter().enumerate() {
        let acc = &acc[t * 2 * g..(t + 1) * 2 * g];
        for row in 0..n * n {
            for kz in 0..h {
                re[row * h + kz] = acc[2 * (row * n + kz)] as f64;
                im[row * h + kz] = acc[2 * (row * n + kz) + 1] as f64;
            }
        }
        m2l.finish_component(
            &re,
            &im,
            0,
            &mut dcheck[bi * nsurf..(bi + 1) * nsurf],
            &mut sc,
        );
    }
    Some(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfmm_core::distrib::{randomize_densities, uniform_cube};

    /// One target against three V sources through the device V list
    /// (half-spectrum completion, `vli_hadamard`, pruned inverse) matches
    /// the dense f64 M2L to f32 accuracy.
    #[test]
    fn device_vli_matches_dense_m2l() {
        let level = 3;
        let offsets = [[2i8, 0, 0], [-3, 1, 2], [0, -2, 3]];
        for order in [4, 6] {
            let ops = Ops::new(Arc::new(Laplace), order);
            let m2l = FftBatchedM2l::new(Arc::new(Laplace), order);
            let nsurf = ops.n_surf();
            // Octant 0 is the target, octants 1..=3 the sources.
            let u: Vec<f64> = (0..4 * nsurf)
                .map(|i| (i as f64 * 0.37).sin() + 0.2)
                .collect();
            let mut vli = VliPairs::new(4);
            for (s, &off) in offsets.iter().enumerate() {
                vli.push(level, off, s + 1);
            }
            vli.end_target(0);
            let mut got = vec![0.0; 4 * nsurf];
            vli_on_device(&m2l, 2 * order, &vli, &u, nsurf, &mut got).expect("one target");

            let mut want = vec![0.0; nsurf];
            for (s, &off) in offsets.iter().enumerate() {
                let (m, scale) = ops.m2l(level, off);
                m.matvec_acc_scaled(&u[(s + 1) * nsurf..(s + 2) * nsurf], &mut want, scale);
            }
            let denom = want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let err = got[..nsurf]
                .iter()
                .zip(&want)
                .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
            assert!(err < 1e-6 * denom, "order {order}: {err} vs max {denom}");
            assert!(got[nsurf..].iter().all(|&v| v == 0.0), "sources untouched");
        }
    }

    /// The completed spectrum equals the full DFT of the real grid at
    /// every frequency, the dropped `kz > n/2` half included (the device
    /// accumulator's inverse reads only the kept half, so the dense
    /// comparison above cannot see that half).
    #[test]
    fn half_spectrum_completion_is_the_full_dft() {
        let n = 6;
        let h = n / 2 + 1;
        let grid: Vec<f64> = (0..n * n * n).map(|i| (i as f64 * 0.71).cos()).collect();
        let dft = |k: [usize; 3]| {
            let (mut re, mut im) = (0.0f64, 0.0f64);
            for (j, &x) in grid.iter().enumerate() {
                let jj = [j / (n * n), j / n % n, j % n];
                let dot: usize = (0..3).map(|a| k[a] * jj[a]).sum();
                let t = -2.0 * std::f64::consts::PI * (dot % n) as f64 / n as f64;
                re += x * t.cos();
                im += x * t.sin();
            }
            (re, im)
        };
        let half: Vec<(f64, f64)> = (0..n * n * h)
            .map(|i| dft([i / (n * h), i / h % n, i % h]))
            .collect();
        let mut full = Vec::new();
        complete_half_spectrum(half.into_iter(), n, &mut full);
        assert_eq!(full.len(), 2 * n * n * n);
        // |x| ≤ 1 bounds every frequency by n³; f32 keeps ~7 digits.
        let tol = 1e-6 * (n * n * n) as f64;
        for i in 0..n * n * n {
            let (re, im) = dft([i / (n * n), i / n % n, i % n]);
            assert!(
                (full[2 * i] as f64 - re).abs() < tol && (full[2 * i + 1] as f64 - im).abs() < tol,
                "frequency {i}: ({}, {}) vs ({re}, {im})",
                full[2 * i],
                full[2 * i + 1]
            );
        }
    }

    #[test]
    fn gpu_pipeline_matches_f64_fmm() {
        let mut pts = uniform_cube(1200, 3, 0);
        randomize_densities(&mut pts, 1, 4);
        let dev = DeviceSpec::tesla_s1070();
        let rep = run_gpu_fmm(pts, 40, 4, &dev, true);
        assert!(
            rep.rel_err_vs_f64 < 5e-4,
            "f32 pipeline error vs f64: {}",
            rep.rel_err_vs_f64
        );
        assert!(rep.total_gpu() > 0.0);
        assert!(rep.leaves > 8);
    }

    #[test]
    fn gpu_beats_modeled_2009_cpu() {
        let mut pts = uniform_cube(4000, 5, 0);
        randomize_densities(&mut pts, 1, 6);
        let dev = DeviceSpec::tesla_s1070();
        let rep = run_gpu_fmm(pts, 150, 6, &dev, true);
        assert!(
            rep.rel_err_vs_f64 <= 1e-4,
            "f32 pipeline error vs f64: {}",
            rep.rel_err_vs_f64
        );
        let sp = rep.speedup();
        assert!(sp > 5.0, "modeled speedup {sp}");
        assert!(sp < 400.0, "speedup within physical limits: {sp}");
    }

    #[test]
    fn ulist_dominates_at_large_q() {
        // The paper's Table III regime (its q = 244 vs 1953 columns,
        // scaled down): larger boxes move work from the bandwidth-bound
        // V-list to the compute-bound U-list.
        let mut pts = uniform_cube(32_768, 7, 0);
        randomize_densities(&mut pts, 1, 8);
        let dev = DeviceSpec::tesla_s1070();
        let big_q = run_gpu_fmm(pts.clone(), 1900, 4, &dev, false);
        let small_q = run_gpu_fmm(pts, 244, 4, &dev, false);
        assert!(
            big_q.gpu_secs[1] > small_q.gpu_secs[1],
            "U-list grows with q"
        );
        assert!(
            big_q.cpu2009_secs[2] < small_q.cpu2009_secs[2],
            "V-list shrinks with q"
        );
    }

    #[test]
    fn trace_events_render_modeled_pipeline() {
        let mut pts = uniform_cube(1500, 3, 0);
        randomize_densities(&mut pts, 1, 4);
        let dev = DeviceSpec::tesla_s1070();
        let rep = run_gpu_fmm(pts, 60, 4, &dev, false);
        let evs = rep.trace_events(2, 100.0);
        assert!(!evs.is_empty());
        // Spans are back-to-back on the GPU lane of the requested rank
        // and cover exactly the modeled pipeline duration.
        let st = pfmm_trace::chrome::validate(&evs).expect("valid chrome trace");
        assert!(
            st.spans >= 2,
            "at least translate + one stage: {}",
            st.spans
        );
        assert_eq!(st.flows, 0);
        let mut total_us = 0.0;
        let mut cursor = 100.0;
        for pair in evs.chunks(2) {
            assert_eq!(pair[0].kind, pfmm_trace::EventKind::Begin);
            assert_eq!(pair[1].kind, pfmm_trace::EventKind::End);
            assert_eq!(pair[0].rank, 2);
            assert_eq!(pair[0].tid, pfmm_trace::TID_GPU);
            assert_eq!(pair[0].cat, "gpu");
            assert!((pair[0].ts_us - cursor).abs() < 1e-6, "no gaps");
            cursor = pair[1].ts_us;
            total_us += pair[1].ts_us - pair[0].ts_us;
        }
        let modeled_us = (rep.total_gpu() + rep.translate_secs) * 1e6;
        assert!(
            (total_us - modeled_us).abs() < 1e-3,
            "span total {total_us} vs modeled {modeled_us}"
        );
    }

    #[test]
    fn translation_cost_is_minor() {
        let mut pts = uniform_cube(5000, 9, 0);
        randomize_densities(&mut pts, 1, 10);
        let dev = DeviceSpec::tesla_s1070();
        let rep = run_gpu_fmm(pts, 100, 4, &dev, false);
        // The paper's claim: translation is a small fraction of the
        // modeled evaluation.
        assert!(
            rep.translate_secs < rep.total_cpu2009(),
            "translation {} vs cpu eval {}",
            rep.translate_secs,
            rep.total_cpu2009()
        );
    }
}
