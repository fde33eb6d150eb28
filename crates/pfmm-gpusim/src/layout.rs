//! Host-side data-structure translation: pointer-based LET + interaction
//! lists → the padded, coalescing-friendly flat arrays the GPU kernels
//! stream (paper §IV: "carefully constructed data structure
//! transformations ... whose cost we show is minor").
//!
//! Targets and sources are padded to the thread-block size `b`, so every
//! global-memory tile read is a full coalesced transaction; padded source
//! slots carry zero density (they contribute exactly nothing through the
//! kernel's multiply-accumulate) and padded target lanes compute garbage
//! that is never read back — the same waste a real CUDA implementation
//! accepts in exchange for coalescing.
//!
//! The CPU near-field engine (`pfmm_core::nearfield`) applies the same
//! discipline at f64/lane-width granularity: identical source-box
//! occupancy, identical U-list rows, padding as zero-density sentinels —
//! only the pad unit (`LANE` vs thread block) and the plane layout
//! (SoA vs AoS `[f32; 4]`) differ.

use std::time::Instant;

use pfmm_tree::{Let, Lists};

/// Padded flat arrays for the GPU FMM kernels, plus the measured cost of
/// building them.
pub struct GpuLayout {
    /// Thread-block size `b` (threads per block, sources per tile).
    pub block: usize,

    /// Source box id for each LET octant (`-1` if the octant holds no
    /// points).
    pub src_box_of_oct: Vec<i32>,
    /// Per source box: offset into the padded source arrays (a multiple
    /// of `b`).
    pub src_off: Vec<u32>,
    /// Per source box: real (unpadded) source count.
    pub src_cnt: Vec<u32>,
    /// Padded sources: x, y, z, density.
    pub src: Vec<[f32; 4]>,

    /// Per target box: the LET octant it evaluates.
    pub tgt_oct: Vec<u32>,
    /// Per target box: offset into the padded target arrays.
    pub tgt_off: Vec<u32>,
    /// Per target box: real target count.
    pub tgt_cnt: Vec<u32>,
    /// Padded target positions.
    pub tgt: Vec<[f32; 3]>,

    /// U-list in CSR over target boxes; entries are source box ids.
    pub ulist_off: Vec<u32>,
    /// U-list entries.
    pub ulist: Vec<u32>,

    /// Wall-clock seconds spent building this layout (the paper's
    /// "translation" cost).
    pub translate_secs: f64,
    /// Bytes that must cross PCIe to the device.
    pub bytes_to_device: u64,
}

impl GpuLayout {
    /// Build the layout from a LET and its lists.
    ///
    /// # Panics
    /// Panics if `block` is zero.
    pub fn build(l: &Let, lists: &Lists, block: usize) -> GpuLayout {
        assert!(block > 0);
        let t0 = Instant::now();
        let pad = |n: usize| n.div_ceil(block) * block;

        // Source boxes: every leaf with points (owned or ghost) — U-list
        // sources can be any leaf in the LET.
        let mut src_box_of_oct = vec![-1i32; l.len()];
        let mut src_off = Vec::new();
        let mut src_cnt = Vec::new();
        let mut src: Vec<[f32; 4]> = Vec::new();
        #[allow(clippy::needless_range_loop)] // i indexes the LET and the box map
        for i in 0..l.len() {
            let pts = l.points_of(i);
            if pts.is_empty() || !l.is_leaf[i] {
                continue;
            }
            src_box_of_oct[i] = src_off.len() as i32;
            src_off.push(src.len() as u32);
            src_cnt.push(pts.len() as u32);
            for p in pts {
                src.push([
                    p.pos[0] as f32,
                    p.pos[1] as f32,
                    p.pos[2] as f32,
                    p.den[0] as f32,
                ]);
            }
            // Zero-density padding far outside the cube: contributes 0
            // and cannot collide with a real target position.
            src.resize(pad(src.len()), [-1.0e9, -1.0e9, -1.0e9, 0.0]);
        }

        // Target boxes: owned leaves with points.
        let mut tgt_oct = Vec::new();
        let mut tgt_off = Vec::new();
        let mut tgt_cnt = Vec::new();
        let mut tgt: Vec<[f32; 3]> = Vec::new();
        let mut ulist_off = vec![0u32];
        let mut ulist = Vec::new();
        for i in 0..l.len() {
            if !l.owned[i] {
                continue;
            }
            let pts = l.points_of(i);
            if pts.is_empty() {
                continue;
            }
            tgt_oct.push(i as u32);
            tgt_off.push(tgt.len() as u32);
            tgt_cnt.push(pts.len() as u32);
            for p in pts {
                tgt.push([p.pos[0] as f32, p.pos[1] as f32, p.pos[2] as f32]);
            }
            tgt.resize(pad(tgt.len()), [2.0e9, 2.0e9, 2.0e9]);
            for &ai in lists.u.row(i) {
                let sb = src_box_of_oct[ai as usize];
                if sb >= 0 {
                    ulist.push(sb as u32);
                }
            }
            ulist_off.push(ulist.len() as u32);
        }

        let bytes_to_device = (src.len() * 16 + tgt.len() * 12 + ulist.len() * 4) as u64;
        GpuLayout {
            block,
            src_box_of_oct,
            src_off,
            src_cnt,
            src,
            tgt_oct,
            tgt_off,
            tgt_cnt,
            tgt,
            ulist_off,
            ulist,
            translate_secs: t0.elapsed().as_secs_f64(),
            bytes_to_device,
        }
    }

    /// Number of target boxes.
    pub fn num_tgt_boxes(&self) -> usize {
        self.tgt_oct.len()
    }

    /// Number of source boxes.
    pub fn num_src_boxes(&self) -> usize {
        self.src_off.len()
    }

    /// Padded source range of a source box.
    pub fn src_range(&self, b: usize) -> std::ops::Range<usize> {
        let start = self.src_off[b] as usize;
        let end = if b + 1 < self.src_off.len() {
            self.src_off[b + 1] as usize
        } else {
            self.src.len()
        };
        start..end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfmm_mpisim::run;
    use pfmm_tree::{build_let, build_lists, points_to_octree, PointRec};

    fn small_let(n: usize, q: usize) -> (Let, Lists) {
        let pts: Vec<PointRec> = (0..n)
            .map(|i| {
                let f = i as f64 / n as f64;
                PointRec::scalar([f, (f * 7.3) % 1.0, (f * 3.1) % 1.0], 1.0 + f, i as u64)
            })
            .collect();
        run(1, |c| {
            let t = points_to_octree(c, pts.clone(), q);
            let l = build_let(c, &t);
            let lists = build_lists(&l);
            (l, lists)
        })
        .pop()
        .expect("one rank")
    }

    #[test]
    fn padding_is_block_aligned() {
        let (l, lists) = small_let(500, 16);
        let lay = GpuLayout::build(&l, &lists, 64);
        assert_eq!(lay.src.len() % 64, 0);
        assert_eq!(lay.tgt.len() % 64, 0);
        for b in 0..lay.num_src_boxes() {
            assert_eq!(lay.src_range(b).len() % 64, 0);
            assert!(lay.src_range(b).len() >= lay.src_cnt[b] as usize);
        }
    }

    #[test]
    fn all_points_present() {
        let (l, lists) = small_let(300, 8);
        let lay = GpuLayout::build(&l, &lists, 32);
        let real_src: u32 = lay.src_cnt.iter().sum();
        assert_eq!(real_src as usize, 300);
        let real_tgt: u32 = lay.tgt_cnt.iter().sum();
        assert_eq!(real_tgt as usize, 300);
    }

    #[test]
    fn padded_sources_have_zero_density() {
        let (l, lists) = small_let(100, 7);
        let lay = GpuLayout::build(&l, &lists, 64);
        for b in 0..lay.num_src_boxes() {
            let r = lay.src_range(b);
            for j in r.start + lay.src_cnt[b] as usize..r.end {
                assert_eq!(lay.src[j][3], 0.0);
            }
        }
    }

    #[test]
    fn ulist_references_valid_boxes() {
        let (l, lists) = small_let(400, 10);
        let lay = GpuLayout::build(&l, &lists, 64);
        for &sb in &lay.ulist {
            assert!((sb as usize) < lay.num_src_boxes());
        }
        // Every target box includes itself in its U-list.
        for tb in 0..lay.num_tgt_boxes() {
            let oct = lay.tgt_oct[tb] as usize;
            let self_sb = lay.src_box_of_oct[oct];
            assert!(self_sb >= 0);
            let row = &lay.ulist[lay.ulist_off[tb] as usize..lay.ulist_off[tb + 1] as usize];
            assert!(row.contains(&(self_sb as u32)));
        }
    }

    #[test]
    fn matches_cpu_nearfield_layout() {
        // The CPU tiled near-field engine is the same data-structure
        // transformation at a different pad unit: same source-box
        // occupancy, same real counts, same target boxes, same U-list
        // rows (as sets — NearField splits and sorts its rows, GpuLayout
        // keeps traversal order).
        let (l, lists) = small_let(600, 12);
        let lay = GpuLayout::build(&l, &lists, 64);
        let data = pfmm_core::exec::EvalData::new_with(&l, 1, pfmm_tree::SetupPar::Serial);
        let nf = pfmm_core::NearField::build(&l, &lists, &data.leaf_pos, &data.leaf_den, 1);

        assert_eq!(nf.num_src_boxes(), lay.num_src_boxes());
        assert_eq!(nf.src_box_of_oct, lay.src_box_of_oct);
        assert_eq!(nf.src_cnt, lay.src_cnt);
        assert_eq!(nf.num_tgt_boxes(), lay.num_tgt_boxes());
        assert_eq!(nf.tgt_oct, lay.tgt_oct);
        assert_eq!(nf.tgt_cnt(), lay.tgt_cnt);
        for tb in 0..nf.num_tgt_boxes() {
            let r = lay.ulist_off[tb] as usize..lay.ulist_off[tb + 1] as usize;
            let mut gpu_row = lay.ulist[r].to_vec();
            gpu_row.sort_unstable();
            assert_eq!(nf.row(tb), gpu_row);
        }
        // Both pad with zero density; only the pad unit differs.
        for b in 0..nf.num_src_boxes() {
            let r = nf.src_range(b);
            for j in r.start + nf.src_cnt[b] as usize..r.end {
                assert_eq!(nf.sden[j], 0.0);
            }
        }
    }

    #[test]
    fn translation_time_recorded() {
        let (l, lists) = small_let(1000, 20);
        let lay = GpuLayout::build(&l, &lists, 128);
        assert!(lay.translate_secs > 0.0);
        assert!(lay.bytes_to_device > 0);
    }
}
