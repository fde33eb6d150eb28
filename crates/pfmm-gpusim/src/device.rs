//! Device model: Tesla-S1070-era throughput parameters, per-kernel
//! traffic tallies, and the time model.
//!
//! The model is deliberately coarse — a roofline with a launch overhead
//! and an occupancy ramp — because the paper's GPU conclusions are
//! roofline conclusions: the U-list does `O(b²)` flops per `O(b)` loads
//! and runs near peak, the V-list Hadamard does 2 flops per byte and is
//! bandwidth-bound, S2U/D2T sit in between.

/// One GPU's worth of throughput parameters.
#[derive(Copy, Clone, Debug)]
pub struct DeviceSpec {
    /// Display name.
    pub name: &'static str,
    /// Sustained single-precision rate for interaction-style kernels
    /// (multiply-add chains with an rsqrt), flops/s.
    pub flops_per_sec: f64,
    /// Sustained global-memory bandwidth for coalesced access, bytes/s.
    pub mem_bw: f64,
    /// Effective bytes moved per *uncoalesced* 4-byte access (the GT200
    /// serializes a 32-byte segment per stray access).
    pub uncoalesced_segment: f64,
    /// Kernel launch overhead, seconds.
    pub launch_overhead: f64,
    /// Number of streaming multiprocessors (occupancy ramp: fewer blocks
    /// than `2 × sms` underutilizes the device).
    pub sms: usize,
    /// Host↔device transfer bandwidth, bytes/s (PCIe of the era).
    pub pcie_bw: f64,
}

impl DeviceSpec {
    /// One GPU of an NVIDIA Tesla S1070 (GT200, the paper's Lincoln
    /// accelerator): 240 SPs at 1.44 GHz ≈ 345 GF/s single-precision
    /// multiply-add peak; ~102 GB/s GDDR3; PCIe-1.1 x8 per GPU pair.
    pub fn tesla_s1070() -> DeviceSpec {
        DeviceSpec {
            name: "Tesla S1070 (1 GPU)",
            flops_per_sec: 250e9,
            mem_bw: 85e9,
            uncoalesced_segment: 32.0,
            launch_overhead: 8e-6,
            sms: 30,
            pcie_bw: 2.0e9,
        }
    }

    /// Modeled execution time of a kernel with the given aggregate stats:
    /// roofline max of compute and memory time, divided by the occupancy
    /// ramp, plus launch overhead.
    pub fn kernel_time(&self, s: &KernelStats) -> f64 {
        let t_flops = s.tally.flops as f64 / self.flops_per_sec;
        // Every stray 4-byte access drags a whole segment across the bus.
        let bytes = s.tally.gmem_coalesced as f64
            + s.tally.gmem_uncoalesced as f64 * self.uncoalesced_segment;
        let t_mem = bytes / self.mem_bw;
        let occupancy = ((s.blocks as f64) / (2.0 * self.sms as f64)).clamp(0.05, 1.0);
        t_flops.max(t_mem) / occupancy + self.launch_overhead
    }

    /// Modeled host↔device transfer time for `bytes`.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        bytes as f64 / self.pcie_bw + 10e-6
    }
}

/// Per-block (accumulated per-kernel) traffic counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Single-precision floating point operations.
    pub flops: u64,
    /// Bytes read/written through coalesced global transactions.
    pub gmem_coalesced: u64,
    /// Number of uncoalesced 4-byte global accesses.
    pub gmem_uncoalesced: u64,
    /// Shared-memory accesses (4-byte).
    pub smem_accesses: u64,
}

impl Tally {
    /// Fold another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.flops += other.flops;
        self.gmem_coalesced += other.gmem_coalesced;
        self.gmem_uncoalesced += other.gmem_uncoalesced;
        self.smem_accesses += other.smem_accesses;
    }
}

/// Aggregate statistics of one kernel launch.
#[derive(Copy, Clone, Debug, Default)]
pub struct KernelStats {
    /// Summed block tallies.
    pub tally: Tally,
    /// Number of thread blocks launched.
    pub blocks: usize,
}

/// Execute `nblocks` independent thread blocks on the host thread pool,
/// merging per-block tallies. `f(block_idx, &mut Tally)` performs the
/// block's real computation; blocks must write disjoint outputs (enforced
/// by the caller's layout, exactly as on a real GPU).
pub fn launch_blocks<F>(nblocks: usize, f: F) -> KernelStats
where
    F: Fn(usize, &mut Tally) + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let threads = threads.min(nblocks.max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let tallies = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let mut t = Tally::default();
                    loop {
                        let b = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if b >= nblocks {
                            break;
                        }
                        f(b, &mut t);
                    }
                    t
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("gpu block worker panicked"))
            .collect::<Vec<_>>()
    });
    let mut total = Tally::default();
    for t in &tallies {
        total.merge(t);
    }
    KernelStats {
        tally: total,
        blocks: nblocks,
    }
}

/// Like [`launch_blocks`], but each block also produces an output value;
/// outputs are returned in block order (blocks write disjoint results, as
/// on the device).
pub fn launch_blocks_map<T, F>(nblocks: usize, f: F) -> (Vec<T>, KernelStats)
where
    T: Send,
    F: Fn(usize, &mut Tally) -> T + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let threads = threads.min(nblocks.max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let mut t = Tally::default();
                    let mut out = Vec::new();
                    loop {
                        let b = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if b >= nblocks {
                            break;
                        }
                        out.push((b, f(b, &mut t)));
                    }
                    (out, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("gpu block worker panicked"))
            .collect::<Vec<_>>()
    });
    let mut total = Tally::default();
    let mut ordered: Vec<Option<T>> = (0..nblocks).map(|_| None).collect();
    for (outs, t) in results {
        total.merge(&t);
        for (b, v) in outs {
            ordered[b] = Some(v);
        }
    }
    let outputs = ordered
        .into_iter()
        .map(|o| o.expect("every block executed"))
        .collect();
    (
        outputs,
        KernelStats {
            tally: total,
            blocks: nblocks,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_covers_all_blocks() {
        let hits = std::sync::Mutex::new(vec![false; 100]);
        let stats = launch_blocks(100, |b, t| {
            hits.lock().expect("mutex")[b] = true;
            t.flops += 1;
        });
        assert!(hits.lock().expect("mutex").iter().all(|&h| h));
        assert_eq!(stats.tally.flops, 100);
        assert_eq!(stats.blocks, 100);
    }

    #[test]
    fn compute_bound_kernel_time() {
        let d = DeviceSpec::tesla_s1070();
        // 1e9 flops, tiny memory traffic, plenty of blocks.
        let s = KernelStats {
            tally: Tally {
                flops: 1_000_000_000,
                gmem_coalesced: 1000,
                ..Default::default()
            },
            blocks: 1000,
        };
        let t = d.kernel_time(&s);
        let expect = 1e9 / d.flops_per_sec + d.launch_overhead;
        assert!((t - expect).abs() < 1e-9, "{t} vs {expect}");
    }

    #[test]
    fn bandwidth_bound_kernel_time() {
        let d = DeviceSpec::tesla_s1070();
        // 2 flops/byte × 1 GB — far below the machine balance point.
        let s = KernelStats {
            tally: Tally {
                flops: 2_000_000_000,
                gmem_coalesced: 1_000_000_000,
                ..Default::default()
            },
            blocks: 1000,
        };
        let t = d.kernel_time(&s);
        assert!(t > 1e9 / d.mem_bw * 0.99, "memory time dominates");
    }

    #[test]
    fn uncoalesced_costs_a_segment() {
        let d = DeviceSpec::tesla_s1070();
        let coalesced = KernelStats {
            tally: Tally {
                gmem_coalesced: 4_000_000,
                ..Default::default()
            },
            blocks: 1000,
        };
        let uncoalesced = KernelStats {
            tally: Tally {
                gmem_uncoalesced: 1_000_000,
                ..Default::default()
            },
            blocks: 1000,
        };
        // Same 4 MB of payload, 8× the modeled cost when uncoalesced.
        let ratio = d.kernel_time(&uncoalesced) / d.kernel_time(&coalesced);
        assert!(ratio > 4.0, "uncoalesced penalty visible: {ratio}");
    }

    #[test]
    fn low_occupancy_penalized() {
        let d = DeviceSpec::tesla_s1070();
        let few = KernelStats {
            tally: Tally {
                flops: 1_000_000_000,
                ..Default::default()
            },
            blocks: 6,
        };
        let many = KernelStats {
            tally: few.tally,
            blocks: 600,
        };
        assert!(d.kernel_time(&few) > 5.0 * d.kernel_time(&many));
    }
}
