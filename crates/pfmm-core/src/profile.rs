//! Per-phase wall-clock and flop accounting, mirroring the rows of the
//! paper's Table II.

use std::time::Instant;

/// The instrumented phases of one FMM evaluation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// S2U + U2U (the paper's "Upward").
    Upward,
    /// Up-density reduce-and-scatter + ghost density exchange.
    Comm,
    /// Direct near-field interactions.
    UList,
    /// Multipole-to-local translations.
    VList,
    /// Multipole-to-target contributions.
    WList,
    /// Source-to-local contributions.
    XList,
    /// D2D + D2T (the paper's "Downward").
    Downward,
}

impl Phase {
    /// All phases, in the paper's reporting order.
    pub const ALL: [Phase; 7] = [
        Phase::Upward,
        Phase::Comm,
        Phase::UList,
        Phase::VList,
        Phase::WList,
        Phase::XList,
        Phase::Downward,
    ];

    /// Row label as printed in Table II.
    pub fn label(&self) -> &'static str {
        match self {
            Phase::Upward => "Upward",
            Phase::Comm => "Comm.",
            Phase::UList => "U-list",
            Phase::VList => "V-list",
            Phase::WList => "W-list",
            Phase::XList => "X-list",
            Phase::Downward => "Downward",
        }
    }
}

/// Flop models of the V-list building blocks, shared by the executor's
/// accounting and the modeled autotuner so every path charges the same
/// arithmetic for the same work.
pub mod flop_model {
    /// One pruned forward transform ([`crate::small_dft::PrunedDft3`]) of
    /// a grid supported on `[0,e)³` of the `n`-torus: the r2c z pass over
    /// `e²` rows, then complex y and x passes, counted as the real
    /// multiply-adds the loops execute (2 flops each).
    #[inline]
    pub fn pruned_dft_forward(n: usize, e: usize) -> u64 {
        let h = n / 2 + 1;
        let madds = 2 * e * e * e * h + 4 * e * n * e * h + 4 * n * e * n * h;
        2 * madds as u64
    }

    /// One pruned inverse transform evaluated at `npts` points of the
    /// `[0,p)³` corner: complex x and y passes for `x, y < p`, then a
    /// c2r dot product of `n/2 + 1` terms per point.
    #[inline]
    pub fn pruned_dft_inverse(n: usize, p: usize, npts: usize) -> u64 {
        let h = n / 2 + 1;
        let madds = 4 * p * n * n * h + 4 * p * p * n * h + 2 * npts * h;
        2 * madds as u64
    }

    /// One dense M2L edge (`clen×ulen` mat-vec).
    #[inline]
    pub fn m2l_dense_edge(clen: usize, ulen: usize) -> u64 {
        2 * (clen * ulen) as u64
    }

    /// One spectral Hadamard edge over `nf` retained frequencies:
    /// `td·sd` complex multiply-accumulates of 8 flops each. Pass the
    /// full grid for the complex path, `n²·(n/2+1)` for the half-spectrum
    /// batched path.
    #[inline]
    pub fn hadamard_edge(nf: usize, sd: usize, td: usize) -> u64 {
        (8 * nf * sd * td) as u64
    }

    /// One U-list edge: `nt` targets against `ns` **real** sources at the
    /// kernel's per-pair cost. Both the scalar and the tiled near-field
    /// paths charge real pairs (padding lanes are wasted work, not
    /// arithmetic the paper's accounting would count), so their GFLOP/s
    /// rates are directly comparable.
    #[inline]
    pub fn ulist_edge(nt: usize, ns: usize, flops_pair: u64) -> u64 {
        (nt * ns) as u64 * flops_pair
    }

    /// One level-batched translation group: `m` right-hand sides through
    /// a `rows×cols` operator. Identical to `m` per-box matvecs — the
    /// GEMM reorganizes data movement, not arithmetic — so the grouped
    /// path and its sub-break-even matvec fallback charge the same flops.
    #[inline]
    pub fn translate_group(rows: usize, cols: usize, m: usize) -> u64 {
        2 * (rows * cols) as u64 * m as u64
    }

    /// Bytes moved by one grouped translation: the operator panel is
    /// streamed once per [`pfmm_linalg::GEMM_NR`] right-hand sides, plus
    /// the gather/compute/scatter traffic of the input and output panels
    /// (each touched twice: pack + read, write + scatter).
    #[inline]
    pub fn translate_group_bytes(rows: usize, cols: usize, m: usize) -> u64 {
        let panels = m.div_ceil(pfmm_linalg::GEMM_NR);
        8 * (rows * cols * panels + 2 * m * (rows + cols)) as u64
    }

    /// Bytes moved by `m` per-box matvecs of the same operator: the
    /// operator is re-streamed from memory once per box.
    #[inline]
    pub fn translate_matvec_bytes(rows: usize, cols: usize, m: usize) -> u64 {
        8 * (m * (rows * cols + rows + cols)) as u64
    }
}

/// Accumulated seconds and flops per phase for one rank's evaluation.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    secs: [f64; 7],
    flops: [u64; 7],
    /// Wall-clock seconds of the whole evaluation.
    pub total_secs: f64,
    /// Wall-clock seconds of the setup (tree + LET + lists + balance).
    pub setup_secs: f64,
    /// Seconds of setup spent in the point sort.
    pub sort_secs: f64,
    /// Seconds of setup spent building the octree and the LET (including
    /// the post-balance rebuild).
    pub tree_secs: f64,
    /// Seconds of setup spent building the U/V/W/X interaction lists
    /// (including the post-balance rebuild).
    pub lists_secs: f64,
    /// Seconds of setup spent in the plan precompute: leaf data
    /// extraction, translate grouping, operator warm-up, the ghost-density
    /// exchange schedule and, on the one-shot evaluate path, the
    /// evaluation workspace.
    pub plan_secs: f64,
    /// Seconds spent building the tiled near-field layout. Folded into
    /// the U-list phase (charged once, before the phases run); kept
    /// separately so the attribution is testable.
    pub nf_build_secs: f64,
}

impl Profile {
    /// Time a closure and charge it to `phase`.
    pub fn timed<T>(&mut self, phase: Phase, f: impl FnOnce(&mut Self) -> T) -> T {
        let t0 = Instant::now();
        let out = f(self);
        self.secs[phase as usize] += t0.elapsed().as_secs_f64();
        out
    }

    /// Charge flops to a phase.
    #[inline]
    pub fn add_flops(&mut self, phase: Phase, flops: u64) {
        self.flops[phase as usize] += flops;
    }

    /// Charge pre-measured seconds to a phase.
    #[inline]
    pub fn add_secs(&mut self, phase: Phase, secs: f64) {
        self.secs[phase as usize] += secs;
    }

    /// Seconds charged to a phase.
    pub fn secs(&self, phase: Phase) -> f64 {
        self.secs[phase as usize]
    }

    /// Flops charged to a phase.
    pub fn flops(&self, phase: Phase) -> u64 {
        self.flops[phase as usize]
    }

    /// Total flops across phases.
    pub fn total_flops(&self) -> u64 {
        self.flops.iter().sum()
    }

    /// Compute-only seconds (everything but Comm) — the paper's "Comp".
    pub fn comp_secs(&self) -> f64 {
        Phase::ALL
            .iter()
            .filter(|p| !matches!(p, Phase::Comm))
            .map(|p| self.secs(*p))
            .sum()
    }
}

/// Max/avg summary of many ranks' profiles — the two columns of Table II.
pub struct ProfileSummary {
    /// (max over ranks, avg over ranks) seconds per phase.
    pub secs: Vec<(Phase, f64, f64)>,
    /// (max, avg) flops per phase.
    pub flops: Vec<(Phase, u64, u64)>,
    /// (max, avg) total evaluation seconds.
    pub total: (f64, f64),
    /// (max, avg) total flops.
    pub total_flops: (u64, u64),
    /// (max, avg) total setup seconds.
    pub setup: (f64, f64),
    /// (max, avg) per setup stage, in pipeline order: sort, tree+LET,
    /// lists, plan precompute.
    pub setup_split: Vec<(&'static str, f64, f64)>,
}

impl ProfileSummary {
    /// Summarize per-rank profiles.
    pub fn from_ranks(profiles: &[Profile]) -> ProfileSummary {
        let n = profiles.len().max(1) as f64;
        let mut secs = Vec::new();
        let mut flops = Vec::new();
        for ph in Phase::ALL {
            let s_max = profiles.iter().map(|p| p.secs(ph)).fold(0.0, f64::max);
            let s_avg = profiles.iter().map(|p| p.secs(ph)).sum::<f64>() / n;
            secs.push((ph, s_max, s_avg));
            let f_max = profiles.iter().map(|p| p.flops(ph)).max().unwrap_or(0);
            let f_avg = (profiles.iter().map(|p| p.flops(ph)).sum::<u64>() as f64 / n) as u64;
            flops.push((ph, f_max, f_avg));
        }
        let total = (
            profiles.iter().map(|p| p.total_secs).fold(0.0, f64::max),
            profiles.iter().map(|p| p.total_secs).sum::<f64>() / n,
        );
        let total_flops = (
            profiles.iter().map(|p| p.total_flops()).max().unwrap_or(0),
            (profiles.iter().map(|p| p.total_flops()).sum::<u64>() as f64 / n) as u64,
        );
        let maxavg = |get: fn(&Profile) -> f64| {
            (
                profiles.iter().map(get).fold(0.0, f64::max),
                profiles.iter().map(get).sum::<f64>() / n,
            )
        };
        let setup = maxavg(|p| p.setup_secs);
        let setup_split = vec![
            (
                "· sort",
                maxavg(|p| p.sort_secs).0,
                maxavg(|p| p.sort_secs).1,
            ),
            (
                "· tree",
                maxavg(|p| p.tree_secs).0,
                maxavg(|p| p.tree_secs).1,
            ),
            (
                "· lists",
                maxavg(|p| p.lists_secs).0,
                maxavg(|p| p.lists_secs).1,
            ),
            (
                "· plan",
                maxavg(|p| p.plan_secs).0,
                maxavg(|p| p.plan_secs).1,
            ),
        ];
        ProfileSummary {
            secs,
            flops,
            total,
            total_flops,
            setup,
            setup_split,
        }
    }

    /// Render in the layout of the paper's Table II.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{:<12} {:>10} {:>10} {:>12} {:>12}\n",
            "Event", "Max. Time", "Avg. Time", "Max. Flops", "Avg. Flops"
        ));
        s.push_str(&format!(
            "{:<12} {:>10.2e} {:>10.2e} {:>12.2e} {:>12.2e}\n",
            "Total eval",
            self.total.0,
            self.total.1,
            self.total_flops.0 as f64,
            self.total_flops.1 as f64
        ));
        // Setup family (sort / tree / lists / plan), mirroring the
        // paper's separate setup accounting alongside Table II.
        if self.setup.0 > 0.0 {
            s.push_str(&format!(
                "{:<12} {:>10.2e} {:>10.2e}\n",
                "Setup", self.setup.0, self.setup.1
            ));
            for (label, smax, savg) in &self.setup_split {
                s.push_str(&format!("{label:<12} {smax:>10.2e} {savg:>10.2e}\n"));
            }
        }
        for ((ph, smax, savg), (_, fmax, favg)) in self.secs.iter().zip(&self.flops) {
            s.push_str(&format!(
                "{:<12} {:>10.2e} {:>10.2e} {:>12.2e} {:>12.2e}\n",
                ph.label(),
                smax,
                savg,
                *fmax as f64,
                *favg as f64
            ));
        }
        // Achieved near-field rate (the phase the tiled engine targets):
        // flops here are real pairs via `flop_model::ulist_edge`, so the
        // row reports a rate, not just a speedup ratio.
        let (_, smax, savg) = self.secs[Phase::UList as usize];
        let (_, fmax, favg) = self.flops[Phase::UList as usize];
        if smax > 0.0 && fmax > 0 {
            // An avg of exactly 0 s with nonzero flops is an artifact of
            // coarse clocks, not an infinite (or zero) rate — print `-`.
            let avg_cell = if savg > 0.0 {
                format!("{:.2}", favg as f64 / savg / 1e9)
            } else {
                "-".to_string()
            };
            s.push_str(&format!(
                "{:<12} {:>10.2} {:>10}\n",
                "U-list GF/s",
                fmax as f64 / smax / 1e9,
                avg_cell
            ));
        }
        // Achieved up/down translation rate (the phases the level-batched
        // GEMM engine targets), charged via `flop_model::translate_group`.
        let (_, us, ua) = self.secs[Phase::Upward as usize];
        let (_, ds, da) = self.secs[Phase::Downward as usize];
        let (_, uf, ufa) = self.flops[Phase::Upward as usize];
        let (_, df, dfa) = self.flops[Phase::Downward as usize];
        let (smax, savg, fmax, favg) = (us + ds, ua + da, uf + df, ufa + dfa);
        if smax > 0.0 && fmax > 0 {
            let avg_cell = if savg > 0.0 {
                format!("{:.2}", favg as f64 / savg / 1e9)
            } else {
                "-".to_string()
            };
            s.push_str(&format!(
                "{:<12} {:>10.2} {:>10}\n",
                "Up/Down GF/s",
                fmax as f64 / smax / 1e9,
                avg_cell
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_accumulates() {
        let mut p = Profile::default();
        p.timed(Phase::UList, |_| {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        assert!(p.secs(Phase::UList) >= 0.004);
        assert_eq!(p.secs(Phase::VList), 0.0);
    }

    #[test]
    fn flop_accounting() {
        let mut p = Profile::default();
        p.add_flops(Phase::VList, 100);
        p.add_flops(Phase::VList, 50);
        p.add_flops(Phase::UList, 7);
        assert_eq!(p.flops(Phase::VList), 150);
        assert_eq!(p.total_flops(), 157);
    }

    #[test]
    fn summary_max_avg() {
        let mut a = Profile::default();
        a.add_flops(Phase::UList, 100);
        a.total_secs = 2.0;
        let mut b = Profile::default();
        b.add_flops(Phase::UList, 300);
        b.total_secs = 4.0;
        let s = ProfileSummary::from_ranks(&[a, b]);
        assert_eq!(s.total, (4.0, 3.0));
        let (_, fmax, favg) = s.flops[Phase::UList as usize];
        let _ = favg;
        assert_eq!(fmax, 300);
        let rendered = s.render();
        assert!(rendered.contains("U-list"));
        assert!(rendered.contains("Total eval"));
        // No U-list seconds recorded → no rate row.
        assert!(!rendered.contains("U-list GF/s"));
    }

    #[test]
    fn summary_reports_ulist_rate() {
        let mut p = Profile::default();
        p.add_flops(Phase::UList, 2_000_000_000);
        p.add_secs(Phase::UList, 1.0);
        let s = ProfileSummary::from_ranks(&[p]);
        let rendered = s.render();
        assert!(rendered.contains("U-list GF/s"), "{rendered}");
        assert!(rendered.contains("2.00"), "{rendered}");
    }

    /// Nonzero flops with a 0.0-second average must render `-`, not a
    /// bogus 0.0 rate (max column still prints normally).
    #[test]
    fn zero_avg_seconds_renders_dash_not_zero_rate() {
        let mut a = Profile::default();
        a.add_flops(Phase::UList, 1_000_000_000);
        a.add_secs(Phase::UList, 0.5);
        let mut b = Profile::default();
        b.add_flops(Phase::UList, 1_000_000_000);
        // b records flops but no seconds; with enough such ranks the avg
        // rounds to 0.0 while favg stays > 0. Force the edge directly:
        let mut s = ProfileSummary::from_ranks(&[a, b]);
        s.secs[Phase::UList as usize].2 = 0.0; // savg == 0.0, favg > 0
        let rendered = s.render();
        let rate_line = rendered
            .lines()
            .find(|l| l.starts_with("U-list GF/s"))
            .expect("rate row present");
        assert!(rate_line.trim_end().ends_with('-'), "{rate_line:?}");
    }

    #[test]
    fn ulist_edge_model_counts_real_pairs() {
        assert_eq!(flop_model::ulist_edge(10, 7, 20), 1400);
        assert_eq!(flop_model::ulist_edge(0, 7, 20), 0);
    }

    /// Combined Upward+Downward rate row: 4 GFLOP in 1 s → 4.00 GF/s.
    #[test]
    fn summary_reports_updown_rate() {
        let mut p = Profile::default();
        p.add_flops(Phase::Upward, 1_000_000_000);
        p.add_secs(Phase::Upward, 0.5);
        p.add_flops(Phase::Downward, 3_000_000_000);
        p.add_secs(Phase::Downward, 0.5);
        let s = ProfileSummary::from_ranks(&[p]);
        let rendered = s.render();
        let line = rendered
            .lines()
            .find(|l| l.starts_with("Up/Down GF/s"))
            .expect("up/down rate row present");
        assert!(line.contains("4.00"), "{line:?}");
        // No translation seconds recorded → no rate row.
        let empty = ProfileSummary::from_ranks(&[Profile::default()]).render();
        assert!(!empty.contains("Up/Down GF/s"));
    }

    /// The grouped-translation byte model must show the BLAS-3 win: for a
    /// full group the operator is streamed once per GEMM_NR columns, so
    /// traffic drops well below the per-box matvec path; flops stay equal.
    #[test]
    fn translate_group_model_amortizes_operator_traffic() {
        let (rows, cols, m) = (152, 152, 512);
        assert_eq!(
            flop_model::translate_group(rows, cols, m),
            m as u64 * flop_model::translate_group(rows, cols, 1)
        );
        let grouped = flop_model::translate_group_bytes(rows, cols, m);
        let matvec = flop_model::translate_matvec_bytes(rows, cols, m);
        assert!(
            (grouped as f64) < 0.3 * matvec as f64,
            "grouped {grouped} vs matvec {matvec}"
        );
        // A single-column "group" has no amortization to offer.
        assert!(
            flop_model::translate_group_bytes(rows, cols, 1)
                >= flop_model::translate_matvec_bytes(rows, cols, 1)
        );
    }
}
