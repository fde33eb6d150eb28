//! Ablation — dense vs batched half-spectrum FFT V-list translation.
//!
//! DESIGN.md calls out the FFT diagonalization (paper §IV) as the design
//! choice that makes the V-list tractable; this harness measures the
//! production path against the dense oracle — actual V-list wall time
//! and flop counts at increasing surface order: the dense operator grows
//! like `n_surf²` per interaction, the batched half-spectrum path like
//! `(2p)²·(p+1)` with the transfer-vector spectra shared across edges.
//!
//! Usage: `ablation_m2l [n_points]` (default 20 000). Results are also
//! written as JSON to `results/BENCH_m2l.json` for the CI smoke job.

use std::sync::Arc;

use pfmm_bench::{run_case_best, Distribution, Table};
use pfmm_core::{FmmConfig, M2lMode, Phase};
use pfmm_kernels::Laplace;

struct Row {
    order: usize,
    wall: [f64; 2],
    gflop: [f64; 2],
}

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("n_points must be an integer"))
        .unwrap_or(20_000);
    let q = 40;
    println!("Ablation: dense vs fft-batched M2L (uniform, N = {n}, q = {q}, p = 1)\n");
    let modes = [M2lMode::Dense, M2lMode::FftBatched];
    let mut t = Table::new(&[
        "order",
        "dense wall(s)",
        "batched wall(s)",
        "dense GFlop",
        "batched GFlop",
        "batched/dense",
    ]);
    let mut rows = Vec::new();
    for order in [4usize, 6, 8] {
        let mut wall = [0.0f64; 2];
        let mut gflop = [0.0f64; 2];
        for (i, &m2l) in modes.iter().enumerate() {
            let cfg = FmmConfig {
                order,
                q,
                m2l,
                ..Default::default()
            };
            let s = run_case_best(Arc::new(Laplace), cfg, Distribution::Uniform, n, 1, 13, 1);
            wall[i] = s.max_secs(Phase::VList);
            gflop[i] = s.profiles[0].flops(Phase::VList) as f64 / 1e9;
        }
        t.row(vec![
            order.to_string(),
            format!("{:.3}", wall[0]),
            format!("{:.3}", wall[1]),
            format!("{:.2}", gflop[0]),
            format!("{:.2}", gflop[1]),
            format!("{:.1}x", wall[0] / wall[1].max(1e-9)),
        ]);
        rows.push(Row { order, wall, gflop });
    }
    println!("{}", t.render());
    println!("expected: the spectral path's advantage grows with the surface order");
    println!("(dense is O(n_surf^2) per pair, the half-spectrum Hadamard");
    println!("O((2p)^2 (p+1)), with transfer-vector spectra reused across edges).");

    let json = render_json(n, q, &rows);
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_m2l.json", &json).expect("write results/BENCH_m2l.json");
    println!("\nwrote results/BENCH_m2l.json");
}

fn render_json(n: usize, q: usize, rows: &[Row]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{{\n  \"bench\": \"ablation_m2l\",\n  \"n\": {n},\n  \"q\": {q},\n  \"rows\": [\n"
    ));
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"order\": {}, \"dense_wall_s\": {:.6}, \"fft_batched_wall_s\": {:.6}, \
             \"dense_gflop\": {:.4}, \"fft_batched_gflop\": {:.4}, \
             \"speedup_batched_vs_dense\": {:.3}}}{}\n",
            r.order,
            r.wall[0],
            r.wall[1],
            r.gflop[0],
            r.gflop[1],
            r.wall[0] / r.wall[1].max(1e-9),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
