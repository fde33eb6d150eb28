//! Conservation laws for the telemetry mirror (DESIGN.md §14).
//!
//! The registry is *post-hoc*: it re-publishes the authoritative
//! `Profile`/`CommStats` accounting after each evaluation. These tests
//! hold the mirror to that claim — every comm counter equals the
//! `CommStats` cell it mirrors, with no extra cells — and verify that
//! recording never perturbs the arithmetic (bitwise-identical
//! potentials with metrics enabled vs disabled), on a traced
//! multi-rank run.

use std::sync::Arc;

use pfmm_core::distrib::{randomize_densities, uniform_cube};
use pfmm_core::{Fmm, FmmConfig};
use pfmm_kernels::Laplace;
use pfmm_metrics::MetricsRegistry;
use pfmm_mpisim::CommStats;
use pfmm_trace::{TraceLevel, Tracer};

const RANKS: usize = 3;

type RankOut = (Vec<u64>, Vec<f64>, CommStats);

fn run(reg: &Arc<MetricsRegistry>) -> Vec<RankOut> {
    let mut pts = uniform_cube(1500, 11, 0);
    randomize_densities(&mut pts, 1, 0x5a);
    let fmm = Fmm::new(
        Arc::new(Laplace),
        FmmConfig {
            order: 4,
            q: 40,
            ..Default::default()
        },
    );
    let tracer = Arc::new(Tracer::new(TraceLevel::Comm));
    pfmm_mpisim::run(RANKS, |c| {
        let mine: Vec<_> = pts.iter().skip(c.rank()).step_by(RANKS).copied().collect();
        let res = fmm.evaluate_observed(c, mine, &tracer, reg);
        (res.gids, res.pot, res.comm)
    })
}

fn assert_mirror_matches(reg: &MetricsRegistry, outs: &[RankOut]) {
    let snap = reg.snapshot(0.0);
    for (rank, (_, _, comm)) in outs.iter().enumerate() {
        let r = rank.to_string();
        let rl: &[(&str, &str)] = &[("rank", &r)];
        assert_eq!(
            reg.counter_value(
                "pfmm_evaluations_total",
                &[("kernel", "laplace"), ("rank", &r)],
            ),
            Some(1),
            "rank {rank}: exactly one evaluation recorded"
        );
        for (name, want) in [
            ("pfmm_comm_sent_msgs_total", comm.sent_msgs),
            ("pfmm_comm_sent_bytes_total", comm.sent_bytes),
            ("pfmm_comm_recv_msgs_total", comm.recv_msgs),
            ("pfmm_comm_recv_bytes_total", comm.recv_bytes),
        ] {
            assert_eq!(
                reg.counter_value(name, rl),
                Some(want),
                "rank {rank}: {name} mirrors CommStats"
            );
        }
        for (&(peer, kind), ps) in &comm.by_peer {
            let p = peer.to_string();
            let labels: &[(&str, &str)] =
                &[("rank", &r), ("peer", &p), ("collective", kind.label())];
            for (name, want) in [
                ("pfmm_comm_peer_sent_msgs_total", ps.sent_msgs),
                ("pfmm_comm_peer_sent_bytes_total", ps.sent_bytes),
                ("pfmm_comm_peer_recv_msgs_total", ps.recv_msgs),
                ("pfmm_comm_peer_recv_bytes_total", ps.recv_bytes),
            ] {
                assert_eq!(
                    reg.counter_value(name, labels),
                    Some(want),
                    "rank {rank} peer {peer} {}: {name} mirrors the cell",
                    kind.label()
                );
            }
        }
        // No phantom cells: the registry holds exactly one
        // per-(peer, collective) series per CommStats cell.
        let cells = snap
            .entries
            .iter()
            .filter(|e| {
                e.name == "pfmm_comm_peer_sent_bytes_total"
                    && e.labels.contains(&("rank".to_string(), r.clone()))
            })
            .count();
        assert_eq!(
            cells,
            comm.by_peer.len(),
            "rank {rank}: mirrored cell count equals by_peer cells"
        );
    }
}

#[test]
fn comm_mirror_matches_commstats() {
    let reg = Arc::new(MetricsRegistry::new());
    let outs = run(&reg);
    assert_mirror_matches(&reg, &outs);
}

#[test]
fn potentials_bitwise_identical_with_metrics_enabled() {
    let on = Arc::new(MetricsRegistry::new());
    let off = Arc::new(MetricsRegistry::new());
    off.set_enabled(false);
    let a = run(&on);
    let b = run(&off);
    assert!(!on.is_empty(), "enabled registry recorded instruments");
    assert!(off.is_empty(), "disabled registry recorded nothing");
    for (rank, ((ga, pa, _), (gb, pb, _))) in a.iter().zip(&b).enumerate() {
        assert_eq!(ga, gb, "rank {rank}: ownership identical");
        assert_eq!(pa.len(), pb.len());
        for (i, (x, y)) in pa.iter().zip(pb).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "rank {rank} potential {i}: metrics changed bits"
            );
        }
    }
}
