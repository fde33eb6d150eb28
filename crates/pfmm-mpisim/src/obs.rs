//! Mirror of [`CommStats`] into the always-on
//! telemetry registry.
//!
//! The simulated MPI layer already keeps authoritative per-rank and
//! per-`(peer, collective)` traffic totals; this module re-publishes
//! them as monotonic counters so a live scrape sees communication
//! volume without draining a trace. Recording happens once per
//! evaluation (cold path), mirroring the *same* `CommStats` value the
//! caller stores in its result — the conservation test in `pfmm-core`
//! holds the two equal cell for cell.

use crate::comm::CommStats;
use pfmm_metrics::MetricsRegistry;

/// Add `stats` (a per-run delta or an end-of-run total from a fresh
/// communicator) onto rank-labelled comm counters:
///
/// - `pfmm_comm_{sent,recv}_{msgs,bytes}_total{rank}` — rank totals;
/// - `pfmm_comm_peer_{sent,recv}_{msgs,bytes}_total{rank,peer,collective}`
///   — the per-`(peer, collective)` cells.
pub fn record_comm(reg: &MetricsRegistry, rank: usize, stats: &CommStats) {
    if !reg.enabled() {
        return;
    }
    let r = rank.to_string();
    let rl: &[(&str, &str)] = &[("rank", &r)];
    reg.counter("pfmm_comm_sent_msgs_total", rl)
        .add(stats.sent_msgs);
    reg.counter("pfmm_comm_sent_bytes_total", rl)
        .add(stats.sent_bytes);
    reg.counter("pfmm_comm_recv_msgs_total", rl)
        .add(stats.recv_msgs);
    reg.counter("pfmm_comm_recv_bytes_total", rl)
        .add(stats.recv_bytes);
    for (&(peer, kind), ps) in &stats.by_peer {
        let p = peer.to_string();
        let labels: &[(&str, &str)] = &[("rank", &r), ("peer", &p), ("collective", kind.label())];
        reg.counter("pfmm_comm_peer_sent_msgs_total", labels)
            .add(ps.sent_msgs);
        reg.counter("pfmm_comm_peer_sent_bytes_total", labels)
            .add(ps.sent_bytes);
        reg.counter("pfmm_comm_peer_recv_msgs_total", labels)
            .add(ps.recv_msgs);
        reg.counter("pfmm_comm_peer_recv_bytes_total", labels)
            .add(ps.recv_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::PeerStats;
    use crate::CollectiveKind;

    #[test]
    fn mirror_matches_stats_cell_for_cell() {
        let mut stats = CommStats {
            sent_msgs: 3,
            sent_bytes: 300,
            recv_msgs: 2,
            recv_bytes: 200,
            ..Default::default()
        };
        stats.by_peer.insert(
            (1, CollectiveKind::P2p),
            PeerStats {
                sent_msgs: 2,
                sent_bytes: 180,
                recv_msgs: 1,
                recv_bytes: 90,
            },
        );
        stats.by_peer.insert(
            (0, CollectiveKind::Reduce),
            PeerStats {
                sent_msgs: 1,
                sent_bytes: 120,
                recv_msgs: 1,
                recv_bytes: 110,
            },
        );
        let reg = MetricsRegistry::new();
        record_comm(&reg, 7, &stats);
        record_comm(&reg, 7, &stats); // counters accumulate across runs
        assert_eq!(
            reg.counter_value("pfmm_comm_sent_bytes_total", &[("rank", "7")]),
            Some(600)
        );
        assert_eq!(
            reg.counter_value(
                "pfmm_comm_peer_sent_bytes_total",
                &[("rank", "7"), ("peer", "1"), ("collective", "p2p")]
            ),
            Some(360)
        );
        assert_eq!(
            reg.counter_value(
                "pfmm_comm_peer_recv_bytes_total",
                &[("rank", "7"), ("peer", "0"), ("collective", "reduce")]
            ),
            Some(220)
        );
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = MetricsRegistry::new();
        reg.set_enabled(false);
        record_comm(&reg, 0, &CommStats::default());
        assert!(reg.is_empty());
    }
}
