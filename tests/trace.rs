//! Cross-crate observability tests: the trace recorded around a real
//! distributed evaluation must be well-formed Chrome JSON, must carry
//! the cross-rank flow arrows that make the hypercube rounds visible,
//! must agree *exactly* with the mpisim traffic counters, and — the
//! invariant everything else leans on — must not perturb the numerics:
//! potentials stay bitwise identical at every trace level.

use std::sync::Arc;

use pfmm::fmm::distrib::{randomize_densities, uniform_cube};
use pfmm::fmm::driver::gather_potentials;
use pfmm::fmm::{Fmm, FmmConfig, Reduction};
use pfmm::kernels::Laplace;
use pfmm::mpisim::{self, CommMatrix, CommStats};
use pfmm::trace::{chrome, metrics, Event, TraceLevel, Tracer};
use pfmm::tree::PointRec;

const P: usize = 4;

fn cloud(n: usize) -> Vec<PointRec> {
    let mut pts = uniform_cube(n, 7, 0);
    randomize_densities(&mut pts, 1, 9);
    pts
}

fn cfg() -> FmmConfig {
    FmmConfig {
        order: 4,
        q: 40,
        threads: 2,
        reduction: Reduction::Hypercube,
        ..Default::default()
    }
}

type Potentials = Vec<(u64, Vec<f64>)>;

/// Run traced on `P` ranks; returns per-rank (potentials, comm stats)
/// plus the drained, time-sorted event stream.
fn run_traced(
    fmm: &Fmm,
    pts: &[PointRec],
    tracer: &Arc<Tracer>,
) -> (Vec<(Potentials, CommStats)>, Vec<Event>) {
    let out = mpisim::run(P, |c| {
        let mine: Vec<_> = pts.iter().skip(c.rank()).step_by(P).copied().collect();
        let res = fmm.evaluate_observed(c, mine, tracer, pfmm_metrics::global());
        (gather_potentials(c, &res, 1), c.stats())
    });
    let events = tracer.drain();
    (out, events)
}

#[test]
fn comm_trace_carries_flow_arrows_for_every_hypercube_round() {
    let fmm = Fmm::new(Arc::new(Laplace), cfg());
    let pts = cloud(1600);
    let tracer = Arc::new(Tracer::new(TraceLevel::Comm));
    let (_, events) = run_traced(&fmm, &pts, &tracer);

    let stats = chrome::validate(&events).expect("trace is well-formed");
    assert!(stats.spans > 0, "spans recorded");
    // The hypercube reduce-and-scatter runs log2(p) rounds on every
    // rank, each shipping at least one message whose send/recv pair is
    // linked by a flow arrow — that's what renders the butterfly in
    // Perfetto. p = 4 gives 2 rounds x 4 ranks as the floor; the LET
    // exchange and the final gather only add more.
    let rounds = P.ilog2() as usize;
    assert!(
        stats.flows >= P * rounds,
        "expected >= {} matched flow arrows (one per rank per round), got {}",
        P * rounds,
        stats.flows
    );

    // Exact JSON round-trip: export, parse back, same validation result.
    let json = chrome::to_json_string(&events);
    let back = chrome::parse(&json).expect("exported JSON parses");
    assert_eq!(
        chrome::validate(&back).expect("round-tripped trace validates"),
        stats
    );
}

#[test]
fn trace_derived_comm_matrix_matches_mpisim_counters_exactly() {
    let fmm = Fmm::new(Arc::new(Laplace), cfg());
    let pts = cloud(1600);
    let tracer = Arc::new(Tracer::new(TraceLevel::Comm));
    let (out, events) = run_traced(&fmm, &pts, &tracer);

    let per_rank: Vec<CommStats> = out.iter().map(|(_, s)| s.clone()).collect();
    for (r, s) in per_rank.iter().enumerate() {
        s.check_consistent()
            .unwrap_or_else(|e| panic!("rank {r} stats inconsistent: {e}"));
    }
    let counted = CommMatrix::from_stats(&per_rank);
    let traced = metrics::comm_matrix(&events);
    assert_eq!(traced.p, P);
    assert_eq!(counted.p, P);
    // Cell-for-cell: every message the runtime counted produced exactly
    // one `send` instant with the same byte payload, so the matrix
    // recovered from the trace is *equal* to the one summed from the
    // counters — not approximately, exactly.
    assert_eq!(traced.msgs, counted.msgs, "per-(src,dst) message counts");
    assert_eq!(traced.bytes, counted.bytes, "per-(src,dst) byte counts");
    let sent_total: u64 = per_rank.iter().map(|s| s.sent_bytes).sum();
    assert_eq!(counted.total_bytes(), sent_total);
}

#[test]
fn potentials_stay_bitwise_identical_at_every_trace_level() {
    let pts = cloud(1200);
    let fmm = Fmm::new(Arc::new(Laplace), cfg());
    let baseline = mpisim::run(P, |c| {
        let mine: Vec<_> = pts.iter().skip(c.rank()).step_by(P).copied().collect();
        gather_potentials(c, &fmm.evaluate(c, mine), 1)
    })[0]
        .clone();
    for level in [
        TraceLevel::Off,
        TraceLevel::Phase,
        TraceLevel::Task,
        TraceLevel::Comm,
    ] {
        let tracer = Arc::new(Tracer::new(level));
        let (out, _) = run_traced(&fmm, &pts, &tracer);
        // Bitwise, not approximate: tracing wraps the phase closures
        // from the outside and must never reorder a flop.
        assert_eq!(
            out[0].0, baseline,
            "{level:?} diverged from the untraced run"
        );
    }
}

#[test]
fn off_tracer_records_nothing() {
    let fmm = Fmm::new(Arc::new(Laplace), cfg());
    let pts = cloud(800);
    let tracer = Arc::new(Tracer::off());
    let (out, events) = run_traced(&fmm, &pts, &tracer);
    assert!(events.is_empty(), "off tracer must record zero events");
    assert_eq!(out[0].0.len(), 800, "evaluation itself still ran");
}
