//! Round-trip property tests for the Chrome-trace exporter: serialize →
//! parse → identical events, with spans strictly nested per lane and
//! every flow id matched.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::borrow::Cow;

use pfmm_trace::chrome;
use pfmm_trace::{Event, EventKind};

const NAMES: [&str; 6] = [
    "Upward",
    "U-list",
    "send",
    "dep",
    "π/θ \"quoted\"",
    "a\\b\nc",
];
const CATS: [&str; 4] = ["phase", "task", "comm", "sched"];

/// Generate a structurally valid random event stream: per-lane strictly
/// nested spans, instants/counters sprinkled in, and flow pairs whose
/// end never precedes its start.
fn gen_events(seed: u64) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(seed);
    let lanes = 1 + rng.random_below(4) as usize;
    let mut evs: Vec<Event> = Vec::new();
    let mut clock = 0.0f64;
    let tick = |rng: &mut StdRng, clock: &mut f64| {
        *clock += rng.random::<f64>() * 10.0;
        *clock
    };
    let mut open: Vec<Vec<usize>> = vec![Vec::new(); lanes]; // depth markers
    let mut pending_flows: Vec<u64> = Vec::new();
    let mut next_flow = 1u64;
    for _ in 0..(10 + rng.random_below(60)) {
        let lane = rng.random_below(lanes as u64) as usize;
        let (rank, tid) = ((lane / 2) as u32, (lane % 2) as u32);
        let name = NAMES[rng.random_below(NAMES.len() as u64) as usize];
        let cat = CATS[rng.random_below(CATS.len() as u64) as usize];
        let ts_us = tick(&mut rng, &mut clock);
        let mut e = Event {
            kind: EventKind::Instant,
            name: Cow::Borrowed(name),
            cat: Cow::Borrowed(cat),
            rank,
            tid,
            ts_us,
            flow: 0,
            args: Vec::new(),
        };
        for _ in 0..rng.random_below(3) {
            let k = ["peer", "bytes", "task", "level"][rng.random_below(4) as usize];
            // Keep values ≤ 2^53 so the JSON number round-trip is exact.
            e.args.push((Cow::Borrowed(k), rng.next_u64() >> 11));
        }
        match rng.random_below(6) {
            0 | 1 => {
                e.kind = EventKind::Begin;
                open[lane].push(evs.len());
                evs.push(e);
            }
            2 => {
                if open[lane].pop().is_some() {
                    e.kind = EventKind::End;
                    e.name = Cow::Borrowed("");
                    e.cat = Cow::Borrowed("");
                    e.args.clear();
                    evs.push(e);
                }
            }
            3 => {
                e.kind = EventKind::FlowStart;
                e.flow = next_flow;
                pending_flows.push(next_flow);
                next_flow += 1;
                evs.push(e);
            }
            4 => {
                if let Some(f) = pending_flows.pop() {
                    e.kind = EventKind::FlowEnd;
                    e.flow = f;
                    evs.push(e);
                }
            }
            _ => {
                if rng.random::<f64>() < 0.5 {
                    e.kind = EventKind::Counter;
                }
                evs.push(e);
            }
        }
    }
    // Close whatever is still open (innermost first) and finish flows.
    for (lane, stack) in open.iter_mut().enumerate() {
        while stack.pop().is_some() {
            let ts_us = tick(&mut rng, &mut clock);
            evs.push(Event {
                kind: EventKind::End,
                name: Cow::Borrowed(""),
                cat: Cow::Borrowed(""),
                rank: (lane / 2) as u32,
                tid: (lane % 2) as u32,
                ts_us,
                flow: 0,
                args: Vec::new(),
            });
        }
    }
    for f in pending_flows.drain(..) {
        let ts_us = tick(&mut rng, &mut clock);
        evs.push(Event {
            kind: EventKind::FlowEnd,
            name: Cow::Borrowed("dep"),
            cat: Cow::Borrowed("sched"),
            rank: 0,
            tid: 0,
            ts_us,
            flow: f,
            args: Vec::new(),
        });
    }
    evs
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn chrome_round_trip(seed in 0u64..1_000_000) {
        let evs = gen_events(seed);
        let json = chrome::to_json_string(&evs);
        let back = chrome::parse(&json).expect("exporter output must parse");
        prop_assert_eq!(&back, &evs);
        // Structural guarantees: strict nesting per tid, matched flows.
        let st = chrome::validate(&back).expect("exporter output must validate");
        let begins = evs.iter().filter(|e| e.kind == EventKind::Begin).count();
        prop_assert_eq!(st.spans, begins);
    }
}
