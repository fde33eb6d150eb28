//! Ranks, tagged point-to-point messaging, and the SPMD launcher.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};

/// Types that can travel between ranks.
///
/// `Copy + Send` mirrors MPI's plain-old-data buffers: messages are slices
/// of `Wire` elements, and byte accounting is `len * size_of::<T>()`.
pub trait Wire: Copy + Send + 'static {}
impl<T: Copy + Send + 'static> Wire for T {}

struct Envelope {
    src: usize,
    tag: u32,
    /// The payload is a `Vec<T>` boxed as `Any`; element size is recorded
    /// for the byte counters at the receiving side.
    payload: Box<dyn Any + Send>,
    bytes: usize,
    /// The sender's collective scope at send time; the receiver charges
    /// its per-peer counters to the same class so per-kind sent and
    /// received volumes agree globally.
    kind: CollectiveKind,
    /// Trace flow id linking this send to its matching recv (0 = the
    /// sender was not tracing at `comm` level).
    flow: u64,
}

/// The tag class a message is charged to: the collective (or FMM-specific
/// exchange) it was sent under, or plain [`CollectiveKind::P2p`] traffic.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CollectiveKind {
    /// Plain point-to-point traffic outside any collective scope.
    #[default]
    P2p,
    /// Barrier synchronization.
    Barrier,
    /// Broadcast from a root.
    Bcast,
    /// Reduce / allreduce (binomial tree + broadcast).
    Reduce,
    /// Allgather(v) rounds.
    Allgather,
    /// Personalized all-to-all exchanges.
    Alltoall,
    /// Prefix scans.
    Scan,
    /// The paper's Algorithm 3 hypercube reduce-scatter of up densities
    /// (lives in `pfmm-core::reduce`, which opens this scope itself).
    HypercubeReduce,
}

impl CollectiveKind {
    /// Every kind, in reporting order.
    pub const ALL: [CollectiveKind; 8] = [
        CollectiveKind::P2p,
        CollectiveKind::Barrier,
        CollectiveKind::Bcast,
        CollectiveKind::Reduce,
        CollectiveKind::Allgather,
        CollectiveKind::Alltoall,
        CollectiveKind::Scan,
        CollectiveKind::HypercubeReduce,
    ];

    /// Short display name.
    pub fn label(&self) -> &'static str {
        match self {
            CollectiveKind::P2p => "p2p",
            CollectiveKind::Barrier => "barrier",
            CollectiveKind::Bcast => "bcast",
            CollectiveKind::Reduce => "reduce",
            CollectiveKind::Allgather => "allgather",
            CollectiveKind::Alltoall => "alltoall",
            CollectiveKind::Scan => "scan",
            CollectiveKind::HypercubeReduce => "hypercube",
        }
    }

    /// Stable numeric code (used as a trace arg payload).
    pub fn code(&self) -> u64 {
        CollectiveKind::ALL
            .iter()
            .position(|k| k == self)
            .expect("kind in ALL") as u64
    }
}

/// Message/byte counters for one `(peer, kind)` cell of the breakdown.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PeerStats {
    /// Messages sent to the peer under this kind.
    pub sent_msgs: u64,
    /// Payload bytes sent to the peer under this kind.
    pub sent_bytes: u64,
    /// Messages received from the peer under this kind.
    pub recv_msgs: u64,
    /// Payload bytes received from the peer under this kind.
    pub recv_bytes: u64,
}

/// Per-rank communication counters.
///
/// `bytes` counts payload bytes only (as a real MPI byte count would,
/// modulo headers); collectives count the point-to-point traffic they are
/// built from. The four total fields are charged on exactly the same
/// events as the `by_peer` breakdown, so the breakdown always sums back
/// to the totals (asserted by [`CommStats::check_consistent`] in tests).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Messages sent by this rank.
    pub sent_msgs: u64,
    /// Payload bytes sent by this rank.
    pub sent_bytes: u64,
    /// Messages received by this rank.
    pub recv_msgs: u64,
    /// Payload bytes received by this rank.
    pub recv_bytes: u64,
    /// Per-`(peer, collective)` breakdown of the same traffic.
    pub by_peer: HashMap<(usize, CollectiveKind), PeerStats>,
}

impl CommStats {
    /// Counters accumulated since `before` was snapshotted (both
    /// snapshots must come from the same rank, in order).
    pub fn delta_since(&self, before: &CommStats) -> CommStats {
        let mut by_peer = HashMap::new();
        for (k, a) in &self.by_peer {
            let b = before.by_peer.get(k).copied().unwrap_or_default();
            let d = PeerStats {
                sent_msgs: a.sent_msgs - b.sent_msgs,
                sent_bytes: a.sent_bytes - b.sent_bytes,
                recv_msgs: a.recv_msgs - b.recv_msgs,
                recv_bytes: a.recv_bytes - b.recv_bytes,
            };
            if d != PeerStats::default() {
                by_peer.insert(*k, d);
            }
        }
        CommStats {
            sent_msgs: self.sent_msgs - before.sent_msgs,
            sent_bytes: self.sent_bytes - before.sent_bytes,
            recv_msgs: self.recv_msgs - before.recv_msgs,
            recv_bytes: self.recv_bytes - before.recv_bytes,
            by_peer,
        }
    }

    /// Sum the breakdown over peers for one collective kind.
    pub fn kind_totals(&self, kind: CollectiveKind) -> PeerStats {
        let mut acc = PeerStats::default();
        for ((_, k), v) in &self.by_peer {
            if *k == kind {
                acc.sent_msgs += v.sent_msgs;
                acc.sent_bytes += v.sent_bytes;
                acc.recv_msgs += v.recv_msgs;
                acc.recv_bytes += v.recv_bytes;
            }
        }
        acc
    }

    /// Sum the breakdown over kinds for one peer.
    pub fn peer_totals(&self, peer: usize) -> PeerStats {
        let mut acc = PeerStats::default();
        for ((p, _), v) in &self.by_peer {
            if *p == peer {
                acc.sent_msgs += v.sent_msgs;
                acc.sent_bytes += v.sent_bytes;
                acc.recv_msgs += v.recv_msgs;
                acc.recv_bytes += v.recv_bytes;
            }
        }
        acc
    }

    /// Verify the per-peer breakdown sums exactly to the four totals.
    ///
    /// # Errors
    /// Returns which counter disagrees, with both values.
    pub fn check_consistent(&self) -> Result<(), String> {
        let mut sum = PeerStats::default();
        for v in self.by_peer.values() {
            sum.sent_msgs += v.sent_msgs;
            sum.sent_bytes += v.sent_bytes;
            sum.recv_msgs += v.recv_msgs;
            sum.recv_bytes += v.recv_bytes;
        }
        let checks = [
            ("sent_msgs", sum.sent_msgs, self.sent_msgs),
            ("sent_bytes", sum.sent_bytes, self.sent_bytes),
            ("recv_msgs", sum.recv_msgs, self.recv_msgs),
            ("recv_bytes", sum.recv_bytes, self.recv_bytes),
        ];
        for (name, got, want) in checks {
            if got != want {
                return Err(format!(
                    "{name}: breakdown sums to {got}, totals say {want}"
                ));
            }
        }
        Ok(())
    }
}

/// A p×p traffic matrix assembled from every rank's [`CommStats`]
/// breakdown (sender side: row = source rank, column = destination).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommMatrix {
    /// Number of ranks (matrix side).
    pub p: usize,
    /// `msgs[src * p + dst]`.
    pub msgs: Vec<u64>,
    /// `bytes[src * p + dst]`.
    pub bytes: Vec<u64>,
}

impl CommMatrix {
    /// Build from per-rank stats, `stats[r]` being rank r's counters.
    /// Peers outside `0..p` (never produced by `Comm`) are ignored.
    pub fn from_stats(stats: &[CommStats]) -> CommMatrix {
        let p = stats.len();
        let mut msgs = vec![0u64; p * p];
        let mut bytes = vec![0u64; p * p];
        for (src, s) in stats.iter().enumerate() {
            for ((peer, _), v) in &s.by_peer {
                if *peer < p {
                    msgs[src * p + peer] += v.sent_msgs;
                    bytes[src * p + peer] += v.sent_bytes;
                }
            }
        }
        CommMatrix { p, msgs, bytes }
    }

    /// Total messages over all (src, dst) pairs.
    pub fn total_msgs(&self) -> u64 {
        self.msgs.iter().sum()
    }

    /// Total bytes over all (src, dst) pairs.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Render the byte matrix as a p×p table with row/column sums.
    pub fn render(&self) -> String {
        let p = self.p;
        let mut s = String::new();
        let _ = write!(s, "{:>8}", "src\\dst");
        for d in 0..p {
            let _ = write!(s, " {d:>10}");
        }
        let _ = writeln!(s, " {:>10}", "sum");
        for r in 0..p {
            let _ = write!(s, "{r:>8}");
            let mut row = 0u64;
            for d in 0..p {
                let b = self.bytes[r * p + d];
                row += b;
                let _ = write!(s, " {b:>10}");
            }
            let _ = writeln!(s, " {row:>10}");
        }
        let _ = write!(s, "{:>8}", "sum");
        for d in 0..p {
            let col: u64 = (0..p).map(|r| self.bytes[r * p + d]).sum();
            let _ = write!(s, " {col:>10}");
        }
        let _ = writeln!(s, " {:>10}", self.total_bytes());
        s
    }
}

/// A rank's endpoint in the simulated communicator.
///
/// One `Comm` lives on each rank thread; it is not `Sync` (like an MPI
/// communicator, it is used from its own rank only).
pub struct Comm {
    rank: usize,
    size: usize,
    peers: Vec<Sender<Envelope>>,
    inbox: Receiver<Envelope>,
    /// Messages that arrived before a matching `recv` was posted.
    pending: RefCell<VecDeque<Envelope>>,
    sent_msgs: Cell<u64>,
    sent_bytes: Cell<u64>,
    recv_msgs: Cell<u64>,
    recv_bytes: Cell<u64>,
    /// Per-`(peer, kind)` breakdown of the same counters.
    by_peer: RefCell<HashMap<(usize, CollectiveKind), PeerStats>>,
    /// The collective scope sends are currently charged to.
    kind: Cell<CollectiveKind>,
    /// Optional per-rank trace buffer recording send/recv events.
    tracer: RefCell<Option<pfmm_trace::Local>>,
}

impl Comm {
    /// This rank's id (0-based).
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Snapshot of this rank's traffic counters.
    pub fn stats(&self) -> CommStats {
        CommStats {
            sent_msgs: self.sent_msgs.get(),
            sent_bytes: self.sent_bytes.get(),
            recv_msgs: self.recv_msgs.get(),
            recv_bytes: self.recv_bytes.get(),
            by_peer: self.by_peer.borrow().clone(),
        }
    }

    /// Run `f` with sends/recvs charged to collective class `kind`.
    /// Scopes nest with the *outermost* class winning (an `exscan` built
    /// on an allgather stays charged to the scan, the way an MPI profiler
    /// attributes by the user-facing call); the previous class is
    /// restored on return.
    pub fn collective<R>(&self, kind: CollectiveKind, f: impl FnOnce() -> R) -> R {
        let prev = self.kind.get();
        if prev == CollectiveKind::P2p {
            self.kind.set(kind);
        }
        let out = f();
        self.kind.set(prev);
        out
    }

    /// The collective class sends are currently charged to.
    pub fn current_kind(&self) -> CollectiveKind {
        self.kind.get()
    }

    /// Attach a per-rank trace buffer; send/recv hooks record `comm`-level
    /// instants and cross-rank flow events through it. The buffer flushes
    /// into its tracer when the `Comm` is dropped (end of the rank
    /// closure).
    pub fn set_tracer(&self, local: pfmm_trace::Local) {
        *self.tracer.borrow_mut() = Some(local);
    }

    /// Charge a send of `bytes` to `dest`; returns the flow id to stamp
    /// on the envelope (0 when not tracing at comm level).
    fn charge_send(&self, dest: usize, tag: u32, bytes: usize) -> u64 {
        let kind = self.kind.get();
        self.sent_msgs.set(self.sent_msgs.get() + 1);
        self.sent_bytes.set(self.sent_bytes.get() + bytes as u64);
        {
            let mut m = self.by_peer.borrow_mut();
            let e = m.entry((dest, kind)).or_default();
            e.sent_msgs += 1;
            e.sent_bytes += bytes as u64;
        }
        let mut flow = 0;
        if let Some(t) = self.tracer.borrow_mut().as_mut() {
            if t.enabled(pfmm_trace::TraceLevel::Comm) {
                flow = t.tracer().alloc_flow();
                let args = [
                    ("peer", dest as u64),
                    ("bytes", bytes as u64),
                    ("tag", tag as u64),
                    ("kind", kind.code()),
                ];
                t.instant("send", "comm", &args);
                t.flow_start("msg", "comm", flow, &[]);
            }
        }
        flow
    }

    /// Charge a received envelope (kind attribution follows the sender's
    /// scope so per-kind volumes agree globally).
    fn charge_recv(&self, env: &Envelope) {
        self.recv_msgs.set(self.recv_msgs.get() + 1);
        self.recv_bytes
            .set(self.recv_bytes.get() + env.bytes as u64);
        {
            let mut m = self.by_peer.borrow_mut();
            let e = m.entry((env.src, env.kind)).or_default();
            e.recv_msgs += 1;
            e.recv_bytes += env.bytes as u64;
        }
        if let Some(t) = self.tracer.borrow_mut().as_mut() {
            if t.enabled(pfmm_trace::TraceLevel::Comm) {
                let args = [
                    ("peer", env.src as u64),
                    ("bytes", env.bytes as u64),
                    ("tag", env.tag as u64),
                    ("kind", env.kind.code()),
                ];
                t.instant("recv", "comm", &args);
                if env.flow != 0 {
                    t.flow_end("msg", "comm", env.flow, &[]);
                }
            }
        }
    }

    /// Send a slice of `T` to `dest` with a tag. Buffered: never blocks.
    ///
    /// Self-sends are allowed (the message loops through this rank's own
    /// inbox), matching MPI's buffered-send semantics.
    ///
    /// # Panics
    /// Panics if `dest` is out of range.
    pub fn send<T: Wire>(&self, dest: usize, tag: u32, data: &[T]) {
        self.send_vec(dest, tag, data.to_vec());
    }

    /// Send an owned vector (avoids the copy of [`Comm::send`]).
    pub fn send_vec<T: Wire>(&self, dest: usize, tag: u32, data: Vec<T>) {
        assert!(dest < self.size, "rank {dest} out of range");
        let bytes = std::mem::size_of_val(data.as_slice());
        let flow = self.charge_send(dest, tag, bytes);
        let env = Envelope {
            src: self.rank,
            tag,
            payload: Box::new(data),
            bytes,
            kind: self.kind.get(),
            flow,
        };
        self.peers[dest]
            .send(env)
            .expect("peer rank hung up before communicator teardown");
    }

    /// Blocking receive of a `Vec<T>` from `src` with the given tag.
    ///
    /// Messages from the same source with the same tag are delivered in
    /// send order (MPI's non-overtaking rule). Out-of-order arrivals from
    /// other sources/tags are parked until their own `recv` is posted.
    ///
    /// # Panics
    /// Panics if the matching message has a different element type than
    /// `T` (a programming error a real MPI would surface as corruption).
    pub fn recv<T: Wire>(&self, src: usize, tag: u32) -> Vec<T> {
        let env = self.take_matching(src, tag);
        self.charge_recv(&env);
        *env.payload
            .downcast::<Vec<T>>()
            .unwrap_or_else(|_| panic!("type mismatch on recv from {src} tag {tag}"))
    }

    fn take_matching(&self, src: usize, tag: u32) -> Envelope {
        let mut pending = self.pending.borrow_mut();
        if let Some(pos) = pending.iter().position(|e| e.src == src && e.tag == tag) {
            return pending.remove(pos).expect("position just found");
        }
        loop {
            let env = self
                .inbox
                .recv()
                .expect("all peers dropped while a recv was outstanding");
            if env.src == src && env.tag == tag {
                return env;
            }
            pending.push_back(env);
        }
    }

    /// Paired exchange with a partner rank (both sides call this).
    pub fn sendrecv<T: Wire>(&self, partner: usize, tag: u32, data: &[T]) -> Vec<T> {
        self.send(partner, tag, data);
        self.recv(partner, tag)
    }
}

/// Run an SPMD program on `p` ranks (one OS thread each) and collect the
/// per-rank return values in rank order.
///
/// ```
/// let totals = pfmm_mpisim::run(4, |c| {
///     // Everyone tells everyone their rank; each rank sums.
///     pfmm_mpisim::collectives::allgather_one(c, c.rank() as u64)
///         .into_iter()
///         .sum::<u64>()
/// });
/// assert_eq!(totals, vec![6, 6, 6, 6]);
/// ```
///
/// # Panics
/// Propagates a panic from any rank thread.
pub fn run<T, F>(p: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&Comm) -> T + Sync,
{
    assert!(p >= 1, "need at least one rank");
    let mut senders = Vec::with_capacity(p);
    let mut receivers = Vec::with_capacity(p);
    for _ in 0..p {
        let (tx, rx) = unbounded();
        senders.push(tx);
        receivers.push(rx);
    }
    let senders = Arc::new(senders);
    let f = &f;
    let mut comms: Vec<Comm> = receivers
        .into_iter()
        .enumerate()
        .map(|(rank, inbox)| Comm {
            rank,
            size: p,
            peers: senders.as_ref().clone(),
            inbox,
            pending: RefCell::new(VecDeque::new()),
            sent_msgs: Cell::new(0),
            sent_bytes: Cell::new(0),
            recv_msgs: Cell::new(0),
            recv_bytes: Cell::new(0),
            by_peer: RefCell::new(HashMap::new()),
            kind: Cell::new(CollectiveKind::P2p),
            tracer: RefCell::new(None),
        })
        .collect();

    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .drain(..)
            .map(|comm| scope.spawn(move |_| f(&comm)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    })
    .expect("mpisim scope panicked")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_runs() {
        let out = run(1, |c| c.rank() + c.size());
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn ring_pass() {
        let p = 5;
        let out = run(p, |c| {
            let next = (c.rank() + 1) % p;
            let prev = (c.rank() + p - 1) % p;
            c.send(next, 7, &[c.rank() as u64]);
            c.recv::<u64>(prev, 7)[0]
        });
        for (r, v) in out.iter().enumerate() {
            assert_eq!(*v as usize, (r + p - 1) % p);
        }
    }

    #[test]
    fn tag_matching_reorders() {
        let out = run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 1, &[10u32]);
                c.send(1, 2, &[20u32]);
                0
            } else {
                // Receive in the opposite order of sending.
                let b = c.recv::<u32>(0, 2)[0];
                let a = c.recv::<u32>(0, 1)[0];
                (a + b) as usize
            }
        });
        assert_eq!(out[1], 30);
    }

    #[test]
    fn fifo_per_source_and_tag() {
        let out = run(2, |c| {
            if c.rank() == 0 {
                for i in 0..100u32 {
                    c.send(1, 3, &[i]);
                }
                vec![]
            } else {
                (0..100).map(|_| c.recv::<u32>(0, 3)[0]).collect()
            }
        });
        assert_eq!(out[1], (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn self_send() {
        let out = run(1, |c| {
            c.send(0, 9, &[42u8, 43]);
            c.recv::<u8>(0, 9)
        });
        assert_eq!(out[0], vec![42, 43]);
    }

    #[test]
    fn stats_count_bytes() {
        let out = run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 0, &[0u64; 10]);
            } else {
                let _ = c.recv::<u64>(0, 0);
            }
            c.stats()
        });
        assert_eq!(out[0].sent_bytes, 80);
        assert_eq!(out[0].sent_msgs, 1);
        assert_eq!(out[1].recv_bytes, 80);
        assert_eq!(out[1].recv_msgs, 1);
    }

    #[test]
    fn per_peer_breakdown_sums_to_totals() {
        let p = 4;
        let out = run(p, |c| {
            // A mix of p2p and collective traffic.
            let next = (c.rank() + 1) % p;
            c.send(next, 1, &[0u64; 8]);
            let _ = c.recv::<u64>((c.rank() + p - 1) % p, 1);
            let _ = crate::collectives::allgather_one(c, c.rank() as u64);
            let _ = crate::collectives::allreduce_sum_u64(c, 1);
            crate::collectives::barrier(c);
            c.stats()
        });
        for (r, s) in out.iter().enumerate() {
            s.check_consistent()
                .unwrap_or_else(|e| panic!("rank {r}: {e}"));
            assert!(s.by_peer.keys().any(|(_, k)| *k == CollectiveKind::P2p));
        }
        // Global conservation: every byte sent is received under the same
        // kind class.
        for kind in CollectiveKind::ALL {
            let sent: u64 = out.iter().map(|s| s.kind_totals(kind).sent_bytes).sum();
            let recv: u64 = out.iter().map(|s| s.kind_totals(kind).recv_bytes).sum();
            assert_eq!(sent, recv, "kind {}", kind.label());
        }
    }

    #[test]
    fn collective_scopes_attribute_kinds() {
        let out = run(2, |c| {
            c.send(1 - c.rank(), 3, &[1u8, 2, 3]);
            let _ = c.recv::<u8>(1 - c.rank(), 3);
            let _ = crate::collectives::allgather_one(c, 9u64);
            c.stats()
        });
        for s in &out {
            assert_eq!(s.kind_totals(CollectiveKind::P2p).sent_bytes, 3);
            assert!(
                s.kind_totals(CollectiveKind::Allgather).sent_msgs > 0
                    || s.kind_totals(CollectiveKind::Allgather).recv_msgs > 0
            );
            assert_eq!(
                s.kind_totals(CollectiveKind::Alltoall),
                PeerStats::default()
            );
        }
    }

    #[test]
    fn nested_scope_outermost_wins() {
        let out = run(2, |c| {
            let _ = crate::collectives::exscan_sum_u64(c, 5);
            c.stats()
        });
        let sent: u64 = out
            .iter()
            .map(|s| s.kind_totals(CollectiveKind::Scan).sent_bytes)
            .sum();
        assert!(sent > 0, "exscan traffic charged to Scan, not Allgather");
        for s in &out {
            assert_eq!(
                s.kind_totals(CollectiveKind::Allgather),
                PeerStats::default()
            );
        }
    }

    #[test]
    fn comm_matrix_render_and_sums() {
        let p = 3;
        let stats = run(p, |c| {
            // rank r sends r+1 u64s to each other rank.
            for d in 0..p {
                if d != c.rank() {
                    c.send(d, 2, &vec![0u64; c.rank() + 1]);
                }
            }
            for s in 0..p {
                if s != c.rank() {
                    let _ = c.recv::<u64>(s, 2);
                }
            }
            c.stats()
        });
        let m = CommMatrix::from_stats(&stats);
        assert_eq!(m.p, p);
        // Row sums equal each rank's sent totals; grand total matches.
        for (r, s) in stats.iter().enumerate() {
            let row: u64 = (0..p).map(|d| m.bytes[r * p + d]).sum();
            assert_eq!(row, s.sent_bytes);
            let rmsgs: u64 = (0..p).map(|d| m.msgs[r * p + d]).sum();
            assert_eq!(rmsgs, s.sent_msgs);
        }
        assert_eq!(
            m.total_bytes(),
            stats.iter().map(|s| s.sent_bytes).sum::<u64>()
        );
        assert_eq!(m.bytes[p], 16); // rank 1 -> rank 0: 2 u64s
        let table = m.render();
        assert!(table.contains("src\\dst"), "{table}");
        // One line per rank plus header and sum row.
        assert_eq!(table.lines().count(), p + 2, "{table}");
    }

    #[test]
    fn delta_since_subtracts_breakdown() {
        let out = run(2, |c| {
            c.send(1 - c.rank(), 1, &[0u8; 4]);
            let _ = c.recv::<u8>(1 - c.rank(), 1);
            let before = c.stats();
            c.send(1 - c.rank(), 1, &[0u8; 10]);
            let _ = c.recv::<u8>(1 - c.rank(), 1);
            c.stats().delta_since(&before)
        });
        for s in &out {
            assert_eq!(s.sent_msgs, 1);
            assert_eq!(s.sent_bytes, 10);
            s.check_consistent().unwrap();
            assert_eq!(
                s.peer_totals(1).sent_bytes + s.peer_totals(0).sent_bytes,
                10
            );
        }
    }

    #[test]
    fn traced_sends_pair_flows() {
        use pfmm_trace::{chrome, EventKind, TraceLevel, Tracer};
        use std::sync::Arc;
        let tracer = Arc::new(Tracer::new(TraceLevel::Comm));
        let t2 = Arc::clone(&tracer);
        run(2, move |c| {
            c.set_tracer(t2.local(c.rank() as u32, 0));
            c.send(1 - c.rank(), 7, &[0u32; 5]);
            let _ = c.recv::<u32>(1 - c.rank(), 7);
        });
        let evs = tracer.drain();
        let starts = evs
            .iter()
            .filter(|e| e.kind == EventKind::FlowStart)
            .count();
        let ends = evs.iter().filter(|e| e.kind == EventKind::FlowEnd).count();
        assert_eq!(starts, 2);
        assert_eq!(ends, 2);
        chrome::validate(&evs).unwrap();
        // Each flow starts on the sender's rank and ends on the other.
        for e in evs.iter().filter(|e| e.kind == EventKind::FlowStart) {
            let end = evs
                .iter()
                .find(|f| f.kind == EventKind::FlowEnd && f.flow == e.flow)
                .unwrap();
            assert_ne!(end.rank, e.rank);
        }
    }

    #[test]
    fn untraced_sends_record_nothing() {
        use pfmm_trace::{TraceLevel, Tracer};
        use std::sync::Arc;
        let tracer = Arc::new(Tracer::new(TraceLevel::Phase)); // below comm
        let t2 = Arc::clone(&tracer);
        run(2, move |c| {
            c.set_tracer(t2.local(c.rank() as u32, 0));
            c.send(1 - c.rank(), 7, &[0u32; 5]);
            let _ = c.recv::<u32>(1 - c.rank(), 7);
        });
        assert!(tracer.drain().is_empty());
    }

    #[test]
    fn sendrecv_swaps() {
        let out = run(2, |c| {
            let partner = 1 - c.rank();
            c.sendrecv(partner, 5, &[c.rank() as u32 * 100])[0]
        });
        assert_eq!(out, vec![100, 0]);
    }
}
