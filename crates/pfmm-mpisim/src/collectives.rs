//! Collective operations built from the point-to-point layer.
//!
//! These mirror the MPI collectives the paper's algorithms call out:
//! `MPI_AllGather` for the geometric partition boundaries, `alltoallv` for
//! point redistribution, reductions/scans for the load-balancing prefix
//! sums. Reductions and broadcasts use binomial trees (`O(log p)` rounds);
//! the hypercube reduce-scatter of the paper's Algorithm 3 is *not* here —
//! it is FMM-specific and lives in `pfmm-core::reduce`.

use crate::comm::{CollectiveKind, Comm, Wire};

/// Tag space reserved for collectives (user code must stay below this).
const TAG_COLL: u32 = 0x8000_0000;
const TAG_REDUCE: u32 = TAG_COLL;
const TAG_BCAST: u32 = TAG_COLL + 1;
const TAG_GATHER: u32 = TAG_COLL + 2;
const TAG_A2A: u32 = TAG_COLL + 3;
const TAG_BARRIER: u32 = TAG_COLL + 4;

/// Synchronize all ranks.
pub fn barrier(c: &Comm) {
    c.collective(CollectiveKind::Barrier, || {
        // Empty-payload reduce-to-0 followed by broadcast.
        reduce_vec::<u8>(c, Vec::new(), TAG_BARRIER, |_, _| {
            unreachable!("empty payload")
        });
        bcast_vec::<u8>(c, Vec::new(), TAG_BARRIER);
    });
}

/// Broadcast `data` from rank 0 to all ranks; every rank returns the
/// root's vector.
pub fn bcast<T: Wire>(c: &Comm, data: Vec<T>) -> Vec<T> {
    c.collective(CollectiveKind::Bcast, || bcast_vec(c, data, TAG_BCAST))
}

fn bcast_vec<T: Wire>(c: &Comm, data: Vec<T>, tag: u32) -> Vec<T> {
    let p = c.size();
    let r = c.rank();
    let mut buf = data;
    let mut top = 1usize;
    while top < p {
        top <<= 1;
    }
    let mut step = top >> 1;
    while step >= 1 {
        if r.is_multiple_of(2 * step) {
            if r + step < p {
                c.send(r + step, tag, &buf);
            }
        } else if r % (2 * step) == step {
            buf = c.recv::<T>(r - step, tag);
        }
        step >>= 1;
    }
    buf
}

/// Elementwise reduction of equal-length vectors to rank 0 (binomial
/// tree); other ranks return an empty vector.
fn reduce_vec<T: Wire>(c: &Comm, data: Vec<T>, tag: u32, op: impl Fn(T, T) -> T) -> Vec<T> {
    let p = c.size();
    let r = c.rank();
    let mut acc = data;
    let mut step = 1usize;
    while step < p {
        if r % (2 * step) == step {
            c.send_vec(r - step, tag, acc);
            return Vec::new();
        } else if r.is_multiple_of(2 * step) && r + step < p {
            let other = c.recv::<T>(r + step, tag);
            debug_assert_eq!(other.len(), acc.len(), "reduce length mismatch");
            for (a, b) in acc.iter_mut().zip(other) {
                *a = op(*a, b);
            }
        }
        step <<= 1;
    }
    acc
}

/// Elementwise all-reduce: every rank gets the reduction of all ranks'
/// equal-length vectors.
pub fn allreduce<T: Wire>(c: &Comm, data: Vec<T>, op: impl Fn(T, T) -> T) -> Vec<T> {
    c.collective(CollectiveKind::Reduce, || {
        let reduced = reduce_vec(c, data, TAG_REDUCE, op);
        bcast_vec(c, reduced, TAG_REDUCE)
    })
}

/// All-reduce of a single value.
pub fn allreduce_one<T: Wire>(c: &Comm, v: T, op: impl Fn(T, T) -> T) -> T {
    allreduce(c, vec![v], op)[0]
}

/// Sum all-reduce for a single `u64`.
pub fn allreduce_sum_u64(c: &Comm, v: u64) -> u64 {
    allreduce_one(c, v, |a, b| a + b)
}

/// Gather variable-length contributions to every rank, concatenated in
/// rank order (MPI_Allgatherv).
pub fn allgatherv<T: Wire>(c: &Comm, data: &[T]) -> Vec<T> {
    c.collective(CollectiveKind::Allgather, || {
        let p = c.size();
        let r = c.rank();
        // Gather to root.
        let mut all: Vec<Vec<T>> = Vec::new();
        if r == 0 {
            all = Vec::with_capacity(p);
            all.push(data.to_vec());
            for src in 1..p {
                all.push(c.recv::<T>(src, TAG_GATHER));
            }
        } else {
            c.send(0, TAG_GATHER, data);
        }
        let flat: Vec<T> = if r == 0 { all.concat() } else { Vec::new() };
        bcast_vec(c, flat, TAG_GATHER)
    })
}

/// Fixed-length allgather: every rank contributes one value; returns the
/// values in rank order.
pub fn allgather_one<T: Wire>(c: &Comm, v: T) -> Vec<T> {
    allgatherv(c, &[v])
}

/// Per-rank segment lengths of an `allgatherv` (needed when the caller
/// must know which elements came from which rank).
pub fn allgatherv_counts<T: Wire>(c: &Comm, data: &[T]) -> (Vec<T>, Vec<usize>) {
    let counts: Vec<u64> = allgather_one(c, data.len() as u64);
    let flat = allgatherv(c, data);
    (flat, counts.into_iter().map(|v| v as usize).collect())
}

/// Personalized all-to-all with variable counts: `outgoing[k]` goes to
/// rank `k`; returns the vectors received, indexed by source rank.
///
/// # Panics
/// Panics if `outgoing.len() != size`.
pub fn alltoallv<T: Wire>(c: &Comm, outgoing: Vec<Vec<T>>) -> Vec<Vec<T>> {
    c.collective(CollectiveKind::Alltoall, || {
        let p = c.size();
        assert_eq!(outgoing.len(), p, "one outgoing buffer per rank");
        for (dest, buf) in outgoing.into_iter().enumerate() {
            c.send_vec(dest, TAG_A2A, buf);
        }
        (0..p).map(|src| c.recv::<T>(src, TAG_A2A)).collect()
    })
}

/// Exclusive prefix sum over one `u64` per rank (MPI_Exscan): rank k
/// returns the sum of values on ranks `0..k` (0 on rank 0).
pub fn exscan_sum_u64(c: &Comm, v: u64) -> u64 {
    c.collective(CollectiveKind::Scan, || {
        let all = allgather_one(c, v);
        all[..c.rank()].iter().sum()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;

    #[test]
    fn bcast_from_root() {
        for p in [1, 2, 3, 4, 7, 8] {
            let out = run(p, |c| {
                let data = if c.rank() == 0 {
                    vec![3.5f64, 4.5]
                } else {
                    Vec::new()
                };
                bcast(c, data)
            });
            for v in out {
                assert_eq!(v, vec![3.5, 4.5], "p={p}");
            }
        }
    }

    #[test]
    fn allreduce_sum_all_sizes() {
        for p in 1..=9 {
            let out = run(p, |c| allreduce_sum_u64(c, c.rank() as u64 + 1));
            let want = (p * (p + 1) / 2) as u64;
            assert!(out.iter().all(|v| *v == want), "p={p}");
        }
    }

    #[test]
    fn allreduce_vector_min() {
        let out = run(4, |c| {
            let v = vec![c.rank() as i64, -(c.rank() as i64)];
            allreduce(c, v, i64::min)
        });
        for v in out {
            assert_eq!(v, vec![0, -3]);
        }
    }

    #[test]
    fn allgatherv_concatenates_in_rank_order() {
        let out = run(4, |c| {
            let mine: Vec<u32> = (0..c.rank() as u32).collect();
            allgatherv(c, &mine)
        });
        let want = vec![0u32, 0, 1, 0, 1, 2];
        for v in out {
            assert_eq!(v, want);
        }
    }

    #[test]
    fn allgatherv_counts_match() {
        let out = run(3, |c| {
            let mine = vec![c.rank() as u8; c.rank() + 1];
            allgatherv_counts(c, &mine)
        });
        for (flat, counts) in out {
            assert_eq!(counts, vec![1, 2, 3]);
            assert_eq!(flat, vec![0u8, 1, 1, 2, 2, 2]);
        }
    }

    #[test]
    fn alltoallv_transpose() {
        let p = 4;
        let out = run(p, |c| {
            let outgoing: Vec<Vec<u64>> = (0..p)
                .map(|dest| vec![(c.rank() * 10 + dest) as u64])
                .collect();
            alltoallv(c, outgoing)
        });
        for (rank, recvd) in out.iter().enumerate() {
            for (src, buf) in recvd.iter().enumerate() {
                assert_eq!(buf, &vec![(src * 10 + rank) as u64]);
            }
        }
    }

    #[test]
    fn exscan_prefix() {
        let out = run(5, |c| exscan_sum_u64(c, 2));
        assert_eq!(out, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn barrier_completes() {
        // Smoke test: a barrier between two phases does not deadlock and
        // phases stay ordered per rank.
        let out = run(6, |c| {
            let a = allreduce_sum_u64(c, 1);
            barrier(c);
            let b = allreduce_sum_u64(c, 2);
            (a, b)
        });
        for (a, b) in out {
            assert_eq!((a, b), (6, 12));
        }
    }
}
