//! Deterministic schedule sharding for scale-out load generation.
//!
//! A fleet of replayer processes splits one request trace into disjoint
//! shards by hashing each request's *function* — not the request itself —
//! so every invocation of a Function lands on the same agent and its
//! per-minute arrival series (the quantity FaaSRail preserves) is never
//! smeared across processes. The partition is a pure function of
//! `(function_index, shard count)`: agents need no coordination to agree
//! on it, and a standalone `faasrail replay --shard I/N` produces exactly
//! the shard a fleet agent would.

use faasrail_core::RequestTrace;
use faasrail_stats::rng::{mix64_pair, Rng, SplitMix64};
use serde::{Deserialize, Serialize};

/// Which of `shards` shards owns `function_index`: the first output of a
/// [`SplitMix64`] seeded with the index — a full-avalanche bijection, so
/// consecutive indices scatter uniformly — reduced modulo the count. Stable
/// across processes, platforms, and releases (the wire protocol depends on
/// it).
///
/// # Panics
/// Panics if `shards == 0`.
pub fn shard_of(function_index: u32, shards: u32) -> u32 {
    assert!(shards > 0, "shard count must be positive");
    (SplitMix64::new(function_index as u64).next_u64() % shards as u64) as u32
}

/// The unfinished suffix of `trace`: every request at or beyond the
/// contiguous-completion `watermark` (an index into `trace.requests`).
/// Request timestamps are preserved, so replaying the remainder with a
/// resume offset keeps each invocation in its original minute bucket.
pub fn remainder_after(trace: &RequestTrace, watermark: usize) -> RequestTrace {
    RequestTrace {
        duration_minutes: trace.duration_minutes,
        requests: trace.requests.get(watermark..).unwrap_or(&[]).to_vec(),
    }
}

/// Deterministically re-partition a lost shard's remainder across the
/// `survivors` (arbitrary agent identifiers, order-significant). Every
/// request of one Function lands on the same survivor — the same
/// function-keyed invariant as the original sharding — and the returned
/// parts exactly partition `trace`. Survivors with no work are omitted.
///
/// The hash is keyed by `salt` (the fleet passes the grant generation) and
/// is never [`shard_of`]'s: every function of shard `k` of `n` hashes to
/// `k` there, so with `n` survivors the whole remainder would land on one.
///
/// # Panics
/// Panics if `survivors` is empty.
pub fn partition_remainder(
    trace: &RequestTrace,
    survivors: &[u32],
    salt: u64,
) -> Vec<(u32, RequestTrace)> {
    assert!(!survivors.is_empty(), "cannot partition a remainder across zero survivors");
    let n = survivors.len() as u64;
    let mut parts: Vec<(u32, RequestTrace)> = survivors
        .iter()
        .map(|&s| {
            (s, RequestTrace { duration_minutes: trace.duration_minutes, requests: Vec::new() })
        })
        .collect();
    for r in &trace.requests {
        let slot = mix64_pair(salt, r.function_index as u64) % n;
        parts[slot as usize].1.requests.push(*r);
    }
    parts.retain(|(_, t)| !t.requests.is_empty());
    parts
}

/// One shard of a sharded replay: `index` of `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSpec {
    pub index: u32,
    pub count: u32,
}

impl ShardSpec {
    /// # Panics
    /// Panics unless `index < count`.
    pub fn new(index: u32, count: u32) -> Self {
        assert!(index < count, "shard index {index} out of range for {count} shards");
        ShardSpec { index, count }
    }

    /// Parse an `I/N` shard spec (e.g. `0/4`), as taken by
    /// `faasrail replay --shard`.
    pub fn parse(s: &str) -> Result<ShardSpec, String> {
        let err = || format!("invalid shard spec {s:?} (expected I/N with 0 <= I < N)");
        let (i, n) = s.split_once('/').ok_or_else(err)?;
        let index: u32 = i.trim().parse().map_err(|_| err())?;
        let count: u32 = n.trim().parse().map_err(|_| err())?;
        if count == 0 || index >= count {
            return Err(err());
        }
        Ok(ShardSpec { index, count })
    }

    /// The subset of `trace` this shard replays: every request whose
    /// Function hashes to `index`, in original schedule order. The `count`
    /// shards of a trace exactly partition it — no request is lost or
    /// duplicated — and all requests of one Function share a shard.
    pub fn filter(&self, trace: &RequestTrace) -> RequestTrace {
        RequestTrace {
            duration_minutes: trace.duration_minutes,
            requests: trace
                .requests
                .iter()
                .filter(|r| shard_of(r.function_index, self.count) == self.index)
                .copied()
                .collect(),
        }
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasrail_core::Request;
    use faasrail_workloads::WorkloadId;

    fn trace(functions: u32, per_function: u64) -> RequestTrace {
        let mut requests = Vec::new();
        for f in 0..functions {
            for i in 0..per_function {
                requests.push(Request {
                    at_ms: i * 100 + f as u64,
                    workload: WorkloadId(f % 10),
                    function_index: f,
                });
            }
        }
        requests.sort_by_key(|r| (r.at_ms, r.function_index));
        RequestTrace { duration_minutes: 1, requests }
    }

    /// The parent commit's placements: agents of different builds must
    /// agree on them.
    #[test]
    fn placement_is_the_one_the_wire_protocol_was_built_on() {
        for (f, count, shard) in [
            (0u32, 1u32, 0u32),
            (0, 4, 3),
            (1, 4, 1),
            (2, 4, 2),
            (7, 3, 0),
            (12_345, 16, 0),
            (u32::MAX, 7, 3),
        ] {
            assert_eq!(shard_of(f, count), shard, "function {f} of {count}");
        }
    }

    #[test]
    fn shards_exactly_partition_the_schedule() {
        // No invocation lost or duplicated, for several shard counts.
        let full = trace(97, 7);
        for count in [1u32, 2, 3, 5, 8] {
            let mut union: Vec<_> =
                (0..count).flat_map(|i| ShardSpec::new(i, count).filter(&full).requests).collect();
            assert_eq!(union.len(), full.requests.len(), "count={count}");
            union.sort_by_key(|r| (r.at_ms, r.function_index));
            assert_eq!(union, full.requests, "count={count}");
        }
    }

    #[test]
    fn shards_are_disjoint_by_function() {
        let full = trace(50, 3);
        for count in [2u32, 4] {
            for f in 0..50 {
                let owners: Vec<u32> = (0..count)
                    .filter(|&i| {
                        ShardSpec::new(i, count)
                            .filter(&full)
                            .requests
                            .iter()
                            .any(|r| r.function_index == f)
                    })
                    .collect();
                assert_eq!(owners.len(), 1, "function {f} must live on exactly one shard");
                assert_eq!(owners[0], shard_of(f, count));
            }
        }
    }

    #[test]
    fn partition_is_deterministic_and_order_preserving() {
        let full = trace(30, 5);
        let a = ShardSpec::new(1, 3).filter(&full);
        let b = ShardSpec::new(1, 3).filter(&full);
        assert_eq!(a, b);
        assert!(a.requests.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        assert_eq!(a.duration_minutes, full.duration_minutes);
    }

    #[test]
    fn single_shard_is_identity() {
        let full = trace(20, 4);
        assert_eq!(ShardSpec::new(0, 1).filter(&full), full);
    }

    #[test]
    fn shard_hash_spreads_functions() {
        // With many functions, no shard may end up empty (the hash must
        // actually scatter, not collapse).
        for count in [2u32, 4, 8] {
            for shard in 0..count {
                let hits = (0..1_000u32).filter(|&f| shard_of(f, count) == shard).count();
                let expect = 1_000 / count as usize;
                assert!(
                    hits > expect / 2 && hits < expect * 2,
                    "shard {shard}/{count} owns {hits} of 1000 functions"
                );
            }
        }
    }

    #[test]
    fn parse_accepts_valid_and_rejects_invalid() {
        assert_eq!(ShardSpec::parse("0/4").unwrap(), ShardSpec::new(0, 4));
        assert_eq!(ShardSpec::parse("3/4").unwrap(), ShardSpec::new(3, 4));
        assert_eq!(ShardSpec::parse("2/3").unwrap().to_string(), "2/3");
        for bad in ["", "4", "4/4", "5/4", "-1/4", "1/0", "a/b", "1/2/3"] {
            assert!(ShardSpec::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    #[should_panic]
    fn out_of_range_index_rejected() {
        ShardSpec::new(4, 4);
    }

    #[test]
    fn remainder_after_is_the_unfinished_suffix() {
        let full = trace(10, 4);
        let rem = remainder_after(&full, 15);
        assert_eq!(rem.requests, full.requests[15..].to_vec());
        assert_eq!(rem.duration_minutes, full.duration_minutes);
        assert_eq!(remainder_after(&full, 0), full, "watermark 0 keeps everything");
        assert!(remainder_after(&full, full.requests.len()).requests.is_empty());
        assert!(remainder_after(&full, usize::MAX).requests.is_empty(), "past-end is empty");
    }

    #[test]
    fn partition_remainder_partitions_exactly_and_keeps_function_affinity() {
        let full = trace(40, 5);
        let rem = remainder_after(&full, 37);
        let survivors = [7u32, 2, 9];
        let parts = partition_remainder(&rem, &survivors, 5);
        // Exact partition: union equals the remainder, order preserved per part.
        let mut union: Vec<_> = parts.iter().flat_map(|(_, t)| t.requests.clone()).collect();
        union.sort_by_key(|r| (r.at_ms, r.function_index));
        let mut want = rem.requests.clone();
        want.sort_by_key(|r| (r.at_ms, r.function_index));
        assert_eq!(union, want);
        let mut owner_of = std::collections::BTreeMap::new();
        for (owner, t) in &parts {
            assert!(survivors.contains(owner));
            assert!(!t.requests.is_empty(), "empty parts must be omitted");
            assert!(t.requests.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
            for r in &t.requests {
                let first = *owner_of.entry(r.function_index).or_insert(*owner);
                assert_eq!(first, *owner, "function {} is split", r.function_index);
            }
        }
        // Deterministic: same inputs, same plan; another generation, another.
        assert_eq!(parts, partition_remainder(&rem, &survivors, 5));
        assert_ne!(parts, partition_remainder(&rem, &survivors, 6));
    }

    /// ROADMAP 9c: with as many survivors as there were shards, re-hashing
    /// with the hash that sharded sent a dead shard's whole remainder to
    /// one survivor. Given 64 functions per survivor, no part is more than
    /// twice the mean, whichever shard died and whatever the generation.
    #[test]
    fn partition_remainder_is_balanced_across_as_many_survivors_as_shards() {
        for n in 2u32..=6 {
            let full = trace(64 * n * n, 1);
            let survivors: Vec<u32> = (10..10 + n).collect();
            for (dead, salt) in (0..n).zip([0, 1, 1 << 32, u64::MAX, 7, 8]) {
                let rem = ShardSpec::new(dead, n).filter(&full);
                let parts = partition_remainder(&rem, &survivors, salt);
                let largest = parts.iter().map(|(_, t)| t.requests.len()).max().unwrap_or(0);
                assert!(
                    largest * n as usize <= 2 * rem.requests.len(),
                    "{n} survivors, shard {dead}, salt {salt}: {largest} of {}",
                    rem.requests.len()
                );
            }
        }
    }

    #[test]
    #[should_panic]
    fn partition_remainder_rejects_zero_survivors() {
        partition_remainder(&trace(3, 2), &[], 0);
    }
}
