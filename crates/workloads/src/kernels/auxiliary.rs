//! The auxiliary benchmark suite: six vSwarm/SeBS-inspired kernels.
//!
//! Paper §3.3 plans to "augment and integrate more open-source benchmarking
//! suites … aiming to significantly enrich our Workload pool even further".
//! These kernels add execution profiles the FunctionBench ten lack:
//! dictionary compression, pointer-chasing graph traversal, iterative
//! numeric relaxation, comparison sorting, multi-pattern text scanning, and
//! hash-heavy aggregation. Like the primary kernels they are deterministic,
//! checksum-producing, and bounded-memory.

use super::fold;
use faasrail_stats::rng::{Rng, SplitMix64};

// --------------------------------------------------------------------------
// compression: LZSS-style sliding window
// --------------------------------------------------------------------------

const WINDOW: usize = 4 * 1024;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 64;

/// Generate compressible synthetic "text": words drawn from a small
/// vocabulary, so back-references actually occur.
fn gen_text(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    const VOCAB: [&str; 16] = [
        "request",
        "invoke",
        "lambda",
        "serverless",
        "function",
        "trace",
        "cold",
        "warm",
        "queue",
        "sandbox",
        "memory",
        "scale",
        "burst",
        "idle",
        "node",
        "pool",
    ];
    let mut out = Vec::with_capacity(len + 16);
    while out.len() < len {
        out.extend_from_slice(VOCAB[(rng.next_u64() % 16) as usize].as_bytes());
        out.push(b' ');
    }
    out.truncate(len);
    out
}

/// Compress `bytes` of synthetic text with a greedy LZSS matcher; returns a
/// checksum over the emitted token stream plus the output length.
pub fn run_compression(bytes: u32) -> u64 {
    let n = bytes as usize;
    if n == 0 {
        return 0;
    }
    let mut rng = SplitMix64::new(0xC0DE_C0DE ^ bytes as u64);
    let data = gen_text(&mut rng, n);

    // Hash-chain match finder over 3-byte prefixes.
    let mut head = vec![usize::MAX; 1 << 13];
    let hash = |a: u8, b: u8, c: u8| -> usize {
        ((a as usize) << 6 ^ (b as usize) << 3 ^ c as usize) & ((1 << 13) - 1)
    };

    let mut acc = 0x1255_C0DEu64;
    let mut out_len = 0u64;
    let mut i = 0usize;
    while i < n {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= n {
            let h = hash(data[i], data[i + 1], data[i + 2]);
            let cand = head[h];
            if cand != usize::MAX && cand < i && i - cand <= WINDOW {
                let mut l = 0usize;
                while i + l < n && l < MAX_MATCH && data[cand + l] == data[i + l] {
                    l += 1;
                }
                if l >= MIN_MATCH {
                    best_len = l;
                    best_dist = i - cand;
                }
            }
            head[h] = i;
        }
        if best_len >= MIN_MATCH {
            acc = fold(acc, (best_dist as u64) << 16 | best_len as u64);
            out_len += 3; // (dist, len) token
            i += best_len;
        } else {
            acc = acc.rotate_left(3) ^ data[i] as u64;
            out_len += 1;
            i += 1;
        }
    }
    fold(acc, out_len)
}

// --------------------------------------------------------------------------
// graph_bfs: BFS over an implicit random graph
// --------------------------------------------------------------------------

/// Neighbours are computed on the fly from a hash of the vertex id, so the
/// graph never materializes: memory is the visited bitmap plus the frontier.
#[inline]
fn neighbour(v: u32, j: u32, vertices: u32, salt: u64) -> u32 {
    let mut x = SplitMix64::new(salt ^ ((v as u64) << 20) ^ j as u64);
    (x.next_u64() % vertices as u64) as u32
}

/// BFS from vertex 0 over `vertices` nodes of out-degree `degree`; returns
/// a checksum of (reached count, level histogram).
pub fn run_graph_bfs(vertices: u32, degree: u32) -> u64 {
    if vertices == 0 {
        return 0;
    }
    let n = vertices as usize;
    let salt = 0xB_F5 ^ ((vertices as u64) << 8) ^ degree as u64;
    let mut visited = vec![false; n];
    let mut frontier = vec![0u32];
    visited[0] = true;
    let mut reached = 1u64;
    let mut acc = 0x6B5F_0001u64;
    let mut level = 0u64;
    while !frontier.is_empty() {
        let mut next = Vec::with_capacity(frontier.len() * 2);
        for &v in &frontier {
            for j in 0..degree {
                let u = neighbour(v, j, vertices, salt);
                if !visited[u as usize] {
                    visited[u as usize] = true;
                    reached += 1;
                    next.push(u);
                }
            }
        }
        acc = fold(acc, level << 32 | next.len() as u64);
        level += 1;
        frontier = next;
    }
    fold(acc, reached)
}

// --------------------------------------------------------------------------
// pagerank: power iteration over the same implicit graph
// --------------------------------------------------------------------------

const PR_DEGREE: u32 = 8;

/// `iters` PageRank power iterations over `vertices` nodes (out-degree 8);
/// returns a checksum over the top ranks.
pub fn run_pagerank(vertices: u32, iters: u32) -> u64 {
    if vertices == 0 || iters == 0 {
        return 0;
    }
    let n = vertices as usize;
    let salt = 0x9A6E ^ (vertices as u64) << 4;
    let damping = 0.85f64;
    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..iters {
        next.iter_mut().for_each(|x| *x = (1.0 - damping) / n as f64);
        for v in 0..vertices {
            let share = damping * rank[v as usize] / PR_DEGREE as f64;
            for j in 0..PR_DEGREE {
                let u = neighbour(v, j, vertices, salt);
                next[u as usize] += share;
            }
        }
        std::mem::swap(&mut rank, &mut next);
    }
    let mut acc = 0x7A6E_7A6Eu64;
    for &r in rank.iter().take(16) {
        acc = super::fold_f64(acc, r * n as f64);
    }
    acc
}

// --------------------------------------------------------------------------
// sort_data
// --------------------------------------------------------------------------

/// Sort `elements` synthetic u64s; returns a checksum over order statistics.
pub fn run_sort(elements: u32) -> u64 {
    if elements == 0 {
        return 0;
    }
    let mut rng = SplitMix64::new(0x5027 ^ (elements as u64) << 7);
    let mut data: Vec<u64> = (0..elements).map(|_| rng.next_u64()).collect();
    data.sort_unstable();
    let n = data.len();
    let mut acc = 0x5027_DA7Au64;
    for q in [0usize, n / 4, n / 2, 3 * n / 4, n - 1] {
        acc = fold(acc, data[q]);
    }
    // Verify sortedness while folding a stride of elements (the checksum
    // depends on the whole permutation having been ordered).
    for w in data.windows(2).step_by((n / 64).max(1)) {
        debug_assert!(w[0] <= w[1]);
        acc = acc.rotate_left(1) ^ (w[1] - w[0]);
    }
    acc
}

// --------------------------------------------------------------------------
// text_search: Boyer–Moore–Horspool over streaming logs
// --------------------------------------------------------------------------

/// Search `patterns` fixed patterns over `haystack_bytes` of synthetic log
/// text; returns a checksum of match counts and positions.
pub fn run_text_search(haystack_bytes: u32, patterns: u32) -> u64 {
    if haystack_bytes == 0 || patterns == 0 {
        return 0;
    }
    let mut rng = SplitMix64::new(0x7EC7 ^ ((haystack_bytes as u64) << 8) ^ patterns as u64);
    let hay = gen_text(&mut rng, haystack_bytes as usize);

    const CANDIDATES: [&str; 8] =
        ["cold start", "sandbox", "burst", "queue full", "invoke", "scale out", "idle", "node"];
    let mut acc = 0x7E57_0001u64;
    for p in 0..patterns.min(8) {
        let needle = CANDIDATES[p as usize].as_bytes();
        let m = needle.len();
        // Horspool bad-character table.
        let mut skip = [m; 256];
        for (i, &b) in needle.iter().enumerate().take(m - 1) {
            skip[b as usize] = m - 1 - i;
        }
        let mut count = 0u64;
        let mut i = 0usize;
        while i + m <= hay.len() {
            if &hay[i..i + m] == needle {
                count += 1;
                acc = acc.rotate_left(5) ^ i as u64;
                i += m;
            } else {
                i += skip[hay[i + m - 1] as usize];
            }
        }
        acc = fold(acc, (p as u64) << 32 | count);
    }
    acc
}

// --------------------------------------------------------------------------
// word_count
// --------------------------------------------------------------------------

/// Count word frequencies over `bytes` of synthetic text; returns a
/// checksum of the (sorted) histogram.
pub fn run_word_count(bytes: u32) -> u64 {
    if bytes == 0 {
        return 0;
    }
    let mut rng = SplitMix64::new(0x30C4 ^ (bytes as u64) << 3);
    let text = gen_text(&mut rng, bytes as usize);
    let mut counts = std::collections::HashMap::<&[u8], u64>::new();
    for word in text.split(|&b| b == b' ') {
        if !word.is_empty() {
            *counts.entry(word).or_insert(0) += 1;
        }
    }
    let mut entries: Vec<(&[u8], u64)> = counts.into_iter().collect();
    entries.sort_unstable();
    let mut acc = 0x30C4_0001u64;
    for (word, count) in entries {
        let mut h = 0u64;
        for &b in word {
            h = h.rotate_left(7) ^ b as u64;
        }
        acc = fold(acc, h ^ count << 40);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compression_deterministic_and_compresses() {
        assert_eq!(run_compression(8_192), run_compression(8_192));
        assert_ne!(run_compression(8_192), run_compression(8_193));
        assert_eq!(run_compression(0), 0);
    }

    #[test]
    fn compression_finds_matches_in_repetitive_text() {
        // The vocabulary repeats within the window, so the match path runs;
        // simply assert the two paths (literal vs match) both execute by
        // checking different sizes give different structure-sensitive sums.
        let a = run_compression(1_000);
        let b = run_compression(2_000);
        assert_ne!(a, b);
    }

    #[test]
    fn bfs_reaches_most_of_a_dense_graph() {
        // With degree 8 over 1000 vertices, the giant component spans
        // essentially everything reachable from vertex 0.
        let sum = run_graph_bfs(1_000, 8);
        assert_eq!(sum, run_graph_bfs(1_000, 8));
        assert_ne!(sum, run_graph_bfs(1_000, 7));
        assert_eq!(run_graph_bfs(0, 8), 0);
    }

    #[test]
    fn bfs_single_vertex() {
        assert_eq!(run_graph_bfs(1, 4), run_graph_bfs(1, 4));
    }

    #[test]
    fn pagerank_deterministic_and_iteration_sensitive() {
        assert_eq!(run_pagerank(500, 5), run_pagerank(500, 5));
        assert_ne!(run_pagerank(500, 5), run_pagerank(500, 6));
        assert_eq!(run_pagerank(0, 5), 0);
        assert_eq!(run_pagerank(500, 0), 0);
    }

    #[test]
    fn sort_deterministic_and_size_sensitive() {
        assert_eq!(run_sort(10_000), run_sort(10_000));
        assert_ne!(run_sort(10_000), run_sort(10_001));
        assert_eq!(run_sort(0), 0);
        assert_eq!(run_sort(1), run_sort(1));
    }

    #[test]
    fn text_search_finds_vocabulary_words() {
        // "invoke" is in the generator vocabulary, so matches must occur —
        // different pattern counts change the checksum.
        let one = run_text_search(50_000, 1);
        let five = run_text_search(50_000, 5);
        assert_ne!(one, five);
        assert_eq!(one, run_text_search(50_000, 1));
        assert_eq!(run_text_search(0, 3), 0);
    }

    #[test]
    fn word_count_deterministic() {
        assert_eq!(run_word_count(20_000), run_word_count(20_000));
        assert_ne!(run_word_count(20_000), run_word_count(20_100));
        assert_eq!(run_word_count(0), 0);
    }
}
