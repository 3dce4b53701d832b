//! `matmul`: dense matrix multiplication.
//!
//! FunctionBench's numpy matmul, here as a cache-blocked triple loop over
//! `f64` — the canonical CPU-bound FaaS benchmark.

use super::fold_f64;
use faasrail_stats::rng::{Rng, SplitMix64};

const BLOCK: usize = 32;

/// Multiply two synthetic `n`×`n` matrices; returns a checksum of the result.
pub fn run(n: u32) -> u64 {
    let n = n as usize;
    if n == 0 {
        return 0;
    }
    let mut rng = SplitMix64::new(0x3A73 ^ (n as u64) << 16);
    let a: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
    let b: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
    let mut c = vec![0f64; n * n];

    // i-k-j loop order with blocking: streams `b` rows, accumulates into `c`.
    for ib in (0..n).step_by(BLOCK) {
        for kb in (0..n).step_by(BLOCK) {
            for jb in (0..n).step_by(BLOCK) {
                for i in ib..(ib + BLOCK).min(n) {
                    for k in kb..(kb + BLOCK).min(n) {
                        let aik = a[i * n + k];
                        let brow = &b[k * n + jb..k * n + (jb + BLOCK).min(n)];
                        let crow = &mut c[i * n + jb..i * n + (jb + BLOCK).min(n)];
                        for (cv, bv) in crow.iter_mut().zip(brow) {
                            *cv += aik * bv;
                        }
                    }
                }
            }
        }
    }

    // Fold the trace (diagonal) plus corners — touches the whole result
    // lineage without hashing n² elements.
    let mut acc = 0x1234_5678u64;
    for i in 0..n {
        acc = fold_f64(acc, c[i * n + i]);
    }
    acc = fold_f64(acc, c[n - 1]);
    acc = fold_f64(acc, c[(n - 1) * n]);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(run(24), run(24));
    }

    #[test]
    fn sensitive_to_n() {
        assert_ne!(run(24), run(25));
    }

    #[test]
    fn zero_is_zero() {
        assert_eq!(run(0), 0);
    }

    #[test]
    fn blocked_matches_naive() {
        // Cross-check the blocked loop against a reference triple loop by
        // reproducing the kernel's data generation.
        let n = 17usize; // deliberately not a multiple of BLOCK
        let mut rng = SplitMix64::new(0x3A73 ^ (n as u64) << 16);
        let a: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
        let b: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
        let mut c = vec![0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += a[i * n + k] * b[k * n + j];
                }
                c[i * n + j] = s;
            }
        }
        let mut acc = 0x1234_5678u64;
        for i in 0..n {
            acc = fold_f64(acc, c[i * n + i]);
        }
        acc = fold_f64(acc, c[n - 1]);
        acc = fold_f64(acc, c[(n - 1) * n]);
        assert_eq!(acc, run(n as u32));
    }
}
