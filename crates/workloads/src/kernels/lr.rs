//! `lr_serving` / `lr_training`: logistic regression.
//!
//! Mirrors FunctionBench's scikit-learn workloads: serving scores a stream
//! of feature vectors against a fixed model; training runs mini-batch SGD
//! over a synthetic dataset for a configurable number of epochs (the
//! long-running outlier of the suite — its quickest configurations take
//! seconds, which is why the paper finds it under-represented in mapped
//! request streams).

use super::fold_f64;
use faasrail_stats::rng::{Rng, SplitMix64};

#[inline]
fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Score `samples` synthetic feature vectors of width `features`; returns a
/// checksum of the predictions.
pub fn run_serving(samples: u32, features: u32) -> u64 {
    let d = features as usize;
    let mut rng = SplitMix64::new(0x175E ^ ((samples as u64) << 32 | features as u64));
    let weights: Vec<f64> = (0..d).map(|_| rng.next_f64() - 0.5).collect();
    let bias = rng.next_f64() - 0.5;

    let mut acc = 0x5E17_1D0Cu64;
    let mut positives = 0u64;
    // Stream one sample at a time: memory stays O(features).
    let mut x = vec![0f64; d];
    for _ in 0..samples {
        for v in &mut x {
            *v = rng.next_f64() - 0.5;
        }
        let z: f64 = x.iter().zip(&weights).map(|(a, w)| a * w).sum::<f64>() + bias;
        let p = sigmoid(z);
        positives += (p > 0.5) as u64;
        acc = fold_f64(acc, p);
    }
    acc ^ positives
}

/// Train a logistic model with `epochs` of SGD over `samples` × `features`;
/// returns a checksum of the learned weights.
pub fn run_training(epochs: u32, samples: u32, features: u32) -> u64 {
    let m = samples as usize;
    let d = features as usize;
    let mut rng = SplitMix64::new(
        0x17A1 ^ ((epochs as u64) << 40 | (samples as u64) << 16 | features as u64),
    );

    // Synthetic dataset with a planted ground-truth separator, held in
    // memory like a real training job (bounded by the input grid).
    let truth: Vec<f64> = (0..d).map(|_| rng.next_f64() - 0.5).collect();
    let mut xs = vec![0f64; m * d];
    let mut ys = vec![0f64; m];
    for i in 0..m {
        let row = &mut xs[i * d..(i + 1) * d];
        for v in row.iter_mut() {
            *v = rng.next_f64() - 0.5;
        }
        let z: f64 = row.iter().zip(&truth).map(|(a, w)| a * w).sum();
        ys[i] = (z > 0.0) as u64 as f64;
    }

    let mut w = vec![0f64; d];
    let mut b = 0f64;
    let lr = 0.5;
    for _ in 0..epochs {
        for i in 0..m {
            let row = &xs[i * d..(i + 1) * d];
            let z: f64 = row.iter().zip(&w).map(|(a, wi)| a * wi).sum::<f64>() + b;
            let err = sigmoid(z) - ys[i];
            for (wi, a) in w.iter_mut().zip(row) {
                *wi -= lr * err * a;
            }
            b -= lr * err;
        }
    }

    let mut acc = 0x7124_111Bu64;
    for wi in &w {
        acc = fold_f64(acc, *wi);
    }
    fold_f64(acc, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_deterministic_and_sensitive() {
        assert_eq!(run_serving(128, 8), run_serving(128, 8));
        assert_ne!(run_serving(128, 8), run_serving(129, 8));
    }

    #[test]
    fn training_deterministic_and_sensitive() {
        assert_eq!(run_training(2, 64, 8), run_training(2, 64, 8));
        assert_ne!(run_training(2, 64, 8), run_training(3, 64, 8));
    }

    #[test]
    fn training_actually_learns() {
        // After training, the model should classify its own training set
        // well above chance — i.e. the SGD loop is doing real work.
        let m = 200usize;
        let d = 8usize;
        let mut rng = SplitMix64::new(0x17A1 ^ ((20u64) << 40 | (m as u64) << 16 | d as u64));
        let truth: Vec<f64> = (0..d).map(|_| rng.next_f64() - 0.5).collect();
        let mut xs = vec![0f64; m * d];
        let mut ys = vec![0f64; m];
        for i in 0..m {
            let row = &mut xs[i * d..(i + 1) * d];
            for v in row.iter_mut() {
                *v = rng.next_f64() - 0.5;
            }
            let z: f64 = row.iter().zip(&truth).map(|(a, w)| a * w).sum();
            ys[i] = (z > 0.0) as u64 as f64;
        }
        let mut w = vec![0f64; d];
        let mut b = 0f64;
        for _ in 0..20 {
            for i in 0..m {
                let row = &xs[i * d..(i + 1) * d];
                let z: f64 = row.iter().zip(&w).map(|(a, wi)| a * wi).sum::<f64>() + b;
                let err = sigmoid(z) - ys[i];
                for (wi, a) in w.iter_mut().zip(row) {
                    *wi -= 0.5 * err * a;
                }
                b -= 0.5 * err;
            }
        }
        let correct = (0..m)
            .filter(|&i| {
                let row = &xs[i * d..(i + 1) * d];
                let z: f64 = row.iter().zip(&w).map(|(a, wi)| a * wi).sum::<f64>() + b;
                (sigmoid(z) > 0.5) == (ys[i] > 0.5)
            })
            .count();
        assert!(correct as f64 / m as f64 > 0.9, "accuracy = {}/{m}", correct);
    }

    #[test]
    fn sigmoid_range() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(20.0) > 0.999);
        assert!(sigmoid(-20.0) < 0.001);
    }
}
