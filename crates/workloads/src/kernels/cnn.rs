//! `cnn_serving`: convolutional-network image classification.
//!
//! Mirrors FunctionBench's TensorFlow CNN inference: a two-stage conv net
//! (3×3 conv → ReLU → 2×2 average pool → 3×3 conv → global pool → dense)
//! over a synthetic RGB image, in plain f32 loops.

use super::{fold_f64, next_weight};
use faasrail_stats::rng::SplitMix64;

/// Run one forward pass on an `image_size`² RGB image with `filters`
/// convolution filters per stage; returns a checksum of the class scores.
pub fn run(image_size: u32, filters: u32) -> u64 {
    let s = image_size as usize;
    let k = filters as usize;
    assert!(s >= 4, "image too small for two conv+pool stages");
    let mut rng = SplitMix64::new(0xCC17_u64 ^ ((image_size as u64) << 32 | filters as u64));

    // Synthetic image: s × s × 3, channel-last.
    let image: Vec<f32> = (0..s * s * 3).map(|_| next_weight(&mut rng)).collect();
    // Stage-1 weights: k filters of 3×3×3.
    let w1: Vec<f32> = (0..k * 27).map(|_| next_weight(&mut rng) * 0.1).collect();
    // Stage-2 weights: k filters of 3×3×k.
    let w2: Vec<f32> = (0..k * 9 * k).map(|_| next_weight(&mut rng) * 0.1).collect();
    // Dense head: k → 10 classes.
    let wd: Vec<f32> = (0..k * 10).map(|_| next_weight(&mut rng) * 0.1).collect();

    // Conv1 (valid padding, stride 1) + ReLU.
    let o1 = s - 2;
    let mut map1 = vec![0f32; o1 * o1 * k];
    for y in 0..o1 {
        for x in 0..o1 {
            for f in 0..k {
                let mut acc = 0f32;
                let wf = &w1[f * 27..(f + 1) * 27];
                let mut wi = 0;
                for dy in 0..3 {
                    for dx in 0..3 {
                        let base = ((y + dy) * s + (x + dx)) * 3;
                        acc += wf[wi] * image[base]
                            + wf[wi + 1] * image[base + 1]
                            + wf[wi + 2] * image[base + 2];
                        wi += 3;
                    }
                }
                map1[(y * o1 + x) * k + f] = acc.max(0.0);
            }
        }
    }

    // 2×2 average pool.
    let p = o1 / 2;
    let mut pooled = vec![0f32; p * p * k];
    for y in 0..p {
        for x in 0..p {
            for f in 0..k {
                let a = map1[((2 * y) * o1 + 2 * x) * k + f];
                let b = map1[((2 * y) * o1 + 2 * x + 1) * k + f];
                let c = map1[((2 * y + 1) * o1 + 2 * x) * k + f];
                let d = map1[((2 * y + 1) * o1 + 2 * x + 1) * k + f];
                pooled[(y * p + x) * k + f] = (a + b + c + d) * 0.25;
            }
        }
    }

    // Conv2 (k → k) + ReLU, accumulated directly into a global average.
    let o2 = p.saturating_sub(2).max(1);
    let mut global = vec![0f32; k];
    for y in 0..o2 {
        for x in 0..o2 {
            for f in 0..k {
                let mut acc = 0f32;
                let wf = &w2[f * 9 * k..(f + 1) * 9 * k];
                let mut wi = 0;
                for dy in 0..3 {
                    for dx in 0..3 {
                        let yy = (y + dy).min(p - 1);
                        let xx = (x + dx).min(p - 1);
                        let base = (yy * p + xx) * k;
                        for c in 0..k {
                            acc += wf[wi + c] * pooled[base + c];
                        }
                        wi += k;
                    }
                }
                global[f] += acc.max(0.0);
            }
        }
    }
    let denom = (o2 * o2) as f32;
    for g in &mut global {
        *g /= denom;
    }

    // Dense head + argmax-style checksum over the logits.
    let mut acc = 0xCAFE_F00Du64;
    for class in 0..10 {
        let mut logit = 0f32;
        for f in 0..k {
            logit += wd[class * k + f] * global[f];
        }
        acc = fold_f64(acc, logit as f64);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(run(16, 4), run(16, 4));
    }

    #[test]
    fn sensitive_to_input() {
        assert_ne!(run(16, 4), run(20, 4));
        assert_ne!(run(16, 4), run(16, 8));
    }

    #[test]
    #[should_panic]
    fn rejects_tiny_images() {
        run(3, 4);
    }
}
