//! `video_processing`: gray-scale effect over a frame stream.
//!
//! Mirrors FunctionBench's OpenCV workload: decode frames, apply a
//! gray-scale effect, re-encode. Frames are synthesized and processed one at
//! a time (streaming), so arbitrarily long "videos" keep a constant
//! footprint of one frame row.

use super::fold;
use faasrail_stats::rng::{Rng, SplitMix64};

/// Integer luma (shared shape with the image kernel, but per-frame).
#[inline]
fn luma(r: u8, g: u8, b: u8) -> u8 {
    ((77 * r as u32 + 150 * g as u32 + 29 * b as u32) >> 8) as u8
}

/// Gray-scale `frames` frames of `size`² pixels; returns a checksum over
/// per-frame luma histograms.
pub fn run(frames: u32, size: u32) -> u64 {
    let w = size as usize;
    if w == 0 || frames == 0 {
        return 0;
    }
    let mut rng = SplitMix64::new(0x51DE0 ^ ((frames as u64) << 32 | size as u64));
    let mut acc = 0x9E37_79B9_7F4Au64;
    let mut histogram = [0u32; 16];

    for frame in 0..frames {
        histogram.fill(0);
        // Per-frame motion offset, so frames differ like a real video.
        let motion = rng.next_u64();
        for _y in 0..w {
            for _x in 0..w {
                let v = rng.next_u64() ^ motion;
                let g = luma((v & 0xFF) as u8, ((v >> 8) & 0xFF) as u8, ((v >> 16) & 0xFF) as u8);
                histogram[(g >> 4) as usize] += 1;
            }
        }
        for (bin, &count) in histogram.iter().enumerate() {
            acc = fold(acc, (frame as u64) << 40 | (bin as u64) << 32 | count as u64);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(run(3, 32), run(3, 32));
    }

    #[test]
    fn sensitive_to_both_dims() {
        assert_ne!(run(3, 32), run(4, 32));
        assert_ne!(run(3, 32), run(3, 33));
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(run(0, 32), 0);
        assert_eq!(run(3, 0), 0);
    }
}
