//! `image_processing`: per-pixel image manipulation.
//!
//! FunctionBench's workload loads a JPEG and applies a pipeline of pixel
//! transformations. This kernel synthesizes a `size`² RGB image row by row
//! and applies grayscale conversion, a 3×3 box blur (3-row rolling window,
//! so memory stays O(width)), and thresholding.

use super::fold;
use faasrail_stats::rng::{Rng, SplitMix64};

/// Integer luma approximation (ITU-R BT.601 weights scaled to /256).
#[inline]
fn luma(r: u8, g: u8, b: u8) -> u8 {
    ((77 * r as u32 + 150 * g as u32 + 29 * b as u32) >> 8) as u8
}

/// Generate the next synthetic row, already converted to grayscale.
fn gray_row(rng: &mut SplitMix64, width: usize) -> Vec<u8> {
    (0..width)
        .map(|_| {
            let v = rng.next_u64();
            luma((v & 0xFF) as u8, ((v >> 8) & 0xFF) as u8, ((v >> 16) & 0xFF) as u8)
        })
        .collect()
}

/// Process a `size`² synthetic image; returns a checksum of the output.
pub fn run(size: u32) -> u64 {
    let w = size as usize;
    if w == 0 {
        return 0;
    }
    let mut rng = SplitMix64::new(0x1111_0A6Eu64.wrapping_add(size as u64));
    let mut acc = 0x811C_9DC5u64;

    // Rolling window: the row above, the row being blurred, the row below.
    let mut prev: Vec<u8> = Vec::new();
    let mut cur = gray_row(&mut rng, w);
    let mut next = if w > 1 { gray_row(&mut rng, w) } else { Vec::new() };

    for y in 0..w {
        for x in 0..w {
            let mut sum = 0u32;
            let mut cnt = 0u32;
            for row in [&prev, &cur, &next] {
                if row.is_empty() {
                    continue;
                }
                for &px in &row[x.saturating_sub(1)..=(x + 1).min(w - 1)] {
                    sum += px as u32;
                    cnt += 1;
                }
            }
            let blurred = (sum / cnt) as u8;
            // Threshold into a bitmap and fold both into the checksum.
            let bit = (blurred > 96) as u64;
            acc = fold(acc, (blurred as u64) << 1 | bit);
        }
        prev = std::mem::replace(&mut cur, std::mem::take(&mut next));
        if y + 2 < w {
            next = gray_row(&mut rng, w);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(run(64), run(64));
    }

    #[test]
    fn sensitive_to_size() {
        assert_ne!(run(64), run(65));
    }

    #[test]
    fn zero_size_is_zero() {
        assert_eq!(run(0), 0);
    }

    #[test]
    fn tiny_sizes_run() {
        // Exercise the window edge cases.
        for s in 1..=4 {
            assert_eq!(run(s), run(s));
        }
    }

    #[test]
    fn luma_bounds() {
        assert_eq!(luma(0, 0, 0), 0);
        assert_eq!(luma(255, 255, 255), 255);
        assert!(luma(255, 0, 0) < luma(0, 255, 0), "green weighs more than red");
    }
}
