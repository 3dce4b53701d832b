//! Native compute kernels — the executable bodies of the ten workloads.
//!
//! Each kernel performs the same *kind* of work as its FunctionBench
//! counterpart (HTML rendering, CNN inference, AES, …) with trip counts
//! driven by the [`WorkloadInput`]. Kernels are:
//!
//! * **deterministic** — input data is synthesized from a fixed-seed
//!   [`SplitMix64`], and every kernel returns a checksum so results can be
//!   asserted and the optimizer cannot elide the work;
//! * **bounded-memory** — oversized inputs are processed in a streaming
//!   fashion (row buffers, block counters) so augmenting a workload to
//!   multi-second runtimes never balloons its footprint.

pub mod aes;
pub mod auxiliary;
pub mod chameleon;
pub mod cnn;
pub mod image;
pub mod json;
pub mod lr;
pub mod matmul;
pub mod rnn;
pub mod video;

use crate::input::WorkloadInput;
use faasrail_stats::rng::{Rng, SplitMix64};

/// Uniform `f32` in `[-1, 1)`, handy for synthetic model weights.
#[inline]
fn next_weight(rng: &mut SplitMix64) -> f32 {
    (rng.next_f64() * 2.0 - 1.0) as f32
}

/// Mix a value into a running checksum (FNV-1a style with a 64-bit fold).
#[inline]
pub fn fold(acc: u64, v: u64) -> u64 {
    (acc ^ v).wrapping_mul(0x100_0000_01B3)
}

/// Fold a float by its bit pattern, quantized to survive tiny FP reordering.
#[inline]
pub fn fold_f64(acc: u64, v: f64) -> u64 {
    fold(acc, (v * 1e6).round() as i64 as u64)
}

/// Execute the kernel selected by `input`, returning its checksum.
pub fn execute(input: &WorkloadInput) -> u64 {
    match *input {
        WorkloadInput::Chameleon { rows, cols } => chameleon::run(rows, cols),
        WorkloadInput::CnnServing { image_size, filters } => cnn::run(image_size, filters),
        WorkloadInput::ImageProcessing { size } => image::run(size),
        WorkloadInput::JsonSerdes { records } => json::run(records),
        WorkloadInput::Matmul { n } => matmul::run(n),
        WorkloadInput::LrServing { samples, features } => lr::run_serving(samples, features),
        WorkloadInput::LrTraining { epochs, samples, features } => {
            lr::run_training(epochs, samples, features)
        }
        WorkloadInput::Pyaes { bytes } => aes::run(bytes),
        WorkloadInput::RnnServing { seq_len, hidden } => rnn::run(seq_len, hidden),
        WorkloadInput::VideoProcessing { frames, size } => video::run(frames, size),
        WorkloadInput::Compression { bytes } => auxiliary::run_compression(bytes),
        WorkloadInput::GraphBfs { vertices, degree } => auxiliary::run_graph_bfs(vertices, degree),
        WorkloadInput::PageRank { vertices, iters } => auxiliary::run_pagerank(vertices, iters),
        WorkloadInput::SortData { elements } => auxiliary::run_sort(elements),
        WorkloadInput::TextSearch { haystack_bytes, patterns } => {
            auxiliary::run_text_search(haystack_bytes, patterns)
        }
        WorkloadInput::WordCount { bytes } => auxiliary::run_word_count(bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::WorkloadKind;

    #[test]
    fn every_kernel_runs_and_is_deterministic() {
        // Miniature inputs: fast even in debug builds. The checksums are
        // the parent commit's (before the kernels' private splitmix64 moved
        // to `faasrail_stats::rng`): the input data must not change.
        let inputs = [
            (WorkloadInput::Chameleon { rows: 20, cols: 4 }, 0x5cf4887e2d2f8fb1),
            (WorkloadInput::CnnServing { image_size: 16, filters: 4 }, 0x51d53a4854055ac7),
            (WorkloadInput::ImageProcessing { size: 32 }, 0x64c2dfdfe68ade06),
            (WorkloadInput::JsonSerdes { records: 50 }, 0x46fb6ea407757e79),
            (WorkloadInput::Matmul { n: 16 }, 0xb78701cfbd1932b4),
            (WorkloadInput::LrServing { samples: 64, features: 8 }, 0x6959dfc15e8b745b),
            (WorkloadInput::LrTraining { epochs: 2, samples: 64, features: 8 }, 0xa3417ab617016f3b),
            (WorkloadInput::Pyaes { bytes: 1024 }, 0x857280ad5c695455),
            (WorkloadInput::RnnServing { seq_len: 4, hidden: 16 }, 0x3b3a608ba81b9980),
            (WorkloadInput::VideoProcessing { frames: 2, size: 32 }, 0xe895e6613b1e7a12),
            (WorkloadInput::Compression { bytes: 4_096 }, 0xcd0858b2764a5014),
            (WorkloadInput::GraphBfs { vertices: 200, degree: 4 }, 0x5034cfe79452421c),
            (WorkloadInput::PageRank { vertices: 100, iters: 2 }, 0xaba084086fd40eb1),
            (WorkloadInput::SortData { elements: 500 }, 0x2bd97e0ce721cd59),
            (WorkloadInput::TextSearch { haystack_bytes: 4_096, patterns: 2 }, 0x988a7c3ceecd2645),
            (WorkloadInput::WordCount { bytes: 4_096 }, 0xf30a8b75d1118a2d),
        ];
        let mut seen_kinds = Vec::new();
        for (input, golden) in &inputs {
            let a = execute(input);
            let b = execute(input);
            assert_eq!(a, b, "{input:?} not deterministic");
            assert_eq!(a, *golden, "{input:?} checksum moved: {a:#018x}");
            seen_kinds.push(input.kind());
        }
        seen_kinds.sort_unstable();
        seen_kinds.dedup();
        assert_eq!(seen_kinds.len(), WorkloadKind::ALL_SUITES.len(), "all sixteen kinds covered");
    }

    #[test]
    fn checksums_differ_across_inputs() {
        let a = execute(&WorkloadInput::Pyaes { bytes: 1024 });
        let b = execute(&WorkloadInput::Pyaes { bytes: 2048 });
        assert_ne!(a, b);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// A miniature input for any kind, scaled by `s` in 1..=4.
        fn tiny_input(kind: WorkloadKind, s: u32) -> WorkloadInput {
            match kind {
                WorkloadKind::Chameleon => WorkloadInput::Chameleon { rows: 8 * s, cols: 4 },
                WorkloadKind::CnnServing => {
                    WorkloadInput::CnnServing { image_size: 8 + 4 * s, filters: 4 }
                }
                WorkloadKind::ImageProcessing => WorkloadInput::ImageProcessing { size: 8 * s },
                WorkloadKind::JsonSerdes => WorkloadInput::JsonSerdes { records: 10 * s },
                WorkloadKind::Matmul => WorkloadInput::Matmul { n: 4 * s },
                WorkloadKind::LrServing => {
                    WorkloadInput::LrServing { samples: 16 * s, features: 8 }
                }
                WorkloadKind::LrTraining => {
                    WorkloadInput::LrTraining { epochs: s, samples: 16, features: 4 }
                }
                WorkloadKind::Pyaes => WorkloadInput::Pyaes { bytes: 64 * s },
                WorkloadKind::RnnServing => WorkloadInput::RnnServing { seq_len: s, hidden: 8 },
                WorkloadKind::VideoProcessing => {
                    WorkloadInput::VideoProcessing { frames: s, size: 8 }
                }
                WorkloadKind::Compression => WorkloadInput::Compression { bytes: 256 * s },
                WorkloadKind::GraphBfs => WorkloadInput::GraphBfs { vertices: 32 * s, degree: 3 },
                WorkloadKind::PageRank => WorkloadInput::PageRank { vertices: 16 * s, iters: 2 },
                WorkloadKind::SortData => WorkloadInput::SortData { elements: 64 * s },
                WorkloadKind::TextSearch => {
                    WorkloadInput::TextSearch { haystack_bytes: 512 * s, patterns: 2 }
                }
                WorkloadKind::WordCount => WorkloadInput::WordCount { bytes: 256 * s },
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn any_kernel_any_tiny_input_is_deterministic(
                kind_idx in 0usize..WorkloadKind::ALL_SUITES.len(),
                scale in 1u32..=4,
            ) {
                let input = tiny_input(WorkloadKind::ALL_SUITES[kind_idx], scale);
                prop_assert_eq!(execute(&input), execute(&input));
            }

            #[test]
            fn scaling_the_input_changes_the_checksum(
                kind_idx in 0usize..WorkloadKind::ALL_SUITES.len(),
                scale in 1u32..=3,
            ) {
                let kind = WorkloadKind::ALL_SUITES[kind_idx];
                let a = execute(&tiny_input(kind, scale));
                let b = execute(&tiny_input(kind, scale + 1));
                prop_assert_ne!(a, b, "{:?} scale {} vs {}", kind, scale, scale + 1);
            }
        }
    }
}
