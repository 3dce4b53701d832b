//! The ten FunctionBench-derived workload kinds (paper Table 1).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Which benchmarking suite a workload kind belongs to.
///
/// The paper builds its pool from FunctionBench alone and plans to
/// "augment and integrate more open-source benchmarking suites" (§3.3);
/// the auxiliary suite implements that plan with six further kernels
/// inspired by the vSwarm / SeBS catalogues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Suite {
    /// The ten benchmarks of paper Table 1.
    FunctionBench,
    /// The six vSwarm/SeBS-inspired extension benchmarks.
    Auxiliary,
}

/// Dominant resource profile of a workload — the qualitative behaviour the
/// paper argues real workloads must contribute (CPU, memory, string/IO, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResourceProfile {
    CpuBound,
    MemoryBound,
    StringProcessing,
    Serialization,
    MlInference,
    MlTraining,
}

/// The ten initial benchmarks adopted from FunctionBench (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// HTML table rendering.
    Chameleon,
    /// JPEG-classification CNN forward pass.
    CnnServing,
    /// Image manipulation (grayscale, blur, threshold).
    ImageProcessing,
    /// JSON serialization & deserialization.
    JsonSerdes,
    /// Dense matrix multiplication.
    Matmul,
    /// Logistic-regression serving.
    LrServing,
    /// Logistic-regression training.
    LrTraining,
    /// AES-128-CTR encryption (pure software, pyaes-style).
    Pyaes,
    /// Word-generation RNN (GRU cell) forward pass.
    RnnServing,
    /// Gray-scale effect over a stream of video frames.
    VideoProcessing,
    // ---- auxiliary suite (vSwarm/SeBS-inspired; paper §3.3 extension) ----
    /// LZSS-style sliding-window compression.
    Compression,
    /// Breadth-first search over a synthetic graph.
    GraphBfs,
    /// PageRank power iteration.
    PageRank,
    /// Large-array sorting.
    SortData,
    /// Multi-pattern substring search over synthetic logs.
    TextSearch,
    /// Word-frequency counting (map-reduce classic).
    WordCount,
}

impl WorkloadKind {
    /// The ten FunctionBench kinds, in Table 1 order.
    pub const ALL: [WorkloadKind; 10] = [
        WorkloadKind::Chameleon,
        WorkloadKind::CnnServing,
        WorkloadKind::ImageProcessing,
        WorkloadKind::JsonSerdes,
        WorkloadKind::Matmul,
        WorkloadKind::LrServing,
        WorkloadKind::LrTraining,
        WorkloadKind::Pyaes,
        WorkloadKind::RnnServing,
        WorkloadKind::VideoProcessing,
    ];

    /// The auxiliary-suite kinds.
    pub const AUXILIARY: [WorkloadKind; 6] = [
        WorkloadKind::Compression,
        WorkloadKind::GraphBfs,
        WorkloadKind::PageRank,
        WorkloadKind::SortData,
        WorkloadKind::TextSearch,
        WorkloadKind::WordCount,
    ];

    /// Every kind across all suites.
    pub const ALL_SUITES: [WorkloadKind; 16] = [
        WorkloadKind::Chameleon,
        WorkloadKind::CnnServing,
        WorkloadKind::ImageProcessing,
        WorkloadKind::JsonSerdes,
        WorkloadKind::Matmul,
        WorkloadKind::LrServing,
        WorkloadKind::LrTraining,
        WorkloadKind::Pyaes,
        WorkloadKind::RnnServing,
        WorkloadKind::VideoProcessing,
        WorkloadKind::Compression,
        WorkloadKind::GraphBfs,
        WorkloadKind::PageRank,
        WorkloadKind::SortData,
        WorkloadKind::TextSearch,
        WorkloadKind::WordCount,
    ];

    /// Which suite this kind belongs to.
    pub fn suite(self) -> Suite {
        if Self::ALL.contains(&self) {
            Suite::FunctionBench
        } else {
            Suite::Auxiliary
        }
    }

    /// Benchmark name, as it appears in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Chameleon => "chameleon",
            WorkloadKind::CnnServing => "cnn_serving",
            WorkloadKind::ImageProcessing => "image_processing",
            WorkloadKind::JsonSerdes => "json_serdes",
            WorkloadKind::Matmul => "matmul",
            WorkloadKind::LrServing => "lr_serving",
            WorkloadKind::LrTraining => "lr_training",
            WorkloadKind::Pyaes => "pyaes",
            WorkloadKind::RnnServing => "rnn_serving",
            WorkloadKind::VideoProcessing => "video_processing",
            WorkloadKind::Compression => "compression",
            WorkloadKind::GraphBfs => "graph_bfs",
            WorkloadKind::PageRank => "pagerank",
            WorkloadKind::SortData => "sort_data",
            WorkloadKind::TextSearch => "text_search",
            WorkloadKind::WordCount => "word_count",
        }
    }

    /// One-line description (paper Table 1).
    pub fn description(self) -> &'static str {
        match self {
            WorkloadKind::Chameleon => "HTML table rendering",
            WorkloadKind::CnnServing => "JPEG classification CNN",
            WorkloadKind::ImageProcessing => "JPEG image manipulation",
            WorkloadKind::JsonSerdes => "JSON serialization & deserialization",
            WorkloadKind::Matmul => "Matrix multiplication",
            WorkloadKind::LrServing => "Logistic regression serving",
            WorkloadKind::LrTraining => "Logistic regression training",
            WorkloadKind::Pyaes => "AES encryption",
            WorkloadKind::RnnServing => "Word generation RNN",
            WorkloadKind::VideoProcessing => "Gray-scale effect application",
            WorkloadKind::Compression => "Sliding-window compression",
            WorkloadKind::GraphBfs => "Graph breadth-first search",
            WorkloadKind::PageRank => "PageRank power iteration",
            WorkloadKind::SortData => "Large-array sorting",
            WorkloadKind::TextSearch => "Multi-pattern log search",
            WorkloadKind::WordCount => "Word-frequency counting",
        }
    }

    /// Dominant resource profile.
    pub fn profile(self) -> ResourceProfile {
        match self {
            WorkloadKind::Chameleon => ResourceProfile::StringProcessing,
            WorkloadKind::CnnServing => ResourceProfile::MlInference,
            WorkloadKind::ImageProcessing => ResourceProfile::MemoryBound,
            WorkloadKind::JsonSerdes => ResourceProfile::Serialization,
            WorkloadKind::Matmul => ResourceProfile::CpuBound,
            WorkloadKind::LrServing => ResourceProfile::MlInference,
            WorkloadKind::LrTraining => ResourceProfile::MlTraining,
            WorkloadKind::Pyaes => ResourceProfile::CpuBound,
            WorkloadKind::RnnServing => ResourceProfile::MlInference,
            WorkloadKind::VideoProcessing => ResourceProfile::MemoryBound,
            WorkloadKind::Compression => ResourceProfile::CpuBound,
            WorkloadKind::GraphBfs => ResourceProfile::MemoryBound,
            WorkloadKind::PageRank => ResourceProfile::MemoryBound,
            WorkloadKind::SortData => ResourceProfile::MemoryBound,
            WorkloadKind::TextSearch => ResourceProfile::CpuBound,
            WorkloadKind::WordCount => ResourceProfile::StringProcessing,
        }
    }
}

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_has_ten_unique_names() {
        assert_eq!(WorkloadKind::ALL.len(), 10);
        let mut names: Vec<&str> = WorkloadKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn suites_partition_all_kinds() {
        assert_eq!(WorkloadKind::ALL_SUITES.len(), 16);
        let mut names: Vec<&str> = WorkloadKind::ALL_SUITES.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 16);
        for k in WorkloadKind::ALL {
            assert_eq!(k.suite(), Suite::FunctionBench);
        }
        for k in WorkloadKind::AUXILIARY {
            assert_eq!(k.suite(), Suite::Auxiliary);
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(WorkloadKind::Pyaes.to_string(), "pyaes");
    }
}
