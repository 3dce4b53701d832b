//! The two sizes a synthetic trace comes in, named once for every entry
//! point that takes a scale (`gen-trace --scale`, `lab run`, `repro`).

use crate::azure::AzureTraceConfig;
use crate::huawei::HuaweiTraceConfig;

/// Size of a synthetic trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced traces: fast, CI-friendly, same distributional shapes.
    Small,
    /// Full paper-scale traces (49 728 functions / 908 M invocations).
    Paper,
}

impl Scale {
    /// `small` or `paper`; anything else is refused, so a misspelt `paper`
    /// never passes for a full-scale run.
    pub fn parse(name: &str) -> Result<Scale, String> {
        [Scale::Small, Scale::Paper]
            .into_iter()
            .find(|scale| scale.name() == name)
            .ok_or_else(|| format!("unknown scale {name}: expected `small` or `paper`"))
    }

    /// [`Scale::parse`] of `$FAASRAIL_SCALE` ([`env_var`]), `None` when unset.
    pub fn from_env() -> Result<Option<Scale>, String> {
        let parse = |name: String| Scale::parse(&name).map_err(|e| format!("FAASRAIL_SCALE: {e}"));
        env_var("FAASRAIL_SCALE")?.map(parse).transpose()
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Paper => "paper",
        }
    }

    /// The synthetic Azure trace of this size.
    pub fn azure(self, seed: u64) -> AzureTraceConfig {
        match self {
            Scale::Small => AzureTraceConfig::small(seed),
            Scale::Paper => AzureTraceConfig::paper_scale(seed),
        }
    }

    /// The synthetic Huawei trace of this size.
    pub fn huawei(self, seed: u64) -> HuaweiTraceConfig {
        match self {
            Scale::Small => HuaweiTraceConfig::small(seed),
            Scale::Paper => HuaweiTraceConfig::paper_scale(seed),
        }
    }
}

/// An environment variable's value, `None` when unset. A value that is not
/// UTF-8 is refused, not taken for unset: the one reading of the
/// reproduction's `FAASRAIL_*` variables.
pub fn env_var(name: &str) -> Result<Option<String>, String> {
    match std::env::var(name) {
        Ok(value) => Ok(Some(value)),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(raw)) => Err(format!("{name}={raw:?} is not UTF-8")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_scale_reads_back_its_name_and_nothing_else() {
        for scale in [Scale::Small, Scale::Paper] {
            assert_eq!(Scale::parse(scale.name()), Ok(scale));
        }
        for bad in ["papr", "Paper", "", " paper"] {
            let err = Scale::parse(bad).expect_err("refused");
            assert!(err.contains("`small` or `paper`") && err.contains(bad), "{err}");
        }
        assert_eq!(Scale::Paper.azure(7), AzureTraceConfig::paper_scale(7));
        assert_eq!(Scale::Small.huawei(7), HuaweiTraceConfig::small(7));
    }
}
