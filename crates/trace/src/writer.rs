//! Writer for the real Azure trace CSV schema.
//!
//! The mirror of [`crate::loader`]: any [`Trace`] — synthetic or loaded —
//! can be exported in the `AzurePublicDataset` file formats, so FaaSRail's
//! synthetic traces interoperate with every other tool that consumes the
//! Azure schema (and the loader/writer pair can be round-trip tested).

use crate::model::{Trace, MINUTES_PER_DAY};
use std::collections::BTreeMap;
use std::io::{self, Write};

/// Write the invocations-per-function-per-minute file.
pub fn write_invocations<W: Write>(trace: &Trace, mut out: W) -> io::Result<()> {
    write!(out, "HashOwner,HashApp,HashFunction,Trigger")?;
    for m in 1..=MINUTES_PER_DAY {
        write!(out, ",{m}")?;
    }
    writeln!(out)?;
    for f in &trace.functions {
        write!(out, "owner,app{:05},func{:05},{}", f.app.0, f.id.0, f.trigger.name())?;
        let dense = f.minutes.dense();
        for c in &dense {
            write!(out, ",{c}")?;
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Write the function-durations file (Average/Count/Minimum/Maximum; the
/// percentile columns are filled with the average, as FaaSRail only consumes
/// the average).
pub fn write_durations<W: Write>(trace: &Trace, mut out: W) -> io::Result<()> {
    writeln!(out, "HashOwner,HashApp,HashFunction,Average,Count,Minimum,Maximum")?;
    for f in &trace.functions {
        writeln!(
            out,
            "owner,app{:05},func{:05},{},{},{},{}",
            f.app.0,
            f.id.0,
            f.avg_duration_ms,
            f.total_invocations(),
            f.avg_duration_ms,
            f.avg_duration_ms
        )?;
    }
    Ok(())
}

/// Write the app-memory file.
pub fn write_memory<W: Write>(trace: &Trace, mut out: W) -> io::Result<()> {
    writeln!(out, "HashOwner,HashApp,SampleCount,AverageAllocatedMb")?;
    // Only apps actually referenced by functions (the real file covers
    // sampled apps).
    let mut referenced: BTreeMap<u32, f64> = BTreeMap::new();
    for f in &trace.functions {
        if let Some(app) = trace.app(f.app) {
            referenced.insert(app.id.0, app.memory_mb);
        }
    }
    for (id, mem) in referenced {
        writeln!(out, "owner,app{id:05},100,{mem}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::azure::{generate, AzureTraceConfig};
    use crate::loader::load_azure_day;

    #[test]
    fn writer_loader_roundtrip_preserves_everything_faasrail_uses() {
        let mut cfg = AzureTraceConfig::small(5);
        cfg.num_functions = 50;
        cfg.daily_invocations = 20_000;
        let original = generate(&cfg);

        let mut inv = Vec::new();
        let mut dur = Vec::new();
        let mut mem = Vec::new();
        write_invocations(&original, &mut inv).unwrap();
        write_durations(&original, &mut dur).unwrap();
        write_memory(&original, &mut mem).unwrap();

        let loaded = load_azure_day(inv.as_slice(), dur.as_slice(), mem.as_slice()).expect("load");
        assert_eq!(loaded.functions.len(), original.functions.len());
        assert_eq!(loaded.total_invocations(), original.total_invocations());
        // Functions may be renumbered; compare by sorted (duration, total,
        // per-minute) signatures.
        type Signature = Vec<(u64, u64, Vec<(u16, u32)>)>;
        let signature = |t: &Trace| {
            let mut v: Signature = t
                .functions
                .iter()
                .map(|f| {
                    (
                        (f.avg_duration_ms * 1_000.0) as u64,
                        f.total_invocations(),
                        f.minutes.entries().collect(),
                    )
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(signature(&original), signature(&loaded));
        // Memory survives for every referenced app.
        for f in &loaded.functions {
            let m = loaded.app(f.app).unwrap().memory_mb;
            assert!(m > 0.0);
        }
        crate::validate(&loaded).expect("round-tripped trace is valid");
        // Trigger kinds survive the round trip (multiset comparison).
        let triggers = |t: &Trace| {
            let mut v: Vec<&str> = t.functions.iter().map(|f| f.trigger.name()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(triggers(&original), triggers(&loaded));
    }

    #[test]
    fn header_shapes() {
        let mut cfg = AzureTraceConfig::small(6);
        cfg.num_functions = 3;
        cfg.daily_invocations = 100;
        let t = generate(&cfg);
        let mut inv = Vec::new();
        write_invocations(&t, &mut inv).unwrap();
        let s = String::from_utf8(inv).unwrap();
        let header = s.lines().next().unwrap();
        assert!(header.starts_with("HashOwner,HashApp,HashFunction,Trigger,1,2,"));
        assert!(header.ends_with(",1440"));
        assert_eq!(s.lines().count(), 4); // header + 3 functions
    }
}
