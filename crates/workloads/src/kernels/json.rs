//! `json_serdes`: JSON serialization and deserialization.
//!
//! FunctionBench's workload round-trips a large JSON document. This kernel
//! streams: it builds one record at a time as a `serde_json::Value`,
//! serializes it, parses it back, and folds a field into the checksum — the
//! same serialize/deserialize work without holding a multi-GB document.

use super::fold;
use faasrail_stats::rng::{Rng, SplitMix64};
use serde_json::{json, Value};

/// Round-trip `records` JSON records; returns a checksum over parsed fields.
pub fn run(records: u32) -> u64 {
    let mut rng = SplitMix64::new(0x15 << 32 ^ records as u64);
    let mut acc = 0xDEAD_BEEFu64;
    for i in 0..records {
        let v = rng.next_u64();
        let record = json!({
            "id": i,
            "user": format!("user-{}", v % 10_000),
            "score": (v % 1_000) as f64 / 10.0,
            "active": v & 1 == 1,
            "tags": [format!("t{}", v % 7), format!("t{}", v % 13)],
            "nested": { "lat": (v % 180) as f64 - 90.0, "lon": (v % 360) as f64 - 180.0 },
        });
        let s = serde_json::to_string(&record).expect("serializable");
        let parsed: Value = serde_json::from_str(&s).expect("round-trip");
        let id = parsed["id"].as_u64().expect("id present");
        let active = parsed["active"].as_bool().expect("active present");
        acc = fold(acc, id ^ ((active as u64) << 63) ^ s.len() as u64);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(run(100), run(100));
    }

    #[test]
    fn sensitive_to_count() {
        assert_ne!(run(100), run(101));
    }

    #[test]
    fn zero_records() {
        assert_eq!(run(0), 0xDEAD_BEEF);
    }
}
