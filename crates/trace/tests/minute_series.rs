//! `MinuteSeries` keeps minutes and counts side by side, a byte a count
//! while every count fits one, and settles its total and verdict when it is
//! built. These tests hold it to the series it replaced, a `Vec<(u16, u32)>`
//! whose every figure was a walk over the entries, on lists that `new`
//! accepts and on lists only JSON can carry, with counts of either width and
//! at the edge between them; and they pin the trace's JSON text to a digest
//! taken before the change.

use faasrail_stats::rng::{cases, Rng};
use faasrail_trace::azure::{self, AzureTraceConfig};
use faasrail_trace::{MinuteSeries, MINUTES_PER_DAY};
use serde::{Deserialize, Serialize};

/// The series as it stood, with its summing loops: the oracle.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
struct Replaced {
    entries: Vec<(u16, u32)>,
}

impl Replaced {
    fn new(entries: Vec<(u16, u32)>) -> Self {
        Replaced { entries: entries.into_iter().filter(|&(_, c)| c > 0).collect() }
    }

    fn checked_total(&self) -> Option<u64> {
        let mut total = 0u64;
        let mut earliest = 0usize;
        let mut sound = true;
        for &(m, c) in &self.entries {
            sound &= (m as usize >= earliest) & (c > 0);
            earliest = m as usize + 1;
            total += c as u64;
        }
        (sound && earliest <= MINUTES_PER_DAY).then_some(total)
    }

    fn get(&self, minute: u16) -> u32 {
        match self.entries.binary_search_by_key(&minute, |&(m, _)| m) {
            Ok(i) => self.entries[i].1,
            Err(_) => 0,
        }
    }

    fn total(&self) -> u64 {
        self.entries.iter().map(|&(_, c)| c as u64).sum()
    }

    fn dense(&self) -> Vec<u64> {
        let mut out = vec![0u64; MINUTES_PER_DAY];
        for &(m, c) in &self.entries {
            out[m as usize] = c as u64;
        }
        out
    }
}

/// A count, zero only if allowed: in a wide day mostly small and sometimes
/// the widest `u32`; in a narrow one up to 255, often exactly 255.
fn count(rng: &mut impl Rng, zeros: bool, narrow: bool) -> u32 {
    match rng.below(16) {
        0 if zeros => 0,
        1 if narrow => 255,
        1 => u32::MAX - rng.below(3) as u32,
        2 if narrow => rng.range(1..256),
        2 => rng.range(1..1_000_000),
        _ => rng.range(1..12),
    }
}

/// Ascending minutes of the day, from a handful to every one, with counts
/// of any width, counts that all fit a byte, or those and a single 256.
fn ascending(rng: &mut impl Rng, zeros: bool) -> Vec<(u16, u32)> {
    let density = [0.0, 0.003, 0.03, 0.4, 1.0][rng.below(5) as usize];
    let regime = rng.below(3);
    let mut entries = Vec::new();
    for m in 0..MINUTES_PER_DAY as u16 {
        if rng.next_f64() < density {
            entries.push((m, count(rng, zeros, regime > 0)));
        }
    }
    if regime == 2 && !entries.is_empty() {
        let i = rng.range(0..entries.len());
        entries[i].1 = 256;
    }
    entries
}

/// An ascending list with at most one defect that JSON can carry and `new`
/// refuses or drops: a zero count, a descending or a repeated pair, or a
/// minute past the day (at the end, where it breaks nothing else).
fn carried_by_json(rng: &mut impl Rng) -> Vec<(u16, u32)> {
    let mut entries = ascending(rng, false);
    let len = entries.len();
    match rng.below(6) {
        0 if len > 0 => {
            let i = rng.range(0..len);
            entries[i].1 = 0;
        }
        1 if len >= 2 => {
            let i = rng.range(0..len - 1);
            entries.swap(i, i + 1);
        }
        2 if len > 0 => {
            let i = rng.range(0..len);
            entries.insert(i, entries[i]);
        }
        3 => {
            let past = rng.range(MINUTES_PER_DAY as u16..u16::MAX);
            let narrow = entries.iter().all(|&(_, c)| c <= 255);
            entries.push((past, count(rng, false, narrow)));
        }
        _ => {}
    }
    entries
}

/// Every figure of `series` equals the oracle's, probing `get` at each
/// entry's minute, its neighbours and a few minutes anywhere.
fn assert_same(series: &MinuteSeries, oracle: &Replaced, rng: &mut impl Rng) {
    assert_eq!(series.total(), oracle.total());
    assert_eq!(series.checked_total(), oracle.checked_total(), "{:?}", oracle.entries);
    assert_eq!(series.entries().collect::<Vec<_>>(), oracle.entries);
    assert_eq!(series.entries().len(), oracle.entries.len());
    assert_eq!(series.entries().rev().collect::<Vec<_>>(), {
        let mut back = oracle.entries.clone();
        back.reverse();
        back
    });
    assert_eq!(series.active_minutes(), oracle.entries.len());
    assert_eq!(series.is_empty(), oracle.entries.is_empty());
    let probes = oracle
        .entries
        .iter()
        .flat_map(|&(m, _)| [m.wrapping_sub(1), m, m.wrapping_add(1)])
        .chain((0..8).map(|_| rng.below(u16::MAX as u64 + 1) as u16));
    for minute in probes {
        assert_eq!(series.get(minute), oracle.get(minute), "minute {minute}");
    }
    if oracle.entries.iter().all(|&(m, _)| (m as usize) < MINUTES_PER_DAY) {
        assert_eq!(series.dense(), oracle.dense());
    }
    assert_eq!(serde_json::to_string(series).unwrap(), serde_json::to_string(oracle).unwrap());
}

#[test]
fn the_series_reads_as_the_vector_it_replaced() {
    cases("minute series: built by new and from a dense window", 256, |rng| {
        let entries = ascending(rng, true);
        let oracle = Replaced::new(entries.clone());
        let series = MinuteSeries::new(entries.clone());
        assert_same(&series, &oracle, rng);

        // The same day as a dense window from its first minute.
        let first = entries.first().map_or(0, |&(m, _)| m as usize);
        let mut window = vec![0u64; MINUTES_PER_DAY - first];
        for &(m, c) in &entries {
            window[m as usize - first] = c as u64;
        }
        assert_eq!(MinuteSeries::from_dense_window(first, &window), series);
    });
}

#[test]
fn both_widths_read_the_same_at_their_edge() {
    let rng = &mut faasrail_stats::seeded_rng(256);
    for entries in [
        vec![(0, 255)],
        vec![(0, 256)],
        vec![(3, 1), (9, 255), (1439, 255)],
        vec![(3, 1), (9, 256), (1439, 255)],
        vec![(0, 255), (1, u32::MAX)],
    ] {
        let oracle = Replaced::new(entries.clone());
        let series = MinuteSeries::new(entries);
        assert_same(&series, &oracle, rng);
        assert_eq!(MinuteSeries::from_dense(&oracle.dense()), series);
        let text = serde_json::to_string(&oracle).unwrap();
        assert_eq!(serde_json::from_str::<MinuteSeries>(&text).unwrap(), series);
    }
    // Unsound lists JSON carries, at each width: a zero, a repeat, a
    // minute past the day.
    for entries in [
        vec![(1, 255), (2, 0)],
        vec![(1, 256), (2, 0)],
        vec![(5, 7), (5, 7)],
        vec![(5, 7), (5, 70_000)],
        vec![(1439, 1), (1440, 255)],
        vec![(1439, 1), (1440, 256)],
    ] {
        let oracle = Replaced { entries };
        let text = serde_json::to_string(&oracle).unwrap();
        let series: MinuteSeries = serde_json::from_str(&text).unwrap();
        assert_eq!(series.checked_total(), None, "{text}");
        assert_same(&series, &oracle, rng);
    }
}

#[test]
fn json_carries_what_new_refuses_and_the_verdict_says_so() {
    cases("minute series: read from JSON", 512, |rng| {
        let oracle = Replaced { entries: carried_by_json(rng) };
        let text = serde_json::to_string(&oracle).unwrap();
        let series: MinuteSeries = serde_json::from_str(&text).expect("parses");
        assert_same(&series, &oracle, rng);
        let back: MinuteSeries = serde_json::from_str(&serde_json::to_string(&series).unwrap())
            .expect("reads its own text");
        assert_eq!(back, series);
    });
}

#[test]
fn the_reader_takes_what_a_derived_reader_takes() {
    let read = |text: &str| serde_json::from_str::<MinuteSeries>(text).map_err(|e| e.to_string());
    let oracle = |text: &str| serde_json::from_str::<Replaced>(text).map_err(|e| e.to_string());
    for text in [
        r#"{"entries":[]}"#,
        r#"{ "other": {"x": [1]}, "entries" : [ [3, 4] , [9,1] ] }"#,
        r#"{"entries":[[1,1]],"entries":[[2,2]]}"#,
        r#"{}"#,
        r#"{"entries":[[1]]}"#,
        r#"{"entries":[[1,2,3]]}"#,
        r#"{"entries":[[65536,1]]}"#,
        r#"{"entries":[[1,4294967296]]}"#,
        r#"{"entries":[[-1,1]]}"#,
        r#"{"entries":null}"#,
        r#"[[1,1]]"#,
    ] {
        match (read(text), oracle(text)) {
            (Ok(series), Ok(replaced)) => {
                assert_eq!(series.entries().collect::<Vec<_>>(), replaced.entries, "{text}")
            }
            (series, replaced) => {
                assert_eq!(series.map(drop), replaced.map(drop), "{text}")
            }
        }
    }
    assert_eq!(MinuteSeries::default().checked_total(), Some(0));
    assert_eq!(serde_json::to_string(&MinuteSeries::default()).unwrap(), r#"{"entries":[]}"#);
}

/// FNV-1a over the JSON text of a small synthetic Azure trace, taken before
/// the series changed layout: the on-disk format cannot drift.
#[test]
fn a_traces_json_text_is_unchanged() {
    let text = serde_json::to_string(&azure::generate(&AzureTraceConfig::small(7))).unwrap();
    let fnv = text
        .bytes()
        .fold(0xCBF2_9CE4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01B3));
    assert_eq!((text.len(), fnv), GOLDEN);
}

/// `(length, FNV-1a)` of that text.
const GOLDEN: (usize, u64) = (3_970_149, 0x1490_55a9_7694_f108);
