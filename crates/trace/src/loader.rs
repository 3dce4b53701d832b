//! Loaders for the *real* released trace files.
//!
//! The synthetic generators in this crate stand in for the actual datasets,
//! but a user who has downloaded the Azure Functions 2019 release can load
//! it directly with [`load_azure_day`] and run the identical pipeline. The
//! expected schemas follow the `AzurePublicDataset` repository:
//!
//! * invocations: `HashOwner,HashApp,HashFunction,Trigger,1,2,…,1440`
//! * durations: `HashOwner,HashApp,HashFunction,Average,Count,Minimum,Maximum,…`
//! * memory: `HashOwner,HashApp,SampleCount,AverageAllocatedMb,…`
//!
//! Functions are joined on `(HashOwner, HashApp, HashFunction)`; functions
//! lacking either an invocation row or a duration row are dropped, matching
//! the paper's preprocessing.

use crate::model::{
    App, AppId, DayStats, FunctionId, MinuteSeries, Trace, TraceFunction, TraceKind, TriggerKind,
    MINUTES_PER_DAY,
};
use std::collections::HashMap;
use std::fmt;
use std::io::BufRead;

/// Errors arising while parsing trace CSV files.
#[derive(Debug)]
pub enum LoadError {
    Io(std::io::Error),
    /// `(line_number, message)`
    Malformed(usize, String),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "I/O error: {e}"),
            LoadError::Malformed(line, msg) => write!(f, "line {line}: {msg}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

/// Split one CSV record. Handles double-quoted fields (the Azure files do
/// not use them, but defensive parsing is cheap).
fn split_csv(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes && chars.peek() == Some(&'"') => {
                cur.push('"');
                chars.next();
            }
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => fields.push(std::mem::take(&mut cur)),
            _ => cur.push(c),
        }
    }
    fields.push(cur);
    fields
}

/// Key joining the three Azure files.
type FnKey = (String, String, String);

struct InvocationRow {
    key: FnKey,
    trigger: TriggerKind,
    minutes: MinuteSeries,
}

/// Parse the invocations-per-minute file.
fn parse_invocations<R: BufRead>(reader: R) -> Result<Vec<InvocationRow>, LoadError> {
    let mut rows = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        if lineno == 0 || line.trim().is_empty() {
            continue; // header
        }
        let fields = split_csv(&line);
        if fields.len() < 4 + MINUTES_PER_DAY {
            return Err(LoadError::Malformed(
                lineno + 1,
                format!("expected {} fields, found {}", 4 + MINUTES_PER_DAY, fields.len()),
            ));
        }
        // A series holds `u32` counts: a wider one is refused here, by line
        // and minute.
        let mut counts = vec![0u64; MINUTES_PER_DAY];
        for (m, field) in fields[4..4 + MINUTES_PER_DAY].iter().enumerate() {
            counts[m] = field
                .trim()
                .parse::<u32>()
                .map_err(|e| LoadError::Malformed(lineno + 1, format!("minute {}: {e}", m + 1)))?
                .into();
        }
        rows.push(InvocationRow {
            key: (fields[0].clone(), fields[1].clone(), fields[2].clone()),
            trigger: TriggerKind::parse(&fields[3]),
            minutes: MinuteSeries::from_dense(&counts),
        });
    }
    Ok(rows)
}

struct DurationRow {
    key: FnKey,
    average_ms: f64,
}

/// Parse the function-durations file (only the `Average` column is used,
/// mirroring the paper).
fn parse_durations<R: BufRead>(reader: R) -> Result<Vec<DurationRow>, LoadError> {
    let mut rows = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        if lineno == 0 || line.trim().is_empty() {
            continue;
        }
        let fields = split_csv(&line);
        if fields.len() < 4 {
            return Err(LoadError::Malformed(lineno + 1, "expected at least 4 fields".into()));
        }
        let average_ms = fields[3]
            .trim()
            .parse::<f64>()
            .map_err(|e| LoadError::Malformed(lineno + 1, format!("Average: {e}")))?;
        rows.push(DurationRow {
            key: (fields[0].clone(), fields[1].clone(), fields[2].clone()),
            average_ms,
        });
    }
    Ok(rows)
}

struct MemoryRow {
    owner: String,
    app: String,
    allocated_mb: f64,
}

/// Parse the app-memory file (only `AverageAllocatedMb` is used).
fn parse_memory<R: BufRead>(reader: R) -> Result<Vec<MemoryRow>, LoadError> {
    let mut rows = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        if lineno == 0 || line.trim().is_empty() {
            continue;
        }
        let fields = split_csv(&line);
        if fields.len() < 4 {
            return Err(LoadError::Malformed(lineno + 1, "expected at least 4 fields".into()));
        }
        let allocated_mb = fields[3]
            .trim()
            .parse::<f64>()
            .map_err(|e| LoadError::Malformed(lineno + 1, format!("AverageAllocatedMb: {e}")))?;
        rows.push(MemoryRow { owner: fields[0].clone(), app: fields[1].clone(), allocated_mb });
    }
    Ok(rows)
}

/// Load one day of a real Azure-format trace from the three CSV readers.
///
/// Functions present in both the invocation and the duration file are kept;
/// apps without a memory row default to 170 MiB (the trace median).
pub fn load_azure_day<R1: BufRead, R2: BufRead, R3: BufRead>(
    invocations: R1,
    durations: R2,
    memory: R3,
) -> Result<Trace, LoadError> {
    let inv_rows = parse_invocations(invocations)?;
    let dur_rows = parse_durations(durations)?;
    let mem_rows = parse_memory(memory)?;

    let durations_by_key: HashMap<FnKey, f64> =
        dur_rows.into_iter().map(|r| (r.key, r.average_ms)).collect();
    let memory_by_app: HashMap<(String, String), f64> =
        mem_rows.into_iter().map(|r| ((r.owner, r.app), r.allocated_mb)).collect();

    let mut app_ids: HashMap<(String, String), AppId> = HashMap::new();
    let mut apps: Vec<App> = Vec::new();
    let mut functions = Vec::new();
    for row in inv_rows {
        let Some(&avg) = durations_by_key.get(&row.key) else {
            continue; // no duration info for this function
        };
        let app_key = (row.key.0.clone(), row.key.1.clone());
        let app_id = *app_ids.entry(app_key.clone()).or_insert_with(|| {
            let id = AppId(apps.len() as u32);
            apps.push(App { id, memory_mb: memory_by_app.get(&app_key).copied().unwrap_or(170.0) });
            id
        });
        let total = row.minutes.total();
        functions.push(TraceFunction {
            id: FunctionId(functions.len() as u32),
            app: app_id,
            trigger: row.trigger,
            avg_duration_ms: avg,
            minutes: row.minutes,
            daily: vec![DayStats { avg_duration_ms: avg, invocations: total }],
        });
    }

    Ok(Trace { kind: TraceKind::Azure, selected_day: 0, num_days: 1, functions, apps })
}

/// Load several days of a real Azure-format trace.
///
/// `days` supplies one `(invocations, durations)` reader pair per day, in
/// day order; `memory` covers the whole window (the released dataset has
/// one memory file per day too — pass day 1's). The returned trace
/// materializes the per-minute series of `selected_day` and fills every
/// function's `daily` roll-ups across the window, enabling the Fig.-3 CV
/// analysis on real data. Functions must appear in *every* day to be kept
/// (matching the paper's cross-day analysis population).
pub fn load_azure_days<R1: BufRead, R2: BufRead, R3: BufRead>(
    days: Vec<(R1, R2)>,
    memory: R3,
    selected_day: usize,
) -> Result<Trace, LoadError> {
    assert!(!days.is_empty(), "need at least one day");
    assert!(selected_day < days.len(), "selected day out of range");
    let num_days = days.len();

    let mem_rows = parse_memory(memory)?;
    let memory_by_app: HashMap<(String, String), f64> =
        mem_rows.into_iter().map(|r| ((r.owner, r.app), r.allocated_mb)).collect();

    // Per day: key → (minutes, avg duration, trigger).
    type DayEntry = (MinuteSeries, f64, TriggerKind);
    let mut per_day: Vec<HashMap<FnKey, DayEntry>> = Vec::with_capacity(num_days);
    for (inv_reader, dur_reader) in days {
        let inv_rows = parse_invocations(inv_reader)?;
        let dur_rows = parse_durations(dur_reader)?;
        let durations_by_key: HashMap<FnKey, f64> =
            dur_rows.into_iter().map(|r| (r.key, r.average_ms)).collect();
        let mut day_map = HashMap::new();
        for row in inv_rows {
            if let Some(&avg) = durations_by_key.get(&row.key) {
                day_map.insert(row.key, (row.minutes, avg, row.trigger));
            }
        }
        per_day.push(day_map);
    }

    // Functions present on every day, in a deterministic order.
    let mut keys: Vec<FnKey> =
        per_day[0].keys().filter(|k| per_day.iter().all(|d| d.contains_key(*k))).cloned().collect();
    keys.sort();

    let mut app_ids: HashMap<(String, String), AppId> = HashMap::new();
    let mut apps: Vec<App> = Vec::new();
    let mut functions = Vec::new();
    for key in keys {
        let app_key = (key.0.clone(), key.1.clone());
        let app_id = *app_ids.entry(app_key.clone()).or_insert_with(|| {
            let id = AppId(apps.len() as u32);
            apps.push(App { id, memory_mb: memory_by_app.get(&app_key).copied().unwrap_or(170.0) });
            id
        });
        let daily: Vec<DayStats> = per_day
            .iter()
            .map(|d| {
                let (minutes, avg, _) = &d[&key];
                DayStats { avg_duration_ms: *avg, invocations: minutes.total() }
            })
            .collect();
        let (minutes, avg, trigger) = per_day[selected_day][&key].clone();
        functions.push(TraceFunction {
            id: FunctionId(functions.len() as u32),
            app: app_id,
            trigger,
            avg_duration_ms: avg,
            minutes,
            daily,
        });
    }

    Ok(Trace { kind: TraceKind::Azure, selected_day, num_days, functions, apps })
}

/// Load a day of a Huawei-2023-format trace.
///
/// The Huawei release transposes the Azure layout: in
/// `requests_minute.csv` each **row** is a minute and each **column** a
/// function (`time,f1,f2,…`), and `function_delay.csv` has the same shape
/// with per-minute average execution delays in ms. A function's average
/// duration is the request-weighted mean of its per-minute delays; functions
/// that are never invoked or never report a delay are dropped (the paper's
/// "104 distinct ones during its first day" is exactly this filter).
pub fn load_huawei_day<R1: BufRead, R2: BufRead>(
    requests_minute: R1,
    function_delay: R2,
) -> Result<Trace, LoadError> {
    /// A transposed matrix: function names, per-function minute vectors,
    /// and each minute's line number.
    type Transposed = (Vec<String>, Vec<Vec<f64>>, Vec<usize>);

    fn parse_transposed<R: BufRead>(reader: R, what: &str) -> Result<Transposed, LoadError> {
        let mut lines = reader.lines().enumerate();
        let (_, header) =
            lines.next().ok_or_else(|| LoadError::Malformed(1, format!("{what}: empty file")))?;
        let header = header?;
        let names: Vec<String> =
            split_csv(&header).into_iter().skip(1).map(|s| s.trim().to_string()).collect();
        if names.is_empty() {
            return Err(LoadError::Malformed(1, format!("{what}: no function columns")));
        }
        let mut columns: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
        let mut line_of = Vec::new();
        for (lineno, line) in lines {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let fields = split_csv(&line);
            if fields.len() != names.len() + 1 {
                return Err(LoadError::Malformed(
                    lineno + 1,
                    format!("{what}: expected {} fields, found {}", names.len() + 1, fields.len()),
                ));
            }
            if columns[0].len() >= MINUTES_PER_DAY {
                return Err(LoadError::Malformed(
                    lineno + 1,
                    format!("{what}: more than {MINUTES_PER_DAY} minutes"),
                ));
            }
            for (col, field) in fields[1..].iter().enumerate() {
                let v: f64 = field.trim().parse().map_err(|e| {
                    LoadError::Malformed(lineno + 1, format!("{what} column {col}: {e}"))
                })?;
                columns[col].push(v);
            }
            line_of.push(lineno + 1);
        }
        Ok((names, columns, line_of))
    }

    let (req_names, req_cols, req_lines) = parse_transposed(requests_minute, "requests_minute")?;
    let (delay_names, delay_cols, _) = parse_transposed(function_delay, "function_delay")?;
    let delay_by_name: HashMap<&str, &Vec<f64>> =
        delay_names.iter().map(String::as_str).zip(delay_cols.iter()).collect();

    let mut functions = Vec::new();
    let mut apps = Vec::new();
    for (name, counts) in req_names.iter().zip(&req_cols) {
        let Some(delays) = delay_by_name.get(name.as_str()) else {
            continue;
        };
        // Request-weighted mean delay over minutes with both signals.
        let mut weighted = 0.0;
        let mut weight = 0.0;
        for (c, d) in counts.iter().zip(delays.iter()) {
            if *c > 0.0 && *d > 0.0 {
                weighted += d * c;
                weight += c;
            }
        }
        if weight == 0.0 {
            continue; // never invoked with a reported delay
        }
        let dense: Vec<u64> = counts.iter().map(|&c| c.max(0.0) as u64).collect();
        // A series holds `u32` counts: a wider one is refused here, by line
        // and minute.
        if let Some(m) = dense.iter().position(|&c| c > u32::MAX as u64) {
            return Err(LoadError::Malformed(
                req_lines[m],
                format!("requests_minute: {name} minute {m}: count {} exceeds u32", counts[m]),
            ));
        }
        let minutes = MinuteSeries::from_dense(&dense);
        let total = minutes.total();
        let id = FunctionId(functions.len() as u32);
        apps.push(App { id: AppId(id.0), memory_mb: 128.0 });
        functions.push(TraceFunction {
            id,
            app: AppId(id.0),
            trigger: TriggerKind::Event,
            avg_duration_ms: weighted / weight,
            minutes,
            daily: vec![DayStats { avg_duration_ms: weighted / weight, invocations: total }],
        });
    }

    Ok(Trace { kind: TraceKind::HuaweiPrivate, selected_day: 0, num_days: 1, functions, apps })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minutes_header() -> String {
        let cols: Vec<String> = (1..=MINUTES_PER_DAY).map(|m| m.to_string()).collect();
        format!("HashOwner,HashApp,HashFunction,Trigger,{}", cols.join(","))
    }

    fn minutes_row(owner: &str, app: &str, func: &str, m0: u64, m1439: u64) -> String {
        let mut cols = vec!["0".to_string(); MINUTES_PER_DAY];
        cols[0] = m0.to_string();
        cols[MINUTES_PER_DAY - 1] = m1439.to_string();
        format!("{owner},{app},{func},http,{}", cols.join(","))
    }

    #[test]
    fn load_joined_day() {
        let inv = format!(
            "{}\n{}\n{}\n",
            minutes_header(),
            minutes_row("o1", "a1", "f1", 5, 3),
            minutes_row("o1", "a1", "f2", 1, 0),
        );
        let dur = "HashOwner,HashApp,HashFunction,Average,Count,Minimum,Maximum\n\
                   o1,a1,f1,250.5,8,10,900\n\
                   o1,a1,f2,1000,1,1000,1000\n\
                   o9,a9,f9,42,1,42,42\n";
        let mem = "HashOwner,HashApp,SampleCount,AverageAllocatedMb\no1,a1,100,256\n";
        let t = load_azure_day(inv.as_bytes(), dur.as_bytes(), mem.as_bytes()).unwrap();
        assert_eq!(t.functions.len(), 2);
        assert_eq!(t.apps.len(), 1);
        assert_eq!(t.functions[0].avg_duration_ms, 250.5);
        assert_eq!(t.functions[0].total_invocations(), 8);
        assert_eq!(t.functions[0].minutes.get(0), 5);
        assert_eq!(t.functions[0].minutes.get(1439), 3);
        assert_eq!(t.app(t.functions[0].app).unwrap().memory_mb, 256.0);
    }

    #[test]
    fn function_without_duration_dropped() {
        let inv = format!("{}\n{}\n", minutes_header(), minutes_row("o1", "a1", "f1", 1, 0));
        let dur = "header\n";
        let mem = "header\n";
        let t = load_azure_day(inv.as_bytes(), dur.as_bytes(), mem.as_bytes()).unwrap();
        assert!(t.functions.is_empty());
    }

    #[test]
    fn missing_memory_defaults() {
        let inv = format!("{}\n{}\n", minutes_header(), minutes_row("o1", "a1", "f1", 1, 0));
        let dur = "header\no1,a1,f1,100,1,100,100\n";
        let mem = "header\n";
        let t = load_azure_day(inv.as_bytes(), dur.as_bytes(), mem.as_bytes()).unwrap();
        assert_eq!(t.apps[0].memory_mb, 170.0);
    }

    #[test]
    fn malformed_minute_field_errors() {
        let inv = format!("{}\n{}\n", minutes_header(), minutes_row("o1", "a1", "f1", 1, 0))
            .replace(",http,1,", ",http,xyz,");
        let dur = "header\no1,a1,f1,100,1,100,100\n";
        let err = load_azure_day(inv.as_bytes(), dur.as_bytes(), "h\n".as_bytes());
        assert!(matches!(err, Err(LoadError::Malformed(2, _))), "{err:?}");
    }

    #[test]
    fn a_count_past_u32_is_malformed_not_a_panic() {
        let inv = minutes_row("o1", "a1", "f1", 1, u32::MAX as u64 + 1);
        let inv = format!("{}\n{}\n{inv}\n", minutes_header(), minutes_row("o1", "a1", "f0", 1, 0));
        let dur = "header\no1,a1,f1,100,1,100,100\n";
        let err = load_azure_day(inv.as_bytes(), dur.as_bytes(), "h\n".as_bytes());
        let Err(LoadError::Malformed(3, msg)) = err else { panic!("{err:?}") };
        assert!(msg.starts_with("minute 1440: "), "{msg}");
        // The widest count a series holds still loads.
        let inv = format!(
            "{}\n{}\n",
            minutes_header(),
            minutes_row("o1", "a1", "f1", 1, u32::MAX as u64)
        );
        let t = load_azure_day(inv.as_bytes(), dur.as_bytes(), "h\n".as_bytes()).unwrap();
        assert_eq!(t.functions[0].minutes.get(1439), u32::MAX);
    }

    #[test]
    fn short_row_errors() {
        let inv = format!("{}\no1,a1,f1,http,1,2,3\n", minutes_header());
        let err = load_azure_day(inv.as_bytes(), "h\n".as_bytes(), "h\n".as_bytes());
        assert!(matches!(err, Err(LoadError::Malformed(2, _))));
    }

    #[test]
    fn multi_day_loader_builds_rollups() {
        let day = |m0: u64, avg: f64| {
            (
                format!("{}\n{}\n", minutes_header(), minutes_row("o1", "a1", "f1", m0, 1)),
                format!("h,h,h,Average\no1,a1,f1,{avg}\n"),
            )
        };
        let (i1, d1) = day(5, 100.0);
        let (i2, d2) = day(9, 120.0);
        let (i3, d3) = day(2, 80.0);
        let mem = "h,h,s,AverageAllocatedMb\no1,a1,10,256\n";
        let t = load_azure_days(
            vec![
                (i1.as_bytes(), d1.as_bytes()),
                (i2.as_bytes(), d2.as_bytes()),
                (i3.as_bytes(), d3.as_bytes()),
            ],
            mem.as_bytes(),
            1,
        )
        .unwrap();
        assert_eq!(t.num_days, 3);
        assert_eq!(t.selected_day, 1);
        assert_eq!(t.functions.len(), 1);
        let f = &t.functions[0];
        // Selected day (day 2): avg 120, invocations 10.
        assert_eq!(f.avg_duration_ms, 120.0);
        assert_eq!(f.total_invocations(), 10);
        assert_eq!(f.daily.len(), 3);
        assert_eq!(f.daily[0].avg_duration_ms, 100.0);
        assert_eq!(f.daily[0].invocations, 6);
        assert_eq!(f.daily[2].invocations, 3);
        crate::validate(&t).expect("valid multi-day trace");
    }

    #[test]
    fn multi_day_loader_drops_partial_functions() {
        // f2 exists only on day 1 → dropped from the cross-day population.
        let i1 = format!(
            "{}\n{}\n{}\n",
            minutes_header(),
            minutes_row("o1", "a1", "f1", 1, 0),
            minutes_row("o1", "a1", "f2", 1, 0)
        );
        let d1 = "h,h,h,Average\no1,a1,f1,50\no1,a1,f2,60\n";
        let i2 = format!("{}\n{}\n", minutes_header(), minutes_row("o1", "a1", "f1", 2, 0));
        let d2 = "h,h,h,Average\no1,a1,f1,55\n";
        let t = load_azure_days(
            vec![(i1.as_bytes(), d1.as_bytes()), (i2.as_bytes(), d2.as_bytes())],
            "h\n".as_bytes(),
            0,
        )
        .unwrap();
        assert_eq!(t.functions.len(), 1);
        assert_eq!(t.functions[0].daily.len(), 2);
    }

    #[test]
    fn huawei_loader_transposed_schema() {
        // 4 minutes, 3 functions; f2 never has a delay → dropped.
        let reqs = "time,f0,f1,f2\n0,10,0,5\n1,0,2,5\n2,10,0,5\n3,0,0,5\n";
        let delays = "time,f0,f1,f2\n0,4.0,0,0\n1,0,250.5,0\n2,6.0,0,0\n3,0,0,0\n";
        let t = load_huawei_day(reqs.as_bytes(), delays.as_bytes()).unwrap();
        assert_eq!(t.kind, TraceKind::HuaweiPrivate);
        assert_eq!(t.functions.len(), 2);
        // f0: request-weighted mean of 4ms (10 reqs) and 6ms (10 reqs) = 5ms.
        assert!((t.functions[0].avg_duration_ms - 5.0).abs() < 1e-9);
        assert_eq!(t.functions[0].total_invocations(), 20);
        assert_eq!(t.functions[0].minutes.get(0), 10);
        // f1: single active minute.
        assert!((t.functions[1].avg_duration_ms - 250.5).abs() < 1e-9);
        assert_eq!(t.functions[1].total_invocations(), 2);
        crate::validate(&t).expect("valid huawei trace");
    }

    #[test]
    fn huawei_count_past_u32_is_malformed_not_a_panic() {
        // Line 4 is minute 1: the blank line 3 holds no minute.
        let reqs = "time,f0,f1\n0,1,2\n\n1,3,4294967296\n";
        let delays = "time,f0,f1\n0,1,1\n1,1,1\n";
        let err = load_huawei_day(reqs.as_bytes(), delays.as_bytes());
        let Err(LoadError::Malformed(4, msg)) = err else { panic!("{err:?}") };
        assert_eq!(msg, "requests_minute: f1 minute 1: count 4294967296 exceeds u32");
        let reqs = "time,f0,f1\n0,1,2\n1,3,4294967295\n";
        let t = load_huawei_day(reqs.as_bytes(), delays.as_bytes()).unwrap();
        assert_eq!(t.functions[1].minutes.get(1), u32::MAX);
    }

    #[test]
    fn huawei_loader_rejects_ragged_rows() {
        let reqs = "time,f0,f1\n0,1,2\n1,3\n";
        let delays = "time,f0,f1\n0,1,1\n";
        let err = load_huawei_day(reqs.as_bytes(), delays.as_bytes());
        assert!(matches!(err, Err(LoadError::Malformed(3, _))), "{err:?}");
    }

    #[test]
    fn huawei_loader_feeds_pipeline_types() {
        // A Huawei-format trace picks the finer aggregation resolution.
        let reqs = "time,f0\n0,100\n";
        let delays = "time,f0\n0,3.4\n";
        let t = load_huawei_day(reqs.as_bytes(), delays.as_bytes()).unwrap();
        assert_eq!(t.kind, TraceKind::HuaweiPrivate);
        assert!((t.functions[0].avg_duration_ms - 3.4).abs() < 1e-9);
    }

    #[test]
    fn split_csv_quotes() {
        assert_eq!(split_csv(r#"a,"b,c",d"#), vec!["a", "b,c", "d"]);
        assert_eq!(split_csv(r#""he said ""hi""",x"#), vec![r#"he said "hi""#, "x"]);
        assert_eq!(split_csv(""), vec![""]);
    }
}
