//! `chameleon`: HTML table rendering.
//!
//! FunctionBench's chameleon workload renders a large HTML table through a
//! template engine. This kernel performs the same work — per-cell string
//! formatting, escaping, and row assembly — streaming row by row so a
//! million-row table does not hold the whole document in memory.

use super::fold;
use faasrail_stats::rng::{Rng, SplitMix64};

/// Minimal HTML escaping, applied to every cell (the hot path of real
/// template rendering).
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
}

/// Render a `rows` × `cols` HTML table; returns a checksum over the
/// rendered markup.
pub fn run(rows: u32, cols: u32) -> u64 {
    let mut rng = SplitMix64::new(0xC4A_0002 ^ ((rows as u64) << 32 | cols as u64));
    let mut acc = 0x9E37_79B9u64;
    let mut row_buf = String::with_capacity(cols as usize * 32 + 16);
    let mut cell = String::with_capacity(24);

    acc = fold(acc, rows as u64);
    for r in 0..rows {
        row_buf.clear();
        row_buf.push_str("<tr>");
        for c in 0..cols {
            cell.clear();
            // A mix of text and numeric cells, some needing escaping.
            let v = rng.next_u64();
            if v & 3 == 0 {
                cell.push_str("<val&>");
            }
            cell.push_str("cell-");
            push_u64(&mut cell, r as u64);
            cell.push(':');
            push_u64(&mut cell, c as u64);
            cell.push('=');
            push_u64(&mut cell, v % 100_000);
            row_buf.push_str("<td>");
            escape_into(&mut row_buf, &cell);
            row_buf.push_str("</td>");
        }
        row_buf.push_str("</tr>");
        // Fold the rendered row into the checksum (streaming emit).
        for &b in row_buf.as_bytes() {
            acc = acc.rotate_left(7) ^ b as u64;
        }
    }
    acc
}

/// Integer-to-decimal without the `format!` allocation.
fn push_u64(out: &mut String, mut v: u64) {
    if v == 0 {
        out.push('0');
        return;
    }
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while v > 0 {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(run(50, 8), run(50, 8));
    }

    #[test]
    fn sensitive_to_shape() {
        assert_ne!(run(50, 8), run(8, 50));
        assert_ne!(run(50, 8), run(51, 8));
    }

    #[test]
    fn zero_rows_is_stable() {
        assert_eq!(run(0, 8), run(0, 8));
    }

    #[test]
    fn escape_works() {
        let mut s = String::new();
        escape_into(&mut s, r#"<a & "b">"#);
        assert_eq!(s, "&lt;a &amp; &quot;b&quot;&gt;");
    }

    #[test]
    fn push_u64_matches_format() {
        for v in [0u64, 1, 9, 10, 12345, u64::MAX] {
            let mut s = String::new();
            push_u64(&mut s, v);
            assert_eq!(s, v.to_string());
        }
    }
}
