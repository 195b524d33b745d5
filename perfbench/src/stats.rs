//! Summary statistics, metric names, the result line and process memory
//! readings.

use std::fmt::Write as _;

/// Median of a sample; the mean of the two middle values for an even
/// count. `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// Percentiles the tail rule chooses from, lowest first.
const PERCENTILE_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest percentile of the ladder that still has at least 10
/// samples beyond it, as `(percentile, value)`, by the nearest-rank rule.
/// `None` when even the median has fewer than 10 samples above it.
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    PERCENTILE_LADDER.iter().rev().find_map(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= 10).then(|| (p, s[rank - 1]))
    })
}

/// True for a metric name the result line may carry: a letter or digit
/// first, then at most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// The peak resident set (`VmHWM`) in KiB from a `/proc/<pid>/status`
/// text.
pub fn parse_vmhwm_kib(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim();
    let digits = rest.strip_suffix("kB")?.trim();
    digits.parse().ok()
}

/// Peak resident set of a process in MiB, read from procfs.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vmhwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// User plus system CPU seconds a process has used, from procfs (to
/// the kernel's clock tick, 10 ms).
pub fn cpu_seconds(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?;
    Some(ticks / 100.0)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_metric_name`]).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// The final result line: the JSON object the benchmark's caller reads.
///
/// # Errors
///
/// Returns a description when a metric name is invalid or repeated, or a
/// value is not finite (JSON has no encoding for it).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if !valid_metric_name(&m.name) {
            return Err(format!("invalid metric name {:?}", m.name));
        }
        if metrics[..i].iter().any(|p| p.name == m.name) {
            return Err(format!("metric {} reported twice", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

/// FNV-1a over a sequence of 64-bit words: the results digest. Floats go
/// in as their bit patterns, so any change in any digit shows.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes in one word.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mixes in a float's bit pattern.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// Mixes in a string's bytes and its length.
    pub fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 is rank 990 with 10 above it; p99.9 would leave 1.
        assert_eq!(tail_percentile(&xs), Some((99.0, 990.0)));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((90.0, 90.0)));
        let xs: Vec<f64> = (1..=109).map(f64::from).collect();
        // p99 is rank 108 with 1 above; p90 is rank 99 with 10 above.
        assert_eq!(tail_percentile(&xs), Some((90.0, 99.0)));
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((50.0, 10.0)));
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), None);
    }

    #[test]
    fn tail_percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        xs.reverse();
        assert_eq!(tail_percentile(&xs), Some((99.0, 990.0)));
    }

    #[test]
    fn metric_names_follow_the_charset() {
        for ok in ["setup_s", "trace.fill_ns_per_event", "a-b.c_9", "9lives"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/no",
            "q\"uote",
            "é",
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
        assert!(!valid_metric_name(&"x".repeat(65)));
    }

    #[test]
    fn vmhwm_is_read_from_status_text() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vmhwm_kib(status), Some(12345));
        assert_eq!(parse_vmhwm_kib("VmRSS:\t 100 kB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        let mib = peak_rss_mib("self").expect("procfs status");
        assert!(mib > 0.0);
    }

    #[test]
    fn result_line_is_json_with_exact_keys() {
        let m = |name: &str, value| Metric {
            name: name.to_string(),
            value,
            unit: "s",
        };
        let line = result_line(true, 3, 0, &[m("setup_s", 0.25), m("stage1_s", 1.5)]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"stage1_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        assert!(result_line(true, 1, 0, &[m("bad name", 1.0)]).is_err());
        assert!(result_line(true, 1, 0, &[m("a", 1.0), m("a", 2.0)]).is_err());
        assert!(result_line(true, 1, 0, &[m("a", f64::NAN)]).is_err());
    }

    #[test]
    fn digest_sees_every_bit() {
        let d = |x: f64| {
            let mut d = Digest::default();
            d.float(x);
            d.value()
        };
        assert_ne!(d(0.5), d(0.5 + f64::EPSILON));
        assert_eq!(d(0.5), d(0.5));
        let mut a = Digest::default();
        a.text("gcc");
        let mut b = Digest::default();
        b.text("gzip");
        assert_ne!(a.value(), b.value());
    }
}
