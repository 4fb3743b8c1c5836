//! Output checking, summary statistics and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Counts attempted and failed operations. Every failure is printed to
/// stderr with what was expected, so a wrong output never passes quietly.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    /// Record one operation and whether its output checked out.
    pub fn op(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("CHECK FAILED: {what}: {e}");
        }
    }

    pub fn absorb(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Largest relative difference allowed between a decimal timing value of
/// a trace and the same value in the first run's trace.
pub const TIMING_REL_TOL: f64 = 1e-9;

/// How a trace matched the first run's trace of the same code and mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMatch {
    /// Byte for byte.
    Exact,
    /// Byte for byte except for the last bits of decimal timing values.
    Rounding,
}

/// A trace's text must equal the first run's text of the same code and
/// mode. The one allowance is for decimal values (the timing sums and
/// extremes), which may differ by `TIMING_REL_TOL` of their size: the
/// determinism argument in DESIGN.md leaves the match order of wildcard
/// (`SrcSel::Any`) receives to host arrival when more than one worker
/// runs, so on a master/worker code the absolute virtual clocks, and the
/// intervals taken between them, round differently from run to run. Every
/// other character, and the number of lines and values, must be identical.
pub fn check_trace(expected: &str, actual: &str) -> Result<TraceMatch, String> {
    if expected == actual {
        return Ok(TraceMatch::Exact);
    }
    let (mut want, mut got) = (expected.split('\n'), actual.split('\n'));
    for line in 1.. {
        match (want.next(), got.next()) {
            (None, None) => break,
            (Some(e), Some(a)) if same_up_to_rounding(e, a) => {}
            (e, a) => {
                let show = |l: Option<&str>| {
                    l.map_or("<end>".to_string(), |l| l.chars().take(160).collect())
                };
                return Err(format!(
                    "trace line {line} is {:?}, expected {:?}",
                    show(a),
                    show(e)
                ));
            }
        }
    }
    Ok(TraceMatch::Rounding)
}

/// Split a line into maximal runs of digits and dots and runs of
/// everything else.
fn segments(line: &str) -> Vec<&str> {
    let numeric = |c: char| c.is_ascii_digit() || c == '.';
    let mut out = Vec::new();
    let (mut start, mut prev) = (0, None);
    for (i, c) in line.char_indices() {
        if prev.is_some_and(|p| p != numeric(c)) {
            out.push(&line[start..i]);
            start = i;
        }
        prev = Some(numeric(c));
    }
    if !line.is_empty() {
        out.push(&line[start..]);
    }
    out
}

fn same_up_to_rounding(expected: &str, actual: &str) -> bool {
    if expected == actual {
        return true;
    }
    let (e, a) = (segments(expected), segments(actual));
    e.len() == a.len()
        && e.iter().zip(&a).all(|(x, y)| {
            x == y
                || (x.contains('.') && y.contains('.'))
                    && match (x.parse::<f64>(), y.parse::<f64>()) {
                        (Ok(x), Ok(y)) => (x - y).abs() <= TIMING_REL_TOL * x.abs().max(y.abs()),
                        _ => false,
                    }
        })
}

/// A response body must equal the locally rendered one byte for byte.
pub fn check_body(expected: &str, actual: &[u8]) -> Result<(), String> {
    if expected.as_bytes() == actual {
        return Ok(());
    }
    let at = expected
        .bytes()
        .zip(actual.iter().copied())
        .position(|(a, b)| a != b)
        .unwrap_or(expected.len().min(actual.len()));
    Err(format!(
        "body differs at byte {at} (expected {} bytes, got {})",
        expected.len(),
        actual.len()
    ))
}

/// Prove the checks can fail: a trace with a changed line, a trace with a
/// timing value off by a millionth, and a tampered body must each be
/// rejected. A check that accepts one counts as a failed operation.
pub fn self_check(check: &mut Checker, sample_trace: &str, sample_body: &str) {
    let mut reject = |what: &str, outcome: Result<TraceMatch, String>| {
        check.op(
            &format!("self-check: {what} is rejected"),
            match outcome {
                Ok(_) => Err(format!("check_trace accepted {what}")),
                Err(_) => Ok(()),
            },
        )
    };
    let first_line = sample_trace.split('\n').next().unwrap_or_default();
    let changed_line = sample_trace.replacen(first_line, &format!("{first_line}x"), 1);
    reject(
        "a trace with a changed line",
        check_trace(sample_trace, &changed_line),
    );
    let shifted = segments(sample_trace)
        .into_iter()
        .find_map(|s| {
            Some((
                s,
                s.parse::<f64>()
                    .ok()
                    .filter(|v| *v != 0.0 && s.contains('.'))?,
            ))
        })
        .map(|(s, v)| sample_trace.replacen(s, &format!("{}", v * (1.0 + 1e-6)), 1));
    match shifted {
        Some(t) => reject(
            "a trace with a timing value off by a millionth",
            check_trace(sample_trace, &t),
        ),
        None => check.op(
            "self-check: timing tamper",
            Err("the sample trace holds no nonzero decimal value".into()),
        ),
    }
    let mut tampered = sample_body.as_bytes().to_vec();
    match tampered.last_mut() {
        Some(b) => *b ^= 0x20,
        None => tampered.push(b'x'),
    }
    check.op(
        "self-check: tampered body is rejected",
        match check_body(sample_body, &tampered) {
            Ok(()) => Err("check_body accepted a tampered body".into()),
            Err(_) => Ok(()),
        },
    );
}

/// Median of a sample (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0..1) of an unsorted sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Samples needed so that at least ten lie beyond percentile `q`.
pub fn samples_for(q: f64) -> usize {
    (10.0 / (1.0 - q)).ceil() as usize
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Named metrics with their units, kept sorted by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_string(), (value, unit));
    }

    /// Add `value` to the metric (starting from zero).
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.entry(name.to_string()).or_insert((0.0, unit)).0 += value;
    }

    /// Raise the metric to `value` if that is larger.
    pub fn max(&mut self, name: &str, value: f64, unit: &'static str) {
        let slot = self.values.entry(name.to_string()).or_insert((value, unit));
        slot.0 = slot.0.max(value);
    }

    /// Print one human-readable line per metric on stdout.
    pub fn print_table(&self) {
        for (name, (value, unit)) in &self.values {
            println!("{name:<40} {value:>16.6} {unit}");
        }
    }

    /// The result object the benchmark prints as its last line.
    pub fn result_line(&self, check: &Checker) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            check.failed == 0 && check.attempted > 0,
            check.attempted,
            check.failed
        );
        for (i, (name, (value, unit))) in self.values.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // Non-finite values are not JSON; report them as null so the
            // line still parses and the gap is visible.
            let v = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            let _ = write!(out, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}
