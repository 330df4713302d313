//! The benchmark's arithmetic: order statistics, interval unions, parallel
//! efficiency, process accounting read from `/proc`, and result digests.

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Total length covered by the union of half-open `[start, end)`
/// intervals: overlapping calls are counted once.
#[must_use]
pub fn union_length(intervals: &[(f64, f64)]) -> f64 {
    let mut sorted: Vec<(f64, f64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (start, end) in sorted {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    if let Some((s, e)) = current {
        total += e - s;
    }
    total
}

/// A layer's self time: its own span minus the part its child calls
/// cover, never below zero.
#[must_use]
pub fn self_time(span_s: f64, children: &[(f64, f64)]) -> f64 {
    (span_s - union_length(children)).max(0.0)
}

/// Busy time over the capacity `workers` offered during `wall_s`; 1.0 is
/// a perfectly used fan-out, 0.0 when nothing ran.
#[must_use]
pub fn parallel_efficiency(busy_s: f64, workers: usize, wall_s: f64) -> f64 {
    if workers == 0 || wall_s <= 0.0 {
        return 0.0;
    }
    busy_s / (workers as f64 * wall_s)
}

/// Linux reports `utime`/`stime` in `/proc/<pid>/stat` in units of
/// `USER_HZ`, which the kernel fixes at 100 for user space.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of the whole process (every thread,
/// exited ones included) from the text of `/proc/self/stat`.
///
/// The second field is the command name in parentheses and may itself
/// contain spaces or parentheses, so fields are counted from the last
/// `)`: `utime` and `stime` are the 14th and 15th fields overall.
#[must_use]
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace();
    // Field 3 (state) is the first after the name; utime is field 14.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// CPU seconds this process has used so far.
///
/// # Panics
///
/// Panics if `/proc/self/stat` is unreadable or malformed: the benchmark
/// runs on Linux only.
#[must_use]
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_cpu_seconds(&stat).expect("/proc/self/stat has utime and stime")
}

/// Peak resident set size in MiB from the text of `/proc/self/status`
/// (`VmHWM`, reported in kB).
#[must_use]
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// This process's peak resident set size so far, MiB.
///
/// # Panics
///
/// Panics if `/proc/self/status` is unreadable or has no `VmHWM` line.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_peak_rss_mb(&status).expect("/proc/self/status reports VmHWM")
}

/// 64-bit FNV-1a of `text`: a stable digest of a result's `Debug` form,
/// whose floats print in shortest round-trip form, so equal digests mean
/// equal result bits.
#[must_use]
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Whether `a` and `b` agree to a relative tolerance of `rel` (absolute
/// near zero).
#[must_use]
pub fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(union_length(&[]), 0.0);
        assert_eq!(union_length(&[(0.0, 1.0), (2.0, 3.0)]), 2.0);
        // Overlapping, nested and touching intervals merge.
        assert_eq!(union_length(&[(0.0, 2.0), (1.0, 3.0)]), 3.0);
        assert_eq!(union_length(&[(0.0, 4.0), (1.0, 2.0)]), 4.0);
        assert_eq!(union_length(&[(2.0, 3.0), (0.0, 1.0), (1.0, 2.0)]), 3.0);
        // Empty and inverted intervals cover nothing.
        assert_eq!(union_length(&[(1.0, 1.0), (3.0, 2.0)]), 0.0);
    }

    #[test]
    fn self_time_subtracts_the_covered_part() {
        // Two parallel children of 1 s each inside a 3 s span cover 1.5 s.
        assert_eq!(self_time(3.0, &[(0.5, 1.5), (1.0, 2.0)]), 1.5);
        assert_eq!(self_time(1.0, &[(0.0, 2.0)]), 0.0);
    }

    #[test]
    fn parallel_efficiency_is_busy_over_capacity() {
        assert_eq!(parallel_efficiency(4.0, 2, 2.0), 1.0);
        assert_eq!(parallel_efficiency(3.0, 2, 2.0), 0.75);
        assert_eq!(parallel_efficiency(1.0, 0, 2.0), 0.0);
        assert_eq!(parallel_efficiency(1.0, 2, 0.0), 0.0);
    }

    #[test]
    fn cpu_time_parse_counts_fields_after_the_name() {
        // A command name with spaces and a ')' must not shift the fields.
        let stat = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 100 0 0 0 250 37 0 0 20 0 3 0 1 1 1";
        assert_eq!(parse_cpu_seconds(stat), Some(2.87));
        assert_eq!(parse_cpu_seconds("4242 (x) R 1"), None);
        assert_eq!(parse_cpu_seconds("no name here"), None);
    }

    #[test]
    fn peak_rss_parse_reads_vmhwm() {
        let status = "Name:\tx\nVmPeak:\t 9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(2.0));
        assert_eq!(parse_peak_rss_mb("VmRSS:\t1 kB\n"), None);
    }

    #[test]
    fn live_process_accounting_reads() {
        assert!(process_cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(digest("0.1"), digest("0.10000000000000002"));
    }

    #[test]
    fn closeness_is_relative() {
        assert!(close(1e6, 1e6 + 1e-4, 1e-9));
        assert!(!close(1e6, 1e6 + 1.0, 1e-9));
        assert!(close(0.0, 1e-12, 1e-9));
    }
}
