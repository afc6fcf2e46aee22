//! Process-level measurements and order statistics.

use std::time::Instant;

/// Process CPU time (user + system, every thread) in seconds, from
/// `/proc/self/stat`. The fields count `USER_HZ` ticks, which the Linux
/// ABI fixes at 100 per second.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space-separated, starting with field 3.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |index: usize| -> Result<u64, String> {
        fields
            .get(index)
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    // utime is field 14 and stime field 15, i.e. indices 11 and 12 here.
    Ok((ticks(11)? + ticks(12)?) as f64 / 100.0)
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the middle pair for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Length of one slice of a timed window, in seconds.
pub const SLICE_S: f64 = 1.0;

/// End-to-end statistics of one slice of a timed window.
pub struct Slice {
    pub ops_per_s: f64,
    pub p50_s: f64,
    pub cpu_per_op_s: f64,
}

/// A timed window cut into slices of fixed length. Each end-to-end metric
/// is computed per slice and reported as the median over slices, so a
/// stretch of a few seconds in which the host runs this process slowly
/// moves the median by one rank instead of dragging a whole-run mean.
pub struct Slicer {
    slice_s: f64,
    start: Instant,
    slice_start: f64,
    cpu: f64,
    latencies: Vec<f64>,
    /// Every op's latency, all slices.
    pub all: Vec<f64>,
    pub slices: Vec<Slice>,
}

impl Slicer {
    pub fn start(slice_s: f64) -> Result<Slicer, String> {
        Ok(Slicer {
            slice_s,
            cpu: cpu_seconds()?,
            start: Instant::now(),
            slice_start: 0.0,
            latencies: Vec::new(),
            all: Vec::new(),
            slices: Vec::new(),
        })
    }

    /// Records one op's latency and closes the slice once it is full.
    pub fn record(&mut self, latency_s: f64) -> Result<(), String> {
        self.latencies.push(latency_s);
        self.all.push(latency_s);
        let now = self.start.elapsed().as_secs_f64();
        let wall = now - self.slice_start;
        if wall >= self.slice_s {
            let cpu = cpu_seconds()?;
            let ops = self.latencies.len() as f64;
            self.slices.push(Slice {
                ops_per_s: ops / wall,
                p50_s: median(&self.latencies),
                cpu_per_op_s: (cpu - self.cpu) / ops,
            });
            self.latencies.clear();
            self.slice_start = now;
            self.cpu = cpu;
        }
        Ok(())
    }
}

/// The medians over slices of each end-to-end statistic, as
/// (ops per second, p50 seconds, CPU seconds per op).
pub fn slice_medians(slices: &[Slice]) -> (f64, f64, f64) {
    let of = |f: fn(&Slice) -> f64| median(&slices.iter().map(f).collect::<Vec<_>>());
    (of(|s| s.ops_per_s), of(|s| s.p50_s), of(|s| s.cpu_per_op_s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let samples = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&samples), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(percentile(&samples, 50.0), 3.0);
        assert_eq!(percentile(&samples, 99.0), 5.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
    }

    #[test]
    fn process_counters_are_readable() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
