//! Timing and reporting helpers for the figure binaries.

use std::time::{Duration, Instant};

/// `git describe --tags --always --dirty` of the working directory, or `"none"` outside
/// a git checkout — the revision stamp the committed `BENCH_*.json` snapshots carry.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--tags", "--always", "--dirty"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into())
}

/// A repeated-measurement timer: runs the closure several times and reports the minimum
/// (the conventional low-noise estimator for micro-benchmarks) and the mean.
pub struct BenchTimer {
    /// Number of timed repetitions.
    pub repetitions: usize,
}

impl BenchTimer {
    /// A timer performing `repetitions` measurements.
    pub fn new(repetitions: usize) -> Self {
        assert!(repetitions > 0);
        BenchTimer { repetitions }
    }

    /// Times `f`, returning `(minimum, mean)` over the repetitions.
    pub fn measure(&self, mut f: impl FnMut()) -> (Duration, Duration) {
        let mut total = Duration::ZERO;
        let mut min = Duration::MAX;
        for _ in 0..self.repetitions {
            let start = Instant::now();
            f();
            let elapsed = start.elapsed();
            total += elapsed;
            if elapsed < min {
                min = elapsed;
            }
        }
        (min, total / self.repetitions as u32)
    }
}

/// A labelled data series printed as aligned text — the textual stand-in for one curve
/// of a paper figure.
#[derive(Clone, Debug, Default)]
pub struct Series {
    /// Series label (legend entry).
    pub label: String,
    /// `(x, y)` points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Renders a group of series as an aligned table with one row per x value; series
    /// are matched row-by-row (they are expected to share x grids).
    pub fn render_table(x_label: &str, series: &[Series]) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:>10}", x_label));
        for s in series {
            out.push_str(&format!("  {:>22}", s.label));
        }
        out.push('\n');
        let rows = series.iter().map(|s| s.points.len()).max().unwrap_or(0);
        for row in 0..rows {
            let x = series
                .iter()
                .find_map(|s| s.points.get(row).map(|&(x, _)| x))
                .unwrap_or(f64::NAN);
            out.push_str(&format!("{x:>10.3}"));
            for s in series {
                match s.points.get(row) {
                    Some(&(_, y)) => out.push_str(&format!("  {y:>22.6}")),
                    None => out.push_str(&format!("  {:>22}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_timer_min_le_mean() {
        let timer = BenchTimer::new(5);
        let (min, mean) = timer.measure(|| {
            std::hint::black_box((0..10_000).sum::<u64>());
        });
        assert!(min <= mean);
        assert!(min.as_nanos() > 0);
    }

    #[test]
    fn series_table_rendering() {
        let mut a = Series::new("alpha");
        a.push(1.0, 10.0);
        a.push(2.0, 20.0);
        let mut b = Series::new("beta");
        b.push(1.0, 0.5);
        let table = Series::render_table("p", &[a, b]);
        assert!(table.contains("alpha"));
        assert!(table.contains("beta"));
        assert!(table.contains("20.000000"));
        // Missing second point of `beta` renders as a dash.
        assert!(table.lines().nth(2).unwrap().contains('-'));
    }

    #[test]
    #[should_panic]
    fn zero_repetition_timer_panics() {
        let _ = BenchTimer::new(0);
    }
}
