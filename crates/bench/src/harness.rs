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
/// (the conventional low-noise estimator for micro-benchmarks) and the median.
pub struct BenchTimer {
    /// Number of timed repetitions.
    pub repetitions: usize,
}

/// One closure's times over a [`BenchTimer`]'s repetitions.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// The fastest repetition.
    pub min: Duration,
    /// The median repetition (the upper middle one for an even count).
    pub median: Duration,
}

impl Timing {
    fn of(mut samples: Vec<Duration>) -> Self {
        samples.sort_unstable();
        Timing {
            min: samples[0],
            median: samples[samples.len() / 2],
        }
    }
}

fn time_once(f: &mut impl FnMut()) -> Duration {
    let start = Instant::now();
    f();
    start.elapsed()
}

impl BenchTimer {
    /// A timer performing `repetitions` measurements.
    pub fn new(repetitions: usize) -> Self {
        assert!(repetitions > 0);
        BenchTimer { repetitions }
    }

    /// Times `f` over the repetitions.
    pub fn measure(&self, mut f: impl FnMut()) -> Timing {
        Timing::of((0..self.repetitions).map(|_| time_once(&mut f)).collect())
    }

    /// Times two closures against each other, alternating them one repetition at a
    /// time, so host contention that outlasts a repetition slows both sides alike
    /// instead of whichever side ran during it.
    pub fn measure_pair(&self, mut a: impl FnMut(), mut b: impl FnMut()) -> (Timing, Timing) {
        let (mut times_a, mut times_b) = (Vec::new(), Vec::new());
        for _ in 0..self.repetitions {
            times_a.push(time_once(&mut a));
            times_b.push(time_once(&mut b));
        }
        (Timing::of(times_a), Timing::of(times_b))
    }
}

/// A [`Timing`] as numbers for a snapshot file, the minimum and the median in the
/// unit its field name gives; for a ratio, the ratio of the minima and of the
/// medians.
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct Times {
    /// The fastest repetition (or the ratio of the fastest).
    pub min: f64,
    /// The median repetition (or the ratio of the medians).
    pub median: f64,
}

impl Times {
    /// `t` in units of `1 / per_second` seconds (`1e3` for milliseconds).
    pub fn of(t: Timing, per_second: f64) -> Self {
        Times {
            min: t.min.as_secs_f64() * per_second,
            median: t.median.as_secs_f64() * per_second,
        }
    }

    /// `num / den`, for the minima and for the medians.
    pub fn ratio(num: Timing, den: Timing) -> Self {
        Times {
            min: num.min.as_secs_f64() / den.min.as_secs_f64(),
            median: num.median.as_secs_f64() / den.median.as_secs_f64(),
        }
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
        Self::render(x_label, series, |y| format!("{y:.6}"))
    }

    /// [`Series::render_table`] with the values in scientific notation, for series
    /// spanning several orders of magnitude (times from nanoseconds to seconds).
    pub fn render_table_scientific(x_label: &str, series: &[Series]) -> String {
        Self::render(x_label, series, |y| format!("{y:.6e}"))
    }

    /// Each column is as wide as its label, and at least 22 characters.
    fn render(x_label: &str, series: &[Series], value: impl Fn(f64) -> String) -> String {
        let widths: Vec<usize> = series.iter().map(|s| s.label.len().max(22)).collect();
        let mut out = String::new();
        out.push_str(&format!("{:>10}", x_label));
        for (s, w) in series.iter().zip(&widths) {
            out.push_str(&format!("  {:>w$}", s.label));
        }
        out.push('\n');
        let rows = series.iter().map(|s| s.points.len()).max().unwrap_or(0);
        for row in 0..rows {
            let x = series
                .iter()
                .find_map(|s| s.points.get(row).map(|&(x, _)| x))
                .unwrap_or(f64::NAN);
            out.push_str(&format!("{x:>10.3}"));
            for (s, w) in series.iter().zip(&widths) {
                let cell = s
                    .points
                    .get(row)
                    .map_or("-".to_string(), |&(_, y)| value(y));
                out.push_str(&format!("  {cell:>w$}"));
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
        let t = timer.measure(|| {
            std::hint::black_box((0..10_000).sum::<u64>());
        });
        assert!(t.min <= t.median);
        assert!(t.min.as_nanos() > 0);
        let (a, b) = timer.measure_pair(
            || drop(std::hint::black_box(vec![0u8; 64])),
            || drop(std::hint::black_box(vec![0u8; 128])),
        );
        assert!(a.min <= a.median && b.min <= b.median);
    }

    #[test]
    fn series_table_rendering() {
        let mut a = Series::new("alpha");
        a.push(1.0, 10.0);
        a.push(2.0, 20.0);
        let mut b = Series::new("beta");
        b.push(1.0, 0.5);
        let table = Series::render_table("p", &[a, b.clone()]);
        assert!(table.contains("alpha"));
        assert!(table.contains("beta"));
        assert!(table.contains("20.000000"));
        let scientific = Series::render_table_scientific("p", &[b.clone()]);
        assert!(scientific.contains("5.000000e-1"), "{scientific}");
        // Missing second point of `beta` renders as a dash.
        assert!(table.lines().nth(2).unwrap().contains('-'));
    }

    #[test]
    #[should_panic]
    fn zero_repetition_timer_panics() {
        let _ = BenchTimer::new(0);
    }
}
