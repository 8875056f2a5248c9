//! Summaries of measured samples and of the service's Prometheus counters.

use std::collections::BTreeMap;

/// Sorted copy of the finite samples.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile by linear interpolation between closest ranks (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The tail percentile: the highest percentile (in whole percent, at most 99)
/// with at least ten samples beyond it.  Returns `(percentile, value)`; with
/// fewer than eleven samples there is no such tail and the maximum is reported
/// as the 100th percentile.
pub fn tail(samples: &[f64]) -> (u32, f64) {
    let n = samples.len();
    for pct in (50..=99u32).rev() {
        // At least ten samples beyond: n · (100 − pct) / 100 ≥ 10.
        if n * (100 - pct as usize) >= 1000 {
            return (pct, quantile(samples, pct as f64 / 100.0));
        }
    }
    (100, quantile(samples, 1.0))
}

/// One scrape of a Prometheus text exposition: series (name plus labels) to
/// value.
#[derive(Clone, Debug, Default)]
pub struct Scrape(pub BTreeMap<String, f64>);

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        Scrape(
            text.lines()
                .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
                .filter_map(|l| {
                    let (series, value) = l.rsplit_once(' ')?;
                    Some((series.to_string(), value.parse().ok()?))
                })
                .collect(),
        )
    }

    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// Cumulative `(upper bound, count)` buckets of histogram `name`.
    fn buckets(&self, name: &str) -> Vec<(f64, f64)> {
        let prefix = format!("{name}_bucket{{le=\"");
        let mut out: Vec<(f64, f64)> = self
            .0
            .iter()
            .filter_map(|(series, &count)| {
                let le = series.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((bound, count))
            })
            .collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }
}

/// Counter increase between two scrapes, summed over several processes.
pub fn counter_delta(pairs: &[(Scrape, Scrape)], series: &str) -> f64 {
    pairs
        .iter()
        .map(|(a, b)| b.get(series) - a.get(series))
        .sum()
}

/// The `q`-quantile of the observations a histogram gained between scrapes,
/// summed over several processes, interpolated inside the containing bucket
/// the way Prometheus' `histogram_quantile` does (0 when nothing was observed).
pub fn histogram_delta_quantile(pairs: &[(Scrape, Scrape)], name: &str, q: f64) -> f64 {
    let mut merged: Vec<(f64, f64)> = Vec::new();
    for (before, after) in pairs {
        let b = before.buckets(name);
        for (i, (bound, count)) in after.buckets(name).into_iter().enumerate() {
            let earlier = b.get(i).map_or(0.0, |x| x.1);
            match merged.get_mut(i) {
                Some(slot) => slot.1 += count - earlier,
                None => merged.push((bound, count - earlier)),
            }
        }
    }
    let total = merged.last().map_or(0.0, |x| x.1);
    if total <= 0.0 {
        return 0.0;
    }
    let rank = q * total;
    let mut lower = 0.0;
    let mut below = 0.0;
    for (bound, cumulative) in merged {
        if cumulative >= rank {
            if bound.is_infinite() {
                return lower;
            }
            let inside = cumulative - below;
            let frac = if inside > 0.0 {
                (rank - below) / inside
            } else {
                1.0
            };
            return lower + (bound - lower) * frac;
        }
        lower = bound;
        below = cumulative;
    }
    lower
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&samples).0, 90);
        let few: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&few).0, 50);
        assert_eq!(tail(&[1.0, 2.0]), (100, 2.0));
    }

    #[test]
    fn histogram_quantile_interpolates_inside_a_bucket() {
        let before =
            Scrape::parse("h_bucket{le=\"1\"} 0\nh_bucket{le=\"2\"} 0\nh_bucket{le=\"+Inf\"} 0\n");
        let after =
            Scrape::parse("h_bucket{le=\"1\"} 0\nh_bucket{le=\"2\"} 4\nh_bucket{le=\"+Inf\"} 4\n");
        let q = histogram_delta_quantile(&[(before, after)], "h", 0.5);
        assert!((q - 1.5).abs() < 1e-12);
    }
}
