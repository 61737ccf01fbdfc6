//! Order statistics over timing samples.

use std::time::Instant;

/// The median (mean of the middle two for even counts); NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `[0, 100]` of an ascending slice.
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A latency summary: median and the tail percentile.
#[derive(Clone, Copy, Debug)]
pub struct Latency {
    pub p50: f64,
    /// The value at the workload's tail percentile.
    pub tail: f64,
    /// Which percentile `tail` is.
    pub tail_pct: f64,
    /// How many samples lie beyond it.
    pub beyond: usize,
    pub samples: usize,
}

/// Samples beyond nearest-rank percentile `p` of `n` samples.
fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

/// Summarizes `xs`: the median and the nearest-rank percentile
/// `tail_pct`. Each workload fixes its tail percentile as the highest of
/// p99.9, p99, p90 that leaves at least ten samples beyond it in its
/// shortest runs on the reference machine; choosing it per run instead
/// would make the metric jump between percentiles as the operation
/// count crosses a threshold. `beyond` reports the count actually seen.
pub fn latency(xs: &[f64], tail_pct: f64) -> Latency {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Latency {
            p50: f64::NAN,
            tail: f64::NAN,
            tail_pct,
            beyond: 0,
            samples: 0,
        };
    }
    Latency {
        p50: percentile_sorted(&v, 50.0),
        tail: percentile_sorted(&v, tail_pct),
        tail_pct,
        beyond: beyond(n, tail_pct),
        samples: n,
    }
}

/// The latency of a closed loop that cycles through cases of very
/// different cost: the geometric mean over cases of each case's median
/// and of each case's `tail_pct` percentile. Percentiles of all samples
/// together would sit on the edge between two cases' clusters and jump
/// between them from run to run; the geomean moves with every case.
pub fn case_latency(groups: &[Vec<f64>], tail_pct: f64) -> Latency {
    let per: Vec<Latency> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| latency(g, tail_pct))
        .collect();
    let p50s: Vec<f64> = per.iter().map(|l| l.p50).collect();
    let tails: Vec<f64> = per.iter().map(|l| l.tail).collect();
    Latency {
        p50: geomean(&p50s),
        tail: geomean(&tails),
        tail_pct,
        beyond: per.iter().map(|l| l.beyond).min().unwrap_or(0),
        samples: per.iter().map(|l| l.samples).sum(),
    }
}

/// Operations per second of a closed loop that runs each group's
/// operation once per round, at each group's median time (samples in
/// nanoseconds). Unlike count over total time, one slow outlier of the
/// costliest group does not move it.
pub fn round_rate(groups: &[Vec<f64>]) -> f64 {
    let meds: Vec<f64> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| median(g))
        .collect();
    meds.len() as f64 / (meds.iter().sum::<f64>() / 1e9)
}

/// Geometric mean of positive values; NaN when empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Mean; 0 when empty (used for per-layer averages where "no work" is 0).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Runs `f` and returns its result with the elapsed nanoseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_nanos() as f64)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The median set-up time over the measured set-up (`first` seconds)
/// and `reps - 1` further ones, each dropped as soon as it is built.
/// The extra set-ups run after the measured phase and after peak memory
/// was read, so they add no allocator history to what was measured.
pub fn setup_median(
    first: f64,
    reps: usize,
    mut setup: impl FnMut() -> Result<f64, String>,
) -> Result<f64, String> {
    let mut secs = vec![first];
    for _ in 1..reps {
        secs.push(setup()?);
    }
    Ok(median(&secs))
}
