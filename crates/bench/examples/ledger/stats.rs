//! Order statistics of a run's samples.

/// Median of `v` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample: every caller passes
/// measured times or counts.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile by the exclusive method, the one Python's
/// `statistics.quantiles(v, n=4)` uses, so that a spread computed here
/// reads the same as one computed from the printed values. A single
/// sample is its own quartiles.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let n = s.len();
    if n == 1 {
        return (s[0], s[0]);
    }
    let at = |k: usize| {
        // Position k(n+1)/4 in 1-based ranks, clamped to the samples.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// What a run reports for one metric: `value`, and the order statistics
/// of the samples it was taken from.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// The median, unless the metric's definition says otherwise.
    pub value: f64,
    pub n: usize,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(v: &[f64]) -> Summary {
        let s = sorted(v);
        let (q1, q3) = quartiles(&s);
        let median = median(&s);
        Summary {
            value: median,
            n: s.len(),
            median,
            min: s[0],
            max: s[s.len() - 1],
            q1,
            q3,
        }
    }

    /// A value that is not a sample of a distribution: a simulated
    /// count that repeats exactly, or a one-off measurement.
    pub fn single(x: f64) -> Summary {
        Summary::of(&[x])
    }

    /// Seconds per rep: the run reports its fastest rep. On a shared
    /// machine interference only ever adds time (README.md, "Noise"),
    /// so the minimum is the estimate of the program's own cost that
    /// repeats from run to run.
    pub fn fastest(seconds: &[f64]) -> Summary {
        let s = Summary::of(seconds);
        Summary { value: s.min, ..s }
    }

    /// Work per second, one sample per rep: the fastest rep's rate.
    pub fn highest_rate(rates: &[f64]) -> Summary {
        let s = Summary::of(rates);
        Summary { value: s.max, ..s }
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    assert!(!v.is_empty(), "a statistic needs at least one sample");
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    s
}
