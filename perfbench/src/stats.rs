//! Sample sets and the percentile rule every timing metric follows.

/// Nearest-rank percentile of `values` (`q` in `(0, 1)`).
///
/// A percentile is only reported when at least ten samples lie beyond it,
/// so the op counts of every workload are sized to satisfy this; a
/// violation is a sizing bug in the benchmark and panics.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let n = values.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    assert!(
        n - rank >= 10,
        "p{} of {n} samples has only {} beyond it",
        q * 100.0,
        n - rank
    );
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank - 1]
}

/// Median with no tail requirement — for the few-sample medians of
/// repeated set-ups and probes.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The central time of one op over a run's units (its platform processes,
/// or its daemon sessions): each unit's median, then the mean of the
/// three lowest of those medians.
///
/// Each unit runs a whole op sequence for a second or a few, and the
/// host's contention comes in phases of seconds to minutes that slow
/// every op of a unit at once, by up to two thirds; it only ever adds
/// time. The three fastest units are what the program costs when the host
/// leaves it alone, and hold still between runs where the mean of all
/// units does not, unless the host was busy for the whole run. A change
/// to the program moves every unit, so it moves this too.
pub fn fastest_three<'a>(units: impl IntoIterator<Item = &'a [f64]>) -> f64 {
    let mut medians: Vec<f64> = units
        .into_iter()
        .map(|samples| percentile(samples, 0.5))
        .collect();
    medians.sort_by(f64::total_cmp);
    medians.truncate(3);
    mean(&medians)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Milliseconds since `start`.
pub fn ms_since(start: std::time::Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}
