//! Sample statistics: nearest-rank percentiles, the "at least ten
//! samples beyond" rule, and medians over time windows of a phase.

/// Nearest-rank percentile of `sorted` (ascending): the smallest value
/// with at least `q` of the samples at or below it. `NaN` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = (q * n as f64).ceil().max(1.0) as usize;
    n.saturating_sub(rank)
}

/// Whether `n` samples support the `q` percentile: at least ten samples
/// lie beyond it, so one outlier cannot be the reported value.
pub fn supports(n: usize, q: f64) -> bool {
    beyond(n, q) >= 10
}

/// Sort a sample in place and return it, for the percentile helpers.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of an unsorted sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let values = sorted(values.to_vec());
    let n = values.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Split samples taken at `at_s` (seconds into a phase of `phase_s`)
/// into `windows` equal windows and return the windows' sample lists.
fn windows_of(values: &[f64], at_s: &[f64], phase_s: f64, windows: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); windows];
    let width = phase_s / windows as f64;
    for (&value, &at) in values.iter().zip(at_s) {
        if let Some(window) = out.get_mut((at / width) as usize) {
            window.push(value);
        }
    }
    out
}

/// Each non-empty window's nearest-rank `q` percentile, over `windows`
/// equal windows. Their median moves less under a stall that hits one
/// window than the percentile of the pooled sample does.
pub fn window_percentiles(
    values: &[f64],
    at_s: &[f64],
    phase_s: f64,
    windows: usize,
    q: f64,
) -> Vec<f64> {
    windows_of(values, at_s, phase_s, windows)
        .into_iter()
        .filter(|w| !w.is_empty())
        .map(|w| percentile(&sorted(w), q))
        .collect()
}

/// Events per second in each of `windows` equal windows, from the
/// events' times.
pub fn window_rates(at_s: &[f64], phase_s: f64, windows: usize) -> Vec<f64> {
    let width = phase_s / windows as f64;
    windows_of(at_s, at_s, phase_s, windows).iter().map(|w| w.len() as f64 / width).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_observed_value() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[7.5], 0.99), 7.5);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn beyond_counts_samples_past_the_rank() {
        assert_eq!(beyond(100, 0.9), 10);
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert_eq!(beyond(0, 0.5), 0);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn window_percentiles_split_by_time() {
        // Three 1 s windows; the middle one stalls.
        let at = [0.1, 0.5, 0.9, 1.1, 1.5, 1.9, 2.1, 2.5, 2.9];
        let v = [1.0, 1.0, 2.0, 50.0, 60.0, 70.0, 1.0, 2.0, 2.0];
        let p50 = window_percentiles(&v, &at, 3.0, 3, 0.5);
        assert_eq!(p50, [1.0, 60.0, 2.0]);
        assert_eq!(median(&p50), 2.0);
        // Samples past the phase end are ignored.
        assert!(window_percentiles(&[9.0], &[3.5], 3.0, 3, 0.5).is_empty());
    }

    #[test]
    fn window_rates_count_events_per_second() {
        // Windows of 1 s hold 4, 2 and 1 events; the last is past the end.
        let at = [0.1, 0.2, 0.3, 0.4, 1.2, 1.4, 2.5, 3.5];
        assert_eq!(window_rates(&at, 3.0, 3), [4.0, 2.0, 1.0]);
        assert_eq!(window_rates(&at, 2.0, 4), [8.0, 0.0, 4.0, 0.0]);
    }
}
