//! Order statistics for the benchmark's timings.
//!
//! Percentiles use the nearest-rank rule `sorted[round(p/100 * (n-1))]`,
//! the same rule as `holo_math::Summary::percentile`. A tail percentile
//! (above the median) is refused unless at least [`MIN_BEYOND`] samples
//! lie beyond its rank: a p95 read off 40 samples is two outliers, not a
//! percentile.

/// Samples a tail percentile needs beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// Rank of percentile `p` in a sorted sample of `n` values.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0) * (n - 1) as f64).round() as usize
}

/// Refuse a tail percentile `p` over `n` samples that would leave fewer
/// than [`MIN_BEYOND`] samples beyond it. The median and lower
/// percentiles only need one sample.
pub fn check_tail(n: usize, p: f64) -> Result<(), String> {
    if n == 0 {
        return Err(format!("p{p} of an empty sample"));
    }
    if !(0.0..=100.0).contains(&p) {
        return Err(format!("percentile {p} outside [0, 100]"));
    }
    let beyond = n - 1 - rank(n, p);
    if p > 50.0 && beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} over {n} samples leaves {beyond} beyond it; at least {MIN_BEYOND} are needed"
        ));
    }
    Ok(())
}

/// Percentile `p` in `[0, 100]` of `values` (any order).
pub fn percentile(values: &[f64], p: f64) -> Result<f64, String> {
    check_tail(values.len(), p)?;
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank(sorted.len(), p)])
}

/// Median of `values`; refuses an empty sample.
pub fn median(values: &[f64]) -> Result<f64, String> {
    percentile(values, 50.0)
}

/// Percentile `p` of each run of `window` consecutive samples (a
/// trailing partial window is dropped), averaged over the windows.
/// On a shared machine whose speed shifts between two levels for
/// seconds to minutes at a time, a percentile of the whole run (or the
/// median window) jumps from one level to the other when the slow share
/// of frames crosses it; the mean over windows moves in proportion to
/// that share, like a throughput does.
pub fn windowed_percentile(values: &[f64], window: usize, p: f64) -> Result<f64, String> {
    if window == 0 || values.len() < window {
        return Err(format!(
            "{} samples fill no window of {window}",
            values.len()
        ));
    }
    let per_window = values
        .chunks_exact(window)
        .map(|w| percentile(w, p))
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(per_window.iter().sum::<f64>() / per_window.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_is_the_middle_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[5.0]).unwrap(), 5.0);
        assert!(median(&[]).is_err());
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        // 200 samples: rank round(0.95 * 199) = 189, so 10 lie beyond.
        assert_eq!(percentile(&ramp(200), 95.0).unwrap(), 190.0);
        // 199 samples: rank 188, only 10 beyond -- still enough.
        assert!(percentile(&ramp(199), 95.0).is_ok());
        // 180 samples: rank 170, 9 beyond -- refused.
        let err = percentile(&ramp(180), 95.0).unwrap_err();
        assert!(err.contains("9 beyond"), "{err}");
        assert!(percentile(&ramp(40), 95.0).is_err());
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(percentile(&ramp(950), 99.0).is_err());
        assert!(percentile(&ramp(1100), 99.0).is_ok());
    }

    #[test]
    fn lower_percentiles_need_no_tail() {
        assert_eq!(percentile(&ramp(5), 0.0).unwrap(), 1.0);
        assert_eq!(percentile(&ramp(5), 25.0).unwrap(), 2.0);
    }

    #[test]
    fn out_of_range_percentiles_are_refused() {
        assert!(percentile(&ramp(500), 101.0).is_err());
        assert!(percentile(&ramp(500), -1.0).is_err());
    }

    #[test]
    fn order_of_input_does_not_matter() {
        let mut v = ramp(300);
        v.reverse();
        assert_eq!(
            percentile(&v, 95.0).unwrap(),
            percentile(&ramp(300), 95.0).unwrap()
        );
    }

    #[test]
    fn windowed_percentile_moves_in_proportion_to_the_slow_share() {
        // Five windows of 200 fast samples (1.0) and two of slow (3.0):
        // the run-wide p95 jumps to the slow level, the windowed one
        // moves two sevenths of the way.
        let mut v = vec![1.0; 1000];
        v.extend(vec![3.0; 400]);
        assert_eq!(percentile(&v, 95.0).unwrap(), 3.0);
        let w = windowed_percentile(&v, 200, 95.0).unwrap();
        assert!((w - 11.0 / 7.0).abs() < 1e-12, "{w}");
    }

    #[test]
    fn windowed_percentile_keeps_the_tail_rule_per_window() {
        // 180-sample windows leave 9 beyond their p95.
        assert!(windowed_percentile(&ramp(1800), 180, 95.0).is_err());
        assert!(windowed_percentile(&ramp(1800), 200, 95.0).is_ok());
        assert!(windowed_percentile(&ramp(100), 200, 50.0).is_err());
        // The trailing partial window is dropped.
        assert_eq!(windowed_percentile(&ramp(250), 200, 50.0).unwrap(), 101.0);
    }
}
