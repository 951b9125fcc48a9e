//! Percentiles, span self time and metric-name rules.

use std::time::Duration;

/// Samples a reported tail percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// A percentile as reported: the value, the percentile actually used and
/// the sample count it was taken over.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub used: u32,
    pub n: usize,
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the smallest
/// sample with at least `p`% of all samples at or below it.
pub fn nearest_rank(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    let rank = (p as usize * n).div_ceil(100).clamp(1, n);
    sorted[rank - 1]
}

/// The `want`-th percentile if at least [`MIN_BEYOND`] samples lie beyond
/// its nearest rank; otherwise the highest whole percentile that has that
/// many beyond it, and never less than the median. `used` says which one.
pub fn reported(samples: &[f64], want: u32) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let beyond = |p: u32| n - (p as usize * n).div_ceil(100).clamp(1, n);
    let mut used = want;
    while used > 50 && beyond(used) < MIN_BEYOND {
        used -= 1;
    }
    Some(Percentile {
        value: nearest_rank(&sorted, used),
        used,
        n,
    })
}

/// The `want`-th percentile of each of `parts` equal consecutive slices of
/// `samples` (in the order given, oldest first), and the median of those:
/// a tail that a stall in one slice cannot move alone. `used` is the lowest
/// percentile a slice used; `n` counts every sample.
pub fn reported_in_parts(samples: &[f64], parts: usize, want: u32) -> Option<Percentile> {
    let size = samples.len().div_ceil(parts.max(1)).max(1);
    let each: Vec<Percentile> = samples
        .chunks(size)
        .filter_map(|c| reported(c, want))
        .collect();
    let value = median(&each.iter().map(|p| p.value).collect::<Vec<_>>())?;
    Some(Percentile {
        value,
        used: each.iter().map(|p| p.used).min()?,
        n: samples.len(),
    })
}

/// Median (nearest rank) of `samples`.
pub fn median(samples: &[f64]) -> Option<f64> {
    reported(samples, 50).map(|p| p.value)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A span's self time: its length minus the part of `[start, end)` covered
/// by the union of its children's intervals (children may overlap each
/// other and may stick out of the parent; only the covered part counts).
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    end.saturating_sub(start) - covered
}

/// A metric name: starts with a letter or digit, at most 64 characters of
/// `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_smallest_sample_covering_p() {
        let s = range(10);
        assert_eq!(nearest_rank(&s, 50), 5.0);
        assert_eq!(nearest_rank(&s, 51), 6.0);
        assert_eq!(nearest_rank(&s, 90), 9.0);
        assert_eq!(nearest_rank(&s, 99), 10.0);
        assert_eq!(nearest_rank(&s, 100), 10.0);
        assert_eq!(nearest_rank(&s, 0), 1.0);
        assert_eq!(nearest_rank(&[7.0], 99), 7.0);
    }

    #[test]
    fn reported_keeps_the_wanted_percentile_with_ten_beyond() {
        // 1000 samples: rank 990 leaves exactly 10 beyond p99.
        let p = reported(&range(1000), 99).unwrap();
        assert_eq!((p.used, p.value, p.n), (99, 990.0, 1000));
        // Unsorted input is sorted first.
        let mut rev = range(100);
        rev.reverse();
        let p = reported(&rev, 90).unwrap();
        assert_eq!((p.used, p.value), (90, 90.0));
    }

    #[test]
    fn reported_falls_back_and_says_which_percentile() {
        // 500 samples: p99 leaves 5 beyond; p98 leaves 10.
        let p = reported(&range(500), 99).unwrap();
        assert_eq!((p.used, p.value), (98, 490.0));
        // 50 samples: p80 leaves 10 beyond.
        let p = reported(&range(50), 90).unwrap();
        assert_eq!((p.used, p.value), (80, 40.0));
        // Too few for any tail: the median is reported.
        let p = reported(&range(12), 99).unwrap();
        assert_eq!((p.used, p.value), (50, 6.0));
        assert_eq!(reported(&[], 50), None);
    }

    #[test]
    fn reported_in_parts_takes_the_median_of_each_slice_tail() {
        // Three slices of 1000; the middle one stalls: its p99 is ignored.
        let mut s = range(1000);
        s.extend(range(1000).iter().map(|v| v * 100.0));
        s.extend(range(1000).iter().map(|v| v + 1.0));
        let p = reported_in_parts(&s, 3, 99).unwrap();
        assert_eq!((p.used, p.value, p.n), (99, 991.0, 3000));
        // Slices too small for p99 fall back, and say so.
        let p = reported_in_parts(&range(1500), 3, 99).unwrap();
        assert_eq!((p.used, p.value), (98, 990.0));
        assert_eq!(reported_in_parts(&[], 3, 99), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Parent [0, 100); children overlap on [20, 30) and one sticks out.
        let kids = [(10, 30), (20, 40), (90, 150)];
        assert_eq!(self_time(0, 100, &kids), 100 - 30 - 10);
        // A child nested inside another counts once.
        assert_eq!(self_time(0, 100, &[(10, 60), (20, 30)]), 50);
        // Children outside the parent do not count.
        assert_eq!(self_time(50, 60, &[(0, 10), (70, 80)]), 10);
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(0, 100), (0, 100)]), 0);
    }

    #[test]
    fn metric_names_follow_the_character_rule() {
        for ok in [
            "commit_p50_ms",
            "front.self_ms_p99",
            "core.phase2-x",
            "9lives",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".dot",
            "has space",
            "per/txn",
            "µs",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
