//! Order statistics behind every number the benchmark prints.
//!
//! Timings are reported as medians — of the uncontended samples where the
//! host's other tenants would otherwise move them — and as the highest
//! percentile that still has at least ten samples beyond it; A/B
//! comparisons (obs on/off) are medians of paired, interleaved ratios, so
//! slow drift of the machine between the two sides cancels inside each
//! pair instead of landing on one side.

use std::fmt;

/// Samples that must lie beyond a reported percentile. Fewer would make
/// the tail a statement about one or two rounds.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (the mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A percentile that had too few samples beyond it to be reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooFewSamples {
    /// Samples given.
    pub samples: usize,
    /// Samples the percentile needs.
    pub needed: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} samples leave fewer than {MIN_BEYOND} beyond the percentile; \
             it needs at least {}",
            self.samples, self.needed
        )
    }
}

/// The `p`-th percentile (`0 < p < 1`) by nearest rank, refused unless
/// at least [`MIN_BEYOND`] samples lie beyond it — 200 samples for p95.
pub fn percentile(xs: &[f64], p: f64) -> Result<f64, TooFewSamples> {
    assert!(p > 0.0 && p < 1.0, "percentile must lie strictly in (0, 1)");
    let n = xs.len();
    let rank = (p * n as f64).ceil() as usize;
    if n == 0 || n - rank < MIN_BEYOND {
        // The smallest n with n - ceil(p·n) ≥ MIN_BEYOND.
        let needed = (MIN_BEYOND..)
            .find(|&m| m - (p * m as f64).ceil() as usize >= MIN_BEYOND)
            .expect("some count leaves enough samples beyond");
        return Err(TooFewSamples { samples: n, needed });
    }
    Ok(sorted(xs)[rank - 1])
}

/// Samples within this factor of the fastest 1 % count as uncontended.
pub const UNCONTENDED_BAND: f64 = 1.15;

/// Median of the uncontended samples: those at most [`UNCONTENDED_BAND`]
/// times the fastest 1 % (the 1st percentile).
///
/// On a shared host, other tenants slow a timed step down by up to 2× for
/// seconds at a time and can never speed it up, so the plain median moves
/// with how long the host was busy during a run. The fastest samples do
/// not, and the median of those near them is the step's own typical time.
///
/// # Panics
///
/// Panics if `xs` has too few samples for a 1st percentile (fewer than
/// 11) or holds a NaN.
pub fn uncontended_median(xs: &[f64]) -> f64 {
    let p1 = percentile(xs, 0.01).expect("enough samples for a 1st percentile");
    let near: Vec<f64> = xs
        .iter()
        .copied()
        .filter(|&x| x <= UNCONTENDED_BAND * p1)
        .collect();
    median(&near)
}

/// Runs `pairs` interleaved A/B pairs, alternating which side goes first
/// (A-B, B-A, A-B, …), and returns the median of the per-pair ratios
/// `b / a`. Machine drift over the run then moves both sides of a pair
/// alike, which a ratio of two separately timed sides does not.
pub fn paired_ratio(pairs: usize, mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> f64 {
    assert!(pairs > 0, "a paired ratio needs at least one pair");
    let ratios: Vec<f64> = (0..pairs)
        .map(|i| {
            let (va, vb) = if i % 2 == 0 {
                let va = a();
                (va, b())
            } else {
                let vb = b();
                (a(), vb)
            };
            vb / va
        })
        .collect();
    median(&ratios)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(
            percentile(&xs, 0.95),
            Err(TooFewSamples {
                samples: 199,
                needed: 200
            })
        );
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        // Nearest rank 190 leaves exactly ten samples beyond it.
        assert_eq!(percentile(&xs, 0.95), Ok(190.0));
        assert_eq!(percentile(&[], 0.5).unwrap_err().needed, 20);
    }

    #[test]
    fn uncontended_median_ignores_slowed_samples() {
        // 60 uncontended samples around 10 and 140 slowed ones at 15-16:
        // the plain median lies among the slow ones, this one does not.
        let mut xs: Vec<f64> = (0..60).map(|i| 10.0 + f64::from(i % 6) * 0.1).collect();
        xs.extend((0..140).map(|i| 15.0 + f64::from(i % 10) * 0.1));
        assert!(median(&xs) >= 15.0);
        assert!((uncontended_median(&xs) - 10.25).abs() < 1e-9);
        // With no contention it is the plain median.
        let flat: Vec<f64> = (0..100).map(|i| 10.0 + f64::from(i) * 0.01).collect();
        assert_eq!(uncontended_median(&flat), median(&flat));
    }

    #[test]
    fn paired_ratio_alternates_order_and_takes_the_median() {
        let order = RefCell::new(Vec::new());
        let a_vals = RefCell::new(vec![10.0, 10.0, 10.0].into_iter());
        let b_vals = RefCell::new(vec![11.0, 30.0, 12.0].into_iter());
        let r = paired_ratio(
            3,
            || {
                order.borrow_mut().push('a');
                a_vals.borrow_mut().next().unwrap()
            },
            || {
                order.borrow_mut().push('b');
                b_vals.borrow_mut().next().unwrap()
            },
        );
        assert_eq!(order.into_inner(), vec!['a', 'b', 'b', 'a', 'a', 'b']);
        // Ratios 1.1, 3.0, 1.2: the outlier pair does not move the median.
        assert!((r - 1.2).abs() < 1e-12);
    }
}
