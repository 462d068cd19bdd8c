//! Median/quartile summary of a handful of samples, and the FNV digest the
//! replay check compares.

/// First quartile, median and third quartile of a sample, computed as
/// Python's `statistics.quantiles(values, n=4)` and `statistics.median` do,
/// so the spreads printed here are the ones the acceptance harness computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Quartiles {
    /// Summarise `values` (any order). A single value is its own quartiles.
    ///
    /// # Panics
    /// Panics on an empty slice or a NaN — both are bugs in the caller.
    pub fn of(values: &[f64]) -> Quartiles {
        assert!(!values.is_empty(), "no samples to summarise");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
        let m = v.len();
        let median = if m % 2 == 1 {
            v[m / 2]
        } else {
            (v[m / 2 - 1] + v[m / 2]) / 2.0
        };
        // The "exclusive" method: the i-th of n cut points sits at rank
        // i·(m+1)/n, interpolated between its neighbours, clamped to the data.
        let cut = |i: usize| {
            if m < 2 {
                return v[0];
            }
            let j = (i * (m + 1) / 4).clamp(1, m - 1);
            let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Quartiles {
            n: m,
            q1: cut(1),
            median,
            q3: cut(3),
        }
    }

    /// Interquartile distance as a share of the median (0 when the median
    /// is 0, which only a constant-zero metric produces).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    Quartiles::of(values).median
}

/// 64-bit FNV-1a, the digest the repository's goldens use.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let q = Quartiles::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!((q.n, q.q1, q.median, q.q3), (10, 2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let q = Quartiles::of(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = Quartiles::of(&[2.0, 1.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn one_sample_is_its_own_quartiles_and_spread_is_relative() {
        let q = Quartiles::of(&[4.2]);
        assert_eq!((q.n, q.q1, q.median, q.q3), (1, 4.2, 4.2, 4.2));
        assert_eq!(q.spread(), 0.0);
        let q = Quartiles::of(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!(q.spread(), (12.0 - 1.5) / 4.0);
        assert_eq!(Quartiles::of(&[0.0, 0.0]).spread(), 0.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
