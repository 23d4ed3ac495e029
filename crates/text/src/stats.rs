//! Vocabulary-richness statistics (Table I, "Vocabulary richness"):
//! Yule's K and hapax/dis/tris/tetrakis legomena.

/// Counts of words occurring exactly 1, 2, 3 and 4 times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Legomena {
    /// Words occurring exactly once.
    pub hapax: usize,
    /// Words occurring exactly twice.
    pub dis: usize,
    /// Words occurring exactly three times.
    pub tris: usize,
    /// Words occurring exactly four times.
    pub tetrakis: usize,
}

/// Yule's characteristic K over the occurrence counts of each word type.
///
/// `K = 10^4 · (Σ_i i²·V(i) − N) / N²` where `V(i)` is the number of types
/// occurring `i` times and `N` the token count. Higher K means lower
/// vocabulary richness (more repetition). Returns 0 for fewer than two
/// tokens. Both sums are exact integers, so the order of `counts` cannot
/// change a bit of the result.
#[must_use]
pub fn yules_k<I: IntoIterator<Item = usize>>(counts: I) -> f64 {
    let (mut n, mut m2) = (0u64, 0u64);
    for c in counts {
        let c = c as u64;
        n += c;
        m2 += c * c;
    }
    if n < 2 {
        return 0.0;
    }
    1e4 * (m2 as f64 - n as f64) / (n as f64 * n as f64)
}

/// Hapax/dis/tris/tetrakis legomena counts over the occurrence counts of
/// each word type.
#[must_use]
pub fn legomena<I: IntoIterator<Item = usize>>(counts: I) -> Legomena {
    let mut l = Legomena::default();
    for c in counts {
        match c {
            1 => l.hapax += 1,
            2 => l.dis += 1,
            3 => l.tris += 1,
            4 => l.tetrakis += 1,
            _ => {}
        }
    }
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legomena_counts() {
        // a ×1, b ×2, c ×3, d ×4.
        let l = legomena([1, 2, 3, 4]);
        assert_eq!(l, Legomena { hapax: 1, dis: 1, tris: 1, tetrakis: 1 });
    }

    #[test]
    fn yules_k_zero_for_all_distinct_large_vocab() {
        // All words distinct: M2 == N so K == 0.
        assert!((yules_k([1, 1, 1, 1])).abs() < 1e-12);
    }

    #[test]
    fn yules_k_increases_with_repetition() {
        let varied = yules_k([1; 6]);
        let repetitive = yules_k([3, 2, 1]);
        assert!(repetitive > varied);
    }

    #[test]
    fn yules_k_known_value() {
        // N=4 tokens, one type twice + two once: M2 = 4+1+1 = 6.
        // K = 1e4 * (6-4)/16 = 1250.
        assert!((yules_k([2, 1, 1]) - 1250.0).abs() < 1e-9);
    }

    #[test]
    fn yules_k_is_order_independent() {
        let a = yules_k([5, 1, 3, 1, 1, 2]);
        let b = yules_k([1, 1, 1, 2, 3, 5]);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(yules_k([]), 0.0);
        assert_eq!(yules_k([1]), 0.0);
        assert_eq!(legomena([]), Legomena::default());
    }
}
