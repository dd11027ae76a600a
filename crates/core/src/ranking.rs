//! Ordered brightness ranking — the `O(log n)` search structure.
//!
//! §V's complexity argument: the basic firefly algorithm is `O(n²)`
//! because every firefly scans all others for brighter ones; the paper
//! instead keeps the fireflies in an *ordered tree structure* so that
//! "searching in firefly for more brightness than current firefly will
//! take O(log n) time". [`BrightnessRanking`] is that structure: a
//! sorted index over (brightness, id) supporting
//!
//! * `O(n log n)` (re)construction per sweep,
//! * `O(log n)` *next-brighter* queries, and
//! * `O(log n)` global-best queries (last element),
//!
//! with every comparison counted so the complexity claim is measurable
//! (see the `complexity` experiment in `ffd2d-experiments`).

/// A sorted index over firefly brightness.
#[derive(Debug, Clone, Default)]
pub struct BrightnessRanking {
    /// `(brightness, id)` sorted ascending; ids break ties so the order
    /// is total and deterministic.
    sorted: Vec<(f64, u32)>,
    /// Position of each id in `sorted`.
    rank_of: Vec<u32>,
}

impl BrightnessRanking {
    /// Build the ranking from per-firefly brightness values.
    ///
    /// # Panics
    ///
    /// On NaN brightness.
    pub fn build(brightness: &[f64]) -> BrightnessRanking {
        let mut sorted: Vec<(f64, u32)> = brightness
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                assert!(!b.is_nan(), "NaN brightness for firefly {i}");
                (b, i as u32)
            })
            .collect();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut rank_of = vec![0u32; brightness.len()];
        for (rank, &(_, id)) in sorted.iter().enumerate() {
            rank_of[id as usize] = rank as u32;
        }
        BrightnessRanking { sorted, rank_of }
    }

    /// Number of fireflies.
    #[inline]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if the ranking is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Rank of firefly `id` (0 = dimmest).
    #[inline]
    pub fn rank(&self, id: u32) -> usize {
        self.rank_of[id as usize] as usize
    }

    /// The immediately-brighter firefly than `id`, if any —
    /// the `O(log n)`-style search the paper replaces the inner loop
    /// with. (With the rank array the lookup is O(1) after the
    /// `O(n log n)` sort; the *sort* is where the `log n` lives.)
    pub fn next_brighter(&self, id: u32) -> Option<u32> {
        let r = self.rank(id);
        self.sorted.get(r + 1).map(|&(_, j)| j)
    }

    /// The brightest firefly (`None` when empty).
    pub fn brightest(&self) -> Option<u32> {
        self.sorted.last().map(|&(_, id)| id)
    }

    /// Fireflies in ascending brightness order.
    pub fn ascending(&self) -> impl Iterator<Item = u32> + '_ {
        self.sorted.iter().map(|&(_, id)| id)
    }

    /// Binary-search the rank a brightness value would insert at,
    /// counting comparisons into `comparisons`. Exposed so the
    /// complexity benches can measure the claimed `O(log n)`.
    pub fn search_rank(&self, brightness: f64, comparisons: &mut u64) -> usize {
        let mut lo = 0usize;
        let mut hi = self.sorted.len();
        while lo < hi {
            *comparisons += 1;
            let mid = (lo + hi) / 2;
            if self.sorted[mid].0 < brightness {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_consistent() {
        let b = vec![3.0, 1.0, 2.0, 5.0];
        let r = BrightnessRanking::build(&b);
        assert_eq!(r.len(), 4);
        assert_eq!(r.rank(1), 0);
        assert_eq!(r.rank(2), 1);
        assert_eq!(r.rank(0), 2);
        assert_eq!(r.rank(3), 3);
        assert_eq!(r.brightest(), Some(3));
    }

    #[test]
    fn next_brighter_chain() {
        let b = vec![3.0, 1.0, 2.0, 5.0];
        let r = BrightnessRanking::build(&b);
        assert_eq!(r.next_brighter(1), Some(2));
        assert_eq!(r.next_brighter(2), Some(0));
        assert_eq!(r.next_brighter(0), Some(3));
        assert_eq!(r.next_brighter(3), None, "brightest has no brighter");
    }

    #[test]
    fn ties_break_deterministically_by_id() {
        let b = vec![1.0, 1.0, 1.0];
        let r = BrightnessRanking::build(&b);
        let order: Vec<u32> = r.ascending().collect();
        assert_eq!(order, vec![0, 1, 2]);
        assert_eq!(r.next_brighter(0), Some(1));
        assert_eq!(r.next_brighter(2), None);
    }

    #[test]
    fn search_rank_is_logarithmic() {
        let n = 1 << 14;
        let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let r = BrightnessRanking::build(&b);
        let mut comparisons = 0;
        let rank = r.search_rank(12345.5, &mut comparisons);
        assert_eq!(rank, 12346);
        assert!(comparisons <= 15, "comparisons {comparisons} > log2(n)+1");
    }

    #[test]
    fn empty_ranking() {
        let r = BrightnessRanking::build(&[]);
        assert!(r.is_empty());
        assert_eq!(r.brightest(), None);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = BrightnessRanking::build(&[1.0, f64::NAN]);
    }
}
