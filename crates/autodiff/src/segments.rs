//! CSR segment descriptors for grouped (per-net / per-subnet) operations.

use crate::AutodiffError;

/// A partition of `0..len()` into contiguous segments, described by CSR
/// offsets. Segment `s` covers `offsets[s]..offsets[s+1]`.
///
/// The cost kernel groups trees by net and paths by sub-net (the softmax
/// groups of `q` and `p`), and runs and turn cells by path, this way.
///
/// # Examples
///
/// ```
/// use dgr_autodiff::Segments;
///
/// let seg = Segments::from_offsets(vec![0, 2, 5])?;
/// assert_eq!(seg.num_segments(), 2);
/// assert_eq!(seg.segment(1), 2..5);
/// # Ok::<(), dgr_autodiff::AutodiffError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segments {
    offsets: Vec<u32>,
}

impl Segments {
    /// Creates a segment table from CSR offsets.
    ///
    /// # Errors
    ///
    /// Returns [`AutodiffError::BadSegments`] if `offsets` is empty, does
    /// not start at 0, or is not monotonically non-decreasing.
    pub fn from_offsets(offsets: Vec<u32>) -> Result<Self, AutodiffError> {
        if offsets.is_empty() {
            return Err(AutodiffError::BadSegments("empty offsets".into()));
        }
        if offsets[0] != 0 {
            return Err(AutodiffError::BadSegments("offsets must start at 0".into()));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(AutodiffError::BadSegments("offsets not monotone".into()));
        }
        Ok(Segments { offsets })
    }

    /// The CSR offsets: `num_segments() + 1` non-decreasing values from 0.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of elements covered.
    pub fn len(&self) -> usize {
        *self.offsets.last().expect("non-empty offsets") as usize
    }

    /// Whether the table covers zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The element range of segment `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= num_segments()`.
    pub fn segment(&self, s: usize) -> std::ops::Range<usize> {
        self.offsets[s] as usize..self.offsets[s + 1] as usize
    }

    /// Rewrites the table in place, in order: `len_of(s, range)` is the
    /// new length of segment `s`, whose elements were `range`, or `None`
    /// to drop the segment.
    pub(crate) fn retain(
        &mut self,
        mut len_of: impl FnMut(usize, std::ops::Range<usize>) -> Option<usize>,
    ) {
        let (mut kept, mut end) = (0, 0);
        let mut start = 0;
        for s in 0..self.num_segments() {
            // read before the write below can reach it: `kept <= s`
            let old_end = self.offsets[s + 1] as usize;
            if let Some(len) = len_of(s, start..old_end) {
                kept += 1;
                end += len;
                self.offsets[kept] = end as u32;
            }
            start = old_end;
        }
        self.offsets.truncate(kept + 1);
    }

    /// Spreads the segments over a table of `num_segments`: segment `i`
    /// becomes segment `origin(i)` (ascending in `i`), every other
    /// segment is empty. The elements keep their order and their indices.
    pub(crate) fn spread(&mut self, origin: impl Iterator<Item = usize>, num_segments: usize) {
        let mut offsets = Vec::with_capacity(num_segments + 1);
        for (i, o) in origin.enumerate() {
            offsets.resize(o + 1, self.offsets[i]);
        }
        offsets.resize(num_segments + 1, self.len() as u32);
        self.offsets = offsets;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_offsets() {
        let s = Segments::from_offsets(vec![0, 3, 3, 7]).unwrap();
        assert_eq!(s.num_segments(), 3);
        assert_eq!(s.len(), 7);
        assert_eq!(s.segment(0), 0..3);
        assert_eq!(s.segment(1), 3..3); // empty segment allowed
        assert_eq!(s.segment(2), 3..7);
    }

    #[test]
    fn rejects_bad_offsets() {
        assert!(Segments::from_offsets(vec![]).is_err());
        assert!(Segments::from_offsets(vec![1, 2]).is_err());
        assert!(Segments::from_offsets(vec![0, 5, 3]).is_err());
    }

    #[test]
    fn retain_shrinks_and_drops_and_spread_puts_the_rest_back() {
        let mut s = Segments::from_offsets(vec![0, 3, 3, 7, 9]).unwrap();
        let mut seen = Vec::new();
        s.retain(|i, r| {
            seen.push((i, r.clone()));
            [Some(1), Some(0), None, Some(2)][i]
        });
        assert_eq!(seen, [(0, 0..3), (1, 3..3), (2, 3..7), (3, 7..9)]);
        assert_eq!(s.offsets(), &[0, 1, 1, 3]);
        s.spread([1, 2, 5].into_iter(), 7);
        assert_eq!(s.offsets(), &[0, 0, 1, 1, 1, 1, 3, 3]);
        let mut none = Segments::from_offsets(vec![0]).unwrap();
        none.spread(std::iter::empty(), 2);
        assert_eq!(none.offsets(), &[0, 0, 0]);
    }

    #[test]
    fn empty_table() {
        let s = Segments::from_offsets(vec![0]).unwrap();
        assert_eq!(s.num_segments(), 0);
        assert!(s.is_empty());
    }
}
