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
    fn empty_table() {
        let s = Segments::from_offsets(vec![0]).unwrap();
        assert_eq!(s.num_segments(), 0);
        assert!(s.is_empty());
    }
}
