//! The layer stack model.

use dgr_grid::EdgeDir;

/// A stack of routing layers with alternating preferred directions.
///
/// Layer 0 is the lowest routable metal. By default even layers run
/// horizontally and odd layers vertically (`first_horizontal = true`);
/// each 2D edge's capacity is split evenly across the layers of its
/// direction.
///
/// # Examples
///
/// ```
/// use dgr_grid::EdgeDir;
/// use dgr_post::LayerModel;
///
/// let stack = LayerModel::alternating(5, true);
/// assert_eq!(stack.dir_of(0), EdgeDir::Horizontal);
/// assert_eq!(stack.dir_of(1), EdgeDir::Vertical);
/// assert!(stack.layers_of(EdgeDir::Horizontal).eq([0, 2, 4]));
/// assert_eq!(stack.count_of(EdgeDir::Vertical), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerModel {
    num_layers: u32,
    first_horizontal: bool,
}

impl LayerModel {
    /// Builds an alternating stack of `num_layers` layers.
    ///
    /// # Panics
    ///
    /// Panics if `num_layers < 2` (both directions need at least one
    /// layer; use [`crate::PostError::TooFewLayers`]-returning entry
    /// points for fallible handling).
    pub fn alternating(num_layers: u32, first_horizontal: bool) -> Self {
        assert!(num_layers >= 2, "need at least 2 layers");
        LayerModel {
            num_layers,
            first_horizontal,
        }
    }

    /// Number of layers in the stack.
    pub fn num_layers(&self) -> u32 {
        self.num_layers
    }

    /// Preferred direction of `layer`.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn dir_of(&self, layer: u32) -> EdgeDir {
        assert!(layer < self.num_layers, "layer out of range");
        let even = layer.is_multiple_of(2);
        match (even, self.first_horizontal) {
            (true, true) | (false, false) => EdgeDir::Horizontal,
            _ => EdgeDir::Vertical,
        }
    }

    /// The layers whose preferred direction is `dir`, in ascending order:
    /// every second layer from the first one running that way. Nothing is
    /// allocated — the layer-assignment DP asks per segment and per edge.
    pub fn layers_of(&self, dir: EdgeDir) -> impl ExactSizeIterator<Item = u32> + Clone {
        let first = u32::from(self.dir_of(0) != dir);
        (first..self.num_layers).step_by(2)
    }

    /// Number of layers with preferred direction `dir`.
    pub fn count_of(&self, dir: EdgeDir) -> usize {
        self.layers_of(dir).len()
    }

    /// Per-layer capacity share of a 2D edge with total capacity `cap2d`
    /// and direction `dir`.
    pub fn layer_capacity(&self, cap2d: f32, dir: EdgeDir) -> f32 {
        cap2d / self.count_of(dir) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alternation_and_counts() {
        let m = LayerModel::alternating(5, true);
        assert!(m.layers_of(EdgeDir::Horizontal).eq([0, 2, 4]));
        assert!(m.layers_of(EdgeDir::Vertical).eq([1, 3]));
        let m = LayerModel::alternating(4, false);
        assert!(m.layers_of(EdgeDir::Vertical).eq([0, 2]));
        assert!(m.layers_of(EdgeDir::Horizontal).eq([1, 3]));
    }

    #[test]
    fn layers_of_is_exactly_the_layers_running_that_way() {
        for num_layers in 2..=11 {
            for first_horizontal in [true, false] {
                let m = LayerModel::alternating(num_layers, first_horizontal);
                for dir in [EdgeDir::Horizontal, EdgeDir::Vertical] {
                    let want: Vec<u32> = (0..num_layers).filter(|&l| m.dir_of(l) == dir).collect();
                    assert!(m.layers_of(dir).eq(want.iter().copied()));
                    assert_eq!(m.count_of(dir), want.len());
                }
            }
        }
    }

    #[test]
    fn capacity_split() {
        let m = LayerModel::alternating(5, true);
        assert!((m.layer_capacity(6.0, EdgeDir::Horizontal) - 2.0).abs() < 1e-6);
        assert!((m.layer_capacity(6.0, EdgeDir::Vertical) - 3.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least 2 layers")]
    fn rejects_single_layer() {
        let _ = LayerModel::alternating(1, true);
    }
}
