//! Maze routing — re-exported from [`dgr_grid::maze`].
//!
//! The search engine originally lived here; it moved into `dgr-grid`
//! so that the core router's adaptive forest expansion can use it
//! without a dependency cycle. This alias keeps the historical
//! `dgr_baseline::maze` path working.

pub use dgr_grid::maze::{compress_corners, maze_route, MazeConfig, MazeScratch};
