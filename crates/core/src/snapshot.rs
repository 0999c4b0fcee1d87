//! The capture of the obs snapshot stream: per-edge demand, split by
//! direction into the rasters of a [`SnapshotRecord`], and the aggregates
//! of its overflow.
//!
//! Both records are built here, straight from the design and a dense
//! per-edge total-demand slice indexed by [`dgr_grid::EdgeId`]: the
//! header's capacity rasters once, then one record per capture. H edges
//! come first in the dense numbering of [`dgr_grid::GcellGrid`], row-major
//! (`(width−1)·height` of them), V edges after them, row-major
//! (`width·(height−1)`), so each direction's raster is a contiguous run.
//! This module also owns the write discipline of the stream: header
//! first (idempotent), then snapshots keyed by `(iter, phase)`. The
//! training loop captures the dense Eq. (10) expected demand it
//! maintains; extraction and post-processing capture a discrete
//! [`DemandMap`] (Eq. 2), densified first.

use dgr_grid::demand::excess;
use dgr_grid::{DemandMap, Design};
use dgr_obs::{SnapshotHeader, SnapshotRecord, SnapshotSink};

/// Writes the header record — grid dimensions and capacity rasters — if
/// the sink does not have one yet.
pub fn ensure_header(sink: &mut SnapshotSink, design: &Design) {
    if sink.header_written() {
        return;
    }
    let grid = &design.grid;
    let capacity: Vec<f32> = grid
        .edge_ids()
        .map(|e| design.capacity.capacity(e))
        .collect();
    let (h, v) = capacity.split_at(grid.num_h_edges());
    sink.write_header(&SnapshotHeader {
        width: grid.width(),
        height: grid.height(),
        h_capacity: h.to_vec(),
        v_capacity: v.to_vec(),
    });
}

/// One capture of the dense per-edge total demand `total_demand`, which
/// has `grid.num_edges()` entries: the demand split by direction, and the
/// overflowed-edge count, sum and peak of its [`excess`].
fn capture(design: &Design, total_demand: &[f32], iter: u64, phase: &str) -> SnapshotRecord {
    let grid = &design.grid;
    // summed from +0.0 in edge order: `Iterator::sum` starts at −0.0,
    // which a clean capture would print as `-0`
    let (edges, total, peak) = grid
        .edge_ids()
        .map(|e| excess(total_demand[e.index()], design.capacity.capacity(e)))
        .filter(|&o| o > 0.0)
        .fold((0, 0.0, 0.0), |(n, sum, peak): (u64, f32, f32), o| {
            (n + 1, sum + o, peak.max(o))
        });
    let num_h = grid.num_h_edges();
    SnapshotRecord {
        iter,
        phase: phase.to_string(),
        h_demand: total_demand[..num_h].to_vec(),
        v_demand: total_demand[num_h..].to_vec(),
        overflowed_edges: edges,
        total_overflow: total,
        peak_overflow: peak,
    }
}

/// Captures and writes one snapshot of a discrete [`DemandMap`] (Eq. 2
/// total demand: wire plus β-weighted endpoint via pressure).
pub fn write_demand_snapshot(
    sink: &mut SnapshotSink,
    design: &Design,
    demand: &DemandMap,
    iter: u64,
    phase: &str,
) {
    let dense: Vec<f32> = design
        .grid
        .edge_ids()
        .map(|e| demand.total(&design.capacity, e))
        .collect();
    write_dense_snapshot(sink, design, &dense, iter, phase);
}

/// Captures and writes one snapshot of the dense per-edge expected
/// demand the relaxed model maintains during training (Eq. 10). A
/// length mismatch is silently dropped — observability must never abort
/// a training run (and the trainer's demand tensor always matches).
pub fn write_dense_snapshot(
    sink: &mut SnapshotSink,
    design: &Design,
    total_demand: &[f32],
    iter: u64,
    phase: &str,
) {
    ensure_header(sink, design);
    debug_assert_eq!(total_demand.len(), design.grid.num_edges());
    if total_demand.len() == design.grid.num_edges() {
        sink.write_snapshot(&capture(design, total_demand, iter, phase));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_grid::{CapacityBuilder, GcellGrid, Net, OverflowStats, Point};
    use dgr_obs::SnapshotStream;

    /// A `w`×`h` design of uniform capacity `tracks` and one net.
    fn design(w: u32, h: u32, tracks: f32) -> Design {
        let grid = GcellGrid::new(w, h).unwrap();
        let cap = CapacityBuilder::uniform(&grid, tracks)
            .build(&grid)
            .unwrap();
        let pins = vec![Point::new(0, 0), Point::new(w as i32 - 1, h as i32 - 1)];
        Design::new(grid, cap, vec![Net::new("n0", pins)], 3).unwrap()
    }

    fn dense(design: &Design, demand: &DemandMap) -> Vec<f32> {
        let grid = &design.grid;
        grid.edge_ids()
            .map(|e| demand.total(&design.capacity, e))
            .collect()
    }

    #[test]
    fn demand_snapshot_round_trips_through_stream() {
        let design = design(4, 4, 1.0);
        let mut demand = DemandMap::new(&design.grid);
        for _ in 0..2 {
            demand
                .add_segment(&design.grid, Point::new(0, 1), Point::new(2, 1))
                .unwrap();
        }
        let mut sink = SnapshotSink::in_memory();
        write_demand_snapshot(&mut sink, &design, &demand, 7, "train");
        write_demand_snapshot(&mut sink, &design, &demand, 9, "final");
        let stream = SnapshotStream::parse(sink.memory_contents().unwrap()).unwrap();
        let header = stream.header.expect("header written once");
        assert_eq!(header.width, 4);
        assert_eq!(header.h_capacity.len(), design.grid.num_h_edges());
        assert_eq!(stream.snapshots.len(), 2);
        assert_eq!(stream.snapshots[0].iter, 7);
        assert_eq!(stream.snapshots[1].phase, "final");
        // two wires on capacity-1 h-edges → overflow 1 on two edges
        assert_eq!(stream.snapshots[0].overflowed_edges, 2);
        assert_eq!(stream.snapshots[0].total_overflow, 2.0);
    }

    #[test]
    fn dense_snapshot_matches_demand_snapshot() {
        let design = design(4, 4, 1.0);
        let mut demand = DemandMap::new(&design.grid);
        demand
            .add_segment(&design.grid, Point::new(0, 0), Point::new(0, 3))
            .unwrap();
        let mut a = SnapshotSink::in_memory();
        write_demand_snapshot(&mut a, &design, &demand, 0, "x");
        let mut b = SnapshotSink::in_memory();
        write_dense_snapshot(&mut b, &design, &dense(&design, &demand), 0, "x");
        assert_eq!(a.memory_contents(), b.memory_contents());
    }

    #[test]
    fn capture_splits_directions_row_major() {
        let design = design(4, 3, 1.0);
        let g = &design.grid;
        let mut d = DemandMap::new(g);
        // 2 wires across the h-edge (1,2)-(2,2); one wire on v-edge (0,0)-(0,1)
        for _ in 0..2 {
            d.add_segment(g, Point::new(1, 2), Point::new(2, 2))
                .unwrap();
        }
        d.add_segment(g, Point::new(0, 0), Point::new(0, 1))
            .unwrap();
        let snap = capture(&design, &dense(&design, &d), 5, "train");
        assert_eq!((snap.iter, snap.phase.as_str()), (5, "train"));
        assert_eq!(snap.h_demand.len(), g.num_h_edges());
        assert_eq!(snap.v_demand.len(), g.num_v_edges());
        // h-edge (1,2): row-major index y*(w−1)+x = 2*3+1 = 7
        assert_eq!(snap.h_demand[7], 2.0);
        // v-edge (0,0): index y*w+x = 0
        assert_eq!(snap.v_demand[0], 1.0);
        assert_eq!(snap.overflowed_edges, 1);
        assert_eq!(snap.total_overflow, 1.0);
        assert_eq!(snap.peak_overflow, 1.0);
    }

    #[test]
    fn capture_agrees_with_overflow_stats() {
        let design = design(4, 3, 1.0);
        let g = &design.grid;
        let mut d = DemandMap::new(g);
        for _ in 0..3 {
            d.add_segment(g, Point::new(0, 0), Point::new(3, 0))
                .unwrap();
        }
        d.add_turn(g, Point::new(3, 0)).unwrap();
        let snap = capture(&design, &dense(&design, &d), 0, "x");
        let stats = OverflowStats::measure(g, &design.capacity, &d);
        assert_eq!(snap.overflowed_edges as usize, stats.overflowed_edges);
        assert!((snap.total_overflow as f64 - stats.total_overflow).abs() < 1e-5);
        assert_eq!(snap.peak_overflow, stats.peak_overflow);
    }

    #[test]
    fn round_off_below_epsilon_is_not_overflow() {
        let design = design(4, 3, 1.0);
        let snap = capture(&design, &vec![1.0 + 5e-5; design.grid.num_edges()], 0, "x");
        assert_eq!(snap.overflowed_edges, 0);
        assert_eq!(snap.peak_overflow, 0.0);
        // a clean capture's sum is +0, which prints `0`, not `-0`
        assert!(snap.total_overflow.is_sign_positive());
        assert!(snap.to_json().contains("\"total_overflow\":0,"));
    }

    #[test]
    fn capacity_rasters_match_the_model() {
        let grid = GcellGrid::new(3, 3).unwrap();
        let mut b = CapacityBuilder::uniform(&grid, 2.0);
        b.set_tracks(grid.h_edge(1, 0).unwrap(), 0.5);
        let cap = b.build(&grid).unwrap();
        let nets = vec![Net::new("n0", vec![Point::new(0, 0), Point::new(2, 2)])];
        let design = Design::new(grid, cap, nets, 3).unwrap();
        let mut sink = SnapshotSink::in_memory();
        ensure_header(&mut sink, &design);
        ensure_header(&mut sink, &design); // written once
        let text = sink.memory_contents().unwrap();
        assert_eq!(text.lines().count(), 1);
        let header = SnapshotStream::parse(text).unwrap().header.unwrap();
        assert_eq!((header.width, header.height), (3, 3));
        assert_eq!(header.h_capacity.len(), design.grid.num_h_edges());
        assert_eq!(header.v_capacity.len(), design.grid.num_v_edges());
        assert_eq!(header.h_capacity[1], 0.5); // h-edge (1,0) is index 1
        assert!(header.v_capacity.iter().all(|&c| c == 2.0));
    }
}
