//! Glue between the grid's congestion captures and the obs snapshot
//! stream.
//!
//! `dgr-obs` is dependency-free (plain vectors), `dgr-grid` knows the
//! edge layout; this module converts between the two and owns the write
//! discipline of the stream: header first (idempotent), then snapshots
//! keyed by `(iter, phase)`. Capture sites call these helpers from the
//! training loop (dense Eq. 10 expected demand) and from extraction /
//! post-processing (discrete [`DemandMap`] demand).

use dgr_grid::{capacity_grids, CongestionSnapshot, DemandMap, Design};
use dgr_obs::{SnapshotHeader, SnapshotRecord, SnapshotSink};

use crate::solution::RoutingSolution;

/// Builds the stream header (grid dimensions + capacity rasters) for
/// `design`.
pub fn snapshot_header(design: &Design) -> SnapshotHeader {
    let (h_capacity, v_capacity) = capacity_grids(&design.grid, &design.capacity);
    SnapshotHeader {
        width: design.grid.width(),
        height: design.grid.height(),
        h_capacity,
        v_capacity,
    }
}

/// Writes the header record if the sink does not have one yet.
pub fn ensure_header(sink: &mut SnapshotSink, design: &Design) {
    if !sink.header_written() {
        sink.write_header(&snapshot_header(design));
    }
}

fn to_record(snap: CongestionSnapshot, iter: u64, phase: &str) -> SnapshotRecord {
    SnapshotRecord {
        iter,
        phase: phase.to_string(),
        h_demand: snap.h_demand,
        v_demand: snap.v_demand,
        h_overflow: snap.h_overflow,
        v_overflow: snap.v_overflow,
        overflowed_edges: snap.overflowed_edges as u64,
        total_overflow: snap.total_overflow,
        peak_overflow: snap.peak_overflow,
    }
}

/// Captures and writes one snapshot of a discrete [`DemandMap`].
pub fn write_demand_snapshot(
    sink: &mut SnapshotSink,
    design: &Design,
    demand: &DemandMap,
    iter: u64,
    phase: &str,
) {
    ensure_header(sink, design);
    let snap = CongestionSnapshot::capture(&design.grid, &design.capacity, demand);
    sink.write_snapshot(&to_record(snap, iter, phase));
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
    if let Ok(snap) = CongestionSnapshot::from_dense(&design.grid, &design.capacity, total_demand) {
        sink.write_snapshot(&to_record(snap, iter, phase));
    }
}

/// Captures and writes one snapshot of an extracted solution's committed
/// demand.
pub fn write_solution_snapshot(
    sink: &mut SnapshotSink,
    design: &Design,
    solution: &RoutingSolution,
    iter: u64,
    phase: &str,
) {
    write_demand_snapshot(sink, design, &solution.demand, iter, phase);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_grid::{CapacityBuilder, GcellGrid, Net, Point};
    use dgr_obs::SnapshotStream;

    fn tiny_design() -> Design {
        let grid = GcellGrid::new(4, 4).unwrap();
        let cap = CapacityBuilder::uniform(&grid, 1.0).build(&grid).unwrap();
        Design::new(
            grid,
            cap,
            vec![Net::new("n0", vec![Point::new(0, 0), Point::new(3, 3)])],
            3,
        )
        .unwrap()
    }

    #[test]
    fn demand_snapshot_round_trips_through_stream() {
        let design = tiny_design();
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
        let design = tiny_design();
        let mut demand = DemandMap::new(&design.grid);
        demand
            .add_segment(&design.grid, Point::new(0, 0), Point::new(0, 3))
            .unwrap();
        let dense: Vec<f32> = design
            .grid
            .edge_ids()
            .map(|e| demand.total(&design.capacity, e))
            .collect();

        let mut a = SnapshotSink::in_memory();
        write_demand_snapshot(&mut a, &design, &demand, 0, "x");
        let mut b = SnapshotSink::in_memory();
        write_dense_snapshot(&mut b, &design, &dense, 0, "x");
        assert_eq!(a.memory_contents(), b.memory_contents());
    }
}
