//! The four workloads: why each exists, its input shape and its settings.

use crate::gen::{Placement, Shape};

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CongestedFullTrain,
    LargeQuickRoute,
    HighDegreeSparse,
    DaemonSmallJobs,
}

pub const ALL: [Workload; 4] = [
    Workload::CongestedFullTrain,
    Workload::LargeQuickRoute,
    Workload::HighDegreeSparse,
    Workload::DaemonSmallJobs,
];

/// Distinct designs a `daemon_small_jobs` run cycles through.
pub const DAEMON_DESIGNS: usize = 16;
/// `dgr serve-jobs --workers`.
pub const DAEMON_WORKERS: usize = 2;
/// Closed-loop clients, one job outstanding each.
pub const DAEMON_CLIENTS: usize = 2;
/// Jobs of the burst segment; below the daemon's queue capacity of 16.
pub const BURST_JOBS: usize = 12;

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::CongestedFullTrain => "congested_full_train",
            Workload::LargeQuickRoute => "large_quick_route",
            Workload::HighDegreeSparse => "high_degree_sparse",
            Workload::DaemonSmallJobs => "daemon_small_jobs",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_daemon(self) -> bool {
        self == Workload::DaemonSmallJobs
    }

    /// `--iterations` of the route (or `"iterations"` of the job).
    pub fn iterations(self, smoke: bool) -> usize {
        match (self, smoke) {
            (Workload::CongestedFullTrain, false) => 1000,
            (Workload::CongestedFullTrain, true) => 300,
            (Workload::DaemonSmallJobs, _) => 200,
            (_, _) => 40,
        }
    }

    /// Warm-up jobs before the timed phase of the daemon workload: they
    /// fill the lazy pools and the in-memory ledger of job records.
    pub fn warmup_jobs(self, smoke: bool) -> usize {
        if smoke {
            4
        } else {
            40
        }
    }

    /// The input shape. The full shapes keep the proportions of the
    /// catalog cases the issue measured (ispd18_5m / ispd19_7m class) at a
    /// size whose one operation takes 2–3 s on a 2-core host, so that a
    /// 20 s run holds eight or more of them; `smoke` shrinks each to well
    /// under 2 s per operation.
    pub fn shape(self, smoke: bool) -> Shape {
        // `dense` floorplans pack tighter clusters with more two-cluster
        // nets; `macro_factor` is what is left of an edge under a macro:
        // the cut is what makes through-traffic overflow there, so it
        // sets how much work extraction leaves for refine
        let clustered = |width: i32,
                         height: i32,
                         nets: usize,
                         layers: u32,
                         base_capacity: f32,
                         macros: usize,
                         macro_factor: f32,
                         dense: bool| Shape {
            width,
            height,
            layers,
            nets,
            base_capacity,
            beta: 0.25,
            placement: Placement::Clustered {
                clusters: (nets / 75).max(6),
                spread: f64::from(width.min(height)) / if dense { 8.0 } else { 12.0 },
                two_cluster_share: if dense { 0.30 } else { 0.25 },
                dispersed_share: 0.45,
                macros,
                macro_factor,
            },
        };
        match (self, smoke) {
            (Workload::CongestedFullTrain, false) => {
                clustered(62, 61, 1800, 5, 15.0, 3, 0.15, true)
            }
            (Workload::CongestedFullTrain, true) => clustered(40, 38, 500, 5, 9.0, 2, 0.15, true),
            // twelve small macros, not four large ones: how far a rip-up
            // cascades around one macro is chaotic, and the sum over twelve
            // is steadier from seed to seed than the sum over four
            (Workload::LargeQuickRoute, false) => {
                clustered(105, 101, 9000, 5, 40.0, 12, 0.15, true)
            }
            (Workload::LargeQuickRoute, true) => clustered(60, 58, 2000, 5, 16.0, 3, 0.10, true),
            (Workload::HighDegreeSparse, smoke) => {
                let side = if smoke { 80 } else { 160 };
                Shape {
                    width: side,
                    height: side,
                    layers: 9,
                    nets: if smoke { 1200 } else { 6000 },
                    base_capacity: 40.0,
                    beta: 0.25,
                    placement: Placement::HighDegree { radius: 10 },
                }
            }
            (Workload::DaemonSmallJobs, _) => clustered(32, 32, 300, 9, 10.0, 1, 0.6, false),
        }
    }
}
