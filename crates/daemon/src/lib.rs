#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `dgr-daemon` — `dgrd`, a long-lived multi-tenant routing job server.
//!
//! The one-shot `dgr route` CLI loads a design, trains, refines,
//! assigns layers, and exits. `dgrd` keeps that exact pipeline resident
//! and schedules *jobs* over it:
//!
//! * [`spec`] — the strict JSON grammar of `POST /jobs` bodies,
//! * [`queue`] — a pure bounded priority/FIFO job table (the lifecycle
//!   state machine, proptest-able in isolation),
//! * [`server`] — a fixed worker set draining the table; each job runs
//!   with its own design, telemetry sink, cooperative cancel flag, and
//!   job-scoped `dgr-obs` status entry,
//! * [`http`] — every route: the `/jobs` REST surface plus `/health`,
//!   `/metrics` and `/status`, served by the workspace's one HTTP
//!   listener (a private module).
//!
//! # Isolation and determinism
//!
//! Jobs share nothing but the global metrics registry: a run's helper
//! thread is its own. A
//! daemon-routed job therefore produces a route guide **byte-identical**
//! to a one-shot `dgr route` of the same design/config — the e2e suite
//! asserts this with concurrent jobs in flight.
//!
//! ```no_run
//! use dgr_daemon::{Daemon, DaemonConfig};
//! let daemon = Daemon::start("127.0.0.1:0", DaemonConfig::default()).unwrap();
//! println!("dgrd listening on {}", daemon.local_addr());
//! // POST /jobs, GET /jobs/1, DELETE /jobs/1, GET /jobs/1/report ...
//! daemon.stop();
//! ```

pub mod http;
mod listener;
pub mod queue;
pub mod server;
pub mod spec;

pub use http::Daemon;
pub use queue::{
    CancelError, CancelOutcome, Job, JobId, JobResult, JobState, JobTable, SubmitError,
};
pub use server::{DaemonConfig, JobServer};
pub use spec::{DesignSource, JobSpec, SpecError};
