//! A standalone benchmark of the QRAM serving stack.
//!
//! It drives the public API of `qram-service` ([`QramService`]),
//! `qram-fleet` ([`FleetController`]) and `qram-telemetry` on three fixed
//! workloads ([`workload::Kind`]) and reports two clocks side by side:
//! *host* time (what this process spends computing answers) and
//! *virtual* time (the modeled device's door-to-done latency). Every
//! answer is checked ([`check`]); a traced run ([`run::traced`]) adds the
//! bench's own spans around every call and replays the run's work
//! through each layer's entry point ([`replay`]) for per-layer host ns
//! per request.
//!
//! [`QramService`]: qram_service::QramService
//! [`FleetController`]: qram_fleet::FleetController

pub mod check;
pub mod replay;
pub mod run;
pub mod serve;
pub mod trace;
pub mod workload;
