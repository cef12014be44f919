//! `ccdp-serve`: the CCDP pipeline as a crash-tolerant job service.
//!
//! The batch harness (`ccdp-bench`) answers "regenerate the paper's
//! tables"; this crate answers "keep answering *arbitrary submitted
//! programs* correctly while overloaded, killed, and restarted". It is a
//! dependency-free HTTP/1.1 JSON server (`std::net` + a worker pool) in
//! front of the verify → plan → simulate pipeline, with:
//!
//! * **admission control** — a bounded queue; overload is shed as a
//!   structured `429 queue_full`, never an unbounded backlog
//!   ([`queue`]);
//! * **single-flight plan caching** — jobs are content-addressed by a
//!   stable 128-bit fingerprint; concurrent duplicates cost one compile
//!   and every hit is byte-identical to the first response ([`cache`]);
//! * **deadline + retry discipline** — per-job wall deadlines on top of
//!   the simulator's cycle/step budgets; flaky failures (panic, timeout)
//!   retry with exponential backoff, deterministic failures never do
//!   ([`api`]);
//! * **crash-safe journaling** — fsynced job/done lines over
//!   `ccdp_core::Journal`'s torn-tail-tolerant format, one journal per
//!   worker slot in a shared directory, compacted when they outgrow a
//!   threshold; `kill -9` then restart replays to byte-identical
//!   responses ([`journal`]);
//! * **process supervision** — N isolated worker processes (self-exec
//!   `--worker` mode, framed stdin/stdout protocol) under a supervisor
//!   that health-checks, restarts with exponential backoff behind a
//!   restart-storm circuit breaker, and re-dispatches the jobs of dead
//!   workers — a worker panic, `kill -9`, or OOM never takes down the
//!   acceptor ([`supervisor`], [`worker`]);
//! * **graceful drain** — SIGTERM stops admission, finishes in-flight
//!   work, retires the fleet, exits 0 ([`server`]).
//!
//! Binaries: `ccdpd` (the daemon), `loadgen` (profiles: ramp, spike,
//! soak, duplicate-storm, overload), and `chaos` (seeded kill-storm soak
//! asserting zero lost/duplicated/corrupted responses); both testers
//! print their results as one compact JSON line on stdout, and both talk
//! to ccdpd through [`client`].

pub mod api;
pub mod cache;
pub mod client;
pub mod http;
pub mod journal;
pub mod queue;
pub mod server;
pub mod signals;
pub mod supervisor;
pub mod worker;

pub use api::{JobSpec, RetryPolicy};
pub use server::{serve, ServerConfig};
pub use supervisor::{FleetBreaker, Pool, RestartPolicy, RestartTracker};
