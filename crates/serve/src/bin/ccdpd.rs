//! `ccdpd` — the supervised CCDP job service daemon.
//!
//! ```text
//! cargo run -p ccdp-serve --release --bin ccdpd -- --addr 127.0.0.1:7077 \
//!     --workers 4 --journal-dir results/ccdpd-journal --resume
//! curl -s localhost:7077/healthz
//! curl -s localhost:7077/readyz
//! curl -s -X POST localhost:7077/jobs -d '{"program": "..."}'
//! ```
//!
//! The process supervises `--workers N` isolated compute processes (it
//! re-executes itself with `--worker`); a worker panic, `kill -9`, or OOM
//! costs a re-dispatch, never the listener.
//!
//! Flags:
//!   --addr A              bind address (default 127.0.0.1:7077; port 0 = pick)
//!   --workers N           worker processes (default 2, or $CCDP_SERVE_WORKERS)
//!   --threads N           connection-handler threads (default: min(cores, 8))
//!   --queue-cap N         admission-control queue bound (default 128)
//!   --max-body BYTES      request body cap (default 1 MiB)
//!   --deadline-ms MS      default per-job deadline (default 10000)
//!   --read-deadline-ms MS slow-client guard: full request within MS (default 5000)
//!   --cache-cap N         cached responses kept (default 1024)
//!   --journal-dir DIR     enable crash-safe journaling (one file per worker)
//!   --resume              resume/replay an existing journal dir (with --journal-dir)
//!   --compact-bytes N     per-slot journal compaction threshold
//!                         (default 4 MiB, or $CCDP_COMPACT_BYTES; 0 = off)
//!   --worker              internal: run as a worker child (stdin/stdout frames)
//!
//! SIGTERM/SIGINT drain gracefully: stop accepting, finish in-flight and
//! queued work, retire the worker fleet, exit 0. Stdout carries one
//! `ccdpd worker <slot> pid <pid>` line per (re)spawn and one
//! `ccdpd listening on <addr>` line once the listener is up (parseable
//! when binding port 0).

use ccdp_core::flags::{flag_or_exit, has_flag, or_exit};
use ccdp_core::EnvOverrides;
use ccdp_serve::server::{install_signal_handlers, serve};
use ccdp_serve::ServerConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if has_flag(&args, "--worker") {
        let slot = flag_or_exit(&args, "--worker-slot").unwrap_or(0usize);
        if let Err(e) = ccdp_serve::worker::run_worker(slot) {
            eprintln!("ccdpd worker {slot}: fatal: {e}");
            std::process::exit(1);
        }
        return;
    }

    let env = or_exit(EnvOverrides::from_env().map_err(|e| format!("ccdpd: {e}")));
    let defaults = ServerConfig::default();
    let cfg = ServerConfig {
        addr: flag_or_exit(&args, "--addr").unwrap_or(defaults.addr),
        workers: flag_or_exit(&args, "--workers")
            .unwrap_or(env.serve_workers.unwrap_or(defaults.workers))
            .max(1),
        threads: flag_or_exit(&args, "--threads").unwrap_or(defaults.threads).max(1),
        queue_cap: flag_or_exit(&args, "--queue-cap").unwrap_or(defaults.queue_cap).max(1),
        max_body: flag_or_exit(&args, "--max-body").unwrap_or(defaults.max_body).max(1024),
        default_deadline_ms: flag_or_exit(&args, "--deadline-ms")
            .unwrap_or(defaults.default_deadline_ms)
            .max(1),
        read_deadline_ms: flag_or_exit(&args, "--read-deadline-ms")
            .unwrap_or(defaults.read_deadline_ms)
            .max(50),
        cache_cap: flag_or_exit(&args, "--cache-cap").unwrap_or(defaults.cache_cap).max(1),
        retry: defaults.retry,
        journal_dir: flag_or_exit(&args, "--journal-dir"),
        resume: has_flag(&args, "--resume"),
        compact_bytes: flag_or_exit(&args, "--compact-bytes")
            .unwrap_or(env.compact_bytes.unwrap_or(defaults.compact_bytes)),
        restart: defaults.restart,
    };
    install_signal_handlers();
    if let Err(e) = serve(cfg) {
        eprintln!("ccdpd: fatal: {e}");
        std::process::exit(1);
    }
}
