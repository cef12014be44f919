//! Job API: the JSON request/response contract and the job runner.
//!
//! A job is "run this IR program through verify → plan → simulate at this
//! PE count for these schemes". Specs are content-fingerprinted (program
//! text, PE count, scheme set — everything that determines the result;
//! the deadline only determines whether the job *finishes*, so it stays
//! out of the key). The runner executes under the simulator's own budgets
//! plus a per-job wall deadline, with panic containment and
//! exponential-backoff retries for the flaky failure classes of
//! `ccdp_core`'s [`CellFailure`] taxonomy, the one the benchmark grid uses
//! — deterministic failures are never retried, they are answered (and
//! cached) as structured errors.

use std::time::{Duration, Instant};

pub use ccdp_core::RetryPolicy;
use ccdp_core::{
    classify_pipeline, compare, isolate, CellFailure, Fingerprint, Fingerprinter, PipelineConfig,
    Scheme,
};
use ccdp_ir::parse_program;
use ccdp_json::{Json, ToJson};
use t3d_sim::SimOptions;

pub const DEFAULT_N_PES: usize = 4;
pub const MAX_N_PES: usize = 64;
/// Per-job simulator budgets: generous for real kernels, final for runaway
/// submissions. A hostile program terminates with `budget_exceeded`, not by
/// pinning a worker.
pub const CYCLE_BUDGET: u64 = 2_000_000_000;
pub const STEP_BUDGET: u64 = 200_000_000;

/// One validated job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    pub program_text: String,
    pub n_pes: usize,
    pub schemes: Vec<Scheme>,
    pub deadline_ms: u64,
}

impl JobSpec {
    /// Parse and validate the POST body. Errors are client-facing
    /// messages (the `bad_request` envelope).
    pub fn from_json(doc: &Json, default_deadline_ms: u64) -> Result<JobSpec, String> {
        let program_text = doc
            .get("program")
            .and_then(Json::as_str)
            .ok_or("missing string field \"program\" (textual IR)")?
            .to_string();
        let n_pes = match doc.get("n_pes") {
            None => DEFAULT_N_PES,
            Some(v) => match v.as_u64() {
                Some(n) if (2..=MAX_N_PES as u64).contains(&n) => n as usize,
                _ => return Err(format!("\"n_pes\" must be an integer in 2..={MAX_N_PES}")),
            },
        };
        let schemes = match doc.get("schemes") {
            None => vec![Scheme::Base, Scheme::Ccdp],
            Some(v) => {
                let mut out = Vec::new();
                for item in v.items() {
                    let key = item.as_str().ok_or("\"schemes\" must be an array of strings")?;
                    let s = Scheme::parse(key)
                        .ok_or_else(|| format!("unknown scheme {key:?}"))?;
                    if !out.contains(&s) {
                        out.push(s);
                    }
                }
                if out.is_empty() {
                    return Err("\"schemes\" must name at least one scheme".to_string());
                }
                out
            }
        };
        let deadline_ms = match doc.get("deadline_ms") {
            None => default_deadline_ms,
            Some(v) => match v.as_u64() {
                Some(ms) if ms > 0 => ms,
                _ => return Err("\"deadline_ms\" must be a positive integer".to_string()),
            },
        };
        Ok(JobSpec { program_text, n_pes, schemes, deadline_ms })
    }

    /// The journal form; `from_json` of this round-trips exactly.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("program", self.program_text.to_json()),
            ("n_pes", self.n_pes.to_json()),
            ("schemes", Json::arr(self.schemes.iter().map(|s| s.key().to_json()))),
            ("deadline_ms", self.deadline_ms.to_json()),
        ])
    }

    /// Content fingerprint: everything that determines the response bytes.
    /// Scheme order matters (the response lists schemes in request order).
    pub fn fingerprint(&self) -> Fingerprint {
        let mut fp = Fingerprinter::new();
        fp.write_str(&self.program_text);
        fp.write_u64(self.n_pes as u64);
        for s in &self.schemes {
            fp.write_str(s.key());
        }
        fp.finish()
    }
}

/// The runner's verdict plus the response document.
pub struct JobResult {
    /// Response body (the JSON envelope).
    pub body: Json,
    /// HTTP status for the body.
    pub status: (u16, &'static str),
    /// Deterministic outcome — safe to cache and journal. Flaky outcomes
    /// (timeout, panic) are answered but recomputed on the next ask.
    pub cacheable: bool,
    /// Flaky retries actually performed (observability only; never in the
    /// body, which must stay deterministic).
    pub retries: u32,
}

/// `(status, reason)` for a structured failure code.
fn failure_status(code: &str) -> (u16, &'static str) {
    match code {
        "invalid_program" | "invalid" => (400, "Bad Request"),
        // Deterministic semantic failures: the job is well-formed but its
        // result is a (structured, cacheable) rejection.
        "failed" | "budget_exceeded" => (422, "Unprocessable Entity"),
        "timeout" => (504, "Gateway Timeout"),
        _ => (500, "Internal Server Error"), // panicked
    }
}

/// Build the error envelope shared by every structured failure.
pub fn error_body(code: &str, message: &str, extra: Vec<(&'static str, Json)>) -> Json {
    let mut fields = vec![
        ("status".to_string(), "error".to_json()),
        ("code".to_string(), code.to_json()),
        ("message".to_string(), message.to_json()),
    ];
    fields.extend(extra.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Obj(fields)
}

/// Run one job to a deterministic-or-final verdict.
pub fn run_job(spec: &JobSpec, retry: &RetryPolicy) -> JobResult {
    let fp = spec.fingerprint().to_hex();
    // Parse failures are deterministic and cheap: classify before entering
    // the retry loop or touching the simulator.
    let program = match parse_program(&spec.program_text) {
        Ok(p) => p,
        Err(e) => {
            return JobResult {
                body: error_body(
                    "invalid_program",
                    &e.to_string(),
                    vec![("fingerprint", fp.to_json())],
                ),
                status: failure_status("invalid_program"),
                cacheable: true,
                retries: 0,
            };
        }
    };

    let (verdict, retries) = isolate(retry, classify_pipeline, || {
        let deadline = Instant::now() + Duration::from_millis(spec.deadline_ms);
        let cfg = PipelineConfig::t3d(spec.n_pes).with_verify(true).with_sim(SimOptions {
            cycle_budget: Some(CYCLE_BUDGET),
            step_budget: Some(STEP_BUDGET),
            wall_deadline: Some(deadline),
            ..SimOptions::default()
        });
        compare(&program, &cfg, &spec.schemes)
    });
    let failure = match verdict {
        Ok(matrix) => {
            return JobResult {
                body: ok_body(&fp, spec, &matrix),
                status: (200, "OK"),
                cacheable: true,
                retries,
            };
        }
        Err(f) => f,
    };
    let code = match failure {
        CellFailure::TimedOut { .. } => "timeout",
        _ => failure.class(),
    };
    JobResult {
        body: error_body(code, &failure.to_string(), vec![("fingerprint", fp.to_json())]),
        status: failure_status(code),
        cacheable: !failure.retryable(),
        retries,
    }
}

fn ok_body(fp: &str, spec: &JobSpec, m: &ccdp_core::SchemeMatrix) -> Json {
    let schemes = Json::Obj(
        spec.schemes
            .iter()
            .map(|&s| {
                let mut fields = vec![("cycles".to_string(), m.cycles(s).unwrap().to_json())];
                if let Some(sp) = m.speedup(s) {
                    fields.push(("speedup".to_string(), sp.to_json()));
                }
                if let Some(imp) = m.improvement_over_base(s) {
                    fields.push(("improvement_over_base_pct".to_string(), imp.to_json()));
                }
                (s.key().to_string(), Json::Obj(fields))
            })
            .collect(),
    );
    let mut fields = vec![
        ("status".to_string(), "ok".to_json()),
        ("fingerprint".to_string(), fp.to_json()),
        ("n_pes".to_string(), m.n_pes.to_json()),
        ("seq_cycles".to_string(), m.seq.cycles.to_json()),
        ("schemes".to_string(), schemes),
        ("stale_reads".to_string(), m.stale_reads.to_json()),
        ("shared_reads".to_string(), m.shared_reads.to_json()),
    ];
    if let Some(p) = m.improvement_pct() {
        fields.push(("improvement_pct".to_string(), p.to_json()));
    }
    Json::Obj(fields)
}

/// A small parameterized kernel in the textual IR, shared by the load
/// generator and the integration tests. `size` controls both array extent
/// and fingerprint (distinct sizes are distinct jobs); `reps` scales work.
pub fn sample_program(size: usize, reps: usize) -> String {
    let name = format!("load{size}x{reps}");
    let m = size - 1;
    let m1 = size - 2;
    format!(
        "program {name}\n\
         \x20 shared A({size},{size})\n\
         \x20 shared B({size},{size})\n\
         \x20 epoch init (serial):\n\
         \x20   do j0 = 0, {m}\n\
         \x20     do i0 = 0, {m}\n\
         \x20       A(i0,j0) = $i0*0.5 + $j0\n\
         \x20       B(i0,j0) = 1\n\
         \x20 repeat {reps} times:\n\
         \x20   epoch sweep (parallel):\n\
         \x20     doall(static) i = 1, {m1}\n\
         \x20       do j = 1, {m1}\n\
         \x20         A(i,j) = A(i,j-1)*0.25 + B(i,j)\n\
         \x20   epoch update (parallel):\n\
         \x20     doall(static) j = 1, {m1}\n\
         \x20       do i = 1, {m1}\n\
         \x20         B(i,j) = A(i,j)*0.5\n"
    )
}

#[cfg(test)]
mod unit {
    use super::*;

    fn spec(text: &str) -> JobSpec {
        JobSpec {
            program_text: text.to_string(),
            n_pes: 4,
            schemes: vec![Scheme::Base, Scheme::Ccdp],
            deadline_ms: 10_000,
        }
    }

    #[test]
    fn sample_program_runs_ok() {
        let r = run_job(&spec(&sample_program(12, 2)), &RetryPolicy::default());
        assert_eq!(r.status.0, 200, "{}", r.body.to_pretty());
        assert!(r.cacheable);
        assert_eq!(r.body.get("status").and_then(Json::as_str), Some("ok"));
        let ccdp = r.body.get("schemes").unwrap().get("ccdp").unwrap();
        assert!(ccdp.get("cycles").and_then(Json::as_u64).unwrap() > 0);
        assert!(r.body.get("improvement_pct").is_some());
    }

    #[test]
    fn responses_are_byte_deterministic() {
        let s = spec(&sample_program(10, 2));
        let a = run_job(&s, &RetryPolicy::default()).body.to_string();
        let b = run_job(&s, &RetryPolicy::default()).body.to_string();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_program_is_cacheable_structured_error() {
        let r = run_job(&spec("program broken\n  this is not IR\n"), &RetryPolicy::default());
        assert_eq!(r.status.0, 400);
        assert!(r.cacheable);
        assert_eq!(r.body.get("code").and_then(Json::as_str), Some("invalid_program"));
        assert!(r.body.get("fingerprint").is_some());
    }

    #[test]
    fn timeout_is_flaky_and_not_cacheable() {
        // A 1 ms deadline on a non-trivial program: the cooperative
        // watchdog fires. Retries happen (flaky class) but the final
        // verdict must be an uncacheable structured timeout.
        let mut s = spec(&sample_program(40, 60));
        s.deadline_ms = 1;
        let policy = RetryPolicy { max_attempts: 2, base_backoff: Duration::from_millis(1) };
        let r = run_job(&s, &policy);
        assert_eq!(r.body.get("code").and_then(Json::as_str), Some("timeout"));
        // The message carries the retry marker the benchmark grid uses.
        let message = r.body.get("message").and_then(Json::as_str).unwrap();
        assert!(message.starts_with("timed out (twice) on PE "), "{message}");
        assert_eq!(r.status.0, 504);
        assert!(!r.cacheable);
        assert_eq!(r.retries, 1);
    }

    #[test]
    fn spec_json_roundtrip_preserves_fingerprint() {
        let s = spec(&sample_program(8, 1));
        let back = JobSpec::from_json(&s.to_json(), 999).unwrap();
        assert_eq!(s, back);
        assert_eq!(s.fingerprint(), back.fingerprint());
    }

    #[test]
    fn fingerprint_covers_result_inputs_only() {
        let a = spec(&sample_program(8, 1));
        let mut b = a.clone();
        b.deadline_ms = 1234; // does not change the result → same key
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        c.n_pes = 8;
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = a.clone();
        d.schemes = vec![Scheme::Ccdp, Scheme::Base];
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn from_json_validates() {
        let parse = |t: &str| JobSpec::from_json(&ccdp_json::parse(t).unwrap(), 5000);
        assert!(parse(r#"{"program": "p"}"#).is_ok());
        assert!(parse(r#"{}"#).is_err());
        assert!(parse(r#"{"program": "p", "n_pes": 1}"#).is_err());
        assert!(parse(r#"{"program": "p", "n_pes": 9999}"#).is_err());
        assert!(parse(r#"{"program": "p", "schemes": ["warp"]}"#).is_err());
        assert!(parse(r#"{"program": "p", "schemes": []}"#).is_err());
        assert!(parse(r#"{"program": "p", "deadline_ms": 0}"#).is_err());
        let s = parse(r#"{"program": "p", "schemes": ["mesi", "dragon"]}"#).unwrap();
        assert_eq!(s.schemes, vec![Scheme::Mesi, Scheme::Dragon]);
        assert_eq!(s.deadline_ms, 5000);
    }
}
